"""Class-conditional synthetic image generator.

Substitute for torchvision's MNIST/FMNIST/EMNIST/CIFAR-10, which are not
downloadable in this offline environment.  Each class ``c`` gets a smooth
random-field prototype image; a sample is the prototype with a random spatial
shift, a random per-sample gain, and additive Gaussian pixel noise:

``x = gain * shift(P_c) + sigma * noise``

Why this preserves the paper's phenomena: every heterogeneity mechanism in
the paper (Dirichlet / orthogonal partitioning, Fig. 4) acts on *labels*, not
pixels.  Client drift, update inconsistency and the benefit of the triplet
regularizer arise because different clients optimise different class
mixtures; a class-separable synthetic task reproduces exactly that while
remaining learnable by the same MLP/CNN/AlexNet architectures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.specs import DatasetSpec, get_spec
from repro.utils.rng import RngStream

__all__ = ["SyntheticImageData", "generate_dataset", "make_prototypes"]


@dataclass
class SyntheticImageData:
    """Train/test arrays for one synthetic dataset.

    ``x`` arrays have shape ``(n, c, h, w)`` float32 (standardized to roughly
    zero mean / unit variance); ``y`` arrays are int64 class labels.
    """

    spec: DatasetSpec
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    prototypes: np.ndarray  # (classes, c, h, w)

    def __post_init__(self) -> None:
        if self.x_train.shape[0] != self.y_train.shape[0]:
            raise ValueError("train x/y length mismatch")
        if self.x_test.shape[0] != self.y_test.shape[0]:
            raise ValueError("test x/y length mismatch")

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return self.spec.input_shape

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes


def wrap_gaussian_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Periodic Gaussian blur of float64 ``x`` over its last two axes.

    Bit for bit what ``scipy.ndimage.gaussian_filter(x, sigma=(0, ..., 0,
    sigma, sigma), mode="wrap")`` returns, so the datasets stay the ones
    SciPy used to build: one 1-D pass per axis, the second-last axis first,
    each with SciPy's truncated kernel (radius ``int(4 sigma + 0.5)``,
    normalised by its float64 sum) applied in the order of SciPy's
    symmetric-kernel loop, centre tap first, then ``(left + right) * w``
    per tap pair from the farthest pair inwards.  ``np.roll`` wraps any
    offset, so a radius longer than the axis wraps around more than once,
    as SciPy's wrap mode does.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * taps**2)
    weights = phi / phi.sum()
    for axis in (-2, -1):
        out = x * weights[radius]
        for k in range(radius, 0, -1):
            out += (np.roll(x, k, axis) + np.roll(x, -k, axis)) * weights[radius - k]
        x = out
    return x


def make_prototypes(spec: DatasetSpec, rng: np.random.Generator) -> np.ndarray:
    """Smooth random-field prototype per class, shape ``(classes, c, h, w)``.

    Smoothing scale ~h/6 yields blob-like structure (so convolutions have
    local features to exploit); prototypes are normalised to unit RMS so the
    noise_sigma knob has consistent meaning across specs.
    """
    shape = (spec.num_classes, spec.channels, spec.height, spec.width)
    raw = rng.standard_normal(shape)
    sigma = max(spec.height / 6.0, 1.0)
    smooth = wrap_gaussian_blur(raw, sigma)
    rms = np.sqrt(np.mean(smooth**2, axis=(1, 2, 3), keepdims=True))
    return (smooth / np.maximum(rms, 1e-9)).astype(np.float32)


def _sample_class(
    proto: np.ndarray,
    count: int,
    spec: DatasetSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``count`` jittered noisy variants of one prototype, vectorized."""
    c, h, w = proto.shape
    out = np.empty((count, c, h, w), dtype=np.float32)
    if spec.shift_max > 0:
        shifts = rng.integers(-spec.shift_max, spec.shift_max + 1, size=(count, 2))
    else:
        shifts = np.zeros((count, 2), dtype=np.int64)
    # Group identical shifts so each np.roll covers many samples at once.
    keys = (shifts[:, 0] + spec.shift_max) * (2 * spec.shift_max + 1) + (
        shifts[:, 1] + spec.shift_max
    )
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    for group in np.split(order, boundaries):
        dy, dx = shifts[group[0]]
        out[group] = np.roll(proto, (int(dy), int(dx)), axis=(1, 2))
    gains = (1.0 + 0.15 * rng.standard_normal(count)).astype(np.float32)
    out *= gains[:, None, None, None]
    out += spec.noise_sigma * rng.standard_normal(out.shape).astype(np.float32)
    return out


def _balanced_labels(n: int, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffled labels with per-class counts as equal as possible."""
    base = np.repeat(np.arange(num_classes), n // num_classes)
    extra = rng.choice(num_classes, size=n - base.size, replace=False) if n % num_classes else np.empty(0, dtype=np.int64)
    labels = np.concatenate([base, extra.astype(base.dtype)])
    rng.shuffle(labels)
    return labels.astype(np.int64)


def generate_dataset(
    spec_or_name,
    seed: int = 0,
    train_size: Optional[int] = None,
    test_size: Optional[int] = None,
) -> SyntheticImageData:
    """Generate the full synthetic dataset for a spec (or registered name).

    Sizes may be overridden (benches shrink the paper-scale specs).  Data are
    standardized using train statistics, mimicking torchvision normalization.
    """
    spec = spec_or_name if isinstance(spec_or_name, DatasetSpec) else get_spec(spec_or_name)
    n_train = int(train_size) if train_size is not None else spec.train_size
    n_test = int(test_size) if test_size is not None else spec.test_size
    if n_train <= 0 or n_test <= 0:
        raise ValueError("dataset sizes must be positive")
    root = RngStream(seed).child("dataset", spec.name)
    protos = make_prototypes(spec, root.child("prototypes").generator)

    def _make_split(n: int, which: str) -> Tuple[np.ndarray, np.ndarray]:
        rng = root.child(which).generator
        y = _balanced_labels(n, spec.num_classes, rng)
        x = np.empty((n, *spec.input_shape), dtype=np.float32)
        for cls in range(spec.num_classes):
            idx = np.flatnonzero(y == cls)
            if idx.size:
                x[idx] = _sample_class(protos[cls], idx.size, spec, rng)
        return x, y

    x_train, y_train = _make_split(n_train, "train")
    x_test, y_test = _make_split(n_test, "test")
    mean = x_train.mean()
    std = max(float(x_train.std()), 1e-6)
    x_train = (x_train - mean) / std
    x_test = (x_test - mean) / std
    return SyntheticImageData(spec, x_train, y_train, x_test, y_test, protos)
