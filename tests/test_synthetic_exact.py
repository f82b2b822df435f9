"""The synthetic datasets' Gaussian blur is SciPy's, bit for bit.

``make_prototypes`` used to smooth each class's random field with
``scipy.ndimage.gaussian_filter(raw, sigma=(0, 0, s, s), mode="wrap")``.  It
now runs :func:`repro.data.synthetic.wrap_gaussian_blur`, so building data
imports no SciPy.  No dataset may change a single bit: the oracle below is
the SciPy call itself (this file is skipped where SciPy is not installed),
and every comparison is on raw bit patterns.  The float64 field is compared
as well as the float32 prototypes, because the final cast hides almost every
last-bit difference of the blur.

Planted mutations of ``wrap_gaussian_blur`` these tests catch: the nearest
tap pair added first instead of the farthest; ``a*w + b*w`` in place of
``(a + b)*w``; the radius without its ``+ 0.5``; and the last axis blurred
before the second-last.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic
from repro.data.specs import DATASET_SPECS, DatasetSpec
from repro.data.synthetic import generate_dataset, make_prototypes, wrap_gaussian_blur
from repro.utils.rng import RngStream

ndimage = pytest.importorskip("scipy.ndimage")

SEEDS = range(24)


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(bits(got), bits(want))


def blur_oracle(x, sigma):
    return ndimage.gaussian_filter(x, sigma=(0, 0, sigma, sigma), mode="wrap")


def prototypes_oracle(spec, rng):
    """``make_prototypes`` as it was, blurring with SciPy."""
    shape = (spec.num_classes, spec.channels, spec.height, spec.width)
    raw = rng.standard_normal(shape)
    smooth = blur_oracle(raw, max(spec.height / 6.0, 1.0))
    rms = np.sqrt(np.mean(smooth**2, axis=(1, 2, 3), keepdims=True))
    return (smooth / np.maximum(rms, 1e-9)).astype(np.float32)


def assert_prototypes_match(spec, seed, rng_for):
    """The blurred float64 field and the float32 prototypes ``rng_for(seed)``
    gives, against SciPy's."""
    sigma = max(spec.height / 6.0, 1.0)
    shape = (spec.num_classes, spec.channels, spec.height, spec.width)
    raw = rng_for(seed).standard_normal(shape)
    assert_same_bits(wrap_gaussian_blur(raw, sigma), blur_oracle(raw, sigma))
    assert_same_bits(make_prototypes(spec, rng_for(seed)),
                     prototypes_oracle(spec, rng_for(seed)))


@pytest.mark.parametrize("name", sorted(DATASET_SPECS))
def test_prototypes_match_scipy_on_every_spec(name):
    spec = DATASET_SPECS[name]

    def generate_dataset_rng(seed):
        return RngStream(seed).child("dataset", spec.name).child("prototypes").generator

    for seed in SEEDS:
        assert_prototypes_match(spec, seed, generate_dataset_rng)


@pytest.mark.parametrize("name", sorted(DATASET_SPECS))
def test_generated_datasets_match_scipy_on_every_spec(name, monkeypatch):
    spec = DATASET_SPECS[name]
    sizes = dict(train_size=2 * spec.num_classes + 3, test_size=spec.num_classes + 1)
    got = [generate_dataset(spec, seed, **sizes) for seed in SEEDS]
    monkeypatch.setattr(synthetic, "make_prototypes", prototypes_oracle)
    for seed, data in zip(SEEDS, got):
        want = generate_dataset(spec, seed, **sizes)
        for field in ("x_train", "y_train", "x_test", "y_test", "prototypes"):
            assert_same_bits(getattr(data, field), getattr(want, field))


@settings(max_examples=150, deadline=None)
@given(
    classes=st.integers(1, 4),
    channels=st.integers(1, 3),
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_prototypes_match_scipy_on_any_geometry(classes, channels, height, width, seed):
    """Extents below 5 blur with sigma 1 and radius 4, past the axis, so the
    wrap goes around more than once."""
    spec = DatasetSpec("geometry", classes, channels, height, width, 1, 1, 1)
    assert_prototypes_match(spec, seed, np.random.default_rng)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 2),
                    st.integers(1, 40), st.integers(1, 40)),
    sigma=st.floats(1.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_blur_matches_scipy_at_any_sigma(shape, sigma, seed):
    """Any sigma >= 1, not only ``make_prototypes``' h / 6: the radius
    rounding and the kernel's normalisation, as well as the tap order."""
    x = np.random.default_rng(seed).standard_normal(shape)
    assert_same_bits(wrap_gaussian_blur(x, sigma), blur_oracle(x, sigma))
