"""Base class for all layers and models.

The design is a deliberately small subset of ``torch.nn.Module``:

* ``forward(x)`` computes the output and caches whatever the backward pass
  needs on ``self`` (activations, masks, im2col buffers).
* ``backward(dout)`` consumes the cache, **accumulates** parameter gradients
  into ``Parameter.grad`` and returns the gradient w.r.t. the layer input;
  ``backward_params(dout)`` does the same but may skip that input gradient.
* ``parameters()`` walks the attribute tree to collect every
  :class:`~repro.nn.parameter.Parameter` in a deterministic order — that order
  defines the layout of the flat parameter vector used throughout
  :mod:`repro.fl`.

There is no autograd tape; every layer implements its analytic backward.  For
the fixed architectures in this paper (MLP / CNN / AlexNet-lite) this is both
faster and easier to verify with numerical gradient checks than a general
tape would be.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["Module"]


class Module:
    """Base layer with parameter traversal, train/eval mode and weight I/O."""

    def __init__(self) -> None:
        self.training: bool = True

    # -- forward / backward --------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, dout: np.ndarray) -> None:
        """:meth:`backward` for a caller that needs only the parameter
        gradients, not the one w.r.t. the input.  Layers that can skip
        computing the input gradient override this."""
        self.backward(dout)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- tree traversal -------------------------------------------------------
    def children(self) -> Iterator[Tuple[str, "Module"]]:
        """Immediate child modules, in attribute-insertion order."""
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def modules(self) -> Iterator[Tuple[str, "Module"]]:
        """All modules in the subtree, depth-first, prefixed paths."""
        cached = self.__dict__.get("_flat_modules")
        if cached is not None:
            return iter(cached)
        return self._walk_modules()

    def _walk_modules(self) -> Iterator[Tuple[str, "Module"]]:
        yield "", self
        for cname, child in self.children():
            for sub, mod in child.modules():
                yield (f"{cname}.{sub}" if sub else cname), mod

    def _cache_traversal(self) -> None:
        """Freeze what traversal computes on this module, once its tree is
        plane-backed and can no longer grow.  The module cache holds
        ``(path, module)`` pairs, never bare modules: :meth:`children`
        collects the Module items of list/tuple attributes, and a tuple
        holding this very module would make the walk recurse forever."""
        self._flat_modules = tuple(self._walk_modules())

    def named_parameters(self) -> Iterator[Tuple[str, Parameter]]:
        """Every parameter in the subtree with its dotted path."""
        for prefix, mod in self.modules():
            for name, value in vars(mod).items():
                if isinstance(value, Parameter):
                    yield (f"{prefix}.{name}" if prefix else name), value

    def parameters(self) -> List[Parameter]:
        cached = getattr(self, "_flat_param_list", None)
        if cached is not None:
            return list(cached)
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        flat_w = self.flat_weights
        if flat_w is not None:
            return int(flat_w.size)
        return sum(p.size for p in self.parameters())

    # -- flat (plane-backed) storage -------------------------------------------
    def materialize_flat(self) -> "Module":
        """Re-home every parameter in the subtree onto one contiguous weight
        plane and one matching gradient plane (see
        :func:`repro.fl.params.materialize_parameters`).

        After this call ``Parameter.data``/``Parameter.grad`` are zero-copy
        views into two ``(P,)`` buffers exposed as :attr:`flat_weights` /
        :attr:`flat_grads`, and the hot per-batch operations (``zero_grad``,
        optimizer steps, gradient clipping, the strategies' attach ops)
        collapse to single vector expressions.  Traversal order, shapes and
        the current bytes are preserved exactly; parameter and module
        traversal are cached from here on, so the module tree must not grow
        new modules or parameters afterwards.  Idempotent; a no-op on a
        module without parameters; raises ``ValueError`` on a mixed-dtype
        tree.
        """
        if getattr(self, "_flat_planes", None) is None:
            # Lazy import: nn is a lower layer than fl, and only plane-backed
            # training needs the dependency.
            from repro.fl.params import materialize_parameters

            params = self.parameters()
            if not params:
                return self
            self._flat_planes = materialize_parameters(params)
            self._flat_param_list = tuple(params)
            self._flat_shapes = tuple(p.data.shape for p in params)
            for _, mod in tuple(self.modules()):
                mod._cache_traversal()
        return self

    @property
    def flat_weights(self) -> Optional[np.ndarray]:
        """Live ``(P,)`` view of every weight (None until materialized)."""
        planes = getattr(self, "_flat_planes", None)
        return planes[0].flat if planes is not None else None

    @property
    def flat_grads(self) -> Optional[np.ndarray]:
        """Live ``(P,)`` view of every gradient (None until materialized)."""
        planes = getattr(self, "_flat_planes", None)
        return planes[1].flat if planes is not None else None

    def flat_state(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The ``(flat_weights, flat_grads)`` pair, or None when not
        plane-backed — the handshake fused optimizers key their fast path on."""
        planes = getattr(self, "_flat_planes", None)
        if planes is None:
            return None
        return planes[0].flat, planes[1].flat

    # -- gradients ------------------------------------------------------------
    def zero_grad(self) -> None:
        grads = self.flat_grads
        if grads is not None:
            grads[...] = 0.0
            return
        for p in self.parameters():
            p.zero_grad()

    def gradients(self) -> List[np.ndarray]:
        """References (not copies) to every gradient buffer, in order."""
        return [p.grad for p in self.parameters()]

    # -- train / eval ----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for _, mod in self.modules():
            mod.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- weight I/O -------------------------------------------------------------
    def get_weights(self) -> List[np.ndarray]:
        """Detached copies of every parameter array, in traversal order."""
        return [p.clone_data() for p in self.parameters()]

    def get_weights_flat(self) -> Tuple[np.ndarray, List[Tuple[int, ...]]]:
        """One detached flat copy of every parameter plus the per-layer
        shapes — the upload format of the flat-parameter hot path (see
        :mod:`repro.fl.params`).  Same bytes as :meth:`get_weights`; on a
        plane-backed model this is a single memcpy of the weight plane (no
        concatenate, no per-layer ravel), otherwise one allocation total."""
        flat_w = self.flat_weights
        if flat_w is not None:
            return flat_w.copy(), list(self._flat_shapes)
        params = self.parameters()
        if not params:
            return np.zeros(0, dtype=np.float32), []
        flat = np.concatenate([p.data.ravel() for p in params])
        return flat, [p.data.shape for p in params]

    def weight_refs(self) -> List[np.ndarray]:
        """Live references to the parameter arrays (no copies)."""
        return [p.data for p in self.parameters()]

    def set_weights(self, weights: List[np.ndarray]) -> None:
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(f"expected {len(params)} arrays, got {len(weights)}")
        for p, w in zip(params, weights):
            p.copy_(np.asarray(w))

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.clone_data() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state dict mismatch; missing={sorted(missing)}, extra={sorted(extra)}")
        for name, p in own.items():
            p.copy_(np.asarray(state[name]))

    # -- FLOPs accounting --------------------------------------------------------
    def forward_flops(self, input_shape: Tuple[int, ...]) -> int:
        """Multiply-add count (counted as 2 FLOPs each) of one forward pass
        for a single sample with the given per-sample ``input_shape``.

        Layers without arithmetic return 0.  Containers sum their children.
        """
        return 0

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape for a per-sample ``input_shape``."""
        return input_shape
