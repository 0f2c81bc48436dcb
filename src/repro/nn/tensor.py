"""Reverse-mode autograd over float32 ndarrays (DESIGN.md §3).

The PyTorch substitute's core: a :class:`Tensor` wraps one
``np.float32`` ndarray and records, per operation, a backward closure
plus its parent tensors.  ``backward()`` topologically sorts the tape
and accumulates gradients into every ``requires_grad`` leaf.

Each layer of the Fig. 7 trunk records one node through
:func:`track_layer`, with the hand-written backward of its packed
kernel (:mod:`repro.nn.functional`).  Everything else — the losses,
the MTL heads, dropout, and the test suite's op-level reference of every
layer — is built from ops: broadcasted arithmetic, matmul, reductions,
shape moves, indexed gather and the stable nonlinearities, each with an
analytic gradient that the finite-difference checks in
``repro.nn.gradcheck`` pin to < 1e-3 relative error.

Everything stays float32 end to end (DESIGN.md §7, enforced by
lint rule SC103); gradients are plain ndarrays, not tensors, so the
tape never grows through optimizer steps.

The backward pass does only the work somebody reads:

* An operand built with ``requires_grad=False`` (the feature block,
  loss constants, scalars) gets no gradient computed and ends with
  ``.grad is None``.
* A gradient array a closure has just allocated becomes the operand's
  ``.grad`` as is; only a view of another tensor's gradient (the
  pass-through of ``+``, ``reshape``, ``transpose``, ``sum``) is copied,
  so no two ``.grad`` arrays ever share memory.

Subnormal float32 gradients are flushed to (signed) zero where the
attention backward creates them: the :meth:`Tensor.exp` backward
(probabilities of keys a saturated row scores ~88-104 below its max are
subnormal), and the operand gradients of batched
activation-by-activation matmuls (attention's ``q @ kᵀ`` and
``attn @ v``); the attention layer's backward flushes at the same
points.  On x86 every arithmetic op that meets a subnormal takes a
microcode assist, ~100x the cost of the op; left alone, the ~1% of
subnormal entries those products emit slow each downstream
projection-layer GEMM by 2-6x.  Hardware FTZ/DAZ would remove the cost,
but numpy has no switch for them, so the flush is done in numpy,
unconditionally.  Next to any term of ordinary magnitude a subnormal is
below the last bit, so the flush changes no recorded training digest
(smoke-train, ``BENCH_training.json``, the perfbench train runs); it is
not bit-neutral for every conceivable input.

Inference never runs the backward pass, so it should not pay for the
tape: inside :func:`no_grad` every op and layer skips parent tracking
and backward-closure recording, so intermediates are freed as the
forward pass proceeds.  Tensors produced under
``no_grad`` are permanently tape-free — calling ``backward()`` on one
raises instead of silently doing nothing.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

TensorLike = Union["Tensor", np.ndarray, float, int, list, tuple]

#: Module-level autograd switch; flipped only by :class:`no_grad`.
_grad_enabled = True


def is_grad_enabled() -> bool:
    """Whether ops currently record the autograd tape."""
    return _grad_enabled


class no_grad:
    """Context manager that disables tape construction for ops inside it.

    While active, every ``Tensor`` op returns a result with no parents
    and no backward closure (and ``requires_grad=False``), so the full
    graph of intermediates is garbage-collected as the forward pass
    proceeds — the memory/speed mode for pure scoring.  Nesting is
    fine; the previous state is restored on exit even under exceptions.
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def _f32(value: object) -> np.ndarray:
    return np.asarray(value, dtype=np.float32)


#: Smallest normal float32; nonzero magnitudes below it are subnormal.
_F32_TINY = np.finfo(np.float32).tiny


def _flush_subnormals(a: np.ndarray) -> np.ndarray:
    """Zero every subnormal entry of ``a`` in place, keeping its sign.

    Multiplying by the 0/1 keep-mask is the cheapest sign-preserving
    form measured (NaN and inf pass through unchanged).
    """
    np.multiply(a, np.abs(a) >= _F32_TINY, out=a)
    return a


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if squeezed:
        grad = grad.sum(axis=squeezed, keepdims=True)
    return grad


def as_tensor(value: TensorLike) -> "Tensor":
    """Wrap ``value`` as a constant (non-grad) tensor if it isn't one."""
    return value if isinstance(value, Tensor) else Tensor(value)


class Tensor:
    """A float32 ndarray with a reverse-mode autograd tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_no_grad")

    def __init__(self, data: TensorLike, requires_grad: bool = False):
        self.data = _f32(data.data if isinstance(data, Tensor) else data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        #: True only for op outputs created while grad was disabled —
        #: their tape was never built, so backward() must refuse.
        self._no_grad = False

    # -- introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        # reshape(()) keeps this exact on any size-1 array of any ndim;
        # float() on an ndim > 0 array is deprecated on modern numpy.
        return self.data.reshape(()).item()

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_tag})"

    # -- tape ------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned`` marks an array the calling closure has just allocated
        and nobody else references: it becomes ``self.grad`` without a
        copy, provided it is already the C-ordered float32 ndarray a copy
        would give (matmul bits depend on operand layout, and
        ``zeros_like`` of a transposed tensor is not C-ordered; on numpy
        1.x a 0-d float32 times a Python float is float64, and unary
        ``-`` of a 0-d array is a numpy scalar).  Anything else — above
        all a view of another tensor's ``.grad`` — is copied.
        """
        if self.grad is None:
            if (owned and isinstance(grad, np.ndarray) and grad.dtype == np.float32
                    and grad.flags.c_contiguous):
                self.grad = grad
            else:
                self.grad = _f32(grad).copy()
        else:
            self.grad += grad

    def _accumulate_unbroadcast(self, g: np.ndarray) -> None:
        """Accumulate an incoming gradient ``g`` summed down to this
        tensor's shape; ``g`` itself (no reduction) is never adopted."""
        grad = _unbroadcast(g, self.data.shape)
        self._accumulate(grad, owned=grad is not g)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor to every reachable leaf."""
        if self._no_grad:
            raise RuntimeError(
                "this tensor was produced under no_grad(): its autograd tape "
                "was never recorded, so backward() cannot run. Re-run the "
                "forward pass outside no_grad() to train."
            )
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without a gradient needs a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    def _track(self, data: np.ndarray, parents: Sequence["Tensor"],
               backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        if not _grad_enabled:
            out._no_grad = True
        elif any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        elif any(p._no_grad for p in parents):
            # Derived from a no_grad() product with no taped lineage:
            # the tape is broken upstream, so backward() must still
            # refuse with the clear error rather than silently no-op.
            out._no_grad = True
        return out

    # -- broadcasted arithmetic ------------------------------------------

    def __add__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_unbroadcast(g)
            if other.requires_grad:
                other._accumulate_unbroadcast(g)

        return self._track(self.data + other.data, (self, other), backward)

    def __radd__(self, other: TensorLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_unbroadcast(g)
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.data.shape), owned=True)

        return self._track(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape), owned=True)

        return self._track(self.data * other.data, (self, other), backward)

    def __rmul__(self, other: TensorLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape), owned=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data),
                                 other.data.shape),
                    owned=True,
                )

        return self._track(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g, owned=True)

        return self._track(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        out_data = self.data ** np.float32(exponent)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** np.float32(exponent - 1.0),
                             owned=True)

        return self._track(out_data, (self,), backward)

    def __matmul__(self, other: TensorLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul needs operands with ndim >= 2")
        # Activation-by-activation products (attention's q @ kᵀ and
        # attn @ v) are where subnormal gradients arise; see module doc.
        flush = self.ndim >= 3 and other.ndim >= 3

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                grad = _unbroadcast(g @ other.data.swapaxes(-1, -2), self.data.shape)
                self._accumulate(_flush_subnormals(grad) if flush else grad, owned=True)
            if other.requires_grad:
                grad = _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.data.shape)
                other._accumulate(_flush_subnormals(grad) if flush else grad, owned=True)

        return self._track(self.data @ other.data, (self, other), backward)

    # -- reductions ------------------------------------------------------

    def _expand_reduced(self, g: np.ndarray, axis, keepdims: bool) -> np.ndarray:
        if axis is None:
            return np.broadcast_to(g, self.data.shape)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        if not keepdims:
            for a in sorted(a % self.data.ndim for a in axes):
                g = np.expand_dims(g, a)
        return np.broadcast_to(g, self.data.shape)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(self._expand_reduced(g, axis, keepdims))

        return self._track(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else (
            np.prod([self.data.shape[a] for a in
                     ((axis,) if isinstance(axis, int) else tuple(axis))])
        )
        inv = np.float32(1.0 / float(count))

        def backward(g: np.ndarray) -> None:
            self._accumulate(self._expand_reduced(g, axis, keepdims) * inv, owned=True)

        return self._track(
            self.data.mean(axis=axis, keepdims=keepdims, dtype=np.float32), (self,), backward
        )

    # -- shape moves -----------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(self.data.shape))

        return self._track(self.data.reshape(shape), (self,), backward)

    def transpose(self, axes: tuple[int, ...]) -> "Tensor":
        inverse = tuple(int(i) for i in np.argsort(axes))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inverse))

        return self._track(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, g)
            self._accumulate(grad, owned=True)

        return self._track(self.data[index], (self,), backward)

    # -- nonlinearities --------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(_flush_subnormals(g * out_data), owned=True)

        return self._track(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data, owned=True)

        return self._track(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - out_data * out_data), owned=True)

        return self._track(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        positive = self.data > 0

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * positive, owned=True)

        return self._track(np.where(positive, self.data, np.float32(0.0)), (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = _sigmoid(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data * (1.0 - out_data), owned=True)

        return self._track(out_data, (self,), backward)

    def softplus(self) -> "Tensor":
        # Stable log(1 + exp(x)): max(x, 0) + log1p(exp(-|x|)).
        out_data = np.maximum(self.data, 0.0) + np.log1p(np.exp(-np.abs(self.data)))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * _sigmoid(self.data), owned=True)

        return self._track(_f32(out_data), (self,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic on float32 arrays."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def track_layer(data: np.ndarray, parents: Sequence[Tensor],
                grads: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """One tape node for a whole layer.

    ``data`` is the layer's forward output; ``grads(g)`` maps the
    output's gradient to one gradient per parent, in parent order, each
    a fresh C-contiguous float32 array, or None for a parent that needs
    none.  The node adds them into the parents' ``.grad``.
    """

    def backward(g: np.ndarray) -> None:
        for parent, grad in zip(parents, grads(g)):
            if grad is not None:
                parent._accumulate(grad, owned=True)

    return parents[0]._track(data, parents, backward)


__all__ = ["Tensor", "TensorLike", "as_tensor", "is_grad_enabled", "no_grad", "track_layer"]
