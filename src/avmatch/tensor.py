"""Dense tensors with tape-based reverse-mode differentiation.

Values live in row-major numpy arrays (float32 or float64). Differentiable
operations return through ``op_result``, which records a node on the active
tape (define-by-run); ``backward`` replays the tape in reverse and accumulates
into ``Tensor.grad``. Tapes are cheap throwaway objects, one per optimizer
step.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """N-dimensional value with shape metadata and an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # Elementwise arithmetic. Backward rules return (grad self, grad other);
    # a plain-number operand is no input, so backward drops its gradient.
    def __add__(self, other):
        inputs, b = _operand(self, other)
        return op_result(self.data + b, inputs, lambda g: (g, g))

    __radd__ = __add__

    def __sub__(self, other):
        inputs, b = _operand(self, other)
        return op_result(self.data - b, inputs, lambda g: (g, -g))

    def __rsub__(self, other):
        # scalar - tensor
        inputs, b = _operand(self, other)
        return op_result(b - self.data, inputs, lambda g: (-g, g))

    def __mul__(self, other):
        inputs, b = _operand(self, other)
        a = self.data

        def bw(g):
            return (g * b, g * a) if len(inputs) == 2 else (g * b,)

        return op_result(a * b, inputs, bw)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        return matmul(self, other)

    def maximum(self, floor: float) -> "Tensor":
        """Elementwise max with a scalar. Gradient flows only where x > floor."""
        x_data = self.data

        def bw(g):
            return (g * (x_data > floor),)

        return op_result(np.maximum(x_data, self.dtype.type(floor)), (self,), bw)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def bw(g):
            return (g * (0.5 / out_data),)

        return op_result(out_data, (self,), bw)

    def sum(self, axis: int | None = None) -> "Tensor":
        """Sum over all elements (axis=None) or over the last axis (axis=-1)."""
        if axis is None:
            out_data = self.data.sum()
        elif axis == -1:
            out_data = self.data.sum(axis=-1)
        else:
            raise ShapeError("only full reduction or axis=-1 is supported")
        shape = self.data.shape

        def bw(g):
            if axis == -1:
                g = g[..., None]
            return (np.broadcast_to(g, shape).copy(),)

        return op_result(out_data, (self,), bw)

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

    def reshape(self, shape) -> "Tensor":
        orig = self.data.shape

        def bw(g):
            return (g.reshape(orig),)

        return op_result(self.data.reshape(shape), (self,), bw)


class Tape:
    """Ordered record of (output, inputs, backward_fn) nodes; inputs of every
    node precede it."""

    def __init__(self):
        self.nodes: list[tuple] = []

    def record(self, output: Tensor, inputs, backward_fn):
        self.nodes.append((output, tuple(inputs), backward_fn))

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self, "tape stack corrupted (tapes must exit in reverse order)"
        return False

    def __len__(self):
        return len(self.nodes)


_TAPES: list[Tape] = []


def op_result(out_data, inputs, backward_fn) -> Tensor:
    """Wrap an op's output and record the op on the active tape.

    The result requires a gradient only when a tape is active and some input
    requires one; only then is the op recorded. ``backward_fn(g)`` returns the
    inputs' gradients in the order of ``inputs`` (None where none is needed);
    ``backward`` ignores entries past the last input.
    """
    tape = _TAPES[-1] if _TAPES else None
    req = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=req)
    if req:
        tape.record(out, inputs, backward_fn)
    return out


def _operand(a: Tensor, b):
    """(inputs, value) for a second operand: a tensor of a's exact shape, or a
    plain number taken as a scalar of a's dtype (no general broadcasting)."""
    if not isinstance(b, Tensor):
        return (a,), a.dtype.type(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"elementwise shape mismatch: {a.data.shape} vs {b.data.shape}")
    return (a, b), b.data


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [M,K] and b [K,N]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects rank-2 tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"inner extents differ: {a.data.shape} x {b.data.shape}")
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        ga = g @ b_data.T if need_a else None
        gb = a_data.T @ g if need_b else None
        return (ga, gb)

    return op_result(a_data @ b_data, (a, b), bw)


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` for every requires_grad tensor reachable from ``loss``.

    Gradients accumulate (existing ``grad`` values are added to); call
    ``zero_grads`` between steps.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    seed = np.ones_like(loss.data)
    loss.grad = seed if loss.grad is None else loss.grad + seed
    for output, inputs, backward_fn in reversed(tape.nodes):
        g = output.grad
        if g is None:
            continue
        for inp, gi in zip(inputs, backward_fn(g)):
            if gi is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                if gi.dtype != inp.data.dtype:
                    gi = gi.astype(inp.data.dtype)
                elif gi is g or gi.base is not None:
                    # adopt only arrays we own outright; views may alias other grads
                    gi = gi.copy()
                inp.grad = gi
            else:
                inp.grad += gi


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
