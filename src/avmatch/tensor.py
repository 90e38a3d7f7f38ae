"""Dense tensors with tape-based reverse-mode differentiation.

Values live in row-major numpy arrays (float32 or float64). Differentiable
operations record a node on the thread-local active tape (define-by-run);
``backward`` replays the tape in reverse and accumulates into ``Tensor.grad``.
Tapes are cheap throwaway objects, one per optimizer step, and each tape is
confined to the thread that created it.
"""

from __future__ import annotations

import threading

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

    # Elementwise arithmetic. Tensor operands must match shapes exactly;
    # plain numbers act as scalars (no general broadcasting).
    def __add__(self, other):
        return _elementwise_binary(self, other, "add")

    __radd__ = __add__

    def __sub__(self, other):
        return _elementwise_binary(self, other, "sub")

    def __rsub__(self, other):
        # scalar - tensor
        return _elementwise_binary(self, other, "rsub")

    def __mul__(self, other):
        return _elementwise_binary(self, other, "mul")

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        return matmul(self, other)

    def maximum(self, floor: float) -> "Tensor":
        """Elementwise max with a scalar. Gradient flows only where x > floor."""
        out_data = np.maximum(self.data, self.dtype.type(floor))
        out = Tensor(out_data, requires_grad=self.requires_grad)
        tape = active_tape()
        if tape is not None and self.requires_grad:
            mask = self.data > floor

            def bw(g):
                return (g * mask,)

            tape.record(out, (self,), bw)
        else:
            out.requires_grad = False
        return out

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        out = Tensor(out_data, requires_grad=self.requires_grad)
        tape = active_tape()
        if tape is not None and self.requires_grad:

            def bw(g):
                return (g * (0.5 / out_data),)

            tape.record(out, (self,), bw)
        else:
            out.requires_grad = False
        return out

    def sum(self, axis: int | None = None) -> "Tensor":
        """Sum over all elements (axis=None) or over the last axis (axis=-1)."""
        if axis is None:
            out_data = self.data.sum()
        elif axis == -1:
            out_data = self.data.sum(axis=-1)
        else:
            raise ShapeError("only full reduction or axis=-1 is supported")
        out = Tensor(out_data, requires_grad=self.requires_grad)
        tape = active_tape()
        if tape is not None and self.requires_grad:
            shape = self.data.shape

            if axis is None:

                def bw(g):
                    return (np.broadcast_to(g, shape).copy(),)

            else:

                def bw(g):
                    return (np.broadcast_to(g[..., None], shape).copy(),)

            tape.record(out, (self,), bw)
        else:
            out.requires_grad = False
        return out

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

    def reshape(self, shape) -> "Tensor":
        out_data = self.data.reshape(shape)
        out = Tensor(out_data, requires_grad=self.requires_grad)
        tape = active_tape()
        if tape is not None and self.requires_grad:
            orig = self.data.shape

            def bw(g):
                return (g.reshape(orig),)

            tape.record(out, (self,), bw)
        else:
            out.requires_grad = False
        return out


class _Node:
    """One recorded op: output tensor, input tensors, and a backward rule."""

    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output, inputs, backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of op nodes; inputs of every node precede it."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def record(self, output: Tensor, inputs, backward_fn):
        self.nodes.append(_Node(output, tuple(inputs), backward_fn))

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self, "tape stack corrupted (tapes are thread-confined)"
        return False

    def __len__(self):
        return len(self.nodes)


_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


def create(shape, fill=0.0, seed: int | None = None, dtype=np.float64,
           requires_grad: bool = False) -> Tensor:
    """Build a tensor of the given shape.

    ``fill`` is either a scalar or a random spec tuple:
    ``("uniform", lo, hi)`` or ``("normal", mean, std)``. Random content is
    deterministic for a given (spec, seed).
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ShapeError(f"all extents must be >= 1, got {shape}")
    if isinstance(fill, tuple):
        kind = fill[0]
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            data = rng.uniform(fill[1], fill[2], size=shape)
        elif kind == "normal":
            data = rng.normal(fill[1], fill[2], size=shape)
        else:
            raise ContractError(f"unknown random spec {kind!r}")
        data = data.astype(dtype)
    else:
        data = np.full(shape, fill, dtype=dtype)
    return Tensor(data, requires_grad=requires_grad)


def _elementwise_binary(a: Tensor, b, op: str) -> Tensor:
    b_is_tensor = isinstance(b, Tensor)
    if b_is_tensor:
        if a.data.shape != b.data.shape:
            raise ShapeError(f"elementwise shape mismatch: {a.data.shape} vs {b.data.shape}")
        bv = b.data
    else:
        bv = a.dtype.type(b)

    if op == "add":
        out_data = a.data + bv
    elif op == "sub":
        out_data = a.data - bv
    elif op == "rsub":
        out_data = bv - a.data
    elif op == "mul":
        out_data = a.data * bv
    else:  # pragma: no cover
        raise ContractError(f"unknown elementwise op {op!r}")

    req = a.requires_grad or (b_is_tensor and b.requires_grad)
    out = Tensor(out_data, requires_grad=req)
    tape = active_tape()
    if tape is None or not req:
        out.requires_grad = False
        return out

    if b_is_tensor:
        a_data, b_data = a.data, b.data

        if op == "add":

            def bw(g):
                return (g, g)

        elif op == "sub":

            def bw(g):
                return (g, -g)

        elif op == "rsub":

            def bw(g):
                return (-g, g)

        else:  # mul

            def bw(g):
                return (g * b_data, g * a_data)

        tape.record(out, (a, b), bw)
    else:
        if op in ("add", "sub"):

            def bw(g):
                return (g,)

        elif op == "rsub":

            def bw(g):
                return (-g,)

        else:  # mul by scalar

            def bw(g):
                return (g * bv,)

        tape.record(out, (a,), bw)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [M,K] and b [K,N]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects rank-2 tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"inner extents differ: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data
    req = a.requires_grad or b.requires_grad
    out = Tensor(out_data, requires_grad=req)
    tape = active_tape()
    if tape is None or not req:
        out.requires_grad = False
        return out
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        ga = g @ b_data.T if need_a else None
        gb = a_data.T @ g if need_b else None
        return (ga, gb)

    tape.record(out, (a, b), bw)
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` for every requires_grad tensor reachable from ``loss``.

    Gradients accumulate (existing ``grad`` values are added to); call
    ``zero_grads`` between steps.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    seed = np.ones_like(loss.data)
    loss.grad = seed if loss.grad is None else loss.grad + seed
    for node in reversed(tape.nodes):
        g = node.output.grad
        if g is None:
            continue
        grads = node.backward_fn(g)
        for inp, gi in zip(node.inputs, grads):
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
