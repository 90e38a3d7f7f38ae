"""Layer vocabulary for the two stream networks.

All spatial ops use valid (no padding) windows, so every output extent is
floor((in - k) / stride) + 1. Layers accept a single sample [T,H,W,C] or a
batch [N,T,H,W,C]; single samples run as a batch of one and are squeezed on
the way out. Forward behaviour depends on ``mode``:

  train   batch statistics, running-stat updates, dropout active
  frozen  batch statistics, no state updates, no dropout (selection pass)
  infer   running statistics, no dropout
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor, op_result

MODES = ("train", "frozen", "infer")
BN_MOMENTUM = 0.1   # weight of the current batch in the running statistics
BN_EPSILON = 1e-6   # added to the variance before its square root


def he_init(shape, fan_in: int, seed=None, dtype=np.float64) -> Tensor:
    """Variance-scaling initialization: zero-mean normal with variance 2/fan_in."""
    if fan_in < 1:
        raise ContractError("fan_in must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    std = np.sqrt(2.0 / fan_in)
    data = rng.normal(0.0, std, size=tuple(shape)).astype(dtype)
    return Tensor(data, requires_grad=True)


def _as_batch(x: Tensor):
    if x.data.ndim == 4:
        return x.reshape((1,) + x.data.shape), True
    if x.data.ndim == 5:
        return x, False
    raise ShapeError(f"expected rank-4 [T,H,W,C] or rank-5 [N,T,H,W,C] input, got {x.data.shape}")


def _valid_extents(layer, spatial):
    """Output extents (T', H', W') of ``layer``'s valid windows over ``spatial``."""
    if any(k > n for k, n in zip(layer.kernel, spatial)):
        raise ShapeError(f"{layer.name}: kernel {layer.kernel} exceeds input {spatial}")
    return tuple((n - k) // s + 1 for n, k, s in zip(spatial, layer.kernel, layer.stride))


def _window_view(data: np.ndarray, kernel, stride):
    """[N,T,H,W,C] -> strided view [N,T',H',W',kT,kH,kW,C] of valid windows."""
    v = np.lib.stride_tricks.sliding_window_view(data, kernel, axis=(1, 2, 3))
    v = v[:, :: stride[0], :: stride[1], :: stride[2]]
    # sliding_window_view leaves C at axis 4; move it after the kernel axes
    return np.moveaxis(v, 4, 7)


def _window_slices(kernel, stride, out_extents):
    """Yield (kernel offset, index) in flat C order over the kernel offsets.

    The index selects, from an [N,T,H,W,C] input, the element that each
    output window reads at that offset.
    """
    for offset in np.ndindex(*kernel):
        yield offset, (slice(None),) + tuple(
            slice(i, i + s * n, s) for i, s, n in zip(offset, stride, out_extents))


class Layer:
    """Base for stack members; a layer without state keeps these empty lists."""

    def parameters(self):
        return []

    def buffers(self):
        return []


class Conv3D(Layer):
    """Valid 3D cross-correlation; kernels [out_ch, kT, kH, kW, in_ch]."""

    def __init__(self, in_ch, out_ch, kernel, stride=(1, 1, 1), seed=None,
                 dtype=np.float64, name="conv"):
        self.name = name
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)
        self.in_ch = in_ch
        self.out_ch = out_ch
        fan_in = in_ch * int(np.prod(self.kernel))
        self.kernels = he_init((out_ch,) + self.kernel + (in_ch,), fan_in, seed, dtype)
        self.bias = Tensor(np.zeros(out_ch, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor, mode="infer", rng=None) -> Tensor:
        xb, squeeze = _as_batch(x)
        n, t, h, w, c = xb.data.shape
        if c != self.in_ch:
            raise ShapeError(f"{self.name}: expected {self.in_ch} input channels, got {c}")
        extents = _valid_extents(self, (t, h, w))

        x_data = xb.data
        rows = n * int(np.prod(extents))
        cols = _window_view(x_data, self.kernel, self.stride).reshape(rows, -1)
        wmat = self.kernels.data.reshape(self.out_ch, -1).T
        out_data = cols @ wmat
        out_data += self.bias.data
        out_data = out_data.reshape((n,) + extents + (self.out_ch,))
        need_x = xb.requires_grad

        def bw(g):
            gmat = np.ascontiguousarray(g.reshape(-1, self.out_ch))
            gk = (cols.T @ gmat).T.reshape(self.kernels.data.shape)
            gb = gmat.sum(axis=0)
            gx = None
            if need_x:
                dcols = (gmat @ wmat.T).reshape((n,) + extents + self.kernel + (c,))
                gx = np.zeros(x_data.shape, dtype=g.dtype)  # calloc; pages filled lazily
                for offset, index in _window_slices(self.kernel, self.stride, extents):
                    gx[index] += dcols[(slice(None),) * 4 + offset]
            return (gx, gk, gb)

        out = op_result(out_data, (xb, self.kernels, self.bias), bw)
        return out.reshape(out.data.shape[1:]) if squeeze else out

    def parameters(self):
        return [(f"{self.name}.kernels", self.kernels), (f"{self.name}.bias", self.bias)]


class MaxPool3D(Layer):
    """Per-window maximum over valid windows; first-index tie-break in backward."""

    def __init__(self, kernel, stride, name="pool"):
        self.name = name
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)

    def forward(self, x: Tensor, mode="infer", rng=None) -> Tensor:
        xb, squeeze = _as_batch(x)
        extents = _valid_extents(self, xb.data.shape[1:4])

        x_data = xb.data
        # one elementwise maximum per kernel offset; a reduction over the
        # strided window view walks memory far less efficiently
        slices = [index for _, index in _window_slices(self.kernel, self.stride, extents)]
        out_data = x_data[slices[0]].copy()
        for index in slices[1:]:
            np.maximum(out_data, x_data[index], out=out_data)

        def bw(g):
            # route each window's gradient to its first maximum, sweeping the
            # window offsets in flat order so ties break on the lowest index
            gx = np.zeros(x_data.shape, dtype=g.dtype)
            remaining = np.ones(out_data.shape, dtype=bool)
            for index in slices:
                hit = (x_data[index] == out_data) & remaining
                gx[index] += g * hit
                remaining &= ~hit
            return (gx,)

        out = op_result(out_data, (xb,), bw)
        return out.reshape(out.data.shape[1:]) if squeeze else out


class PReLU(Layer):
    """y = x for x >= 0 else a*x, with one learned slope per channel."""

    def __init__(self, channels, init=0.25, dtype=np.float64, name="prelu"):
        self.name = name
        self.channels = channels
        self.slope = Tensor(np.full(channels, init, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor, mode="infer", rng=None) -> Tensor:
        x_data = x.data
        if x_data.shape[-1] != self.channels:
            raise ShapeError(f"{self.name}: expected {self.channels} channels, got {x_data.shape[-1]}")
        a = self.slope.data  # broadcasts over leading axes
        neg = x_data < 0
        scale = np.where(neg, a, a.dtype.type(1))   # dy/dx: the slope, or 1
        out_data = x_data * scale
        need_x = x.requires_grad

        def bw(g):
            gx = g * scale if need_x else None
            ga = (g * x_data * neg).reshape(-1, self.channels).sum(axis=0)
            return (gx, ga)

        return op_result(out_data, (x, self.slope), bw)

    def parameters(self):
        return [(f"{self.name}.slope", self.slope)]


class Flatten(Layer):
    """Collapse everything after the batch axis (or the whole sample)."""

    def __init__(self, name="flatten"):
        self.name = name

    def forward(self, x: Tensor, mode="infer", rng=None) -> Tensor:
        if x.data.ndim == 5:
            return x.reshape((x.data.shape[0], -1))
        return x.reshape((-1,))


class Dense(Layer):
    """Affine map on flattened features: y = x W + b."""

    def __init__(self, in_features, out_features, seed=None, dtype=np.float64, name="fc"):
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        self.weights = he_init((in_features, out_features), in_features, seed, dtype)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor, mode="infer", rng=None) -> Tensor:
        single = x.data.ndim == 1
        xb = x.reshape((1, -1)) if single else x
        if xb.data.ndim != 2 or xb.data.shape[1] != self.in_features:
            raise ShapeError(f"{self.name}: expected [*, {self.in_features}], got {x.data.shape}")
        x_data, w_data = xb.data, self.weights.data
        need_x = xb.requires_grad

        def bw(g):
            gx = g @ w_data.T if need_x else None
            gw = x_data.T @ g
            gb = g.sum(axis=0)
            return (gx, gw, gb)

        out = op_result(x_data @ w_data + self.bias.data, (xb, self.weights, self.bias), bw)
        return out.reshape((-1,)) if single else out

    def parameters(self):
        return [(f"{self.name}.weights", self.weights), (f"{self.name}.bias", self.bias)]


class BatchNorm(Layer):
    """Per-channel batch normalization with running statistics for inference."""

    def __init__(self, channels, dtype=np.float64, name="bn"):
        self.name = name
        self.channels = channels
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x: Tensor, mode="infer", rng=None) -> Tensor:
        x_data = x.data
        if x_data.shape[-1] != self.channels:
            raise ShapeError(f"{self.name}: expected {self.channels} channels, got {x_data.shape[-1]}")
        if mode in ("train", "frozen"):
            if x_data.ndim < 2 or x_data.shape[0] < 2:
                raise ContractError(f"{self.name}: batch statistics need a batch of >= 2")
            axes = tuple(range(x_data.ndim - 1))
            mean = x_data.mean(axis=axes)
            x_hat = x_data - mean
            var = np.square(x_hat).mean(axis=axes)   # the bits of x_data.var(axis=axes)
            if mode == "train":
                self.running_mean += BN_MOMENTUM * (mean - self.running_mean)
                self.running_var += BN_MOMENTUM * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
            x_hat = x_data - mean

        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        x_hat *= inv_std
        gamma_data = self.gamma.data
        out_data = x_hat * gamma_data
        out_data += self.beta.data
        use_batch_stats = mode in ("train", "frozen")
        m = x_data.size // self.channels
        need_x = x.requires_grad
        ch_axes = tuple(range(x_data.ndim - 1))

        def bw(g):
            # g has the output's dtype, the widest here, so these in-place
            # steps round exactly as their out-of-place forms would
            tmp = g * x_hat
            gg = tmp.sum(axis=ch_axes)
            gb = g.sum(axis=ch_axes)
            gx = None
            if need_x:
                gx = g * gamma_data
                if use_batch_stats:
                    # standard batch-stat backward (mean and var both depend on x):
                    # inv_std * (g * gamma - (t1 + x_hat * t2) / m)
                    t1 = gx.sum(axis=ch_axes)
                    t2 = np.multiply(gx, x_hat, out=tmp).sum(axis=ch_axes)
                    np.multiply(x_hat, t2, out=tmp)
                    tmp += t1
                    tmp /= m
                    gx -= tmp
                gx *= inv_std
            return (gx, gg, gb)

        return op_result(out_data, (x, self.gamma, self.beta), bw)

    def parameters(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]

    def buffers(self):
        return [(f"{self.name}.running_mean", self.running_mean),
                (f"{self.name}.running_var", self.running_var)]


class Dropout(Layer):
    """Drops each unit with probability rho in train mode, scaling survivors."""

    def __init__(self, rho, name="dropout"):
        if not 0.0 <= rho < 1.0:
            raise ConfigError(f"dropout probability must be in [0, 1), got {rho}")
        self.name = name
        self.rho = rho

    def forward(self, x: Tensor, mode="infer", rng=None) -> Tensor:
        if mode != "train" or self.rho == 0.0:
            return x
        if rng is None:
            raise ContractError(f"{self.name}: train mode needs an rng")
        keep = 1.0 - self.rho
        mask = (rng.random(x.data.shape) >= self.rho).astype(x.data.dtype) / keep

        def bw(g):
            return (g * mask,)

        return op_result(x.data * mask, (x,), bw)


class LayerStack:
    """Named sequence of layers applied in order."""

    def __init__(self, name, layers):
        self.name = name
        self.layers = list(layers)

    def forward(self, x: Tensor, mode="infer", rng=None) -> Tensor:
        if mode not in MODES:
            raise ContractError(f"unknown mode {mode!r}")
        for layer in self.layers:
            x = layer.forward(x, mode=mode, rng=rng)
        return x

    def trace(self, x: Tensor):
        """Run in infer mode, returning [(layer name, output shape)] per layer."""
        shapes = []
        for layer in self.layers:
            x = layer.forward(x, mode="infer")
            shapes.append((layer.name, tuple(int(s) for s in x.data.shape)))
        return shapes, x

    def parameters(self):
        out = []
        for layer in self.layers:
            for pname, p in layer.parameters():
                out.append((f"{self.name}.{pname}", p))
        return out

    def buffers(self):
        out = []
        for layer in self.layers:
            for bname, b in layer.buffers():
                out.append((f"{self.name}.{bname}", b))
        return out
