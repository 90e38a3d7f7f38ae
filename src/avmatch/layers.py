"""Layer vocabulary for the two stream networks.

All spatial ops use valid (no padding) windows, so every output extent is
floor((in - k) / stride) + 1. Layers accept a single sample [T,H,W,C] or a
batch [N,T,H,W,C]; single samples run as a batch of one and are squeezed on
the way out. Forward behaviour depends on ``mode``:

  train   batch statistics, running-stat updates, dropout active
  frozen  batch statistics, no state updates, no dropout
  infer   running statistics, no dropout

A backward rule returns a gradient for each input of its node, and
tensor.backward drops those whose input needs none. On a tape, every layer
the model runs gets an input that needs a gradient, except a stream's first
Conv3D, so only Conv3D leaves out its input gradient when none is needed.

Batch statistics need a batch, so a stack refuses one unbatched sample in
train and frozen mode before any layer runs. Only train mode moves the
running statistics, and no layer keeps anything between calls. Frozen and
train mode give the same values and the same backward rules up to a stack's
first Dropout, its *trunk*; the rest is its *head*.

A LayerStack runs a BatchNorm -> PReLU -> MaxPool3D run pooled first, in
every mode, while every channel has gamma > 0 and a slope >= 0: the batch
norm, given the pool and the PReLU, takes its statistics from the whole
input but normalises and activates only the input's window maxima, as one
tape node. Per channel, f = PReLU(gamma * (x - mean) / std + beta) is then
non-decreasing, so a window's maximum of f is f of the window's maximum of
x; rounding is monotone too, so this holds bit for bit. A run with any other
channel goes through its three layers as written. Tie rule: where two
elements of a window tie only after f (a zero slope sends every negative
input to 0), the gradient goes to the larger input, and among equal inputs
to the first in window order. LayerStack.trace runs the layers one by one,
as written.

The pooled node keeps only the window maxima and its output. Its backward
recomputes the rest one sample at a time with the forward's own ops, and
takes its sums as running row sums, so its gradients keep the bits of a
batch norm node given the pool followed by a PReLU node (see BatchNorm).

Where such a run follows a Conv3D whose input needs no gradient (each
stream's conv1), the stack gives the conv to the batch norm too, and the one
node stands for the whole block. The conv output, a training step's largest
array, is never whole: the forward builds it a conv chunk at a time, pools
each chunk and lets it go, and builds each chunk again for the variance;
the backward rebuilds each chunk's columns and conv output with the
forward's GEMM, so with its bits, writes the batch norm's input gradient
over that chunk and adds the chunk's conv gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor, op_result

MODES = ("train", "frozen", "infer")
COLS_BYTES = 4 << 20   # most im2col bytes a Conv3D builds at once (see Conv3D)
GK_ROWS = 32           # Conv3D pads each chunk of its kernel-gradient GEMM to this
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


def _batched(x: Tensor):
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


def _pool(data, slices):
    """Per-window maximum of [N,T,H,W,C] data.

    One elementwise maximum per kernel offset, one sample at a time so that
    the sample stays in cache; a reduction over the strided window view walks
    memory far less efficiently.
    """
    out = data[slices[0]].copy()
    for n in range(len(data)):
        one, sample = out[n:n + 1], data[n:n + 1]
        for index in slices[1:]:
            np.maximum(one, sample[index], out=one)
    return out


def _row_sum(total, buf, k):
    """total plus the sum of the k rows buf[1:1 + k] of a [rows, C] buffer,
    the sum so far entering as the leading row buf[0] (the rows alone when
    total is None). numpy reduces the leading axis in row order when C > 1,
    so a running row sum over chunks has the bits of one sum over all rows.
    (One channel is summed pairwise, and its bits differ in the last places.)"""
    if total is None:
        return buf[1:1 + k].sum(axis=0)
    buf[0] = total
    return buf[:1 + k].sum(axis=0)


def _first_hits(data, pooled, slices):
    """Per window, the flat kernel offset of its first element equal to its
    pooled value, counted as the offsets before that element; len(slices)
    where none is (a window holding a NaN)."""
    first = np.zeros(pooled.shape, dtype=np.uint8)
    found = np.zeros(pooled.shape, dtype=bool)
    hit = np.empty(pooled.shape, dtype=bool)
    for index in slices:
        found |= np.equal(data[index], pooled, out=hit)
        first += ~found
    return first


def _scatter(first, g, gx, kernel, stride):
    """Add each window's gradient g into gx, a C-contiguous [N,T,H,W,C]
    array, at the kernel offset ``first`` names; a window past the kernel's
    offsets adds nothing."""
    steps = np.cumprod((1,) + gx.shape[:0:-1])[::-1]   # element strides of gx
    at = np.zeros((), dtype=np.intp)
    for n, s, step in zip(first.shape, (1,) + stride + (1,), steps):
        at = np.add.outer(at, np.arange(n) * (s * step))   # each window's first element
    offsets = [np.dot(offset, steps[1:4]) for offset in np.ndindex(*kernel)]
    at += np.array(offsets + [0])[first]
    g = np.where(first < len(offsets), g, 0)
    np.add.at(gx.reshape(-1), at.reshape(-1), g.reshape(-1))


class Layer:
    """Base for stack members; a layer without state keeps these empty lists."""

    def parameters(self):
        return []

    def buffers(self):
        return []


class Conv3D(Layer):
    """Valid 3D cross-correlation; kernels [out_ch, kT, kH, kW, in_ch].

    The forward builds the im2col columns (one row of kT*kH*kW*in_ch input
    values per output position) a chunk of whole samples at a time, as many
    as fit in COLS_BYTES and at least one, in one buffer reused across the
    chunks, and multiplies each chunk into its rows of the output. Nothing
    of the columns stays on the tape: the backward walks the chunks once, in
    order, building each chunk's columns again and adding its kernel
    gradient, columns.T @ g; where the input needs a gradient, it adds the
    chunk's input gradient into its samples, one GEMM of the chunk's g per
    kernel offset, so no column gradient is built and the chunk's gradient
    stays in cache. Each chunk's columns and g are padded with zero rows to a
    multiple of GK_ROWS; OpenBLAS 0.3.31 (Haswell kernels) gave that GEMM
    the same bits under one and two threads when its inner extent was a
    multiple of 32, and other bits at other extents, so the kernel gradient
    does not depend on the BLAS thread count. Zero rows add exact zeros.

    Why 4 MB: float32 visual conv1 and conv2 then run one sample per chunk
    (4.3 and 10.3 MB of columns) and conv3 two (2.1 MB each), so no buffer
    is much larger than a sample's columns, while visual conv4 and every
    audio conv take 25 samples or more per chunk. The forward then gives the
    bits of the whole-batch product: 4, 16 and 32 MB gave the same bits, and
    one sample per chunk in every conv gave other bits.

    A one-channel conv whose output rows are longer than its kernel rows
    (visual conv1) keeps its columns K-major, as a C-order [kT*kH*kW, rows]
    buffer whose transposed view the GEMMs take: each kernel offset is one
    row, copied from a slab of the input in runs as long as an output row
    (98 floats in visual conv1), where the row-major copy moves kW = 3
    floats at a time. At N=32, float32, one BLAS thread on a 2-vCPU host,
    visual conv1's forward fell from 127 to 61 ms and its kernel gradient
    from 154 to 81 ms (medians of 7 calls), with the same bits in float32
    and float64. Audio conv1, whose output rows are one float long, keeps
    row-major columns: K-major took its forward from 1.0 to 1.2 ms. Convs
    with more channels keep row-major columns too: a K-major build, which
    must move the channel axis in front, took visual conv2's chunk loop from
    125 to 205 ms.

    Each chunk's rows get the bias right after their GEMM, while they are
    in cache; one pass over visual conv1's whole 81 MB output at N=32 took
    21 ms. ``_output`` and ``_param_grads`` hold the chunk loops, which the
    batch norm given this conv shares (see BatchNorm).
    """

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

    def _columns(self, x_data, buf, extents, pad_to=1):
        """The im2col rows of the samples x_data, [rows, kT*kH*kW*in_ch],
        written into the flat buffer buf and followed by zero rows up to a
        multiple of pad_to; a view of K-major storage for one input channel
        and output rows longer than kernel rows (see the class notes)."""
        k = int(np.prod(self.kernel)) * self.in_ch
        m = len(x_data) * int(np.prod(extents))
        stop = -(-m // pad_to) * pad_to
        if self.in_ch == 1 and extents[2] > self.kernel[2]:
            cols = buf[:k * stop].reshape(k, stop)
            for row, (_, index) in zip(cols, _window_slices(self.kernel, self.stride, extents)):
                slab = x_data[index]
                np.copyto(row[:m].reshape(slab.shape), slab)
            cols[:, m:] = 0
            return cols.T
        cols = buf[:stop * k].reshape(stop, k)
        view = _window_view(x_data, self.kernel, self.stride)
        np.copyto(cols[:m].reshape(view.shape), view)
        cols[m:] = 0
        return cols

    def _chunks(self, x_data):
        """(output extents, chunks): the slices of whole samples whose
        columns are built at once, as many as fit in COLS_BYTES, at least one."""
        n, t, h, w, c = x_data.shape
        if c != self.in_ch:
            raise ShapeError(f"{self.name}: expected {self.in_ch} input channels, got {c}")
        extents = _valid_extents(self, (t, h, w))
        per = max(1, COLS_BYTES // (int(np.prod(extents)) * self.kernels.data[0].size
                                    * x_data.itemsize))
        return extents, [slice(lo, min(lo + per, n)) for lo in range(0, n, per)]

    def _rows(self, cols, out):
        """Write the output rows of im2col rows ``cols`` into ``out``."""
        np.matmul(cols, self.kernels.data.reshape(self.out_ch, -1).T, out=out)
        out += self.bias.data

    def _output(self, x_data, extents, chunks):
        """The output of [N,T,H,W,C] x_data, built a chunk at a time."""
        rows = int(np.prod(extents))
        buf = np.empty((chunks[0].stop - chunks[0].start) * rows * self.kernels.data[0].size,
                       dtype=x_data.dtype)
        out = np.empty((len(x_data) * rows, self.out_ch),
                       dtype=np.result_type(x_data, self.kernels.data))
        for chunk in chunks:
            self._rows(self._columns(x_data[chunk], buf, extents),
                       out[chunk.start * rows:chunk.stop * rows])
        return out.reshape((len(x_data),) + extents + (self.out_ch,))

    def _param_grads(self, x_data, extents, chunks, fill):
        """(kernel gradient, bias gradient), a chunk at a time in chunk order.

        ``fill(chunk, cols, g)`` writes the chunk's output gradient rows into
        g, given its im2col rows cols. The kernel gradient adds cols.T @ g,
        padded to GK_ROWS. The bias gradient is a running sum over rows, the
        sum so far entering each chunk's as a leading row (``_row_sum``)."""
        rows = int(np.prod(extents))
        padded = -(-(chunks[0].stop - chunks[0].start) * rows // GK_ROWS) * GK_ROWS
        cols_buf = np.empty(padded * self.kernels.data[0].size, dtype=x_data.dtype)
        g_buf = np.empty((1 + padded, self.out_ch), dtype=np.result_type(x_data, self.kernels.data))
        gk = gb = None
        for chunk in chunks:
            cols = self._columns(x_data[chunk], cols_buf, extents, GK_ROWS)
            m = (chunk.stop - chunk.start) * rows
            g = g_buf[1:1 + len(cols)]
            fill(chunk, cols[:m], g[:m])
            g[m:] = 0
            part = cols.T @ g
            gk = part if gk is None else gk + part
            gb = _row_sum(gb, g_buf, m)
        return gk.T.reshape(self.kernels.data.shape), gb

    def forward(self, x: Tensor, mode="infer", rng=None) -> Tensor:
        xb, squeeze = _batched(x)
        x_data = xb.data
        extents, chunks = self._chunks(x_data)
        out_data = self._output(x_data, extents, chunks)
        kernels = self.kernels.data
        need_x = xb.requires_grad

        def bw(g):
            gmat = np.ascontiguousarray(g.reshape(-1, self.out_ch))
            rows = int(np.prod(extents))
            # calloc; pages filled lazily, a chunk at a time
            gx = np.zeros(x_data.shape, dtype=g.dtype) if need_x else None

            def fill(chunk, cols, g_rows):
                g_rows[:] = gmat[chunk.start * rows:chunk.stop * rows]
                if need_x:
                    gx_part = gx[chunk]
                    shape = (chunk.stop - chunk.start,) + extents + (self.in_ch,)
                    for offset, index in _window_slices(self.kernel, self.stride, extents):
                        gx_part[index] += (g_rows @ kernels[(slice(None),) + offset]).reshape(shape)

            return (gx,) + self._param_grads(x_data, extents, chunks, fill)

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
        xb, squeeze = _batched(x)
        extents = _valid_extents(self, xb.data.shape[1:4])

        x_data = xb.data
        slices = [index for _, index in _window_slices(self.kernel, self.stride, extents)]
        out_data = _pool(x_data, slices)

        def bw(g):
            gx = np.zeros(x_data.shape, dtype=g.dtype)
            _scatter(_first_hits(x_data, out_data, slices), g, gx, self.kernel, self.stride)
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

        def bw(g):
            return (g * scale, (g * x_data * neg).reshape(-1, self.channels).sum(axis=0))

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

        def bw(g):
            return (g @ w_data.T, x_data.T @ g, g.sum(axis=0))

        out = op_result(x_data @ w_data + self.bias.data, (xb, self.weights, self.bias), bw)
        return out.reshape((-1,)) if single else out

    def parameters(self):
        return [(f"{self.name}.weights", self.weights), (f"{self.name}.bias", self.bias)]


class BatchNorm(Layer):
    """Per-channel batch normalization with running statistics for inference.

    Batch statistics are running row sums (``_row_sum``) over chunks of the
    tensor to normalise, a plain input's one sample at a time, each chunk
    copied into a buffer behind the sum so far. So neither the mean nor the
    variance builds a temporary of the input's size, and both keep the bits
    of numpy's whole-batch mean and var.

    With ``pool``, the MaxPool3D that ends a BatchNorm -> PReLU -> MaxPool3D
    run, ``forward`` takes the statistics from all of x but normalises only
    sel, the window maxima of x (see the module notes); with ``prelu`` too,
    the run's PReLU, the same node activates them. A pooled node keeps only
    sel and its output. Its backward recomputes, one sample at a time, the
    normalised maxima, the PReLU's input, its signs and its scales from sel
    with the forward's own ops, so with their bits, and takes the gamma,
    beta and slope gradients and the batch norm's two sums over the pooled
    positions as running row sums over samples.

    With ``conv`` as well, the Conv3D before the run, x is the conv's input
    and must need no gradient: the batch norm normalises the conv's output,
    which is never whole. The forward builds it a conv chunk at a time,
    pools each chunk into sel and adds its rows to the mean; with batch
    statistics it builds each chunk again for the squared deviations. The
    node takes x, the conv's kernels and bias, gamma, beta and the slope.
    Its backward rebuilds one chunk of the conv output at a time, overwrites
    it with the batch norm's input gradient and adds the chunk's kernel and
    bias gradients (Conv3D._param_grads). Every rebuilt chunk has the bits
    of the conv node's output, and the kernel and bias gradients those of
    its backward: the same padded chunks, and a bias running sum.
    """

    def __init__(self, channels, dtype=np.float64, name="bn"):
        self.name = name
        self.channels = channels
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def _moments(self, mode, walk, m, first=None):
        """(mean, 1 / std) under ``mode``'s statistics; train mode moves the
        running statistics toward the batch's.

        walk() yields (chunk, buf, k) for each chunk of the tensor to
        normalise, m rows in all, the chunk's k rows [k, C] written into
        buf[1:1 + k]. The mean takes one walk and the variance a second, and
        each divides its sum as numpy's mean does; first(chunk, rows), where
        given, sees each chunk's rows on the first walk, which then runs in
        every mode."""
        batch = mode in ("train", "frozen")
        total = None
        if batch or first is not None:
            for chunk, buf, k in walk():
                if first is not None:
                    first(chunk, buf[1:1 + k])
                if batch:
                    total = _row_sum(total, buf, k)
        if not batch:
            return self.running_mean, 1.0 / np.sqrt(self.running_var + BN_EPSILON)
        mean = np.true_divide(total, np.intp(m), out=total, casting="unsafe")
        total = None
        for _, buf, k in walk():
            rows = buf[1:1 + k]
            np.subtract(rows, mean, out=rows)
            np.square(rows, out=rows)
            total = _row_sum(total, buf, k)
        var = np.true_divide(total, np.intp(m), out=total, casting="unsafe")
        if mode == "train":
            self.running_mean += BN_MOMENTUM * (mean - self.running_mean)
            self.running_var += BN_MOMENTUM * (var - self.running_var)
        return mean, 1.0 / np.sqrt(var + BN_EPSILON)

    def forward(self, x: Tensor, mode="infer", rng=None, pool=None, conv=None,
                prelu=None) -> Tensor:
        if pool is None and (conv is not None or prelu is not None):
            raise ContractError(f"{self.name}: given a conv or a PReLU, it needs a pool")
        xb, squeeze = (x, False) if pool is None else _batched(x)
        x_data = xb.data
        if conv is not None and xb.requires_grad:
            raise ContractError(f"{self.name}: given a conv, it needs an input that needs "
                                "no gradient")
        if conv is None:   # one sample to a chunk
            channels, dtype, spatial = x_data.shape[-1], x_data.dtype, x_data.shape[1:4]
            chunks = [slice(n, n + 1) for n in range(len(x_data))]
        else:
            spatial, chunks = conv._chunks(x_data)
            channels, dtype = conv.out_ch, np.result_type(x_data, conv.kernels.data)
        for layer in (self, prelu or self):
            if channels != layer.channels:
                raise ShapeError(f"{layer.name}: expected {layer.channels} channels, "
                                 f"got {channels}")
        use_batch_stats = mode in ("train", "frozen")
        if use_batch_stats and (x_data.ndim < 2 or len(x_data) < 2):
            raise ContractError(f"{self.name}: batch statistics need a batch of >= 2")
        rows = x_data[:1].size // channels if conv is None else int(np.prod(spatial))
        m = len(x_data) * rows

        def walk():
            per = chunks[0].stop - chunks[0].start
            buf = np.empty((1 + per * rows, channels), dtype=dtype)
            if conv is not None:
                cols = np.empty(per * rows * conv.kernels.data[0].size, dtype=x_data.dtype)
            for chunk in chunks:
                k = (chunk.stop - chunk.start) * rows
                if conv is None:
                    np.copyto(buf[1:1 + k], x_data[chunk].reshape(k, channels))
                else:
                    conv._rows(conv._columns(x_data[chunk], cols, spatial), buf[1:1 + k])
                yield chunk, buf, k

        if pool is None:
            mean, inv_std = self._moments(mode, walk, m)
            return self._plain(xb, mean, inv_std, m, use_batch_stats)

        extents = _valid_extents(pool, spatial)
        slices = [index for _, index in _window_slices(pool.kernel, pool.stride, extents)]
        # x - mean rounds monotonically in x, so centring the window maxima
        # of x gives the maxima of the centred input
        if conv is None:
            sel = _pool(x_data, slices)
        else:
            sel = np.empty((len(x_data),) + extents + (channels,), dtype=dtype)

        def pool_chunk(chunk, chunk_rows):
            shape = (chunk.stop - chunk.start,) + spatial + (channels,)
            sel[chunk] = _pool(chunk_rows.reshape(shape), slices)

        mean, inv_std = self._moments(mode, walk, m, None if conv is None else pool_chunk)
        gamma, beta = self.gamma.data, self.beta.data
        # without a PReLU, a unit slope: y * 1 and g * 1 are y and g
        slope = np.ones_like(gamma) if prelu is None else prelu.slope.data

        def activate(s):
            """(normalised s, the batch norm's output, its signs, the PReLU's
            dy/dx: the slope or 1) for window maxima s."""
            x_hat = s - mean
            x_hat *= inv_std
            y = x_hat * gamma
            y += beta
            neg = y < 0
            return x_hat, y, neg, np.where(neg, slope, slope.dtype.type(1))

        # a sample at a time, so that no temporary is larger than a sample
        out_data = np.empty(sel.shape, dtype=np.result_type(sel, mean, inv_std, gamma, beta,
                                                            slope))
        for n in range(len(sel)):
            _, y, _, scale = activate(sel[n])
            out_data[n] = y * scale

        def bw(g):
            r = sel[0].size // channels
            # [1 + r, C]: the sum so far, then a sample's rows (see _row_sum)
            buf, gy_buf = (np.empty((1 + r, channels), dtype=out_data.dtype) for _ in range(2))
            part, gy = (b[1:].reshape(sel.shape[1:]) for b in (buf, gy_buf))
            gs = np.empty_like(out_data)   # g * scale * gamma * inv_std
            gg = gb = ga = t1 = t2 = None
            for n in range(len(sel)):
                x_hat, y, neg, scale = activate(sel[n])
                np.multiply(g[n], y, out=part)
                part *= neg
                ga = _row_sum(ga, buf, r)
                np.multiply(g[n], scale, out=gy)
                gb = _row_sum(gb, gy_buf, r)
                np.multiply(gy, x_hat, out=part)
                gg = _row_sum(gg, buf, r)
                gy *= gamma
                if use_batch_stats:
                    # mean and var both depend on the input:
                    # inv_std * (gs - (t1 + x_hat * t2) / m)
                    t1 = _row_sum(t1, gy_buf, r)
                    np.multiply(gy, x_hat, out=part)
                    t2 = _row_sum(t2, buf, r)
                np.multiply(gy, inv_std, out=gs[n])
            grads = (gg, gb, ga)   # backward drops ga without a PReLU
            if use_batch_stats:
                # -inv_std * (t1 + x_hat * t2) / m at every input, as
                # a * (y - mean) + b; t1 and t2 sum over the pooled
                # positions, the only ones that carry a gradient
                a, b = inv_std * inv_std * t2 / -m, inv_std * t1 / -m

            def spread(y_part, part, gy):
                """Write into gy the gradient at y_part, the samples ``part``
                of the input; gy may be y_part itself."""
                first = _first_hits(y_part, sel[part], slices)
                if use_batch_stats:
                    np.subtract(y_part, mean, out=gy)
                    gy *= a
                    gy += b
                else:
                    gy.fill(0)
                _scatter(first, gs[part], gy, pool.kernel, pool.stride)

            if conv is None:
                gx = np.empty_like(x_data)
                # one sample at a time, so that the sample stays in cache while
                # its window maxima are found and its gradient is written
                for n in range(len(gx)):
                    one = slice(n, n + 1)
                    spread(x_data[one], one, gx[one])
                return (gx,) + grads

            def fill(chunk, cols, g_rows):
                # the chunk's conv output again, overwritten by its gradient
                conv._rows(cols, g_rows)
                y_part = g_rows.reshape((chunk.stop - chunk.start,) + spatial + (channels,))
                spread(y_part, chunk, y_part)

            return (None,) + conv._param_grads(x_data, spatial, chunks, fill) + grads

        params = (self.gamma, self.beta) + (() if prelu is None else (prelu.slope,))
        if conv is not None:
            params = (conv.kernels, conv.bias) + params
        out = op_result(out_data, (xb,) + params, bw)
        return out.reshape(out.data.shape[1:]) if squeeze else out

    def _plain(self, x, mean, inv_std, m, use_batch_stats):
        """The node that normalises all of x."""
        x_hat = x.data - mean
        x_hat *= inv_std
        gamma = self.gamma.data
        out_data = x_hat * gamma
        out_data += self.beta.data
        axes = tuple(range(x_hat.ndim - 1))

        def bw(g):
            gg = (g * x_hat).sum(axis=axes)
            gb = g.sum(axis=axes)
            gs = g * gamma
            if not use_batch_stats:
                return (gs * inv_std, gg, gb)
            # mean and var both depend on x:
            # inv_std * (g * gamma - (t1 + x_hat * t2) / m)
            t1 = gs.sum(axis=axes)
            t2 = (gs * x_hat).sum(axis=axes)
            return (inv_std * (gs - (t1 + x_hat * t2) / m), gg, gb)

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


def _runs(layers):
    """The layers in order, each BatchNorm -> PReLU -> MaxPool3D run as one
    group, led by the Conv3D before it where there is one, and every other
    layer as a group of one."""
    pooled = [BatchNorm, PReLU, MaxPool3D]
    runs = []
    i = 0
    while i < len(layers):
        kinds = [type(layer) for layer in layers[i:i + 4]]
        size = 4 if kinds == [Conv3D] + pooled else 3 if kinds[:3] == pooled else 1
        runs.append(layers[i:i + size])
        i += size
    return runs


class LayerStack:
    """Named sequence of layers applied in order.

    ``forward`` runs a BatchNorm -> PReLU -> MaxPool3D run as the batch norm
    given the pool and the PReLU, one node, while every channel has gamma > 0
    and a slope >= 0, checked at each call since training moves both; the
    batch norm is given the Conv3D before the run too when the conv's input
    needs no gradient. Any other run, and ``trace``, go through the layers as
    written. All give the same values. The stack's trunk is its layers
    before the first Dropout (all of them when it has none), its head the
    rest; see the module notes.
    """

    def __init__(self, name, layers):
        self.name = name
        self.layers = list(layers)
        trunk = next((i for i, layer in enumerate(self.layers) if isinstance(layer, Dropout)),
                     len(self.layers))
        # a Dropout never sits inside a BatchNorm -> PReLU -> MaxPool3D run,
        # so the trunk's runs and the head's together are the stack's
        self._runs = {None: _runs(self.layers), "trunk": _runs(self.layers[:trunk]),
                      "head": _runs(self.layers[trunk:])}

    def forward(self, x: Tensor, mode="infer", rng=None, part=None) -> Tensor:
        """The stack's output, or with ``part`` "trunk" or "head" that of
        the trunk alone, or of the head given the trunk's output."""
        if mode not in MODES:
            raise ContractError(f"unknown mode {mode!r}")
        if part not in self._runs:
            raise ContractError(f"unknown part {part!r}")
        if mode != "infer" and part != "head" and x.data.ndim == 4:
            raise ContractError(f"{self.name}: batch statistics need a batch of >= 2")
        for run in self._runs[part]:
            if len(run) > 1:
                bn, prelu, pool = run[-3:]
                if (bn.gamma.data > 0).all() and (prelu.slope.data >= 0).all():
                    conv = run[0] if len(run) == 4 else None
                    if conv is not None and x.requires_grad:
                        # the fused node takes no input gradient
                        x, conv = conv.forward(x, mode=mode, rng=rng), None
                    x = bn.forward(x, mode=mode, pool=pool, conv=conv, prelu=prelu)
                    continue
            for layer in run:
                x = layer.forward(x, mode=mode, rng=rng)
        return x

    def trace(self, x: Tensor):
        """Run in infer mode, returning [(layer name, output shape)] per layer."""
        shapes = []
        for layer in self.layers:
            x = layer.forward(x, mode="infer")
            shapes.append((layer.name, tuple(int(s) for s in x.data.shape)))
        return shapes, x

    def _named(self, kind):
        return [(f"{self.name}.{name}", value)
                for layer in self.layers for name, value in getattr(layer, kind)()]

    def parameters(self):
        return self._named("parameters")

    def buffers(self):
        return self._named("buffers")
