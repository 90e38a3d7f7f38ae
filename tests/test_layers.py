import tracemalloc

import numpy as np
import pytest

from avmatch import layers
from avmatch.errors import ConfigError, ContractError, ShapeError
from avmatch.layers import (BN_EPSILON, COLS_BYTES, GK_ROWS, BatchNorm, Conv3D, Dense, Dropout,
                            Flatten, LayerStack, MaxPool3D, PReLU, he_init)
from avmatch.model import VISUAL_INPUT_SHAPE, CoupledModel, ModelConfig
from avmatch.tensor import Tape, Tensor, backward

from gradcheck import check_op_gradients
from minimodel import MINI_AUDIO_SHAPE, MINI_VISUAL_SHAPE, build_mini_model

# (input shape, kernel, stride, expected output) for every conv/pool row of
# the two stream architectures
VISUAL_ROWS = [
    ("conv", (9, 60, 100, 1), 16, (3, 3, 3), (1, 1, 1), (7, 58, 98, 16)),
    ("pool", (7, 58, 98, 16), None, (1, 3, 3), (1, 2, 2), (7, 28, 48, 16)),
    ("conv", (7, 28, 48, 16), 32, (3, 3, 3), (1, 1, 1), (5, 26, 46, 32)),
    ("pool", (5, 26, 46, 32), None, (1, 3, 3), (1, 2, 2), (5, 12, 22, 32)),
    ("conv", (5, 12, 22, 32), 64, (3, 3, 3), (1, 1, 1), (3, 10, 20, 64)),
    ("pool", (3, 10, 20, 64), None, (1, 3, 3), (1, 2, 2), (3, 4, 9, 64)),
    ("conv", (3, 4, 9, 64), 128, (3, 3, 3), (1, 1, 1), (1, 2, 7, 128)),
]
AUDIO_ROWS = [
    ("conv", (15, 40, 3, 1), 16, (3, 5, 3), (1, 1, 1), (13, 36, 1, 16)),
    ("pool", (13, 36, 1, 16), None, (1, 2, 1), (1, 2, 1), (13, 18, 1, 16)),
    ("conv", (13, 18, 1, 16), 32, (3, 4, 1), (1, 1, 1), (11, 15, 1, 32)),
    ("conv", (11, 15, 1, 32), 32, (3, 4, 1), (1, 1, 1), (9, 12, 1, 32)),
    ("pool", (9, 12, 1, 32), None, (1, 2, 1), (1, 2, 1), (9, 6, 1, 32)),
    ("conv", (9, 6, 1, 32), 64, (3, 3, 1), (1, 1, 1), (7, 4, 1, 64)),
    ("conv", (7, 4, 1, 64), 64, (3, 3, 1), (1, 1, 1), (5, 2, 1, 64)),
    ("conv", (5, 2, 1, 64), 128, (3, 2, 1), (1, 1, 1), (3, 1, 1, 128)),
]


def conv3d_oracle(x, kernels, bias, stride):
    """Seven-deep loop reference for valid cross-correlation."""
    t, h, w, c = x.shape
    oc, kt, kh, kw, _ = kernels.shape
    st, sh, sw = stride
    to, ho, wo = (t - kt) // st + 1, (h - kh) // sh + 1, (w - kw) // sw + 1
    out = np.zeros((to, ho, wo, oc))
    for o in range(oc):
        for a in range(to):
            for b in range(ho):
                for d in range(wo):
                    acc = 0.0
                    for i in range(kt):
                        for j in range(kh):
                            for k in range(kw):
                                acc += (x[a * st + i, b * sh + j, d * sw + k, :]
                                        * kernels[o, i, j, k, :]).sum()
                    out[a, b, d, o] = acc + bias[o]
    return out


def maxpool_oracle(x, kernel, stride):
    t, h, w, c = x.shape
    kt, kh, kw = kernel
    st, sh, sw = stride
    to, ho, wo = (t - kt) // st + 1, (h - kh) // sh + 1, (w - kw) // sw + 1
    out = np.zeros((to, ho, wo, c))
    for a in range(to):
        for b in range(ho):
            for d in range(wo):
                window = x[a * st:a * st + kt, b * sh:b * sh + kh, d * sw:d * sw + kw, :]
                out[a, b, d] = window.reshape(-1, c).max(axis=0)
    return out


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


class TestShapeLaw:
    @pytest.mark.parametrize("kind,in_shape,out_ch,kernel,stride,expected",
                             VISUAL_ROWS + AUDIO_ROWS)
    def test_table_rows(self, kind, in_shape, out_ch, kernel, stride, expected):
        x = Tensor(np.zeros(in_shape))
        if kind == "conv":
            layer = Conv3D(in_shape[-1], out_ch, kernel, stride, seed=0)
        else:
            layer = MaxPool3D(kernel, stride)
        assert layer.forward(x).data.shape == expected

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            Conv3D(1, 2, (4, 2, 2), seed=0).forward(Tensor(np.zeros((3, 5, 5, 1))))
        with pytest.raises(ShapeError):
            MaxPool3D((1, 6, 1), (1, 1, 1)).forward(Tensor(np.zeros((3, 5, 5, 1))))


class TestConv3D:
    def test_scalar_kernel_scales_input(self):
        layer = Conv3D(1, 1, (1, 1, 1), seed=0)
        layer.kernels.data[:] = 2.5
        layer.bias.data[:] = 0.0
        x = np.arange(24.0).reshape(2, 3, 4, 1)
        out = layer.forward(Tensor(x))
        np.testing.assert_allclose(out.data, 2.5 * x)

    @pytest.mark.parametrize("seed", range(50))
    def test_against_nested_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(2, 5, size=3)) + (int(rng.integers(1, 3)),)
        kernel = tuple(int(rng.integers(1, s + 1)) for s in shape[:3])
        out_ch = int(rng.integers(1, 4))
        layer = Conv3D(shape[-1], out_ch, kernel, seed=seed)
        x = rng.standard_normal(shape)
        out = layer.forward(Tensor(x))
        expected = conv3d_oracle(x, layer.kernels.data, layer.bias.data, (1, 1, 1))
        assert np.abs(out.data - expected).max() < 1e-10

    def test_strided_against_oracle(self):
        rng = np.random.default_rng(99)
        layer = Conv3D(2, 3, (2, 2, 2), stride=(1, 2, 2), seed=1)
        x = rng.standard_normal((3, 6, 7, 2))
        out = layer.forward(Tensor(x))
        expected = conv3d_oracle(x, layer.kernels.data, layer.bias.data, (1, 2, 2))
        assert np.abs(out.data - expected).max() < 1e-10

    def test_batched_matches_single(self):
        # 4*39*39 rows of 16 float64 columns per sample: a few samples to a
        # column chunk, so the batch spans several chunks, the last one short
        rng = np.random.default_rng(5)
        layer = Conv3D(2, 4, (2, 2, 2), seed=2)
        xs = rng.standard_normal((12, 5, 40, 40, 2))
        per = COLS_BYTES // (4 * 39 * 39 * 16 * 8)
        assert 1 < per < len(xs) and len(xs) % per
        batched = layer.forward(Tensor(xs)).data
        for i in range(len(xs)):
            assert_same_bits(batched[i], layer.forward(Tensor(xs[i])).data)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        rng = np.random.default_rng(100 + seed)
        layer = Conv3D(2, 2, (2, 2, 2), stride=(1, 1, 1), seed=seed)
        x = Tensor(rng.standard_normal((1, 3, 4, 4, 2)), requires_grad=True)

        def build():
            out = layer.forward(x)
            return (out * out).sum()

        check_op_gradients(build, [x, layer.kernels, layer.bias],
                           context=f"conv3d seed {seed}")

    def test_strided_batch_gradients(self):
        rng = np.random.default_rng(7)
        layer = Conv3D(2, 3, (2, 3, 2), stride=(1, 2, 2), seed=7)
        x = Tensor(rng.standard_normal((2, 3, 7, 6, 2)), requires_grad=True)

        def build():
            out = layer.forward(x)
            return (out * out).sum()

        check_op_gradients(build, [x, layer.kernels, layer.bias], context="strided conv3d")

    def test_input_gradient_needs_no_whole_batch_column_buffer(self):
        # the whole batch's column gradient, [rows, kT*kH*kW*in_ch], is the
        # buffer the backward must not build
        rng = np.random.default_rng(3)
        layer = Conv3D(8, 16, (3, 3, 3), seed=3, dtype=np.float32)
        x = Tensor(rng.standard_normal((4, 7, 20, 24, 8)).astype(np.float32),
                   requires_grad=True)
        with Tape() as tape:
            out = layer.forward(x, mode="train")
            loss = out.sum()
            tracemalloc.start()
            try:
                backward(loss, tape)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        column_bytes = out.data.size // 16 * 27 * 8 * 4
        assert x.grad.shape == x.data.shape
        assert peak < column_bytes

    @staticmethod
    def row_major_conv(layer, x, g):
        """(forward, kernel gradient, samples per chunk) of a one-channel conv
        from explicit row-major im2col columns, in the conv's chunks, each
        padded with zero rows to a multiple of GK_ROWS for the kernel gradient."""
        def columns(xs):
            view = np.lib.stride_tricks.sliding_window_view(xs[..., 0], layer.kernel,
                                                            axis=(1, 2, 3))
            view = view[:, ::layer.stride[0], ::layer.stride[1], ::layer.stride[2]]
            return np.ascontiguousarray(view.reshape(-1, int(np.prod(layer.kernel))))

        kmat = layer.kernels.data.reshape(layer.out_ch, -1).T
        rows = len(columns(x[:1]))
        per = max(1, COLS_BYTES // (rows * kmat.shape[0] * x.itemsize))
        gmat = g.reshape(-1, layer.out_ch)
        out, gk = [], None
        for lo in range(0, len(x), per):
            cols = columns(x[lo:lo + per])
            out.append(cols @ kmat)
            pad = -len(cols) % GK_ROWS
            cols = np.concatenate([cols, np.zeros((pad, cols.shape[1]), x.dtype)])
            g_chunk = np.concatenate([gmat[lo * rows:(lo + per) * rows],
                                      np.zeros((pad, layer.out_ch), g.dtype)])
            part = cols.T @ g_chunk
            gk = part if gk is None else gk + part
        out = np.concatenate(out) + layer.bias.data
        return out.reshape(g.shape), gk.T.reshape(layer.kernels.data.shape), per

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spatial,kernel,stride,n", [
        ((5, 40, 40), (3, 3, 3), (1, 1, 1), None),
        ((5, 41, 40), (3, 3, 3), (1, 2, 2), None),
        ((15, 40, 3), (3, 5, 3), (1, 1, 1), 60),       # audio conv1: many samples to a chunk
    ])
    def test_one_channel_columns_match_row_major_im2col(self, dtype, spatial, kernel, stride, n):
        # one-channel convs build their columns K-major; the GEMMs must give
        # the bits of row-major columns
        layer = Conv3D(1, 16, kernel, stride=stride, seed=8, dtype=dtype)
        layer.bias.data[:] = np.linspace(-1, 1, 16, dtype=dtype)
        if n is None:   # two full chunks of a few samples, then one sample
            rows = int(np.prod([(s - k) // st + 1 for s, k, st in zip(spatial, kernel, stride)]))
            n = 2 * (COLS_BYTES // (rows * int(np.prod(kernel)) * np.dtype(dtype).itemsize)) + 1
        rng = np.random.default_rng(8)
        x = rng.standard_normal((n,) + spatial + (1,)).astype(dtype)
        with Tape() as tape:
            out = layer.forward(Tensor(x), mode="train")
            g = rng.standard_normal(out.data.shape).astype(dtype)
            backward((out * Tensor(g)).sum(), tape)
        expected_out, expected_gk, per = self.row_major_conv(layer, x, g)
        assert 2 <= per < n and n % per
        assert_same_bits(out.data, expected_out)
        assert_same_bits(layer.kernels.grad, expected_gk)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_gradient_is_one_sum_over_all_rows(self, dtype):
        # summed chunk by chunk, the running sum entering each chunk as a
        # leading row; several chunks, the last one short
        rng = np.random.default_rng(14)
        layer = Conv3D(1, 16, (3, 5, 3), seed=14, dtype=dtype)
        x = rng.standard_normal((60, 15, 40, 3, 1)).astype(dtype)
        per = COLS_BYTES // (13 * 36 * 45 * np.dtype(dtype).itemsize)
        assert 1 < per < len(x) and len(x) % per
        with Tape() as tape:
            out = layer.forward(Tensor(x), mode="train")
            g = rng.standard_normal(out.data.shape).astype(dtype)
            backward((out * Tensor(g)).sum(), tape)
        assert_same_bits(layer.bias.grad, g.reshape(-1, 16).sum(axis=0))

    @staticmethod
    def whole_batch_input_grad(layer, x, g):
        """The input gradient over the whole batch: one GEMM per kernel offset
        on every row of g, added into gx in offset order."""
        gmat = g.reshape(-1, layer.out_ch)
        gx = np.zeros_like(x)
        for offset in np.ndindex(*layer.kernel):
            index = (slice(None),) + tuple(slice(i, i + s * n, s)
                                           for i, s, n in zip(offset, layer.stride, g.shape[1:4]))
            part = gmat @ layer.kernels.data[(slice(None),) + offset]
            gx[index] += part.reshape(g.shape[:4] + (layer.in_ch,))
        return gx

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_ch,out_ch,stride", [
        (4, 8, (1, 1, 1)),
        (3, 5, (1, 2, 2)),
        (1, 16, (1, 1, 1)),    # K-major columns
    ])
    @pytest.mark.parametrize("per", [1, 3, 7])   # 7 samples: one-sample, short last, one chunk
    def test_input_gradient_does_not_depend_on_chunking(self, monkeypatch, dtype, in_ch,
                                                        out_ch, stride, per):
        rng = np.random.default_rng(15)
        layer = Conv3D(in_ch, out_ch, (3, 3, 3), stride=stride, seed=15, dtype=dtype)
        x = Tensor(rng.standard_normal((7, 5, 12, 14, in_ch)).astype(dtype), requires_grad=True)
        extents, _ = layer._chunks(x.data)
        monkeypatch.setattr(layers, "COLS_BYTES",
                            per * int(np.prod(extents)) * 27 * in_ch * np.dtype(dtype).itemsize)
        assert [c.stop - c.start for c in layer._chunks(x.data)[1]] == \
            [per] * (7 // per) + [7 % per] * (7 % per > 0)
        with Tape() as tape:
            out = layer.forward(x, mode="train")
            g = rng.standard_normal(out.data.shape).astype(dtype)
            backward((out * Tensor(g)).sum(), tape)
        assert_same_bits(x.grad, self.whole_batch_input_grad(layer, x.data, g))

    def test_tape_holds_no_columns(self):
        rng = np.random.default_rng(4)
        layer = Conv3D(8, 16, (3, 3, 3), seed=4, dtype=np.float32)
        x = Tensor(rng.standard_normal((4, 7, 20, 24, 8)).astype(np.float32),
                   requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = layer.forward(x, mode="train")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        column_bytes = out.data.size // 16 * 27 * 8 * 4
        assert len(tape) == 1
        assert held - out.data.nbytes < column_bytes

    def test_backward_lets_go_of_the_tape(self):
        # every intermediate array is larger than the slack, and only the
        # tape refers to them
        rng = np.random.default_rng(6)
        conv = Conv3D(8, 16, (3, 3, 3), seed=6, dtype=np.float32)
        prelu = PReLU(16, dtype=np.float32)
        x = Tensor(rng.standard_normal((4, 7, 20, 24, 8)).astype(np.float32),
                   requires_grad=True)
        leaves = [x, conv.kernels, conv.bias, prelu.slope]

        def loss_of(x):
            h = prelu.forward(conv.forward(x, mode="train"), mode="train")
            return (h * h).sum()

        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = loss_of(x)
            backward(loss, tape)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) == 4 and tape.nodes == [None] * 4
        assert loss.grad is not None
        assert held <= sum(t.grad.nbytes for t in leaves) + (64 << 10)


class TestMaxPool3D:
    def test_table_one_pooling(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 58, 98, 16))
        out = MaxPool3D((1, 3, 3), (1, 2, 2)).forward(Tensor(x))
        assert out.data.shape == (7, 28, 48, 16)

    def test_constant_input_constant_output(self):
        out = MaxPool3D((1, 2, 2), (1, 2, 2)).forward(Tensor(np.full((2, 4, 4, 3), 1.5)))
        np.testing.assert_array_equal(out.data, np.full((2, 2, 2, 3), 1.5))

    @pytest.mark.parametrize("seed", range(50))
    def test_against_window_oracle(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(2, 6, size=3)) + (int(rng.integers(1, 4)),)
        kernel = tuple(int(rng.integers(1, s + 1)) for s in shape[:3])
        stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
        x = rng.standard_normal(shape)
        out = MaxPool3D(kernel, stride).forward(Tensor(x))
        expected = maxpool_oracle(x, kernel, stride)
        assert np.array_equal(out.data, expected)

    def test_backward_routes_one_unit_per_window(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((1, 2, 4, 6, 3)), requires_grad=True)
        pool = MaxPool3D((1, 2, 2), (1, 2, 2))   # non-overlapping
        with Tape() as tape:
            out = pool.forward(x)
            loss = out.sum()
        backward(loss, tape)
        # each window routes exactly its upstream gradient (ones)
        assert x.grad.sum() == out.data.size
        assert set(np.unique(x.grad)) <= {0.0, 1.0}

    def test_backward_first_index_tie_break(self):
        x = Tensor(np.ones((1, 1, 2, 2, 1)), requires_grad=True)
        pool = MaxPool3D((1, 2, 2), (1, 2, 2))
        with Tape() as tape:
            loss = pool.forward(x).sum()
        backward(loss, tape)
        expected = np.zeros((1, 1, 2, 2, 1))
        expected[0, 0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        rng = np.random.default_rng(200 + seed)
        # keep window values separated so the argmax is stable under FD steps
        vals = rng.permutation(4 * 5 * 6 * 2).astype(float).reshape(1, 4, 5, 6, 2)
        x = Tensor(vals * 0.01, requires_grad=True)
        pool = MaxPool3D((1, 2, 2), (1, 2, 2))

        def build():
            out = pool.forward(x)
            return (out * out).sum()

        check_op_gradients(build, [x], context=f"maxpool seed {seed}")


class TestPReLU:
    def test_quarter_slope(self):
        layer = PReLU(2)
        np.testing.assert_allclose(layer.forward(Tensor([[2.0, -2.0]])).data, [[2.0, -0.5]])

    def test_zero_slope_is_relu(self):
        layer = PReLU(2, init=0.0)
        np.testing.assert_array_equal(layer.forward(Tensor([[-1.0, 3.0]])).data, [[0.0, 3.0]])

    def test_unit_slope_is_identity(self):
        layer = PReLU(3, init=1.0)
        x = np.array([[-1.0, 3.0, -0.2]])
        np.testing.assert_array_equal(layer.forward(Tensor(x)).data, x)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        rng = np.random.default_rng(300 + seed)
        data = rng.standard_normal((4, 3))
        data[np.abs(data) < 1e-3] = 0.5   # keep clear of the kink
        x = Tensor(data, requires_grad=True)
        layer = PReLU(3, init=0.3)

        def build():
            out = layer.forward(x)
            return (out * out).sum()

        check_op_gradients(build, [x, layer.slope], context=f"prelu seed {seed}")

    def test_bits_of_the_where_formulas(self):
        rng = np.random.default_rng(4)
        layer = PReLU(3, dtype=np.float32)
        layer.slope.data[:] = [0.25, -0.5, 1.5]
        x_np = rng.standard_normal((4, 5, 3)).astype(np.float32)
        x_np[0, 0] = [0.0, -0.0, -1e-30]
        g = rng.standard_normal(x_np.shape).astype(np.float32)
        a, neg = layer.slope.data, x_np < 0

        x = Tensor(x_np, requires_grad=True)
        with Tape() as tape:
            out = layer.forward(x)
            loss = (out * Tensor(g)).sum()
        backward(loss, tape)
        assert_same_bits(out.data, np.where(neg, a * x_np, x_np))
        assert_same_bits(x.grad, np.where(neg, g * a, g))


class TestDense:
    def test_visual_fc_sizes(self):
        layer = Dense(1792, 256, seed=0)
        out = layer.forward(Tensor(np.zeros(1792)))
        assert out.data.shape == (256,)

    def test_audio_fc_sizes(self):
        layer = Dense(384, 64, seed=0)
        assert layer.forward(Tensor(np.zeros((2, 384)))).data.shape == (2, 64)

    def test_zero_weights_gives_bias(self):
        layer = Dense(4, 3, seed=0)
        layer.weights.data[:] = 0.0
        layer.bias.data[:] = [1.0, -2.0, 0.5]
        np.testing.assert_array_equal(layer.forward(Tensor(np.ones(4))).data, [1.0, -2.0, 0.5])

    def test_input_length_mismatch(self):
        with pytest.raises(ShapeError):
            Dense(4, 3, seed=0).forward(Tensor(np.ones(5)))

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        rng = np.random.default_rng(400 + seed)
        layer = Dense(5, 3, seed=seed)
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)

        def build():
            out = layer.forward(x)
            return (out * out).sum()

        check_op_gradients(build, [x, layer.weights, layer.bias],
                           context=f"dense seed {seed}")


class TestHeInit:
    def test_variance_scaling(self):
        t = he_init((10000,), fan_in=50, seed=0)
        assert abs(t.data.var() - 0.04) < 0.004
        assert abs(t.data.mean()) < 0.01

    def test_seed_determinism(self):
        a = he_init((32, 3), fan_in=9, seed=4)
        b = he_init((32, 3), fan_in=9, seed=4)
        np.testing.assert_array_equal(a.data, b.data)

    def test_fan_in_two(self):
        t = he_init((20000,), fan_in=2, seed=1)
        assert abs(t.data.var() - 1.0) < 0.05

    def test_bad_fan_in(self):
        with pytest.raises(ContractError):
            he_init((3,), fan_in=0, seed=0)


class TestBatchNorm:
    def test_constant_batch_zeroed(self):
        layer = BatchNorm(3)
        x = Tensor(np.full((4, 3), 7.0))
        np.testing.assert_allclose(layer.forward(x, mode="train").data, 0.0, atol=1e-12)

    def test_normalizes_batch(self):
        rng = np.random.default_rng(1)
        layer = BatchNorm(4)
        x = Tensor(rng.standard_normal((64, 2, 3, 2, 4)) * 2.0 + 5.0)
        out = layer.forward(x, mode="train").data
        axes = (0, 1, 2, 3)
        assert np.abs(out.mean(axis=axes)).max() < 1e-6
        assert np.abs(out.var(axis=axes) - 1.0).max() < 1e-5

    def test_infer_uses_running_stats(self):
        layer = BatchNorm(2)
        layer.running_mean = np.array([1.0, -1.0])
        layer.running_var = np.array([4.0, 0.25])
        layer.gamma.data[:] = [2.0, 1.0]
        layer.beta.data[:] = [0.0, 3.0]
        x = np.array([[3.0, 0.0]])
        expected = (x - layer.running_mean) / np.sqrt(layer.running_var + BN_EPSILON) \
            * layer.gamma.data + layer.beta.data
        np.testing.assert_allclose(layer.forward(Tensor(x), mode="infer").data, expected)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ContractError):
            BatchNorm(2).forward(Tensor(np.ones((1, 2))), mode="train")

    def test_frozen_mode_does_not_touch_running_stats(self):
        rng = np.random.default_rng(2)
        layer = BatchNorm(3)
        before = (layer.running_mean.copy(), layer.running_var.copy())
        layer.forward(Tensor(rng.standard_normal((8, 3))), mode="frozen")
        np.testing.assert_array_equal(layer.running_mean, before[0])
        np.testing.assert_array_equal(layer.running_var, before[1])
        layer.forward(Tensor(rng.standard_normal((8, 3))), mode="train")
        assert not np.array_equal(layer.running_mean, before[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_frozen_forward_is_a_train_forward(self, dtype, pooled):
        rng = np.random.default_rng(3)
        x = Tensor((rng.standard_normal((6, 3, 7, 7, 2)) * 2.0 + 1.0).astype(dtype))
        pool = MaxPool3D((1, 3, 3), (1, 2, 2)) if pooled else None
        frozen, train = BatchNorm(2, dtype=dtype), BatchNorm(2, dtype=dtype)
        for layer in (frozen, train):
            layer.running_mean[:] = [0.5, -0.25]
            layer.running_var[:] = [2.0, 0.75]
        before = frozen.running_mean.tobytes() + frozen.running_var.tobytes()
        out = frozen.forward(x, mode="frozen", pool=pool)
        assert frozen.running_mean.tobytes() + frozen.running_var.tobytes() == before
        assert_same_bits(out.data, train.forward(x, mode="train", pool=pool).data)

    def test_train_embed_visual_still_moves_the_running_stats(self):
        model = build_mini_model()
        xv = np.random.default_rng(1).standard_normal((4,) + MINI_VISUAL_SHAPE)
        before = model.state_checksum()
        model.embed_visual(xv, mode="frozen")
        assert model.state_checksum() == before
        model.embed_visual(xv, mode="train", rng=np.random.default_rng(0))
        assert model.state_checksum() != before

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        rng = np.random.default_rng(500 + seed)
        layer = BatchNorm(3)
        x = Tensor(rng.standard_normal((5, 3)) * 1.5, requires_grad=True)

        def build():
            out = layer.forward(x, mode="train")
            return ((out + 0.3) * out).sum()

        check_op_gradients(build, [x, layer.gamma, layer.beta],
                           context=f"batchnorm seed {seed}")

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_bits_of_the_plain_formulas(self, mode):
        # the in-place forward and backward must round exactly like the
        # out-of-place textbook expressions
        rng = np.random.default_rng(9)
        layer = BatchNorm(4, dtype=np.float32)
        layer.gamma.data[:] = rng.standard_normal(4)
        layer.beta.data[:] = rng.standard_normal(4)
        layer.running_var[:] = rng.random(4) + 0.5
        x_np = (rng.standard_normal((6, 3, 5, 2, 4)) * 3.0 + 1.0).astype(np.float32)
        g = rng.standard_normal(x_np.shape).astype(np.float32)
        axes, m = (0, 1, 2, 3), x_np.size // 4
        if mode == "train":
            mean, var = x_np.mean(axis=axes), x_np.var(axis=axes)
            running_var = layer.running_var + 0.1 * (var - layer.running_var)
        else:
            mean, var = layer.running_mean.copy(), layer.running_var.copy()
            running_var = var
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        x_hat = (x_np - mean) * inv_std
        gxh = g * layer.gamma.data
        if mode == "train":
            gx = inv_std * (gxh - (gxh.sum(axis=axes) + x_hat * (gxh * x_hat).sum(axis=axes)) / m)
        else:
            gx = gxh * inv_std
        expected = layer.gamma.data * x_hat + layer.beta.data

        x = Tensor(x_np, requires_grad=True)
        with Tape() as tape:
            out = layer.forward(x, mode=mode)
            loss = (out * Tensor(g)).sum()
        backward(loss, tape)
        assert_same_bits(out.data, expected)
        assert_same_bits(x.grad, gx)
        assert_same_bits(layer.gamma.grad, (g * x_hat).sum(axis=axes))
        assert_same_bits(layer.beta.grad, g.sum(axis=axes))
        assert_same_bits(layer.running_var, running_var)

    @pytest.mark.parametrize("mode", ["train", "frozen", "infer"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unit_pool_shares_the_plain_arithmetic(self, dtype, mode):
        # a 1x1x1 window is its own maximum, so both forms normalise the same
        # tensor with the same code; only the input gradient is spread back
        # by other expressions, which round differently
        rng = np.random.default_rng(10)
        x = (rng.standard_normal((4, 3, 5, 6, 3)) * 2.0 + 0.5).astype(dtype)
        g = Tensor(rng.standard_normal(x.shape).astype(dtype))
        results = []
        for pool in (None, MaxPool3D((1, 1, 1), (1, 1, 1))):
            layer = BatchNorm(3, dtype=dtype)
            layer.gamma.data[:] = [1.5, -0.5, 0.8]
            layer.beta.data[:] = [0.2, -1.0, 0.0]
            layer.running_mean[:] = [0.3, -0.2, 1.0]
            layer.running_var[:] = [2.0, 0.5, 1.2]
            xt = Tensor(x, requires_grad=True)
            with Tape() as tape:
                out = layer.forward(xt, mode=mode, pool=pool)
                loss = (out * g).sum()
            backward(loss, tape)
            results.append((xt.grad, out.data, layer.gamma.grad, layer.beta.grad,
                            layer.running_mean, layer.running_var))
        (gx_plain, *plain), (gx_pooled, *pooled) = results
        for mine, theirs in zip(pooled, plain):
            assert_same_bits(mine, theirs)
        assert gx_pooled.dtype == gx_plain.dtype
        assert np.abs(gx_pooled - gx_plain).max() <= 1e-6 * np.abs(gx_plain).max()


class TestDropout:
    def test_infer_is_identity(self):
        x = Tensor(np.arange(6.0))
        out = Dropout(0.5).forward(x, mode="infer")
        assert out is x

    def test_zero_rate_is_identity_in_train(self):
        x = Tensor(np.arange(6.0))
        out = Dropout(0.0).forward(x, mode="train", rng=np.random.default_rng(0))
        assert out is x

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            Dropout(1.0)

    def test_drop_fraction_and_scaling(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(200000))
        out = Dropout(0.5).forward(x, mode="train", rng=rng).data
        dropped = np.count_nonzero(out == 0) / out.size
        assert abs(dropped - 0.5) < 0.02
        assert abs(out.mean() - 1.0) < 0.02          # survivors scaled by 1/(1-rho)
        np.testing.assert_allclose(np.unique(out), [0.0, 2.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_with_fixed_mask(self, seed):
        rng_data = np.random.default_rng(600 + seed)
        x = Tensor(rng_data.standard_normal((4, 5)), requires_grad=True)
        layer = Dropout(0.4)

        def build():
            out = layer.forward(x, mode="train", rng=np.random.default_rng(seed))
            return (out * out).sum()

        check_op_gradients(build, [x], context=f"dropout seed {seed}")


POOL_WINDOWS = {"overlapping": ((1, 3, 3), (1, 2, 2)), "disjoint": ((1, 2, 1), (1, 2, 1))}
# gamma > 0, = 0 and < 0 crossed with slope > 0, = 0 and < 0, one pair per channel
GAMMAS = np.repeat([1.3, 0.0, -0.7], 3)
SLOPES = np.tile([0.25, 0.0, -0.4], 3)
# every channel non-decreasing (gamma > 0, slope >= 0): the pooled-first path
MONOTONE_GAMMAS = np.repeat([1.3, 0.4, 2.0], 3)
MONOTONE_SLOPES = np.tile([0.25, 0.0, 1.0], 3)


def pooled_block(dtype, window, gammas=GAMMAS, slopes=SLOPES, seed=0):
    """bn -> prelu -> pool with the given per-channel gammas and slopes, and
    seeded betas and running statistics."""
    rng = np.random.default_rng(seed)
    c = len(gammas)
    bn, prelu = BatchNorm(c, dtype=dtype, name="bn"), PReLU(c, dtype=dtype, name="prelu")
    bn.gamma.data[:] = gammas
    bn.beta.data[:] = rng.standard_normal(c)
    bn.running_mean[:] = rng.standard_normal(c)
    bn.running_var[:] = rng.random(c) + 0.5
    prelu.slope.data[:] = slopes
    return [bn, prelu, MaxPool3D(*POOL_WINDOWS[window], name="pool")]


def block_input(kind, dtype, channels=9):
    """[3,2,9,7,C] with many exact ties: quarter steps in [-2, 2], a tenth of
    them zeros of either sign; ``nan`` also puts one NaN in channel 4."""
    rng = np.random.default_rng(3)
    x = rng.integers(-8, 9, size=(3, 2, 9, 7, channels)) / 4.0
    zeros = rng.random(x.shape) < 0.1
    x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    if kind == "nan":
        x[1, 0, 4, 3, 4] = np.nan
    return x.astype(dtype)


def run_block(block, x, mode, g=None):
    """(output, x grad, [gamma, beta, slope grads]) of ``block``, a LayerStack
    (pooled first) or a bn -> prelu -> pool list run layer by layer;
    gradients of sum(out * g) when g is given."""
    layers = block.layers if isinstance(block, LayerStack) else block
    params = [layers[0].gamma, layers[0].beta, layers[1].slope]
    for p in params:
        p.grad = None
    xt = Tensor(x, requires_grad=g is not None)
    with Tape() as tape:
        if isinstance(block, LayerStack):
            out = block.forward(xt, mode=mode)
        else:
            out = xt
            for layer in block:
                out = layer.forward(out, mode=mode)
        loss = (out * Tensor(g)).sum() if g is not None else None
    if g is not None:
        backward(loss, tape)
    return out.data, xt.grad, [p.grad for p in params]


def assert_forward_equals_layers(dtype, kind, mode, window, gammas, slopes):
    """A LayerStack's output and running statistics hold the bits of the
    three layers run one after another."""
    x = block_input(kind, dtype)
    layers = pooled_block(dtype, window, gammas, slopes)
    stack = LayerStack("s", pooled_block(dtype, window, gammas, slopes))
    expected = run_block(layers, x, mode)[0]
    got = run_block(stack, x, mode)[0]
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected, equal_nan=True)
    for mine, theirs in zip(stack.layers[0].buffers(), layers[0].buffers()):
        assert np.array_equal(mine[1], theirs[1], equal_nan=True)


def assert_sign_crossing_gradients_equal_layers(dtype, mode, window):
    """With some gamma and some slope below 0, a LayerStack runs the layers
    as written, so its gradients hold their bits."""
    gammas, slopes = np.array([1.3, -0.7, 0.9, -1.1]), np.array([0.25, 0.3, -0.4, -0.2])
    x = np.random.default_rng(4).standard_normal((3, 2, 9, 7, 4)).astype(dtype)
    layers = pooled_block(dtype, window, gammas, slopes)
    stack = LayerStack("s", pooled_block(dtype, window, gammas, slopes))
    g = np.random.default_rng(5).standard_normal(run_block(layers, x, "infer")[0].shape)
    out_l, gx_l, gp_l = run_block(layers, x, mode, g.astype(dtype))
    out_s, gx_s, gp_s = run_block(stack, x, mode, g.astype(dtype))
    for mine, theirs in zip([out_s, gx_s] + gp_s, [out_l, gx_l] + gp_l):
        assert_same_bits(mine, theirs)


class TestTrunkAndHead:
    """A stack's trunk (its layers before the first Dropout) and head."""

    @pytest.mark.parametrize("mode", ["train", "frozen", "infer"])
    def test_trunk_then_head_is_the_stack(self, mode):
        x = np.random.default_rng(2).standard_normal((4,) + MINI_VISUAL_SHAPE)
        split, whole = build_mini_model(), build_mini_model()
        trunk = split.visual_net.forward(Tensor(x), mode=mode, part="trunk")
        assert trunk.data.shape == (4, 6)   # prelu5's output
        out = split.visual_net.forward(trunk, mode=mode, rng=np.random.default_rng(0),
                                       part="head")
        assert_same_bits(out.data, whole.visual_net.forward(
            Tensor(x), mode=mode, rng=np.random.default_rng(0)).data)
        assert split.state_checksum() == whole.state_checksum()

    def test_stack_without_dropout_is_all_trunk(self):
        model = build_mini_model()
        x = Tensor(np.random.default_rng(3).standard_normal((4,) + MINI_AUDIO_SHAPE + (1,)))
        trunk = model.audio_net.forward(x, mode="frozen", part="trunk")
        assert model.audio_net.forward(trunk, mode="train", part="head") is trunk
        assert_same_bits(trunk.data, model.audio_net.forward(x, mode="frozen").data)

    def test_unknown_part(self):
        with pytest.raises(ContractError, match="unknown part"):
            build_mini_model().visual_net.forward(Tensor(np.zeros((2,) + MINI_VISUAL_SHAPE)),
                                                  part="neck")


class TestPooledBlock:
    """A LayerStack runs bn -> prelu -> pool pooled first while every channel
    is non-decreasing: it pools the input and normalises and activates the
    pooled tensor. Otherwise it runs the three layers as written. The values
    equal those of the three layers run one after another."""

    @pytest.mark.parametrize("window", POOL_WINDOWS)
    @pytest.mark.parametrize("mode", ["train", "frozen", "infer"])
    @pytest.mark.parametrize("kind", ["ties", "nan"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_running_stats_equal_the_layers(self, dtype, kind, mode, window):
        assert_forward_equals_layers(dtype, kind, mode, window, GAMMAS, SLOPES)

    @pytest.mark.parametrize("window", POOL_WINDOWS)
    @pytest.mark.parametrize("mode", ["train", "frozen", "infer"])
    @pytest.mark.parametrize("kind", ["ties", "nan"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_monotone_forward_and_running_stats_equal_the_layers(self, dtype, kind, mode, window):
        assert_forward_equals_layers(dtype, kind, mode, window, MONOTONE_GAMMAS, MONOTONE_SLOPES)

    def test_single_sample_equals_the_layers(self):
        x = block_input("ties", np.float32)[0]
        blocks = [pooled_block(np.float32, "overlapping", MONOTONE_GAMMAS, MONOTONE_SLOPES)
                  for _ in range(2)]
        expected = run_block(blocks[0], x, "infer")[0]
        got = run_block(LayerStack("s", blocks[1]), x, "infer")[0]
        assert got.shape == expected.shape == (2, 4, 3, 9)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("window", POOL_WINDOWS)
    @pytest.mark.parametrize("mode", ["train", "frozen", "infer"])
    def test_float64_gradients_equal_the_layers(self, mode, window):
        assert_sign_crossing_gradients_equal_layers(np.float64, mode, window)

    @pytest.mark.parametrize("window", POOL_WINDOWS)
    @pytest.mark.parametrize("mode", ["train", "frozen", "infer"])
    def test_float32_gradients_equal_the_layers(self, mode, window):
        assert_sign_crossing_gradients_equal_layers(np.float32, mode, window)

    def test_flipping_a_gamma_between_calls_switches_the_path(self):
        # the stack checks gamma and slope at each call: pooled first records
        # one node, the batch norm given the pool and the PReLU; the layers
        # as written record three
        x = block_input("ties", np.float64, channels=3)
        gammas, slopes = np.array([1.3, 0.4, 0.9]), np.array([0.25, 0.0, 1.0])
        layers = pooled_block(np.float64, "overlapping", gammas, slopes)
        stack = LayerStack("s", pooled_block(np.float64, "overlapping", gammas, slopes))
        for gamma, nodes in ((0.4, 1), (-0.4, 3), (0.4, 1)):
            layers[0].gamma.data[1] = stack.layers[0].gamma.data[1] = gamma
            xt = Tensor(x, requires_grad=True)
            with Tape() as tape:
                got = stack.forward(xt, mode="train").data
            assert len(tape) == nodes
            assert_same_bits(got, run_block(layers, x, "train")[0])
            for mine, theirs in zip(stack.layers[0].buffers(), layers[0].buffers()):
                assert_same_bits(mine[1], theirs[1])

    def test_tape_keeps_only_the_window_maxima_and_the_output(self):
        # visual block 2's channels: the node keeps its input, the window
        # maxima and its output, and no normalised values, signs or scales
        stack = LayerStack("s", pooled_block(np.float32, "overlapping", np.full(32, 0.9),
                                             np.full(32, 0.25)))
        tracemalloc.start()
        try:
            x = Tensor(np.random.default_rng(18).standard_normal((4, 5, 26, 46, 32))
                       .astype(np.float32), requires_grad=True)
            with Tape() as tape:
                out = stack.forward(x, mode="frozen")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * (x.data.nbytes + 2 * out.data.nbytes)
        assert len(tape) == 1

    def test_tie_after_rounding_goes_to_the_larger_centred_value(self):
        # with slope 0 every negative input activates to -0: the layers route
        # a window's gradient to its first element, the pooled block to its
        # largest centred value, so the slope's gradient differs
        bn, prelu = BatchNorm(1, name="bn"), PReLU(1, init=0.0, name="prelu")
        stack = LayerStack("s", [bn, prelu, MaxPool3D((1, 2, 1), (1, 2, 1), name="pool")])
        x = np.array([-2.0, -1.0]).reshape(1, 1, 2, 1, 1)
        g = np.ones((1, 1, 1, 1, 1))
        inv_std = 1.0 / np.sqrt(1.0 + BN_EPSILON)
        assert run_block(stack, x, "infer", g)[2][2] == -1.0 * inv_std
        assert run_block(stack.layers, x, "infer", g)[2][2] == -2.0 * inv_std

    @pytest.mark.parametrize("stream", ["visual", "audio"])
    def test_mini_model_block_against_finite_differences(self, stream):
        model = build_mini_model()
        net = model.visual_net if stream == "visual" else model.audio_net
        conv, bn, prelu, _ = net.layers[:4]
        block = LayerStack(stream, net.layers[:4])
        shape = MINI_VISUAL_SHAPE if stream == "visual" else MINI_AUDIO_SHAPE + (1,)
        x = Tensor(np.random.default_rng(6).standard_normal((3,) + shape), requires_grad=True)

        def build():
            out = block.forward(x, mode="train")
            return ((out + 0.3) * out).sum()

        # pooled first, then as written
        for gammas, slopes in (([0.8, 1.2], [0.3, 0.1]), ([-0.8, 1.2], [0.3, -0.4])):
            bn.gamma.data[:] = gammas
            prelu.slope.data[:] = slopes
            check_op_gradients(build, [x, conv.kernels, conv.bias, bn.gamma, bn.beta, prelu.slope],
                               context=f"{stream} block, gammas {gammas}, slopes {slopes}")

    def test_full_size_float32_gradients_near_the_layers(self):
        # the first visual block at its full size; the pooled backward sums in
        # another order, so float32 gradients move in the last bits: the input
        # gradient by under 1e-6 of its largest entry (1.4e-7 measured at batch
        # 32), gamma, beta and slope by under 1e-4 of theirs (1.7e-5 measured)
        model = CoupledModel(ModelConfig(seed=0, dtype="float32"))
        block = model.visual_net.layers[1:4]
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8,) + VISUAL_INPUT_SHAPE).astype(np.float32)
        x = model.visual_net.layers[0].forward(Tensor(x)).data
        g = rng.standard_normal((8, 7, 28, 48, 16)).astype(np.float32)
        out_l, gx_l, params_l = run_block(block, x, "train", g)
        out_s, gx_s, params_s = run_block(LayerStack("visual", block), x, "train", g)
        assert out_s.tobytes() == out_l.tobytes()
        assert np.abs(gx_s - gx_l).max() <= 1e-6 * np.abs(gx_l).max()
        for mine, theirs in zip(params_s, params_l):
            assert np.abs(mine - theirs).max() <= 1e-4 * np.abs(theirs).max()


# (input extents, conv kernel, pool kernel, pool stride) of each stream's first block
FIRST_BLOCKS = {
    "visual": ((9, 60, 100), (3, 3, 3), (1, 3, 3), (1, 2, 2)),
    "audio": ((15, 40, 3), (3, 5, 3), (1, 2, 1), (1, 2, 1)),
}


def first_block(stream, dtype):
    """conv1 -> bn1 -> prelu1 -> pool1 at the stream's full size (see
    conv_block)."""
    _, kernel, pool_kernel, pool_stride = FIRST_BLOCKS[stream]
    return conv_block(1, 16, kernel, pool_kernel, pool_stride, dtype)


def conv_block(in_ch, out_ch, kernel, pool_kernel, pool_stride, dtype):
    """conv1 -> bn1 -> prelu1 -> pool1 with seeded conv biases, betas and
    running statistics, every gamma > 0 and every slope >= 0 (one of them 0)."""
    rng = np.random.default_rng(9)
    conv = Conv3D(in_ch, out_ch, kernel, seed=9, dtype=dtype, name="conv1")
    conv.bias.data[:] = rng.standard_normal(out_ch)
    bn = BatchNorm(out_ch, dtype=dtype, name="bn1")
    bn.gamma.data[:] = rng.random(out_ch) + 0.5
    bn.beta.data[:] = rng.standard_normal(out_ch)
    bn.running_mean[:] = rng.standard_normal(out_ch)
    bn.running_var[:] = rng.random(out_ch) + 0.5
    prelu = PReLU(out_ch, dtype=dtype, name="prelu1")
    prelu.slope.data[:] = rng.random(out_ch) / 2
    prelu.slope.data[5] = 0.0
    return [conv, bn, prelu, MaxPool3D(pool_kernel, pool_stride, name="pool1")]


def run_first_block(block, x, mode, how, x_needs_grad=False):
    """(output, every parameter gradient, tape nodes) of sum(out * g) for a
    seeded g, where ``how`` is "stack" (a LayerStack, which gives the conv
    to the batch norm when x needs no gradient), "nodes" (the conv's node,
    then the batch norm given the pool, then the PReLU) or "layers" (the
    four layers as written); with ``x_needs_grad``, x's gradient follows
    the parameters' gradients."""
    conv, bn, prelu, pool = block
    params = [p for layer in block for _, p in layer.parameters()]
    for p in params:
        p.grad = None
    xt = Tensor(x, requires_grad=x_needs_grad)
    with Tape() as tape:
        if how == "stack":
            out = LayerStack("s", block).forward(xt, mode=mode)
        elif how == "nodes":
            out = prelu.forward(bn.forward(conv.forward(xt, mode=mode), mode=mode,
                                           pool=pool), mode=mode)
        else:
            out = xt
            for layer in block:
                out = layer.forward(out, mode=mode)
        nodes = len(tape)
        g = np.random.default_rng(10).standard_normal(out.data.shape).astype(x.dtype)
        loss = (out * Tensor(g)).sum()
    backward(loss, tape)
    return out.data, [p.grad for p in params] + [xt.grad] * x_needs_grad, nodes


class TestConvNorm:
    """A LayerStack gives a run's leading conv to the batch norm when the
    conv's input needs no gradient: one tape node for conv -> batch norm ->
    PReLU -> pool, with the bits of the conv's node, the batch norm's given
    the pool and the PReLU's."""

    @pytest.mark.parametrize("mode", ["train", "frozen", "infer"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stream,n", [("audio", 60), ("visual", 3)])
    def test_same_bits_as_the_conv_node_and_the_norm_node(self, stream, n, dtype, mode):
        extents, kernel = FIRST_BLOCKS[stream][:2]
        if stream == "audio":   # several samples to a column chunk, the last chunk short
            rows = int(np.prod([e - k + 1 for e, k in zip(extents, kernel)]))
            per = COLS_BYTES // (rows * int(np.prod(kernel)) * np.dtype(dtype).itemsize)
            assert 1 < per < n and n % per
        x = np.random.default_rng(11).standard_normal((n,) + extents + (1,)).astype(dtype)
        fused, nodes = first_block(stream, dtype), first_block(stream, dtype)
        out_f, grads_f, count_f = run_first_block(fused, x, mode, "stack")
        out_n, grads_n, count_n = run_first_block(nodes, x, mode, "nodes")
        assert (count_f, count_n) == (1, 3)
        assert_same_bits(out_f, out_n)
        assert len(grads_f) == 5
        for mine, theirs in zip(grads_f, grads_n):
            assert_same_bits(mine, theirs)
        for (_, mine), (_, theirs) in zip(fused[1].buffers(), nodes[1].buffers()):
            assert_same_bits(mine, theirs)

    @pytest.mark.parametrize("per", [1, 3, 7])   # 7 samples: one-sample, short last, one chunk
    @pytest.mark.parametrize("mode", ["train", "frozen", "infer"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", ["conv1", "block2"])
    def test_fused_node_has_the_bits_of_a_node_per_layer(self, monkeypatch, block, dtype, mode,
                                                         per):
        # visual block 1, whose conv the batch norm is given, and a block at
        # visual block 2's channel counts whose input needs a gradient, so
        # that its conv is a node of its own; both at small extents
        in_ch, out_ch, extents = (1, 16, (5, 12, 20)) if block == "conv1" else (16, 32, (5, 11, 13))
        x = np.random.default_rng(16).standard_normal((7,) + extents + (in_ch,)).astype(dtype)
        fused, nodes, fresh = (conv_block(in_ch, out_ch, (3, 3, 3), (1, 3, 3), (1, 2, 2), dtype)
                               for _ in range(3))
        rows = int(np.prod([e - 2 for e in extents]))
        monkeypatch.setattr(layers, "COLS_BYTES", per * rows * 27 * in_ch * np.dtype(dtype).itemsize)
        assert [c.stop - c.start for c in fused[0]._chunks(x)[1]] == \
            [per] * (7 // per) + [7 % per] * (7 % per > 0)
        need_x = block == "block2"
        out_f, grads_f, count_f = run_first_block(fused, x, mode, "stack", need_x)
        out_n, grads_n, count_n = run_first_block(nodes, x, mode, "nodes", need_x)
        assert (count_f, count_n) == (1 + need_x, 3)
        assert_same_bits(out_f, out_n)
        assert len(grads_f) == 5 + need_x   # prelu.slope's among them
        for mine, theirs in zip(grads_f, grads_n):
            assert_same_bits(mine, theirs)
        for (_, mine), (_, theirs) in zip(fused[1].buffers(), nodes[1].buffers()):
            assert_same_bits(mine, theirs)
        if mode == "train":
            # and numpy's whole-batch mean and var of the conv node's output
            y = fresh[0].forward(Tensor(x)).data
            for (_, mine), (_, before), moment in zip(fused[1].buffers(), fresh[1].buffers(),
                                                      (y.mean, y.var)):
                assert_same_bits(mine, before + layers.BN_MOMENTUM * (moment(axis=(0, 1, 2, 3))
                                                                      - before))

    @pytest.mark.parametrize("mode", ["train", "frozen", "infer"])
    def test_forward_never_holds_the_whole_conv_output(self, mode):
        # each chunk of the conv output is built, pooled and let go, and
        # built again for the variance; the peak, one sample's columns and
        # conv output and the pooled tensors, stays below the whole output
        n = 8
        x = Tensor(np.random.default_rng(17).standard_normal((n,) + VISUAL_INPUT_SHAPE)
                   .astype(np.float32))
        stack = LayerStack("visual", first_block("visual", np.float32))
        tracemalloc.start()
        try:
            with Tape():
                stack.forward(x, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 7 * 58 * 98 * 16 * 4

    @pytest.mark.parametrize("layer,value", [(1, 0.0), (1, -0.5), (2, -0.25)])
    @pytest.mark.parametrize("mode", ["train", "frozen", "infer"])
    def test_a_non_monotone_channel_runs_the_layers(self, mode, layer, value):
        # a gamma <= 0 or a negative slope in one channel: the stack runs the
        # four layers as written
        x = np.random.default_rng(12).standard_normal((6, 15, 40, 3, 1)).astype(np.float32)
        blocks = first_block("audio", np.float32), first_block("audio", np.float32)
        for block in blocks:
            param = block[layer].parameters()[0][1]
            param.data[3] = value
        out_s, grads_s, count_s = run_first_block(blocks[0], x, mode, "stack")
        out_l, grads_l, count_l = run_first_block(blocks[1], x, mode, "layers")
        assert count_s == count_l == 4
        for mine, theirs in zip([out_s] + grads_s, [out_l] + grads_l):
            assert_same_bits(mine, theirs)
        for (_, mine), (_, theirs) in zip(blocks[0][1].buffers(), blocks[1][1].buffers()):
            assert_same_bits(mine, theirs)

    @pytest.mark.parametrize("mode", ["train", "frozen"])
    def test_a_batch_of_one_has_no_batch_statistics(self, mode):
        stack = LayerStack("audio", first_block("audio", np.float32))
        x = Tensor(np.ones((1, 15, 40, 3, 1), dtype=np.float32))
        with Tape(), pytest.raises(ContractError, match="bn1: batch statistics"):
            stack.forward(x, mode=mode)

    @pytest.mark.parametrize("stream", ["visual", "audio"])
    def test_mini_model_block_against_finite_differences(self, stream):
        model = build_mini_model()
        net = model.visual_net if stream == "visual" else model.audio_net
        conv, bn, prelu, _ = net.layers[:4]
        block = LayerStack(stream, net.layers[:4])
        shape = MINI_VISUAL_SHAPE if stream == "visual" else MINI_AUDIO_SHAPE + (1,)
        x = Tensor(np.random.default_rng(6).standard_normal((3,) + shape))
        bn.gamma.data[:] = [0.8, 1.2]
        prelu.slope.data[:] = [0.3, 0.1]

        def build():
            out = block.forward(x, mode="train")
            return ((out + 0.3) * out).sum()

        with Tape() as tape:
            build()
        assert len(tape) == 4   # the fused node, and build's +, * and sum
        check_op_gradients(build, [conv.kernels, conv.bias, bn.gamma, bn.beta, prelu.slope],
                           context=f"{stream} conv and batch norm node")

    def test_tape_holds_no_conv_output(self):
        # the tape keeps the pooled tensors (under a quarter of the conv
        # output each) and the conv's input, but not the conv output
        x = Tensor(np.random.default_rng(13).standard_normal((2,) + VISUAL_INPUT_SHAPE)
                   .astype(np.float32))
        stack = LayerStack("visual", first_block("visual", np.float32))
        tracemalloc.start()
        try:
            with Tape() as tape:
                stack.forward(x, mode="frozen")
            largest = max(trace.size for trace in tracemalloc.take_snapshot().traces)
        finally:
            tracemalloc.stop()
        conv_output_bytes = 2 * 7 * 58 * 98 * 16 * 4
        assert len(tape) == 1
        assert largest < conv_output_bytes // 2


def every_layer():
    """(layer, batch input shape) for a fresh instance of each layer type."""
    volume = (2, 3, 4, 4, 2)
    cases = [
        (Conv3D(2, 3, (2, 2, 2), seed=0), volume),
        (MaxPool3D((1, 2, 2), (1, 2, 2)), volume),
        (BatchNorm(2), volume),
        (PReLU(2), volume),
        (Flatten(), volume),
        (Dense(5, 3, seed=0), (2, 5)),
        (Dropout(0.5), (2, 5)),
    ]
    return [pytest.param(layer, shape, id=type(layer).__name__) for layer, shape in cases]


class TestRecording:
    """Layers record one tape node per forward, and only when a gradient is needed."""

    @staticmethod
    def forward(layer, shape, requires_grad):
        x = Tensor(np.random.default_rng(0).standard_normal(shape), requires_grad=requires_grad)
        return layer.forward(x, mode="train", rng=np.random.default_rng(1))

    @pytest.mark.parametrize("layer,shape", every_layer())
    def test_outside_a_tape_output_needs_no_grad(self, layer, shape):
        assert not self.forward(layer, shape, requires_grad=True).requires_grad

    @pytest.mark.parametrize("layer,shape", every_layer())
    def test_no_grad_inputs_record_nothing(self, layer, shape):
        for _, p in layer.parameters():
            p.requires_grad = False
        with Tape() as tape:
            out = self.forward(layer, shape, requires_grad=False)
        assert len(tape) == 0 and not out.requires_grad

    @pytest.mark.parametrize("layer,shape", every_layer())
    def test_grad_input_records_one_node(self, layer, shape):
        with Tape() as tape:
            out = self.forward(layer, shape, requires_grad=True)
        assert len(tape) == 1 and out.requires_grad
        assert tape.nodes[0][0] is out
