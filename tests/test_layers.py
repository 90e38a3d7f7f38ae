import numpy as np
import pytest

from avmatch.errors import ConfigError, ContractError, ShapeError
from avmatch.layers import (BN_EPSILON, BatchNorm, Conv3D, Dense, Dropout, Flatten,
                            MaxPool3D, PReLU, he_init)
from avmatch.tensor import Tape, Tensor, backward

from gradcheck import check_op_gradients

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
        rng = np.random.default_rng(5)
        layer = Conv3D(2, 4, (2, 2, 2), seed=2)
        xs = rng.standard_normal((3, 3, 4, 4, 2))
        batched = layer.forward(Tensor(xs)).data
        for i in range(3):
            single = layer.forward(Tensor(xs[i])).data
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

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
