import numpy as np
import pytest

from avmatch.errors import ContractError, ShapeError
from avmatch.tensor import Tape, Tensor, backward, create, matmul

from gradcheck import check_op_gradients


class TestCreate:
    def test_zero_fill(self):
        t = create([2, 2], fill=0.0)
        np.testing.assert_array_equal(t.data, [[0, 0], [0, 0]])

    def test_constant_fill(self):
        t = create([3], fill=1.0)
        np.testing.assert_array_equal(t.data, [1, 1, 1])

    def test_uniform_determinism(self):
        a = create([4], fill=("uniform", 0, 1), seed=7)
        b = create([4], fill=("uniform", 0, 1), seed=7)
        np.testing.assert_array_equal(a.data, b.data)
        assert a.data.min() >= 0 and a.data.max() <= 1

    def test_bad_extent(self):
        with pytest.raises(ShapeError):
            create([0, 3])
        with pytest.raises(ShapeError):
            create([2, -1])


class TestElementwise:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4, 6])

    def test_scale_by_zero(self):
        out = Tensor([1.0, 2.0]) * 0.0
        np.testing.assert_array_equal(out.data, [0, 0])

    def test_max_with_scalar(self):
        out = Tensor([-1.0, 2.0]).maximum(0.0)
        np.testing.assert_array_equal(out.data, [0, 2])

    def test_sub_and_rsub(self):
        np.testing.assert_array_equal((Tensor([5.0, 1.0]) - Tensor([2.0, 3.0])).data, [3, -2])
        np.testing.assert_array_equal((1.0 - Tensor([0.25, 2.0])).data, [0.75, -1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_ones(self):
        out = matmul(Tensor(np.ones((1, 3))), Tensor(np.ones((3, 1))))
        np.testing.assert_array_equal(out.data, [[3.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        expected = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(7):
                    expected[i, j] += a[i, k] * b[k, j]
        out = matmul(Tensor(a), Tensor(b))
        assert np.abs(out.data - expected).max() < 1e-12

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


class TestBackward:
    def test_sum_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = x.sum()
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [1, 1, 1])

    def test_half_norm_squared(self):
        data = np.array([0.5, -2.0, 3.0])
        x = Tensor(data.copy(), requires_grad=True)
        with Tape() as tape:
            loss = (x * x).sum() * 0.5
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = x * 2.0
        with pytest.raises(ContractError):
            backward(y, tape)

    def test_backward_leaves_forward_values(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal(6), requires_grad=True)
        with Tape() as tape:
            y = (x * 3.0 + 1.0).maximum(0.0)
            loss = (y * y).sum()
        y_before = y.data.copy()
        x_before = x.data.copy()
        backward(loss, tape)
        np.testing.assert_array_equal(y.data, y_before)
        np.testing.assert_array_equal(x.data, x_before)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = (x * x + x).sum()   # d/dx = 2x + 1 = 5
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [5.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_composite_graph_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 2)) + 2.0, requires_grad=True)

        def build():
            prod = matmul(a, b)
            mix = (prod - c) * 0.5 + (prod * prod) * 0.1
            clipped = mix.maximum(-0.3)
            return ((clipped * clipped).sum(axis=-1) + 0.7).sqrt().sum()

        check_op_gradients(build, [a, b, c], context=f"composite seed {seed}")


class TestDeterminism:
    def test_forward_bit_identical(self):
        def run():
            x = create([8], fill=("normal", 0, 1), seed=5)
            return ((x * 1.7 - 0.3).maximum(0.1)).sqrt().data

        np.testing.assert_array_equal(run(), run())


class TestRecording:
    """Ops record a tape node only inside a tape and only for grad-requiring inputs."""

    @staticmethod
    def every_op(a, b):
        m = a.reshape((2, 3))
        return [a + b, a - b, a + 1.0, a - 1.0, 1.0 - a, a * b, a * 2.0, -a,
                a.maximum(0.0), (a * a + 1.0).sqrt(), a.sum(), m.sum(axis=-1),
                a.mean(), m, matmul(m, b.reshape((3, 2)))]

    def test_outside_a_tape_nothing_requires_grad(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        b = Tensor(np.ones(6), requires_grad=True)
        assert not any(out.requires_grad for out in self.every_op(a, b))

    def test_inputs_without_grad_record_no_nodes(self):
        with Tape() as tape:
            outs = self.every_op(Tensor(np.arange(6.0)), Tensor(np.ones(6)))
        assert len(tape) == 0
        assert not any(out.requires_grad for out in outs)

    def test_one_grad_input_records_every_op(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        with Tape() as tape:
            outs = self.every_op(a, Tensor(np.ones(6)))
        assert all(out.requires_grad for out in outs)
        # one node per result (m counted once), plus a * a and + 1.0 inside the
        # sqrt and the sum inside mean; b's reshape has no grad input
        assert len(tape) == 15 + 2 + 1
