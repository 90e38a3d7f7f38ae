import numpy as np
import pytest

from avmatch.errors import ConfigError, ContractError, ShapeError
from avmatch.model import (AUDIO_INPUT_SHAPE, VISUAL_INPUT_SHAPE, CoupledModel,
                           ModelConfig, batch_distances, contrastive_loss, pair_distance)
from avmatch.tensor import Tape, Tensor, backward

from gradcheck import check_op_gradients
from minimodel import build_mini_model, mini_batch

VISUAL_TRACE = [
    ("conv1", (7, 58, 98, 16)), ("pool1", (7, 28, 48, 16)),
    ("conv2", (5, 26, 46, 32)), ("pool2", (5, 12, 22, 32)),
    ("conv3", (3, 10, 20, 64)), ("pool3", (3, 4, 9, 64)),
    ("conv4", (1, 2, 7, 128)), ("fc5", (256,)), ("fc6", (64,)),
]
AUDIO_TRACE = [
    ("conv1", (13, 36, 1, 16)), ("pool1", (13, 18, 1, 16)),
    ("conv2_1", (11, 15, 1, 32)), ("conv2_2", (9, 12, 1, 32)),
    ("pool2", (9, 6, 1, 32)), ("conv3_1", (7, 4, 1, 64)),
    ("conv3_2", (5, 2, 1, 64)), ("conv4", (3, 1, 1, 128)), ("fc5", (64,)),
]


@pytest.fixture(scope="module")
def model():
    return CoupledModel(ModelConfig(seed=1, dtype="float32"))


class TestArchitecture:
    def test_visual_trace_rows(self, model):
        shapes, out = model.visual_net.trace(Tensor(np.zeros(VISUAL_INPUT_SHAPE, np.float32)))
        got = dict(shapes)
        for name, expected in VISUAL_TRACE:
            assert got[name] == expected, f"{name}: {got[name]} != {expected}"
        assert out.data.shape == (64,)

    def test_audio_trace_rows(self, model):
        shapes, out = model.audio_net.trace(
            Tensor(np.zeros(AUDIO_INPUT_SHAPE + (1,), np.float32)))
        got = dict(shapes)
        for name, expected in AUDIO_TRACE:
            assert got[name] == expected, f"{name}: {got[name]} != {expected}"
        assert out.data.shape == (64,)

    @pytest.mark.parametrize("signs", ["as built", "half the gammas and slopes negative"])
    def test_trace_ends_with_the_forward_bits(self, signs):
        # trace runs every layer as it stands; forward pools first where every
        # channel is non-decreasing and runs the layers as written elsewhere
        m = CoupledModel(ModelConfig(seed=2, dtype="float32"))
        if signs != "as built":
            for name, p in m.named_parameters():
                if name.endswith((".gamma", ".slope")):
                    p.data[::2] *= -1
        rng = np.random.default_rng(3)
        # one train pass moves the running statistics off their initial 0 and 1
        m.embed_visual(rng.standard_normal((2,) + VISUAL_INPUT_SHAPE).astype(np.float32),
                       mode="train", rng=rng)
        m.embed_audio(rng.standard_normal((2,) + AUDIO_INPUT_SHAPE).astype(np.float32),
                      mode="train", rng=rng)
        xv = Tensor(rng.standard_normal(VISUAL_INPUT_SHAPE).astype(np.float32))
        xa = Tensor(rng.standard_normal(AUDIO_INPUT_SHAPE + (1,)).astype(np.float32))
        for net, x in ((m.visual_net, xv), (m.audio_net, xa)):
            _, traced = net.trace(x)
            assert traced.data.tobytes() == net.forward(x, mode="infer").data.tobytes()

    def test_zero_cube_embeddings_finite(self, model):
        ev = model.embed_visual(np.zeros(VISUAL_INPUT_SHAPE, np.float32))
        ea = model.embed_audio(np.zeros(AUDIO_INPUT_SHAPE, np.float32))
        assert np.isfinite(ev.data).all() and np.isfinite(ea.data).all()

    def test_infer_mode_deterministic(self, model):
        rng = np.random.default_rng(0)
        cube = rng.standard_normal(VISUAL_INPUT_SHAPE).astype(np.float32)
        a = model.embed_visual(cube).data
        b = model.embed_visual(cube).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bn1", ["as built", "negative gamma"])
    @pytest.mark.parametrize("mode", ["train", "frozen"])
    @pytest.mark.parametrize("stream", ["visual", "audio"])
    def test_one_sample_has_no_batch_statistics(self, stream, mode, bn1):
        # refused before any layer runs, so no running statistic moves; a
        # negative gamma sends bn1 down the unpooled path
        m = CoupledModel(ModelConfig(seed=2, dtype="float32"))
        net = getattr(m, f"{stream}_net")
        if bn1 != "as built":
            next(layer for layer in net.layers if layer.name == "bn1").gamma.data[0] = -0.5
        shape = VISUAL_INPUT_SHAPE if stream == "visual" else AUDIO_INPUT_SHAPE
        cube = np.random.default_rng(4).standard_normal(shape).astype(np.float32)
        before = m.state_checksum()
        with pytest.raises(ContractError, match=f"{stream}: batch statistics need a batch of >= 2"):
            getattr(m, f"embed_{stream}")(cube, mode=mode, rng=np.random.default_rng(0))
        assert m.state_checksum() == before

    def test_wrong_input_shape(self, model):
        with pytest.raises(ShapeError):
            model.embed_visual(np.zeros((9, 60, 99, 1), np.float32))

    @pytest.mark.parametrize("zeta", [16, 32, 64, 128, 256])
    def test_zeta_sweep_changes_only_fc_output(self, zeta):
        m = CoupledModel(ModelConfig(zeta=zeta, seed=0, dtype="float32"))
        shapes, out = m.visual_net.trace(Tensor(np.zeros(VISUAL_INPUT_SHAPE, np.float32)))
        got = dict(shapes)
        for name, expected in VISUAL_TRACE[:-1]:   # all rows before the embedding
            assert got[name] == expected
        assert out.data.shape == (zeta,)
        ea = m.embed_audio(np.zeros(AUDIO_INPUT_SHAPE, np.float32))
        assert ea.data.shape == (zeta,)

    def test_networks_do_not_share_parameters(self, model):
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        visual = {n for n in names if n.startswith("visual.")}
        audio = {n for n in names if n.startswith("audio.")}
        assert visual and audio and not (visual & audio)


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.zeta == 64 and cfg.mu == 1.0 and cfg.rho == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"zeta": 0}, {"mu": 0.0}, {"mu": -1.0}, {"lam": -0.1},
        {"rho": 1.0}, {"rho": -0.2}, {"dtype": "float16"}, {"seed": -1}, {"seed": 2 ** 63},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)


class TestPairDistance:
    def test_identical_vectors_near_zero(self):
        e = Tensor(np.ones(8))
        assert pair_distance(e, Tensor(np.ones(8))).item() < 2e-6

    def test_pythagorean(self):
        d = pair_distance(Tensor([0.0, 0.0]), Tensor([3.0, 4.0]))
        assert d.item() == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_formula_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(16), rng.standard_normal(16)
        got = pair_distance(Tensor(a), Tensor(b)).item()
        expected = np.sqrt(((a - b) ** 2).sum())
        assert abs(got - expected) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            pair_distance(Tensor(np.ones(4)), Tensor(np.ones(5)))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        ev, ea = rng.standard_normal((6, 8)), rng.standard_normal((6, 8))
        batch = batch_distances(Tensor(ev), Tensor(ea)).data
        for i in range(6):
            single = pair_distance(Tensor(ev[i]), Tensor(ea[i])).item()
            assert abs(batch[i] - single) < 1e-12


class TestContrastiveLoss:
    CFG = ModelConfig(mu=1.0, lam=0.0)

    def closed_form(self, d, y):
        return contrastive_loss(Tensor(np.array(d)), np.array(y), self.CFG).item()

    def test_perfect_genuine(self):
        assert self.closed_form([0.0], [1]) == 0.0

    def test_impostor_at_margin(self):
        assert self.closed_form([1.0], [0]) == 0.0

    def test_impostor_inside_margin(self):
        assert self.closed_form([0.4], [0]) == pytest.approx(0.18, abs=1e-12)

    def test_genuine_at_04(self):
        assert self.closed_form([0.4], [1]) == pytest.approx(0.08, abs=1e-12)

    def test_batch_mean(self):
        got = self.closed_form([0.0, 1.0, 0.4, 0.4], [1, 0, 0, 1])
        assert got == pytest.approx((0.0 + 0.0 + 0.18 + 0.08) / 4, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(0, 2, 32)
        y = (rng.random(32) < 0.5).astype(int)
        base = self.closed_form(d, y)
        for seed in range(5):
            p = np.random.default_rng(seed).permutation(32)
            assert self.closed_form(d[p], y[p]) == pytest.approx(base, abs=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ContractError):
            contrastive_loss(Tensor(np.zeros(0)), np.zeros(0), self.CFG)

    def test_non_binary_labels(self):
        with pytest.raises(ContractError):
            contrastive_loss(Tensor([0.5]), np.array([2]), self.CFG)

    def test_distance_gradient_signs(self):
        # genuine pull >= 0, impostor push <= 0 inside the margin, 0 beyond it
        d = Tensor(np.array([0.7, 0.4, 1.0, 1.3]), requires_grad=True)
        y = np.array([1, 0, 0, 0])
        with Tape() as tape:
            loss = contrastive_loss(d, y, self.CFG)
        backward(loss, tape)
        g = d.grad
        assert g[0] > 0                  # genuine pulled together
        assert g[1] < 0                  # impostor inside margin pushed apart
        assert g[2] == 0 and g[3] == 0   # at or beyond the margin: no force

    def test_regularizer_squared_norm(self):
        cfg = ModelConfig(mu=1.0, lam=0.5)
        w = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        loss = contrastive_loss(Tensor([1.0]), np.array([0]), cfg, weights=[w])
        assert loss.item() == pytest.approx(0.5 * 5.0)


class TestEndToEnd:
    def test_micro_batch_gradient_check(self):
        cfg = ModelConfig(zeta=3, mu=0.8, lam=1e-3, rho=0.25, seed=1, dtype="float64")
        m = build_mini_model(cfg)
        xv, xa, y = mini_batch(2, seed=2)
        xv_t = Tensor(xv, requires_grad=True)
        xa_t = Tensor(xa, requires_grad=True)

        def build():
            rng = np.random.default_rng(42)   # fixed dropout mask per evaluation
            ev = m.visual_net.forward(xv_t, mode="train", rng=rng)
            ea = m.audio_net.forward(xa_t.reshape(xa.shape + (1,)), mode="train", rng=rng)
            d = batch_distances(ev, ea)
            return contrastive_loss(d, y, cfg, weights=m.weight_tensors())

        params = [p for _, p in m.named_parameters()]
        check_op_gradients(build, params + [xv_t, xa_t], context="coupled micro-batch")

    def test_training_mode_uses_dropout(self):
        m = build_mini_model()
        xv, _, _ = mini_batch(4, seed=0)
        infer = m.visual_net.forward(Tensor(xv), mode="frozen").data
        train = m.visual_net.forward(Tensor(xv), mode="frozen").data
        np.testing.assert_array_equal(infer, train)   # frozen path deterministic
        t1 = m.visual_net.forward(Tensor(xv), mode="train",
                                  rng=np.random.default_rng(0)).data
        t2 = m.visual_net.forward(Tensor(xv), mode="train",
                                  rng=np.random.default_rng(1)).data
        assert not np.array_equal(t1, t2)             # dropout masks differ

    def test_train_step_records_hand_counted_nodes(self):
        m = build_mini_model()
        xv, xa, y = mini_batch(4, seed=0)
        with Tape() as tape:
            ev = m.embed_visual(xv, mode="train", rng=np.random.default_rng(0))
            visual_nodes = len(tape)
            ea = m.embed_audio(xa, mode="train", rng=np.random.default_rng(0))
            audio_nodes = len(tape) - visual_nodes
            d = batch_distances(ev, ea)
            distance_nodes = len(tape) - visual_nodes - audio_nodes
            loss = contrastive_loss(d, y, m.config, weights=m.weight_tensors())
        # one node per layer, but each stream's conv1 -> bn1 -> prelu1 ->
        # pool1 records one (the batch norm given the conv, the PReLU and the
        # pool); the input reshape of embed_audio needs no gradient
        assert visual_nodes == len(m.visual_net.layers) - 3 == 9
        assert audio_nodes == len(m.audio_net.layers) - 3 == 6
        # ev - ea, diff * diff, sum, + eps, sqrt
        assert distance_nodes == 5
        # data term: d * d, * 0.5, * y (3); mu - d, maximum (2); hinge * hinge,
        # * 0.5, * (1 - y) (3); +, sum, * 1/n (3). Regularizer over the 7 weight
        # tensors: w * w and sum each (14), 6 running additions, * lam and + (2).
        assert len(tape) - 9 - 6 - 5 == 3 + 2 + 3 + 3 + 14 + 6 + 2
        assert tape.nodes[-1][0] is loss
