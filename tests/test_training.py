import numpy as np
import pytest

import avmatch.training as training
from avmatch.errors import ConfigError, ContractError, DataError
from avmatch.model import ModelConfig
from avmatch.pairs import SelectionConfig
from avmatch.tensor import Tensor
from avmatch.training import (PackedPairs, TrainConfig, cross_validate,
                              evaluate_run, fit, frozen_distances,
                              make_optimizer, pack_pairs, param_grid, scores,
                              split_folds, train_epoch)

from minimodel import MINI_AUDIO_SHAPE, MINI_VISUAL_SHAPE, build_mini_model


def toy_data(n=24, n_subjects=6, seed=0, separable=True):
    """Packed pairs for the mini model; genuine pairs share structure across
    modalities so the matching task is learnable."""
    rng = np.random.default_rng(seed)
    xv = np.zeros((n,) + MINI_VISUAL_SHAPE)
    xa = np.zeros((n,) + MINI_AUDIO_SHAPE)
    y = np.zeros(n, dtype=np.int64)
    subjects = np.empty(n, dtype=object)
    for i in range(n):
        profile = rng.standard_normal(4)
        xv[i] = profile[:, None, None, None] + 0.05 * rng.standard_normal(MINI_VISUAL_SHAPE)
        y[i] = i % 2
        if separable and y[i] == 1:
            xa[i] = np.repeat(profile, 2)[:6, None, None] * np.ones(MINI_AUDIO_SHAPE) \
                + 0.05 * rng.standard_normal(MINI_AUDIO_SHAPE)
        else:
            xa[i] = rng.standard_normal(MINI_AUDIO_SHAPE)
        subjects[i] = f"s{i % n_subjects}"
    return PackedPairs(speech=xa, visual=xv, labels=y, subjects=subjects)


def mini_train_cfg(**kwargs):
    defaults = dict(batch_size=8, max_epochs=3, learning_rate=5e-3, seed=0,
                    selection=SelectionConfig(eta0=0.5, enabled=False))
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestSplitFolds:
    def test_five_subjects_one_each(self):
        plan = split_folds([f"s{i}" for i in range(5)], k=5, seed=0)
        sizes = sorted(len(f) for f in plan.folds())
        assert sizes == [1, 1, 1, 1, 1]

    def test_twelve_subjects_balanced(self):
        plan = split_folds([f"s{i}" for i in range(12)], k=5, seed=3)
        sizes = sorted(len(f) for f in plan.folds())
        assert sizes == [2, 2, 2, 3, 3]

    def test_partition_laws(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(5, 40))
            subjects = [f"subj{j}" for j in range(n)]
            plan = split_folds(subjects, k=5, seed=trial)
            folds = plan.folds()
            union = [s for f in folds for s in f]
            assert sorted(union) == sorted(subjects)         # cover, no duplicates
            assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1

    def test_deterministic(self):
        subjects = [f"s{i}" for i in range(9)]
        assert split_folds(subjects, 5, seed=7).assignment == \
            split_folds(subjects, 5, seed=7).assignment

    def test_too_few_subjects(self):
        with pytest.raises(ConfigError):
            split_folds(["a", "b"], k=5, seed=0)

    @pytest.mark.parametrize("k", [0, 1])
    def test_fewer_than_two_folds(self, k):
        with pytest.raises(ConfigError, match="at least 2 folds"):
            split_folds(["a", "b", "c"], k=k, seed=0)


class TestPackPairs:
    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            pack_pairs([])

    def test_subset_roundtrip(self):
        data = toy_data(10)
        sub = data.subset(np.array([0, 2, 4]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, data.labels[[0, 2, 4]])


class TestTrainEpoch:
    def test_step_count_without_selection(self):
        data = toy_data(20)
        model = build_mini_model()
        cfg = mini_train_cfg(batch_size=8)
        opt = make_optimizer(model, cfg)
        stats = train_epoch(model, data, cfg, epoch=0, optimizer=opt)
        assert stats.steps == 3          # ceil(20 / 8): every pair contributes
        assert stats.selection_rate == 1.0

    def test_selection_pass_changes_nothing(self):
        data = toy_data(16)
        model = build_mini_model()
        before = model.state_checksum()
        frozen_distances(model, data.speech, data.visual)
        assert model.state_checksum() == before

    def test_loss_decreases_on_separable_toy(self):
        data = toy_data(32, seed=1)
        model = build_mini_model(ModelConfig(zeta=3, rho=0.0, seed=0, dtype="float64"))
        cfg = mini_train_cfg(max_epochs=6, learning_rate=2e-2)
        opt = make_optimizer(model, cfg)
        losses = [train_epoch(model, data, cfg, e, opt).mean_loss for e in range(6)]
        assert losses[-1] < losses[0]

    def test_deterministic_parameters(self):
        def run():
            data = toy_data(16, seed=2)
            model = build_mini_model(ModelConfig(zeta=3, rho=0.3, seed=1, dtype="float64"))
            cfg = mini_train_cfg(max_epochs=2, selection=SelectionConfig(enabled=True))
            fit(model, data, cfg)
            return np.concatenate([p.data.ravel().copy() for p in model.parameters()])

        np.testing.assert_array_equal(run(), run())

    def test_selection_rate_tracked(self):
        data = toy_data(16, seed=3)
        model = build_mini_model()
        cfg = mini_train_cfg(selection=SelectionConfig(eta0=0.05, enabled=True))
        opt = make_optimizer(model, cfg)
        stats = train_epoch(model, data, cfg, epoch=0, optimizer=opt)
        assert 0.0 <= stats.selection_rate <= 1.0

    @pytest.mark.parametrize("optimizer", ["sgdm", "adam"])
    def test_step_applies_and_clears_gradients(self, optimizer):
        model = build_mini_model()
        opt = make_optimizer(model, mini_train_cfg(optimizer=optimizer))
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        before = model.state_checksum()
        opt.step()
        assert model.state_checksum() != before
        assert all(p.grad is None for p in model.parameters())

    def test_nan_kernel_named(self):
        model = build_mini_model()
        model.visual_net.layers[4].kernels.data[0, 0, 0, 0, 0] = np.nan   # visual conv2
        with pytest.raises(DataError, match="epoch 0 step 0: .*parameter visual.conv2.kernels"), \
                np.errstate(invalid="ignore"):
            fit(model, toy_data(16), mini_train_cfg())

    def test_diverging_run_raises(self):
        model = build_mini_model()
        # the steps overflow the first block's output before any parameter
        with pytest.raises(DataError, match=r"non-finite distance; parameters are finite; "
                                            r"visual\.prelu1 output is not"), \
                np.errstate(all="ignore"):
            fit(model, toy_data(24), mini_train_cfg(learning_rate=1e30, max_epochs=3))

    def test_adam_option(self):
        data = toy_data(12)
        model = build_mini_model()
        cfg = mini_train_cfg(optimizer="adam")
        result = fit(model, data, cfg)
        assert len(result.history) == cfg.max_epochs


class TestEarlyStop:
    def test_two_consecutive_rises_stop(self, monkeypatch):
        scripted = iter([0.30, 0.20, 0.25, 0.28, 0.10, 0.10])
        monkeypatch.setattr(training, "compute_eer", lambda d, y: next(scripted))
        data = toy_data(12)
        model = build_mini_model()
        cfg = mini_train_cfg(max_epochs=6)
        result = fit(model, data, cfg, val_data=toy_data(8, seed=9))
        assert result.stopped_early
        assert len(result.history) == 4    # rises at epochs 2 and 3

    def test_runs_to_max_epochs_without_val(self):
        data = toy_data(12)
        model = build_mini_model()
        result = fit(model, data, mini_train_cfg(max_epochs=3))
        assert len(result.history) == 3 and not result.stopped_early


def repeated_cubes(visual_idx, speech_idx, seed=0):
    """Packed pairs whose visual and speech cubes are picked from small pools."""
    rng = np.random.default_rng(seed)
    xv = rng.standard_normal((max(visual_idx) + 1,) + MINI_VISUAL_SHAPE)
    xa = rng.standard_normal((max(speech_idx) + 1,) + MINI_AUDIO_SHAPE)
    n = len(visual_idx)
    return PackedPairs(speech=xa[speech_idx], visual=xv[visual_idx], labels=np.arange(n) % 2,
                       subjects=np.array(["s0"] * n, dtype=object))


def embedded_batches(model, monkeypatch):
    """Record the cubes of every embed call, per stream."""
    batches = {"visual": [], "audio": []}
    for stream, log in batches.items():
        original = getattr(model, f"embed_{stream}")

        def recording(cube, mode="infer", rng=None, original=original, log=log):
            log.append(np.array(cube))
            return original(cube, mode=mode, rng=rng)

        monkeypatch.setattr(model, f"embed_{stream}", recording)
    return batches


def row_bytes(cubes):
    return sorted(row.tobytes() for row in cubes)


class TestScores:
    def test_each_distinct_cube_embedded_once(self, monkeypatch):
        visual_idx = np.arange(24) % 5
        speech_idx = np.random.default_rng(1).permutation(np.arange(24) % 4)
        data = repeated_cubes(visual_idx, speech_idx)
        model = build_mini_model()
        batches = embedded_batches(model, monkeypatch)
        scores(model, data)
        assert row_bytes(np.concatenate(batches["visual"])) == row_bytes(np.unique(data.visual, axis=0))
        assert row_bytes(np.concatenate(batches["audio"])) == row_bytes(np.unique(data.speech, axis=0))

    def test_one_element_apart_is_not_merged(self, monkeypatch):
        data = repeated_cubes(np.zeros(4, int), np.zeros(4, int))
        data.visual[1, 0, 0, 0, 0] += 1.0
        data.speech[3, -1, -1, -1] = np.nextafter(data.speech[3, -1, -1, -1], np.inf)
        model = build_mini_model()
        batches = embedded_batches(model, monkeypatch)
        d, _ = scores(model, data)
        assert sum(map(len, batches["visual"])) == 2
        assert sum(map(len, batches["audio"])) == 2
        assert d[0] == d[2] and d[0] != d[1]

    def test_negative_zero_is_not_merged_with_zero(self, monkeypatch):
        # equal as values, apart as bytes: the byte rule embeds both
        data = repeated_cubes(np.zeros(4, int), np.zeros(4, int))
        data.visual[:2, 0, 0, 0, 0] = 0.0
        data.visual[2:, 0, 0, 0, 0] = -0.0
        model = build_mini_model()
        batches = embedded_batches(model, monkeypatch)
        scores(model, data)
        assert sum(map(len, batches["visual"])) == 2
        assert sum(map(len, batches["audio"])) == 1

    def test_distinct_cubes_embedded_in_order_of_first_appearance(self, monkeypatch):
        data = repeated_cubes(np.array([3, 1, 3, 0, 2, 1]), np.array([1, 1, 0, 0, 1, 0]))
        model = build_mini_model()
        batches = embedded_batches(model, monkeypatch)
        scores(model, data)
        np.testing.assert_array_equal(np.concatenate(batches["visual"]), data.visual[[0, 1, 3, 4]])
        np.testing.assert_array_equal(np.concatenate(batches["audio"]), data.speech[[0, 2]])

    def test_matches_one_batch_and_repeats_exactly(self):
        visual_idx = np.arange(30) % 6
        speech_idx = np.arange(30) // 6 % 2
        data = repeated_cubes(visual_idx, speech_idx, seed=2)
        model = build_mini_model()
        d, y = scores(model, data)
        reference = training._distances(model, data.speech, data.visual, "infer").data
        np.testing.assert_allclose(d, reference, rtol=1e-6)
        np.testing.assert_array_equal(y, data.labels)
        for i in range(30):
            same = (visual_idx == visual_idx[i]) & (speech_idx == speech_idx[i])
            assert same.sum() > 1 and np.all(d[same] == d[i])

    def test_balanced_chunks(self, monkeypatch):
        data = repeated_cubes(np.arange(34) % 17, np.zeros(34, int))
        model = build_mini_model()
        batches = embedded_batches(model, monkeypatch)
        scores(model, data)
        assert [len(b) for b in batches["visual"]] == [9, 8]
        assert all(len(b) <= training.SCORE_BATCH for b in batches["visual"])

    def test_empty_set(self):
        data = repeated_cubes(np.arange(4), np.arange(4))
        d, y = scores(build_mini_model(), data.subset(np.zeros(len(data), bool)))
        assert d.shape == (0,) and y.shape == (0,)


class _StubModel:
    """Embeds the first 3 values of each cube; distances fully determined by data."""
    class _Cfg:
        np_dtype = np.float64
    config = _Cfg()

    def embed_visual(self, cubes, mode="infer", rng=None):
        flat = np.asarray(cubes).reshape(len(cubes), -1)[:, :3]
        return Tensor(flat)

    def embed_audio(self, cubes, mode="infer", rng=None):
        return Tensor(np.zeros((len(cubes), 3)))


class TestEvaluateRun:
    def make_data(self, distances, labels):
        n = len(distances)
        xv = np.zeros((n,) + MINI_VISUAL_SHAPE)
        # place the desired distance in the stub's embedding slot
        xv[:, :, 0, 0, 0] = 0.0
        for i, d in enumerate(distances):
            xv[i, 0, 0, 0, 0] = d
        xa = np.zeros((n,) + MINI_AUDIO_SHAPE)
        return PackedPairs(speech=xa, visual=xv, labels=np.asarray(labels),
                           subjects=np.array([f"s{i}" for i in range(n)], dtype=object))

    def test_constant_metric_zero_std(self):
        # identical distance pattern in every split
        distances = [0.1, 0.9] * 10
        labels = [1, 0] * 10
        report = evaluate_run(_StubModel(), self.make_data(distances, labels), folds=5)
        mean, std = report.fold_stats["eer"]
        assert mean == 0.0 and std == 0.0

    def test_fold_stats_match_recomputation(self):
        rng = np.random.default_rng(0)
        n = 40
        labels = np.tile([1, 0], n // 2)
        distances = np.where(labels == 1, rng.uniform(0, 0.8, n), rng.uniform(0.2, 1.2, n))
        data = self.make_data(distances, labels)
        report = evaluate_run(_StubModel(), data, folds=5)

        from avmatch.metrics import metrics_from_scores
        split_of = np.empty(n, dtype=int)
        for cls in (0, 1):
            members = np.flatnonzero(labels == cls)
            split_of[members] = np.arange(len(members)) % 5
        eers = [metrics_from_scores(distances[split_of == s], labels[split_of == s]).eer
                for s in range(5)]
        mean, std = report.fold_stats["eer"]
        assert mean == pytest.approx(np.mean(eers), abs=1e-12)
        assert std == pytest.approx(np.std(eers, ddof=1), abs=1e-12)

    def test_too_few_pairs(self):
        with pytest.raises(ContractError):
            evaluate_run(_StubModel(), self.make_data([0.1, 0.9], [1, 0]), folds=5)

    @pytest.mark.parametrize("folds", [0, 1])
    def test_fewer_than_two_folds(self, folds):
        # one split would give a NaN standard deviation
        with pytest.raises(ConfigError, match="at least 2 folds"):
            evaluate_run(_StubModel(), self.make_data([0.1, 0.9] * 5, [1, 0] * 5),
                         folds=folds)


class TestCrossValidate:
    def test_degenerate_grid_returns_point(self):
        data = toy_data(20, n_subjects=5, seed=4)
        result = cross_validate(data, [{"mu": 1.0}], ModelConfig(zeta=3, dtype="float64"),
                                mini_train_cfg(max_epochs=1), k=5,
                                model_factory=lambda cfg: build_mini_model(cfg))
        assert result.best == {"mu": 1.0}
        assert len(result.table) == 1
        point, fold_eers, mean = result.table[0]
        assert len(fold_eers) == 5
        assert mean == pytest.approx(np.mean(fold_eers))

    def test_argmin_over_recomputed_means(self):
        data = toy_data(20, n_subjects=5, seed=5)
        grid = param_grid({"mu": [0.5, 1.0]})
        result = cross_validate(data, grid, ModelConfig(zeta=3, dtype="float64"),
                                mini_train_cfg(max_epochs=1), k=5,
                                model_factory=lambda cfg: build_mini_model(cfg))
        best_mean = min(np.mean(eers) for _, eers, _ in result.table)
        chosen = next(mean for point, _, mean in result.table if point == result.best)
        assert chosen == pytest.approx(best_mean)

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            cross_validate(toy_data(20), [], ModelConfig(zeta=3), mini_train_cfg(), k=5)

    def test_unknown_hyperparameter(self):
        with pytest.raises(ConfigError):
            cross_validate(toy_data(20, n_subjects=5), [{"bogus": 1}],
                           ModelConfig(zeta=3, dtype="float64"),
                           mini_train_cfg(max_epochs=1), k=5,
                           model_factory=lambda cfg: build_mini_model(cfg))

    def test_eta0_is_not_a_grid_axis(self):
        # selection is off in every fold, so an eta0 axis would not be used
        with pytest.raises(ConfigError, match="eta0"):
            cross_validate(toy_data(20, n_subjects=5), [{"eta0": 0.1}],
                           ModelConfig(zeta=3, dtype="float64"),
                           mini_train_cfg(max_epochs=1), k=5,
                           model_factory=lambda cfg: build_mini_model(cfg))

    def test_param_grid_product(self):
        grid = param_grid({"mu": [0.5, 1.0], "lam": [0.0, 0.1, 0.2]})
        assert len(grid) == 6
        assert {"mu": 0.5, "lam": 0.2} in grid


class TestTrainConfig:
    def test_batch_size_floor(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)

    def test_bad_optimizer(self):
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="lbfgs")
