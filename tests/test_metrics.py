import numpy as np
import pytest

from avmatch.errors import ConfigError, ContractError
from avmatch.metrics import (compute_ap, compute_auc, compute_eer,
                             metrics_from_scores, pr_points, rates_at,
                             roc_points, verify)


def random_scores(seed, n=50, separation=0.0):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(int)
    y[0], y[1] = 1, 0   # both classes present
    d = rng.random(n) + separation * (1 - y)
    return d, y


def dense_sweep_eer(d, y, n_taus=100_000):
    """Brute-force sweep: find the FAR/FRR sign flip on a dense threshold grid
    and linearly interpolate the crossing value there."""
    gen, imp = d[y == 1], d[y == 0]
    taus = np.linspace(d.min() - 1e-6, d.max() + 1e-6, n_taus)
    far = (imp[None, :] <= taus[:, None]).mean(axis=1)
    frr = (gen[None, :] > taus[:, None]).mean(axis=1)
    diff = far - frr
    i = int(np.argmax(diff >= 0))
    if i == 0:
        return far[0]
    f1, f2, r1, r2 = far[i - 1], far[i], frr[i - 1], frr[i]
    denom = (f2 - f1) - (r2 - r1)
    if denom == 0:
        return (f1 + r1) / 2.0
    t = (r1 - f1) / denom
    return f1 + t * (f2 - f1)


def mann_whitney_auc(d, y):
    gen, imp = d[y == 1], d[y == 0]
    wins = (gen[:, None] < imp[None, :]).sum()
    ties = (gen[:, None] == imp[None, :]).sum()
    return (wins + 0.5 * ties) / (len(gen) * len(imp))


class TestVerify:
    def test_match(self):
        assert verify(0.3, 0.5)

    def test_boundary_inclusive(self):
        assert verify(0.5, 0.5)

    def test_non_match(self):
        assert not verify(0.6, 0.5)

    def test_negative_threshold(self):
        with pytest.raises(ConfigError):
            verify(0.1, -0.5)


class TestRates:
    def test_perfect_separation(self):
        d = np.array([0.1, 0.2, 0.9, 1.0])
        y = np.array([1, 1, 0, 0])
        tpr, far, precision, recall = rates_at(d, y, 0.5)
        assert (tpr, far, precision, recall) == (1.0, 0.0, 1.0, 1.0)

    def test_zero_threshold(self):
        d = np.array([0.1, 0.2, 0.9])
        y = np.array([1, 1, 0])
        tpr, far, precision, _ = rates_at(d, y, 0.0)
        assert (tpr, far) == (0.0, 0.0)
        assert precision == 1.0   # vacuous-retrieval convention

    @pytest.mark.parametrize("seed", range(10))
    def test_counting_oracle_at_20_thresholds(self, seed):
        d, y = random_scores(seed)
        gen, imp = d[y == 1], d[y == 0]
        for tau in np.linspace(0, 1.2, 20):
            tpr, far, precision, recall = rates_at(d, y, tau)
            tp = sum(1 for v in gen if v <= tau)
            fa = sum(1 for v in imp if v <= tau)
            assert tpr == tp / len(gen)
            assert far == fa / len(imp)
            assert precision == (tp / (tp + fa) if tp + fa else 1.0)
            assert recall == tpr

    def test_empty_class_rejected(self):
        with pytest.raises(ContractError):
            rates_at(np.array([0.1, 0.2]), np.array([1, 1]), 0.5)


class TestEER:
    def test_perfect_separation(self):
        d = np.array([0.01, 0.05, 0.9, 0.95])
        y = np.array([1, 1, 0, 0])
        assert compute_eer(d, y) == 0.0

    def test_identical_multisets(self):
        d = np.array([0.2, 0.5, 0.8, 0.2, 0.5, 0.8])
        y = np.array([1, 1, 1, 0, 0, 0])
        assert compute_eer(d, y) == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(8))
    def test_dense_sweep_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        y = (rng.random(n) < 0.4).astype(int)
        y[:2] = [0, 1]
        d = np.where(y == 1, rng.normal(0.4, 0.2, n), rng.normal(0.9, 0.3, n))
        d = np.abs(d)
        assert abs(compute_eer(d, y) - dense_sweep_eer(d, y)) < 1e-3


class TestAUCAndAP:
    def test_perfect_separation(self):
        d = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([1, 1, 0, 0])
        assert compute_auc(d, y) == 1.0
        assert compute_ap(d, y) == 1.0

    def test_random_labels_near_half(self):
        rng = np.random.default_rng(0)
        d = rng.random(4000)
        y = (rng.random(4000) < 0.5).astype(int)
        assert abs(compute_auc(d, y) - 0.5) < 0.05

    @pytest.mark.parametrize("seed", range(10))
    def test_auc_equals_rank_statistic(self, seed):
        d, y = random_scores(seed, n=80)
        d = np.round(d, 1)   # force plenty of ties
        assert abs(compute_auc(d, y) - mann_whitney_auc(d, y)) < 1e-9

    def test_auc_invariant_under_impostor_duplication(self):
        d, y = random_scores(3, n=60)
        d2 = np.concatenate([d, d[y == 0]])
        y2 = np.concatenate([y, np.zeros(np.sum(y == 0), dtype=int)])
        assert compute_auc(d2, y2) == compute_auc(d, y)

    def test_ap_can_move_under_duplication_auc_cannot(self):
        d = np.array([0.1, 0.3, 0.2, 0.6, 0.5, 0.9])
        y = np.array([1, 1, 0, 1, 0, 0])
        d2 = np.concatenate([d, d[y == 0]])
        y2 = np.concatenate([y, np.zeros(3, dtype=int)])
        assert compute_auc(d2, y2) == compute_auc(d, y)
        assert compute_ap(d2, y2) != compute_ap(d, y)


class TestInvariances:
    @pytest.mark.parametrize("transform", [
        lambda d: 3.0 * d + 1.0,
        lambda d: d ** 3 + d,
        lambda d: np.exp(d),
    ])
    def test_monotone_transform_leaves_rank_metrics(self, transform):
        d, y = random_scores(7, n=120)
        td = transform(d)
        assert compute_eer(td, y) == pytest.approx(compute_eer(d, y), abs=1e-12)
        assert compute_auc(td, y) == pytest.approx(compute_auc(d, y), abs=1e-12)
        assert compute_ap(td, y) == pytest.approx(compute_ap(d, y), abs=1e-12)

    def test_roc_monotone_and_endpoints(self):
        d, y = random_scores(9, n=70)
        pts = roc_points(d, y)
        far = [p[0] for p in pts]
        tpr = [p[1] for p in pts]
        assert far[0] == 0.0
        assert pts[-1] == (1.0, 1.0)
        assert np.all(np.diff(far) >= 0)
        assert np.all(np.diff(tpr) >= 0)

    def test_report_auc_matches_own_roc_list(self):
        d, y = random_scores(11, n=90)
        report = metrics_from_scores(d, y)
        far = np.array([p[0] for p in report.roc])
        tpr = np.array([p[1] for p in report.roc])
        assert abs(report.auc - np.trapezoid(tpr, far)) < 1e-12

    def test_report_fields(self):
        d, y = random_scores(13)
        report = metrics_from_scores(d, y)
        assert 0 <= report.eer <= 1 and 0 <= report.auc <= 1 and 0 <= report.ap <= 1
        assert report.n_gen == int(np.sum(y == 1))
        assert report.n_imp == int(np.sum(y == 0))
        assert len(report.pr) == len(pr_points(d, y))

    @pytest.mark.parametrize("ties", [False, True])
    def test_single_metric_functions_are_report_fields(self, ties):
        d, y = random_scores(17, n=90)
        if ties:
            d = np.round(d, 1)
        assert (len(np.unique(d)) < len(d)) == ties
        report = metrics_from_scores(d, y)
        assert compute_eer(d, y) == report.eer
        assert compute_auc(d, y) == report.auc
        assert compute_ap(d, y) == report.ap
        assert roc_points(d, y) == report.roc
        assert pr_points(d, y) == report.pr
