"""Verification decision rule and ROC / Precision-Recall metrics.

A pair verifies as a match when its embedding distance is at or below the
threshold. Sweeping the threshold over the observed distances yields the ROC
(FAR vs TPR) and PR curves; EER is the operating point where the false
acceptance and false rejection rates meet, AUC the trapezoidal area under
the ROC (equal to the rank statistic with half credit for ties), and AP the
step-sum area under the PR curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError


@dataclass
class MetricsReport:
    eer: float
    auc: float
    ap: float
    roc: list          # (FAR, TPR) points, tau ascending
    pr: list           # (Recall, Precision) points
    n_gen: int
    n_imp: int
    fold_stats: dict = field(default_factory=dict)   # metric -> (mean, std)

    def to_dict(self) -> dict:
        out = {
            "eer": self.eer,
            "auc": self.auc,
            "ap": self.ap,
            "counts": {"genuine": self.n_gen, "impostor": self.n_imp},
        }
        if self.fold_stats:
            out["folds"] = {k: {"mean": m, "std": s} for k, (m, s) in self.fold_stats.items()}
        return out


def _sweep(distances, labels):
    """Validated (TP, FA, n_gen, n_imp): cumulative counts at each unique distance, ascending."""
    d = np.asarray(distances, dtype=np.float64)
    y = np.asarray(labels)
    if d.shape != y.shape or d.ndim != 1:
        raise ContractError("distances and labels must be matching 1-D sequences")
    if not np.all(np.isfinite(d)):
        raise ContractError("distances must be finite")
    gen = d[y == 1]
    imp = d[y == 0]
    if len(gen) == 0 or len(imp) == 0:
        raise ContractError("need at least one genuine and one impostor pair")
    taus = np.unique(np.concatenate([gen, imp]))
    tp = np.searchsorted(np.sort(gen), taus, side="right")
    fa = np.searchsorted(np.sort(imp), taus, side="right")
    return tp, fa, len(gen), len(imp)


def _eer(far: np.ndarray, tpr: np.ndarray) -> float:
    frr = 1.0 - tpr
    # far - frr goes from -1 (no matches) to +1 (everything matches)
    diff = far - frr
    idx = int(np.searchsorted(diff >= 0, True))
    if idx == 0:
        return float(far[0])
    f1, f2 = far[idx - 1], far[idx]
    r1, r2 = frr[idx - 1], frr[idx]
    denom = (f2 - f1) - (r2 - r1)
    if denom == 0.0:
        return float((f1 + r1) / 2.0)
    t = (r1 - f1) / denom
    return float(f1 + t * (f2 - f1))


def metrics_from_scores(distances, labels) -> MetricsReport:
    """EER, AUC, AP, ROC and PR read off one threshold sweep.

    The ROC starts at a threshold below every distance, (0, 0). Each PR point
    takes a tie group atomically; every swept threshold admits its own
    distance, so precision is always defined.
    """
    tp, fa, n_gen, n_imp = _sweep(distances, labels)
    far = np.concatenate([[0.0], fa / n_imp])
    tpr = np.concatenate([[0.0], tp / n_gen])
    recall = tp / n_gen
    precision = tp / (tp + fa)
    pr = list(zip(recall.tolist(), precision.tolist()))
    ap = 0.0
    prev_r = 0.0
    for r, p in pr:
        ap += (r - prev_r) * p
        prev_r = r
    return MetricsReport(
        eer=_eer(far, tpr),
        auc=float(np.trapezoid(tpr, far)),
        ap=float(ap),
        roc=list(zip(far.tolist(), tpr.tolist())),
        pr=pr,
        n_gen=n_gen,
        n_imp=n_imp,
    )


def compute_eer(distances, labels) -> float:
    """Rate where FAR equals FRR, linearly interpolated between sweep points."""
    return metrics_from_scores(distances, labels).eer


def compute_auc(distances, labels) -> float:
    """Trapezoidal area under the ROC; equals P(d_gen < d_imp) + 0.5 P(tie)."""
    return metrics_from_scores(distances, labels).auc


def compute_ap(distances, labels) -> float:
    """Step-sum sum_i (R_i - R_{i-1}) * P_i over the PR points."""
    return metrics_from_scores(distances, labels).ap
