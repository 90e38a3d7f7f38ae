"""Optimization loop, subject-disjoint folds, and run evaluation.

Every mini-batch goes through a frozen forward pass first (no tape, no
state updates) to obtain distances for monitoring and, when enabled, for the
adaptive impostor selection; the optimizer then steps on the selected
subset. Epoch losses are always reported from the frozen pass over the full
batch so runs with and without selection are directly comparable.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .metrics import compute_eer, metrics_from_scores
from .model import CoupledModel, ModelConfig, batch_distances, contrastive_loss, \
    contrastive_loss_value
from .pairs import SelectionConfig, select_impostors
from .tensor import Tape, Tensor, backward


_ARENA_TUNED = False
ARENA_THRESHOLD = 1 << 29   # bytes; mallopt mmap and trim threshold
SGDM_MOMENTUM = 0.9
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Most windows a scoring batch embeds. Infer mode is per-sample, so the batch
# size changes only speed and memory: visual infer took 34.0 ms/window at 64
# (peak RSS 769 MB), 31.8 at 16 (255 MB) and 29.6 at 8 (143 MB) on a 2-vCPU
# host with one BLAS thread. Whole evaluate_run calls at 8 and at 16 differed
# by less than the run-to-run spread of either.
SCORE_BATCH = 16


def enable_arena_reuse() -> None:
    """Keep large freed buffers in the malloc arena instead of unmapping them.

    The batched conv passes allocate and free hundreds of MB per step; with
    glibc's default mmap threshold every step pays mmap + page-zeroing costs.
    On a 2-vCPU host with one BLAS thread, full-size N=32 steps took 2.8-3.8 s
    with this tuning against 3.5-4.9 s without (medians 3.0 and 3.9 s). No
    effect on results; no-op on non-glibc platforms.
    """
    global _ARENA_TUNED
    if _ARENA_TUNED:
        return
    _ARENA_TUNED = True
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
        libc.mallopt(-3, ARENA_THRESHOLD)   # M_MMAP_THRESHOLD
        libc.mallopt(-1, ARENA_THRESHOLD)   # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


@dataclass
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 15
    learning_rate: float = 1e-3
    optimizer: str = "sgdm"       # or "adam"
    seed: int = 0
    selection: SelectionConfig = field(default_factory=SelectionConfig)

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 (batch normalization)")
        if self.max_epochs < 1:
            raise ConfigError("max epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.optimizer not in ("sgdm", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float        # full-batch data term from the frozen pass
    selection_rate: float   # kept impostors / impostors (1.0 when disabled)
    steps: int
    val_eer: float | None = None


@dataclass
class FitResult:
    history: list
    stopped_early: bool = False


@dataclass
class PackedPairs:
    """Pair list flattened into arrays ready for batched forward passes."""
    speech: np.ndarray    # [N, 15, 40, 3]
    visual: np.ndarray    # [N, 9, 60, 100, 1]
    labels: np.ndarray    # [N] in {0, 1}
    subjects: np.ndarray  # [N] object

    def __len__(self):
        return len(self.labels)

    def subset(self, idx) -> "PackedPairs":
        return PackedPairs(self.speech[idx], self.visual[idx], self.labels[idx],
                           self.subjects[idx])


def pack_pairs(pairs, dtype=np.float32) -> PackedPairs:
    if not pairs:
        raise ContractError("cannot pack an empty pair list")
    speech = np.stack([p.speech.values.data for p in pairs], dtype=dtype)
    visual = np.stack([p.visual.values.data for p in pairs], dtype=dtype)
    labels = np.array([p.label for p in pairs], dtype=np.int64)
    subjects = np.array([p.subject_id for p in pairs], dtype=object)
    return PackedPairs(speech, visual, labels, subjects)


class SGDMomentum:
    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """Apply each parameter's gradient, then clear it."""
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            v *= SGDM_MOMENTUM
            v += p.grad
            p.grad = None
            p.data -= (self.lr * v).astype(p.data.dtype, copy=False)


class Adam:
    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        """Apply each parameter's gradient, then clear it."""
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        scale = self.lr * np.sqrt(1 - b2 ** self.t) / (1 - b1 ** self.t)
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * (p.grad * p.grad)
            p.grad = None
            p.data -= (scale * m / (np.sqrt(v) + ADAM_EPS)).astype(p.data.dtype, copy=False)


def make_optimizer(model: CoupledModel, cfg: TrainConfig):
    if cfg.optimizer == "adam":
        return Adam(model.parameters(), cfg.learning_rate)
    return SGDMomentum(model.parameters(), cfg.learning_rate)


def _distances(model: CoupledModel, speech, visual, mode: str, rng=None) -> Tensor:
    """Embedding distances of a batch; visual first, so dropout draws keep their order."""
    ev = model.embed_visual(visual, mode=mode, rng=rng)
    ea = model.embed_audio(speech, mode=mode, rng=rng)
    return batch_distances(ev, ea)


def frozen_distances(model: CoupledModel, speech: np.ndarray, visual: np.ndarray) -> np.ndarray:
    """Distances with frozen weights: batch statistics, no updates, no dropout."""
    return _distances(model, speech, visual, "frozen").data.astype(np.float64)


def _embed_distinct(embed, x: np.ndarray) -> np.ndarray:
    """Infer-mode embeddings of x's rows, each distinct row embedded once.

    Two rows are one only when every byte is equal, so -0.0 and 0.0 stay
    apart: each row is compared as one opaque byte string. The distinct rows,
    in order of first appearance, go in near-equal chunks of at most
    SCORE_BATCH: OpenBLAS rounds a batch of 1-3 samples differently from the
    same samples in a larger batch, and equal chunks leave no such tail
    unless every chunk is that small.
    """
    rows = np.ascontiguousarray(x).reshape(len(x), -1)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    _, firsts, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(firsts)
    firsts, inverse = firsts[order], np.argsort(order)[inverse]
    chunks = np.array_split(firsts, -(-len(firsts) // SCORE_BATCH))
    return np.concatenate([embed(x[idx], mode="infer").data for idx in chunks])[inverse]


def scores(model: CoupledModel, data: PackedPairs):
    """Inference-mode distances over a packed set (running statistics).

    Each distinct visual and speech cube is embedded once and its embedding
    is shared by every pair that holds it, so the distances do not depend on
    how pairs repeat cubes (an impostor reuses its genuine pair's visual
    cube). On perfbench's 88-pair held-out sets, 48 visual cubes are
    distinct; its eval_ms_per_pair fell from 28.7 to 14.4 ms (medians of ten
    seeds, 2-vCPU host, one BLAS thread) against embedding every pair in
    batches of 64.
    """
    if not len(data):
        return np.empty(0), data.labels
    ev = _embed_distinct(model.embed_visual, data.visual)
    ea = _embed_distinct(model.embed_audio, data.speech)
    return batch_distances(Tensor(ev), Tensor(ea)).data.astype(np.float64), data.labels


def train_epoch(model: CoupledModel, data: PackedPairs, cfg: TrainConfig,
                epoch: int, optimizer) -> EpochStats:
    """One pass over the data: frozen pass, selection, update per mini-batch."""
    order = np.random.default_rng([cfg.seed, epoch]).permutation(len(data))
    losses = []
    kept_imp = 0
    total_imp = 0
    steps = 0
    mcfg = model.config

    for step, lo in enumerate(range(0, len(order), cfg.batch_size)):
        idx = order[lo:lo + cfg.batch_size]
        if len(idx) < 2:
            continue  # batch statistics need >= 2 samples
        speech = data.speech[idx]
        visual = data.visual[idx]
        labels = data.labels[idx]

        dist = frozen_distances(model, speech, visual)
        if not np.isfinite(dist).all():
            raise DataError(f"epoch {epoch} step {step}: non-finite distance; "
                            f"{model.non_finite_source(speech, visual)}")
        losses.append(contrastive_loss_value(dist, labels, mcfg.mu))

        train_idx = np.arange(len(idx))
        if cfg.selection.enabled:
            gen_mask = labels == 1
            imp_positions = np.flatnonzero(~gen_mask)
            keep = select_impostors(dist[gen_mask], dist[imp_positions], cfg.selection.eta0)
            total_imp += len(imp_positions)
            kept_imp += len(keep)
            train_idx = np.sort(np.concatenate([np.flatnonzero(gen_mask), imp_positions[keep]]))
        if len(train_idx) < 2:
            continue  # nothing informative survived; skip the update

        rng = np.random.default_rng([cfg.seed, epoch, step])
        with Tape() as tape:
            d = _distances(model, speech[train_idx], visual[train_idx], "train", rng)
            loss = contrastive_loss(d, labels[train_idx], mcfg,
                                    weights=model.weight_tensors())
            backward(loss, tape)
        optimizer.step()
        steps += 1

    if not losses:
        raise ContractError("epoch produced no usable batches")
    rate = (kept_imp / total_imp) if total_imp else 1.0
    return EpochStats(epoch=epoch, mean_loss=float(np.mean(losses)),
                      selection_rate=rate, steps=steps)


def fit(model: CoupledModel, train_data: PackedPairs, cfg: TrainConfig,
        val_data: PackedPairs | None = None) -> FitResult:
    """Run up to max_epochs, stopping when validation EER rises twice in a row."""
    enable_arena_reuse()
    optimizer = make_optimizer(model, cfg)
    history = []
    rising = 0
    prev_eer = None
    for epoch in range(cfg.max_epochs):
        stats = train_epoch(model, train_data, cfg, epoch, optimizer)
        history.append(stats)
        if val_data is None:
            continue
        d, y = scores(model, val_data)
        stats.val_eer = compute_eer(d, y)
        if prev_eer is not None:
            rising = rising + 1 if stats.val_eer > prev_eer else 0
        prev_eer = stats.val_eer
        if rising >= 2:
            return FitResult(history=history, stopped_early=True)
    return FitResult(history=history)


@dataclass
class FoldPlan:
    k: int
    assignment: dict    # subject_id -> fold index

    def folds(self):
        out = [[] for _ in range(self.k)]
        for subject, fold in self.assignment.items():
            out[fold].append(subject)
        return out


def split_folds(subjects, k: int = 5, seed: int = 0) -> FoldPlan:
    """Deterministic balanced partition of subjects into k disjoint folds."""
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    unique = sorted(set(subjects))
    if len(unique) < k:
        raise ConfigError(f"need at least {k} subjects, got {len(unique)}")
    order = np.random.default_rng(seed).permutation(len(unique))
    assignment = {unique[j]: i % k for i, j in enumerate(order)}
    return FoldPlan(k=k, assignment=assignment)


def param_grid(axes: dict) -> list:
    """Cartesian product of {name: [values]} into a list of override dicts."""
    points = [{}]
    for key, values in axes.items():
        points = [dict(p, **{key: v}) for p in points for v in values]
    return points


@dataclass
class CrossValResult:
    best: dict
    table: list     # (point, per-fold EERs, mean EER)


def cross_validate(data: PackedPairs, grid, model_cfg: ModelConfig,
                   train_cfg: TrainConfig, k: int = 5,
                   model_factory=None) -> CrossValResult:
    """Pick the grid point with the lowest mean held-out-fold EER.

    Hyperparameter names in each grid point override ModelConfig fields
    (zeta, mu, lam, rho, seed, dtype). Online pair selection is disabled
    during cross-validation, so its eta0 is not a grid axis; selection only
    applies to the final training run.
    """
    grid = list(grid)
    if not grid:
        raise ConfigError("hyperparameter grid is empty")
    unknown = {key for point in grid for key in point} - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise ConfigError(f"unknown hyperparameter {min(unknown)!r}")
    factory = model_factory or (lambda mc: CoupledModel(mc))
    plan = split_folds(data.subjects.tolist(), k=k, seed=train_cfg.seed)
    tc = replace(train_cfg, selection=SelectionConfig(enabled=False))
    table = []
    for point in grid:
        fold_eers = []
        for fold in range(k):
            val_mask = np.array([plan.assignment[s] == fold for s in data.subjects])
            model = factory(replace(model_cfg, **point))
            fit(model, data.subset(~val_mask), tc)
            d, y = scores(model, data.subset(val_mask))
            fold_eers.append(compute_eer(d, y))
        table.append((point, fold_eers, float(np.mean(fold_eers))))
    best = min(table, key=lambda row: row[2])[0]
    return CrossValResult(best=best, table=table)


def evaluate_run(model: CoupledModel, data: PackedPairs, folds: int = 5):
    """Metrics over disjoint splits of the test pairs, reported as mean and std.

    Splits are stratified by label (round-robin within each class) so EER is
    defined on every split. The overall ROC/PR curves come from all pairs.
    """
    if folds < 2:
        raise ConfigError(f"need at least 2 folds for split statistics, got {folds}")
    if len(data) < folds:
        raise ContractError(f"need at least {folds} test pairs")
    d, y = scores(model, data)
    report = metrics_from_scores(d, y)
    if min(report.n_gen, report.n_imp) < folds:
        raise ContractError(f"each class needs at least {folds} pairs for split stats")

    split_of = np.empty(len(data), dtype=np.int64)
    for cls in (0, 1):
        members = np.flatnonzero(y == cls)
        split_of[members] = np.arange(len(members)) % folds
    per_split = {"eer": [], "auc": [], "ap": []}
    for s in range(folds):
        mask = split_of == s
        sub = metrics_from_scores(d[mask], y[mask])
        per_split["eer"].append(sub.eer)
        per_split["auc"].append(sub.auc)
        per_split["ap"].append(sub.ap)
    report.fold_stats = {
        name: (float(np.mean(vals)), float(np.std(vals, ddof=1)))
        for name, vals in per_split.items()
    }
    return report
