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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .metrics import compute_eer, metrics_from_scores
from .model import CoupledModel, ModelConfig, batch_distances, contrastive_loss, \
    contrastive_loss_value
from .pairs import SelectionConfig, select_impostors
from .tensor import Tape, Tensor, backward, zero_grads


_ARENA_TUNED = False


def enable_arena_reuse(threshold: int = 1 << 29) -> None:
    """Keep large freed buffers in the malloc arena instead of unmapping them.

    The batched conv passes allocate and free hundreds of MB per step; with
    glibc's default mmap threshold every step pays mmap + page-zeroing costs,
    roughly tripling step time on one core. No effect on results; no-op on
    non-glibc platforms.
    """
    global _ARENA_TUNED
    if _ARENA_TUNED:
        return
    _ARENA_TUNED = True
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
        libc.mallopt(-3, threshold)   # M_MMAP_THRESHOLD
        libc.mallopt(-1, threshold)   # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


@dataclass
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 15
    learning_rate: float = 1e-3
    momentum: float = 0.9
    optimizer: str = "sgdm"       # or "adam"
    seed: int = 0
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    early_stop: bool = True       # stop after 2 consecutive validation EER increases

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 (batch normalization)")
        if self.max_epochs < 1:
            raise ConfigError("max epochs must be >= 1")
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
    shifts: np.ndarray    # [N] seconds

    def __len__(self):
        return len(self.labels)

    def subset(self, idx) -> "PackedPairs":
        return PackedPairs(self.speech[idx], self.visual[idx], self.labels[idx],
                           self.subjects[idx], self.shifts[idx])


def pack_pairs(pairs, dtype=np.float32) -> PackedPairs:
    if not pairs:
        raise ContractError("cannot pack an empty pair list")
    speech = np.stack([p.speech.values.data for p in pairs]).astype(dtype)
    visual = np.stack([p.visual.values.data for p in pairs]).astype(dtype)
    labels = np.array([p.label for p in pairs], dtype=np.int64)
    subjects = np.array([p.subject_id for p in pairs], dtype=object)
    shifts = np.array([p.shift_s for p in pairs], dtype=np.float64)
    return PackedPairs(speech, visual, labels, subjects, shifts)


class SGDMomentum:
    def __init__(self, params, lr: float, momentum: float = 0.9):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= (self.lr * v).astype(p.data.dtype, copy=False)

    def zero_grad(self):
        zero_grads(self.params)


class Adam:
    def __init__(self, params, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        scale = self.lr * np.sqrt(1 - b2 ** self.t) / (1 - b1 ** self.t)
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * (p.grad * p.grad)
            p.data -= (scale * m / (np.sqrt(v) + self.eps)).astype(p.data.dtype, copy=False)

    def zero_grad(self):
        zero_grads(self.params)


def make_optimizer(model: CoupledModel, cfg: TrainConfig):
    if cfg.optimizer == "adam":
        return Adam(model.parameters(), cfg.learning_rate)
    return SGDMomentum(model.parameters(), cfg.learning_rate, cfg.momentum)


def frozen_distances(model: CoupledModel, speech: np.ndarray, visual: np.ndarray) -> np.ndarray:
    """Distances with frozen weights: batch statistics, no updates, no dropout."""
    ev = model.embed_visual(visual, mode="frozen")
    ea = model.embed_audio(speech, mode="frozen")
    return batch_distances(ev, ea).data.astype(np.float64)


def scores(model: CoupledModel, data: PackedPairs, batch_size: int = 64):
    """Inference-mode distances over a packed set (running statistics)."""
    out = np.empty(len(data), dtype=np.float64)
    for lo in range(0, len(data), batch_size):
        hi = min(lo + batch_size, len(data))
        ev = model.embed_visual(data.visual[lo:hi], mode="infer")
        ea = model.embed_audio(data.speech[lo:hi], mode="infer")
        out[lo:hi] = batch_distances(ev, ea).data
    return out, data.labels


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
        losses.append(contrastive_loss_value(dist, labels, mcfg.mu))

        train_idx = np.arange(len(idx))
        gen_mask = labels == 1
        if cfg.selection.enabled:
            imp_positions = np.flatnonzero(~gen_mask)
            total_imp += len(imp_positions)
            if len(imp_positions) and gen_mask.any():
                keep = select_impostors(dist[gen_mask], dist[imp_positions],
                                        cfg.selection.eta0)
                kept_imp += len(keep)
                train_idx = np.concatenate([np.flatnonzero(gen_mask),
                                            imp_positions[keep]])
                train_idx.sort()
            else:
                kept_imp += len(imp_positions)
        if len(train_idx) < 2:
            continue  # nothing informative survived; skip the update

        rng = np.random.default_rng([cfg.seed, epoch, step])
        with Tape() as tape:
            ev = model.embed_visual(visual[train_idx], mode="train", rng=rng)
            ea = model.embed_audio(speech[train_idx], mode="train", rng=rng)
            d = batch_distances(ev, ea)
            loss = contrastive_loss(d, labels[train_idx], mcfg,
                                    weights=model.weight_tensors())
            backward(loss, tape)
        optimizer.step()
        optimizer.zero_grad()
        steps += 1

    if not losses:
        raise ContractError("epoch produced no usable batches")
    rate = (kept_imp / total_imp) if total_imp else 1.0
    if not cfg.selection.enabled:
        rate = 1.0
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
        if val_data is not None:
            d, y = scores(model, val_data)
            stats.val_eer = compute_eer(d, y)
        history.append(stats)
        if val_data is not None and cfg.early_stop:
            if prev_eer is not None and stats.val_eer > prev_eer:
                rising += 1
            elif prev_eer is not None:
                rising = 0
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
    (mu, lam, rho) or the selection eta0. Online pair selection is disabled
    during cross-validation; it only applies to the final training run.
    """
    grid = list(grid)
    if not grid:
        raise ConfigError("hyperparameter grid is empty")
    factory = model_factory or (lambda mc: CoupledModel(mc))
    plan = split_folds(data.subjects.tolist(), k=k, seed=train_cfg.seed)
    table = []
    for point in grid:
        fold_eers = []
        for fold in range(k):
            val_mask = np.array([plan.assignment[s] == fold for s in data.subjects])
            mc_kwargs = {f: getattr(model_cfg, f) for f in
                         ("zeta", "mu", "lam", "rho", "seed", "dtype", "reg")}
            for key, value in point.items():
                if key in mc_kwargs:
                    mc_kwargs[key] = value
                elif key != "eta0":
                    raise ConfigError(f"unknown hyperparameter {key!r}")
            model = factory(ModelConfig(**mc_kwargs))
            tc = TrainConfig(batch_size=train_cfg.batch_size,
                             max_epochs=train_cfg.max_epochs,
                             learning_rate=train_cfg.learning_rate,
                             momentum=train_cfg.momentum,
                             optimizer=train_cfg.optimizer,
                             seed=train_cfg.seed,
                             selection=SelectionConfig(enabled=False),
                             early_stop=False)
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
