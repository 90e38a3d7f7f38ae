"""The benchmark's three workloads: ``train``, ``eval`` and ``ingest``.

Each workload builds a seeded synthetic corpus, sets up what the matching
``avmatch`` command sets up, measures its own operation for the run's
seconds, and then takes fixed-size probes of the other workloads' operations,
because every run reports every end-to-end metric. Probes that call
``training.fit`` run last (or, on ``train``, the other probes run first):
``fit`` tunes glibc malloc for the whole process, and ``avmatch eval`` and
``avmatch features`` never run after it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from avmatch import cli, io as avio, model as avmodel, pairs, speech, synth, tensor, training
from avmatch.errors import AvMatchError

import checks

CORPUS = synth.SynthConfig(n_subjects=8, clips_per_subject=4, clip_s=2.0)
HELD_OUT_FROM = "s06"            # s00-s05 train, s06-s07 held out
EVAL_SHIFTS = (0.3, 0.4, 0.5)    # fixed impostor shifts of the held-out protocol
PROBE_SHIFT = 0.5
INGEST_SHIFT = 0.5
BATCH = 32
SETUP_REPEATS = 6
FEATURE_PROBES = 12
EVAL_PROBES = 2
INGEST_ROUNDS_PER_EVAL_PROBE = 4
TRAIN_PROBE_STEPS = 2            # after one warm-up step
GRAD_PAIRS = 4
GRAD_STEPS = (1e-5, 2.5e-6)   # the second guards against a kink inside the first
SINGLE_PAIRS = 4


def model_config(seed: int, dtype: str = "float32") -> avmodel.ModelConfig:
    return avmodel.ModelConfig(zeta=64, mu=15.0, lam=1e-4, rho=0.5, seed=seed, dtype=dtype)


def train_config(seed: int) -> training.TrainConfig:
    """`avmatch train` defaults with the fixture's margin: sgdm, batch 32,
    online impostor selection; one epoch over one batch is one step."""
    return training.TrainConfig(batch_size=BATCH, max_epochs=1, learning_rate=1e-3,
                                optimizer="sgdm", seed=seed,
                                selection=pairs.SelectionConfig(eta0=0.5, enabled=True))


def is_train_subject(subject: str) -> bool:
    return subject < HELD_OUT_FROM


def is_held_out(subject: str) -> bool:
    return subject >= HELD_OUT_FROM


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def window_share(pair_list) -> float:
    """Unique visual windows over pairs."""
    windows = {(p.visual.clip_id, p.visual.start_frame) for p in pair_list}
    return len(windows) / len(pair_list)


@dataclass
class Run:
    """State of one benchmark run: inputs, samples, failures and counts."""
    workdir: Path
    seed: int
    seconds: float
    tracer: object = None
    samples: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    overhead: list = field(default_factory=list)   # (traced, seconds) per home round
    _cache: dict = field(default_factory=dict)

    def __post_init__(self):
        self.manifest = synth.generate_corpus(self.workdir / "corpus", CORPUS, seed=self.seed)
        self.n_clips = len(checks.read_manifest(self.manifest))

    # ---------------------------------------------------------- bookkeeping

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def check(self, failure) -> None:
        if failure is not None:
            self.failures.append(failure)

    @contextlib.contextmanager
    def region(self, name: str, traced: bool = True, **info):
        """Trace the block as one benchmark region when this is a traced run."""
        if self.tracer is None or not traced:
            yield
            return
        with self.tracer.tracing(), self.tracer.region(name, **info):
            yield

    def operation(self, fn):
        """Run one measured operation; (result, seconds), or (None, None) if it failed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn()
        except AvMatchError as exc:
            self.failed += 1
            print(f"operation failed: {exc}", file=sys.stderr)
            return None, None
        return result, perf_counter() - t0

    def home_rounds(self, step, untraced_first: int = 1, between=None):
        """Call ``step(k, traced)`` for k = 0, 1, ... until the run's seconds are
        spent. The first ``untraced_first`` rounds always run; in a traced run
        every other round after them is traced, so the untraced rounds of the
        same run give the tracing overhead. ``between()`` runs after each round:
        probes spread over the run sample more of the machine's slow and fast
        spells than probes taken back to back."""
        t_end = perf_counter() + self.seconds
        minimum = untraced_first + (1 if self.tracer is not None else 0)
        k = 0
        while k < minimum or perf_counter() < t_end:
            traced = (self.tracer is not None and k >= untraced_first
                      and (k - untraced_first) % 2 == 0)
            dt = step(k, traced)
            if between is not None:
                between()
            if dt is not None and self.tracer is not None:
                self.overhead.append((traced, dt))
            k += 1

    # ---------------------------------------------------------- program calls

    def read_clips(self, keep=lambda subject: True):
        rows = avio.load_manifest(self.manifest)
        return [pairs.Clip(subject_id=row.subject_id, clip_id=f"{row.subject_id}/{i}",
                           audio=avio.read_wav(row.audio_path),
                           frames=avio.read_frame_dir(row.frames_dir), fps=row.fps)
                for i, row in enumerate(rows) if keep(row.subject_id)]

    def ingest(self, keep, shifts, pair_seed):
        """Manifest to packed pairs, one pair set per impostor shift (None: random)."""
        clips = self.read_clips(keep)
        out = {}
        for shift in shifts:
            cfg = pairs.PairConfig() if shift is None else pairs.PairConfig(fixed_shift_s=shift)
            pair_list, stats = pairs.generate_pairs(clips, cfg, seed=pair_seed)
            out[shift] = (pair_list, stats, training.pack_pairs(pair_list, np.float32))
        return clips, out

    def features(self, out_dir: Path) -> int:
        return cli.main(["features", "audio", "--manifest", str(self.manifest),
                         "--out-dir", str(out_dir)])

    def train_data(self):
        if "train" not in self._cache:
            _, sets = self.ingest(is_train_subject, [None], self.seed + 1)
            self._cache["train"] = sets[None]
        return self._cache["train"]

    def checkpoint(self) -> Path:
        """A checkpoint of the seeded, untrained full-size model (benchmark input)."""
        path = self.workdir / "model.avck"
        if not path.exists():
            with self.region("bench.make_checkpoint"):
                avio.save_checkpoint(path, avmodel.CoupledModel(model_config(self.seed)))
        return path

    # ---------------------------------------------------------- probes

    def probe_eval(self):
        """eval_ms_per_pair from one held-out scoring; the first call sets up
        (checkpoint, held-out pairs at one shift, a small warm-up scoring)."""
        if "eval" not in self._cache:
            with self.region("bench.probe_eval_setup"):
                model = avio.load_checkpoint(self.checkpoint())
                _, sets = self.ingest(is_held_out, [PROBE_SHIFT], self.seed + 2)
                packed = sets[PROBE_SHIFT][2]
                training.scores(model, packed.subset(np.arange(8)))
            self._cache["eval"] = model, packed
        model, packed = self._cache["eval"]
        with self.region("bench.eval_call", pairs=len(packed)):
            _, dt = self.operation(lambda: training.evaluate_run(model, packed))
        if dt is not None:
            self.sample("eval_ms_per_pair", dt * 1e3 / len(packed))

    def probe_features(self, reps: int):
        out_dir = self.workdir / "cubes"
        for _ in range(reps):
            with self.region("bench.features"):
                code, dt = self.operation(lambda: self.features(out_dir))
            if dt is not None and code == 0:
                self.sample("features_ms_per_clip", dt * 1e3 / self.n_clips)
            elif dt is not None:
                self.failed += 1

    def probe_train(self):
        """train_step_s from full-size steps on a fresh model after one warm-up step."""
        with self.region("bench.probe_train_setup"):
            _, _, data = self.train_data()
            model = avmodel.CoupledModel(model_config(self.seed))
        cfg = train_config(self.seed)
        for k in range(1 + TRAIN_PROBE_STEPS):
            batch = data.subset(np.arange(k * BATCH, (k + 1) * BATCH))
            name = "bench.warmup_step" if k == 0 else "bench.train_step"
            with self.region(name):
                res, dt = self.operation(lambda: training.fit(model, batch, cfg))
            if k and dt is not None:
                self.sample("train_step_s", dt)
                self._step_facts(batch, res)

    def _step_facts(self, batch, res):
        stats = res.history[0]
        n_imp = int(np.count_nonzero(batch.labels == 0))
        kept = round(stats.selection_rate * n_imp)
        self.facts.setdefault("kept_ratio", []).append(stats.selection_rate)
        self.facts.setdefault("update_pairs", []).append(len(batch) - n_imp + kept)
        self.facts.setdefault("step_losses", []).append(stats.mean_loss)


# ------------------------------------------------------------------ train

def run_train(run: Run) -> None:
    # the probes of eval and features run before the first fit call, spread
    # between the set-up repeats
    setups = []
    for i in range(SETUP_REPEATS):
        if i % (SETUP_REPEATS // EVAL_PROBES) == 0:
            run.probe_eval()
        run.probe_features(FEATURE_PROBES // SETUP_REPEATS)
        with run.region("bench.setup"):
            t0 = perf_counter()
            clips, sets = run.ingest(is_train_subject, [None], run.seed + 1)
            t1 = perf_counter()
            model = avmodel.CoupledModel(model_config(run.seed))
            t2 = perf_counter()
        pair_list, stats, data = sets[None]
        run.sample("ingest_ms_per_clip", (t1 - t0) * 1e3 / len(clips))
        setups.append(t2 - t0)
    run._cache["train"] = sets[None]
    cfg = train_config(run.seed)
    n_batches = len(data) // BATCH

    def batch_at(k):
        lo = (k % n_batches) * BATCH
        return data.subset(np.arange(lo, lo + BATCH))

    with run.region("bench.warmup_step"):
        t0 = perf_counter()
        training.fit(model, batch_at(0), cfg)
        avio.save_checkpoint(run.workdir / "trained.avck", model)
        warm = perf_counter() - t0
    run.setup_s = statistics.median(setups) + warm

    # selection oracle on the first measured batch: frozen distances before the step
    first = batch_at(1)
    before = model.state_checksum()
    dist = training.frozen_distances(model, first.speech, first.visual)
    run.check(checks.state_unchanged(before, model.state_checksum()))
    gen_mask = first.labels == 1
    kept = pairs.select_impostors(dist[gen_mask], dist[~gen_mask], cfg.selection.eta0)

    def step(k, traced):
        batch = batch_at(k + 1)
        with run.region("bench.train_step", traced):
            res, dt = run.operation(lambda: training.fit(model, batch, cfg))
        if dt is None:
            return None
        if k == 0:
            n_imp = int(np.count_nonzero(~gen_mask))
            run.check(checks.impostor_selection(dist, first.labels, cfg.selection.eta0, kept,
                                                round(res.history[0].selection_rate * n_imp)))
        if not traced:
            run.sample("train_step_s", dt)
        run._step_facts(batch, res)
        return dt

    run.home_rounds(step)
    run.peak_rss_mb = peak_rss_mb()
    run.check(checks.finite_and_moved(
        run.facts["step_losses"], [(n, p.data) for n, p in model.named_parameters()],
        before, model.state_checksum()))
    gradient_check(run, run.workdir / "trained.avck", data)
    run.facts.update(unique_share=window_share(pair_list), windows=stats.genuine,
                     skipped=stats.skipped, packed_mb=packed_mb([data]))


def gradient_check(run: Run, ckpt: Path, data) -> None:
    """Central-difference directional derivative of the full-size float64 model,
    frozen mode, on a small batch, against the tape gradient."""
    model = avio.load_checkpoint(ckpt, dtype="float64")
    gen = np.flatnonzero(data.labels == 1)[:GRAD_PAIRS // 2]
    imp = np.flatnonzero(data.labels == 0)[:GRAD_PAIRS // 2]
    batch = data.subset(np.concatenate([gen, imp]))
    run.check(checks.directional_derivative(*directional_derivative_terms(
        model, batch.speech, batch.visual, batch.labels, run.seed)))


def directional_derivative_terms(model, speech_in, visual_in, labels, seed, perturb=None):
    """(tape gradient . v, [central differences along v]) for a random unit
    direction v over every parameter, one difference per step size;
    ``perturb(params)`` may alter the tape gradients before they are projected."""
    speech_in = np.asarray(speech_in, dtype=np.float64)
    visual_in = np.asarray(visual_in, dtype=np.float64)
    params = model.parameters()
    rng = np.random.default_rng(seed)
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = np.sqrt(sum(float((v * v).sum()) for v in direction))
    direction = [v / norm for v in direction]

    def loss():
        ev = model.embed_visual(visual_in, mode="frozen")
        ea = model.embed_audio(speech_in, mode="frozen")
        d = avmodel.batch_distances(ev, ea)
        return avmodel.contrastive_loss(d, labels, model.config, weights=model.weight_tensors())

    tensor.zero_grads(params)
    with tensor.Tape() as tape:
        tensor.backward(loss(), tape)
    if perturb is not None:
        perturb(params)
    analytic = sum(float((p.grad * v).sum()) for p, v in zip(params, direction)
                   if p.grad is not None)
    origin = [p.data.copy() for p in params]
    numeric = []
    for h in GRAD_STEPS:
        sides = []
        for sign in (1.0, -1.0):
            for p, o, v in zip(params, origin, direction):
                p.data = o + sign * h * v
            sides.append(loss().item())
        numeric.append((sides[0] - sides[1]) / (2 * h))
    for p, o in zip(params, origin):
        p.data = o
    tensor.zero_grads(params)
    return analytic, numeric


def packed_mb(packs) -> float:
    return sum(p.speech.nbytes + p.visual.nbytes for p in packs) / 2**20


# ------------------------------------------------------------------ eval

def run_eval(run: Run) -> None:
    ckpt = run.checkpoint()
    setups = []

    def setup():
        with run.region("bench.setup"):
            t0 = perf_counter()
            model = avio.load_checkpoint(ckpt)
            t1 = perf_counter()
            clips, sets = run.ingest(is_held_out, EVAL_SHIFTS, run.seed + 2)
            t2 = perf_counter()
        run.sample("ingest_ms_per_clip", (t2 - t1) * 1e3 / len(clips))
        setups.append(t2 - t0)
        return model, sets

    for _ in range(SETUP_REPEATS):
        model, sets = setup()
    packs = [sets[s][2] for s in EVAL_SHIFTS]
    with run.region("bench.warmup_eval"):
        t0 = perf_counter()
        training.scores(model, packs[0].subset(np.arange(8)))
        warm = perf_counter() - t0

    captured = {}

    def step(k, traced):
        shift = EVAL_SHIFTS[k % len(EVAL_SHIFTS)]
        packed = sets[shift][2]
        # the first, untraced round keeps each shift's distances for the checks
        capture = k < len(EVAL_SHIFTS)
        with run.region("bench.eval_call", traced, pairs=len(packed)):
            with keep_scores(capture) as kept:
                report, dt = run.operation(lambda: training.evaluate_run(model, packed))
        if dt is None:
            return None
        if capture:
            captured[shift] = (kept[0][0], kept[0][1], report)
        if not traced:
            run.sample("eval_ms_per_pair", dt * 1e3 / len(packed))
        return dt / len(packed)

    def between():
        run.probe_features(FEATURE_PROBES // len(EVAL_SHIFTS))
        setup()

    run.home_rounds(step, untraced_first=len(EVAL_SHIFTS), between=between)
    run.peak_rss_mb = peak_rss_mb()
    run.setup_s = statistics.median(setups) + warm

    genuine = {}
    for shift, (d, y, report) in captured.items():
        run.check(checks.auc_mann_whitney(d, y, report.auc))
        run.check(checks.eer_in_bracket(d, y, report.eer))
        genuine[shift] = d[y == 1]
    for shift in EVAL_SHIFTS[1:]:
        run.check(checks.close_f32(genuine[EVAL_SHIFTS[0]], genuine[shift],
                                   f"genuine distances at {shift} s vs {EVAL_SHIFTS[0]} s"))
    d, _, _ = captured[PROBE_SHIFT]
    packed = sets[PROBE_SHIFT][2]
    for i in range(SINGLE_PAIRS):
        single = avmodel.pair_distance(model.embed_visual(packed.visual[i]),
                                       model.embed_audio(packed.speech[i])).item()
        run.check(checks.close_f32([single], [d[i]], f"single-pair distance of pair {i}"))

    all_pairs = [p for s in EVAL_SHIFTS for p in sets[s][0]]
    run.facts.update(unique_share=window_share(all_pairs), windows=sets[PROBE_SHIFT][1].genuine,
                     skipped=sum(sets[s][1].skipped for s in EVAL_SHIFTS),
                     packed_mb=packed_mb(packs))
    run.probe_train()


@contextlib.contextmanager
def keep_scores(enabled: bool):
    """Keep what ``training.scores`` returns inside ``evaluate_run``."""
    kept = []
    if not enabled:
        yield kept
        return
    original = training.scores

    def keeping(*args, **kwargs):
        out = original(*args, **kwargs)
        kept.append(out)
        return out

    training.scores = keeping
    try:
        yield kept
    finally:
        training.scores = original


# ------------------------------------------------------------------ ingest

def run_ingest(run: Run) -> None:
    out_dir = run.workdir / "cubes"
    last = {}

    def round_(traced, name):
        with run.region(name, traced):
            ingested, dt_ingest = run.operation(
                lambda: run.ingest(lambda s: True, [INGEST_SHIFT], run.seed + 2))
            code, dt_feat = run.operation(lambda: run.features(out_dir))
        if ingested is not None:
            last.update(clips=ingested[0], sets=ingested[1])
        if code not in (None, 0):
            run.failed += 1
            dt_feat = None
        return dt_ingest, dt_feat

    # set-up: a fresh interpreter importing the CLI, which every avmatch command
    # pays; then one untimed warm-up round for the process's cold costs
    run.setup_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    round_(True, "bench.warmup_round")

    def step(k, traced):
        dt_ingest, dt_feat = round_(traced, "bench.ingest_round")
        if not traced:
            if dt_ingest is not None:
                run.sample("ingest_ms_per_clip", dt_ingest * 1e3 / run.n_clips)
            if dt_feat is not None:
                run.sample("features_ms_per_clip", dt_feat * 1e3 / run.n_clips)
        return dt_ingest

    def between():
        # eval probes spread over the ingest rounds; peak memory is read
        # before the first one, as it belongs to ingest alone
        between.rounds += 1
        if between.rounds % INGEST_ROUNDS_PER_EVAL_PROBE == 0:
            run.peak_rss_mb = run.peak_rss_mb or peak_rss_mb()
            run.probe_eval()

    between.rounds = 0
    run.home_rounds(step, between=between)
    run.peak_rss_mb = run.peak_rss_mb or peak_rss_mb()
    ingest_checks(run, last["clips"], last["sets"][INGEST_SHIFT], out_dir)
    pair_list, stats, packed = last["sets"][INGEST_SHIFT]
    run.facts.update(unique_share=window_share(pair_list), windows=stats.genuine,
                     skipped=stats.skipped, packed_mb=packed_mb([packed]))
    run.probe_train()


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the avmatch CLI."""
    src = Path(avio.__file__).resolve().parent.parent
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path.insert(0, {str(src)!r}); import avmatch.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout)


def ingest_checks(run: Run, clips, pair_set, out_dir: Path) -> None:
    pair_list, stats, packed = pair_set
    rows = checks.read_manifest(run.manifest)
    durations = []
    audio = []
    for row in rows:
        samples, rate = checks.read_wav_samples(row["audio_path"])
        n_frames = len(list(Path(row["frames_dir"]).glob("*.pgm")))
        durations.append((len(samples) / rate, n_frames / float(row["fps"])))
        audio.append((samples, rate))
    run.check(checks.pair_counts(durations, INGEST_SHIFT, packed.labels,
                                 stats.genuine, stats.impostor, stats.skipped))
    run.check(checks.standardised_cubes(packed.speech, checks.SPEECH_SHAPE, "speech"))
    run.check(checks.standardised_cubes(packed.visual, checks.VISUAL_SHAPE, "visual"))

    static = {}
    frames_of = {f"{row['subject_id']}/{i}": sorted(Path(row["frames_dir"]).glob("*.pgm"))
                 for i, row in enumerate(rows)}
    for i, p in enumerate(pair_list):
        if p.label != 1:
            continue
        frames = frames_of[p.visual.clip_id]
        start = p.visual.start_frame
        run.check(checks.visual_matches_frames(
            packed.visual[i], frames[start:start + checks.FRAMES_PER_WINDOW],
            f"pair {i} ({p.visual.clip_id} frame {start})"))
        energy = packed.speech[i][..., 0].astype(np.float64).sum(axis=0)
        static[p.visual.clip_id] = static.get(p.visual.clip_id, 0.0) + energy
    for i, row in enumerate(rows):
        clip_id = f"{row['subject_id']}/{i}"
        samples, rate = audio[i]
        run.check(checks.carrier_in_top_channel(samples, rate, static[clip_id], clip_id))

    # the features command: in-process outputs, then the console entry point in a
    # child process, whose files must be the same bytes
    child_dir = run.workdir / "cubes_cli"
    src = Path(avio.__file__).resolve().parent.parent
    code = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(src)!r}); from avmatch.cli import entry; entry()",
         "features", "audio", "--manifest", str(run.manifest), "--out-dir", str(child_dir)],
        env=os.environ.copy(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
    ).returncode
    if code != 0:
        run.check(f"`avmatch features audio --manifest` exited {code}")
    for i, row in enumerate(rows):
        name = f"{row['subject_id']}_{i:04d}.avcb"
        raw = (out_dir / name).read_bytes()
        cube = speech.build_speech_cube(avio.read_wav(row["audio_path"]), speech.SpeechConfig())
        reread = avio.read_cube(out_dir / name)
        rewritten_path = run.workdir / "rewritten.avcb"
        avio.write_cube(rewritten_path, reread)
        run.check(checks.cube_file_round_trip(raw, cube.values.data, reread,
                                              rewritten_path.read_bytes(), name))
        child = child_dir / name
        if not child.exists() or hashlib.sha256(child.read_bytes()).digest() != \
                hashlib.sha256(raw).digest():
            run.check(f"{name}: the CLI's file differs from the in-process one")


WORKLOADS = {"train": run_train, "eval": run_eval, "ingest": run_ingest}
