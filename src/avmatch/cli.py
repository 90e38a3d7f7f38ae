"""Command-line surface: feature extraction, training, evaluation, fixtures.

Exit codes: 0 ok, 2 data error (any package error other than a configuration
error, an OS error, or a run that cannot allocate its arrays), 64
usage/config error. All commands honor --seed; outputs depend only on
inputs, configuration, and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import io as avio
from . import svgplot
from .errors import AvMatchError, ConfigError, DataError
from .model import CoupledModel, ModelConfig, check_seed
from .pairs import Clip, PairConfig, SelectionConfig, generate_pairs
from .speech import AudioClip, SpeechConfig, build_speech_cube
from .synth import SynthConfig, generate_corpus
from .training import TrainConfig, cross_validate, evaluate_run, fit, pack_pairs, param_grid
from .visual import build_visual_cube

EXIT_OK = 0
EXIT_DATA = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed(text: str) -> int:
    """A ``--seed`` value; one the generators cannot take is a usage error."""
    try:
        return check_seed(int(text))
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_CONFIG_CASTS = {"epochs": int, "batch_size": int, "zeta": int, "seed": int,
                 "lr": float, "mu": float, "lam": float, "rho": float,
                 "eta0": float, "min_shift": float, "max_shift": float,
                 "dtype": str, "optimizer": str}


def _load_config_file(path) -> dict:
    """UTF-8 key=value lines, each value cast like its flag; blank lines and
    #-comments ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8: {exc}") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_CASTS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_CASTS[key](raw)
        except ValueError:
            raise ConfigError(f"{path}: bad value {raw!r} for {key}") from None
    return values


def _row_audio(row) -> AudioClip:
    """A manifest row's WAV, refused when its rate is not the row's ``sample_rate``."""
    audio = avio.read_wav(row.audio_path)
    if audio.sample_rate != row.sample_rate:
        raise DataError(f"{row.audio_path}: sample rate {audio.sample_rate} Hz, "
                        f"manifest declares {row.sample_rate} Hz")
    return audio


def _clips_from_manifest(manifest_path):
    rows = avio.load_manifest(manifest_path)
    return [Clip(subject_id=row.subject_id, clip_id=f"{row.subject_id}/{i}",
                 audio=_row_audio(row), frames=avio.read_frame_dir(row.frames_dir),
                 fps=row.fps)
            for i, row in enumerate(rows)]


def _packed_pairs(manifest_path, cfg: PairConfig, seed, dtype):
    """Manifest -> clips -> pairs -> (packed pairs, stats)."""
    pairs, stats = generate_pairs(_clips_from_manifest(manifest_path), cfg, seed=seed)
    return pack_pairs(pairs, dtype=dtype), stats


def _check_folds(folds: int) -> None:
    if folds < 2:
        raise ConfigError(f"need at least 2 folds, got {folds}")


# ------------------------------------------------------------------- commands

def cmd_features_audio(args) -> int:
    cfg = SpeechConfig(cepstral=args.mfcc)
    if args.manifest:
        rows = avio.load_manifest(args.manifest)
        out_dir = Path(args.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        failures = 0
        for i, row in enumerate(rows):
            try:
                audio = _row_audio(row)   # its errors name the file already
                try:
                    cube = build_speech_cube(audio, cfg)
                except DataError as exc:
                    raise DataError(f"{row.audio_path}: {exc}") from None
                avio.write_cube(out_dir / f"{row.subject_id}_{i:04d}.avcb", cube.values)
            except AvMatchError as exc:
                failures += 1
                print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA if failures else EXIT_OK
    if not (args.infile and args.out):
        raise ConfigError("features audio needs --in/--out or --manifest")

    clip = avio.read_wav(args.infile)
    cube = build_speech_cube(clip, cfg)
    avio.write_cube(args.out, cube.values)
    return EXIT_OK


def cmd_features_video(args) -> int:
    if args.cube:
        stack = avio.read_cube(args.cube)
        if stack.ndim != 3:
            raise DataError(f"{args.cube}: packed frames must be rank-3 [n, h, w]")
        bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
        if bad.size:
            raise DataError(f"{args.cube}: packed frame {bad[0]} holds non-finite values")
        frames = list(stack.astype(np.float64))
    elif args.frames:
        frames = avio.read_frame_dir(args.frames)
    else:
        raise ConfigError("features video needs --frames or --cube")
    if args.start < 0:
        raise ConfigError(f"--start must be >= 0, got {args.start}")
    cube = build_visual_cube(frames, start=args.start)
    avio.write_cube(args.out, cube.values)
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = SynthConfig(n_subjects=args.subjects, clips_per_subject=args.clips,
                      clip_s=args.clip_seconds)
    manifest = generate_corpus(args.out, cfg, seed=args.seed)
    print(f"wrote {args.subjects * args.clips} clips, manifest {manifest}")
    return EXIT_OK


def _train_configs(args):
    """Model and train configs from the flags."""
    model_cfg = ModelConfig(zeta=args.zeta, mu=args.mu, lam=args.lam, rho=args.rho,
                            seed=args.seed, dtype=args.dtype)
    train_cfg = TrainConfig(batch_size=args.batch_size, max_epochs=args.epochs,
                            learning_rate=args.lr, optimizer=args.optimizer,
                            seed=args.seed,
                            selection=SelectionConfig(eta0=args.eta0,
                                                      enabled=not args.no_selection))
    return model_cfg, train_cfg


def _grid_axes(spec: str) -> dict:
    """``key=v1,v2;...`` axes, each value parsed as the type of its ModelConfig field."""
    types = {f.name: type(f.default) for f in fields(ModelConfig)}
    axes = {}
    for entry in filter(None, (e.strip() for e in spec.split(";"))):
        key, _, values = entry.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"unknown hyperparameter {key!r}")
        if key in axes:
            raise ConfigError(f"grid axis {key!r} given twice")
        try:
            axes[key] = [types[key](v.strip()) for v in values.split(",")]
        except ValueError:
            raise ConfigError(f"bad grid entry {entry!r}; expected {key}=v1,v2 "
                              f"of type {types[key].__name__}") from None
        for value in axes[key]:
            ModelConfig(**{key: value})   # refuses out-of-range values
    if not axes:
        raise ConfigError("crossval needs --grid with at least one axis")
    return axes


def cmd_train(args) -> int:
    model_cfg, train_cfg = _train_configs(args)
    pair_cfg = PairConfig(min_shift_s=args.min_shift, max_shift_s=args.max_shift)
    # built first, so that a model too large to allocate fails before the ingest
    model = CoupledModel(model_cfg)
    data, stats = _packed_pairs(args.manifest, pair_cfg, args.seed, model_cfg.np_dtype)
    if stats.skipped:
        print(f"warning: skipped {stats.skipped} impostor windows (stream too short)",
              file=sys.stderr)
    val_data = None
    if args.val_manifest:
        val_data, _ = _packed_pairs(args.val_manifest, pair_cfg, args.seed + 1,
                                    model_cfg.np_dtype)

    result = fit(model, data, train_cfg, val_data=val_data)
    avio.save_checkpoint(args.out, model)

    if args.stats:
        with open(args.stats, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "selection_rate", "val_EER"])
            for s in result.history:
                writer.writerow([s.epoch, f"{s.mean_loss:.6f}", f"{s.selection_rate:.4f}",
                                 "" if s.val_eer is None else f"{s.val_eer:.6f}"])
    last = result.history[-1]
    print(f"trained {len(result.history)} epochs, final loss {last.mean_loss:.4f}, "
          f"checkpoint {args.out}")
    return EXIT_OK


def cmd_crossval(args) -> int:
    _check_folds(args.folds)
    model_cfg, train_cfg = _train_configs(args)
    grid = param_grid(_grid_axes(args.grid))
    pair_cfg = PairConfig(min_shift_s=args.min_shift, max_shift_s=args.max_shift)
    data, _ = _packed_pairs(args.manifest, pair_cfg, args.seed, model_cfg.np_dtype)
    result = cross_validate(data, grid, model_cfg, train_cfg, k=args.folds)
    payload = {
        "best": result.best,
        "table": [{"point": point, "fold_eers": eers, "mean_eer": mean}
                  for point, eers, mean in result.table],
    }
    Path(args.out).write_text(json.dumps(payload, indent=2))
    print(f"best hyperparameters: {result.best}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_folds(args.folds)
    pair_cfg = PairConfig(min_shift_s=args.shift, max_shift_s=args.shift,
                          fixed_shift_s=args.shift)
    model = avio.load_checkpoint(args.ckpt)
    data, _ = _packed_pairs(args.manifest, pair_cfg, args.seed, model.config.np_dtype)
    report = evaluate_run(model, data, folds=args.folds)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(json.dumps(report.to_dict(), indent=2))
    for name, points, columns, labels in (
            ("roc", report.roc, ("far", "tpr"), ("FAR", "TPR", "ROC curve")),
            ("pr", report.pr, ("recall", "precision"), ("Recall", "Precision", "PR curve"))):
        with open(out_dir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(points)
        svgplot.write_curve(out_dir / f"{name}.svg", points, *labels)
    print(f"eer={report.eer:.4f} auc={report.auc:.4f} ap={report.ap:.4f} "
          f"-> {out_dir}/metrics.json")
    return EXIT_OK


# ------------------------------------------------------------------- wiring

def build_parser(train_defaults=None) -> _Parser:
    """The CLI parser; ``train_defaults`` replaces train/crossval flag defaults."""
    parser = _Parser(prog="avmatch",
                     description="Coupled audio-visual stream matching toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    feats = sub.add_parser("features", help="extract feature cubes")
    fsub = feats.add_subparsers(dest="kind", required=True)

    fa = fsub.add_parser("audio", help="speech feature cube from a WAV file")
    fa.add_argument("--in", dest="infile", help="input WAV")
    fa.add_argument("--out", help="output cube file")
    fa.add_argument("--manifest", help="extract every manifest row instead")
    fa.add_argument("--out-dir", help="output directory for manifest mode")
    fa.add_argument("--mfcc", action="store_true",
                    help="apply the cosine transform (cepstral baseline features)")
    fa.set_defaults(func=cmd_features_audio)

    fv = fsub.add_parser("video", help="visual cube from grayscale frames")
    fv.add_argument("--frames", help="directory of PGM frames")
    fv.add_argument("--cube", help="packed rank-3 frame cube instead of a directory")
    fv.add_argument("--start", type=int, default=0)
    fv.add_argument("--out", required=True)
    fv.set_defaults(func=cmd_features_video)

    synth = SynthConfig()
    sy = sub.add_parser("synth", help="generate a synthetic fixture corpus")
    sy.add_argument("--out", required=True)
    sy.add_argument("--subjects", type=int, default=synth.n_subjects)
    sy.add_argument("--clips", type=int, default=synth.clips_per_subject)
    sy.add_argument("--clip-seconds", type=float, default=synth.clip_s)
    sy.add_argument("--seed", type=_seed, default=0)
    sy.set_defaults(func=cmd_synth)

    model, train, pair = ModelConfig(), TrainConfig(), PairConfig()

    def add_train_flags(p):
        p.add_argument("--manifest", required=True)
        p.add_argument("--config", help="key=value overrides file")
        p.add_argument("--seed", type=_seed, default=train.seed)
        p.add_argument("--epochs", type=int, default=train.max_epochs)
        p.add_argument("--batch-size", dest="batch_size", type=int, default=train.batch_size)
        p.add_argument("--lr", type=float, default=train.learning_rate)
        p.add_argument("--optimizer", choices=("sgdm", "adam"), default=train.optimizer)
        p.add_argument("--zeta", type=int, default=model.zeta)
        p.add_argument("--mu", type=float, default=model.mu)
        p.add_argument("--lam", type=float, default=model.lam)
        p.add_argument("--rho", type=float, default=model.rho)
        p.add_argument("--eta0", type=float, default=train.selection.eta0)
        p.add_argument("--no-selection", action="store_true")
        p.add_argument("--min-shift", type=float, default=pair.min_shift_s)
        p.add_argument("--max-shift", type=float, default=pair.max_shift_s)
        p.add_argument("--dtype", choices=("float32", "float64"), default=model.dtype)
        p.set_defaults(**(train_defaults or {}))

    tr = sub.add_parser("train", help="train a coupled model")
    add_train_flags(tr)
    tr.add_argument("--out", required=True, help="checkpoint path")
    tr.add_argument("--val-manifest", help="validation manifest for early stopping")
    tr.add_argument("--stats", help="epoch stats CSV path")
    tr.set_defaults(func=cmd_train)

    cv = sub.add_parser("crossval", help="k-fold hyperparameter search")
    add_train_flags(cv)
    cv.add_argument("--grid", required=True, help='e.g. "mu=0.5,1.0;lam=1e-4,1e-3"')
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--out", required=True, help="result JSON path")
    cv.set_defaults(func=cmd_crossval)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a test manifest")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--shift", type=float, default=0.5,
                    help="fixed impostor shift in seconds")
    ev.add_argument("--seed", type=_seed, default=0)
    ev.add_argument("--folds", type=int, default=5)
    ev.add_argument("--out-dir", required=True)
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's values become defaults, so flags given on the command line win
            args = build_parser(_load_config_file(args.config)).parse_args(argv)
        # non-finite values are checked where they enter (audio, cubes,
        # checkpoints) and where a run diverges (the fit guard names the
        # layer), so numpy's own overflow warnings would only say it first
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"avmatch: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AvMatchError, OSError) as exc:
        print(f"avmatch: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"avmatch: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
