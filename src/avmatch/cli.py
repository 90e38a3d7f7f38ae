"""Command-line surface: feature extraction, training, evaluation, fixtures.

Exit codes: 0 ok, 2 data error (any package error other than a configuration
error, or an OS error), 64 usage/config error. All commands honor --seed;
outputs depend only on inputs, configuration, and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import io as avio
from . import svgplot
from .errors import AvMatchError, ConfigError, DataError
from .model import CoupledModel, ModelConfig
from .pairs import Clip, PairConfig, SelectionConfig, generate_pairs
from .speech import SpeechConfig, build_speech_cube
from .synth import SynthConfig, generate_corpus
from .training import TrainConfig, evaluate_run, fit, pack_pairs
from .visual import build_visual_cube

EXIT_OK = 0
EXIT_DATA = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config_file(path) -> dict:
    """key=value lines; blank lines and #-comments ignored."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _clips_from_manifest(manifest_path, allow_fps=False):
    rows = avio.load_manifest(manifest_path, allow_fps=allow_fps)
    clips = []
    for i, row in enumerate(rows):
        audio = avio.read_wav(row.audio_path)
        frames = avio.read_frame_dir(row.frames_dir)
        clips.append(Clip(subject_id=row.subject_id, clip_id=f"{row.subject_id}/{i}",
                          audio=audio, frames=frames, fps=row.fps))
    return clips


def _build_pairs(manifest_path, seed, min_shift, max_shift, fixed_shift=None,
                 allow_fps=False):
    clips = _clips_from_manifest(manifest_path, allow_fps=allow_fps)
    cfg = PairConfig(max_shift_s=max_shift, min_shift_s=min_shift,
                     fixed_shift_s=fixed_shift)
    pairs, stats = generate_pairs(clips, cfg, seed=seed)
    return pairs, stats


# ------------------------------------------------------------------- commands

def cmd_features_audio(args) -> int:
    if args.manifest:
        rows = avio.load_manifest(args.manifest, allow_fps=args.allow_fps)
        out_dir = Path(args.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        failures = 0
        for i, row in enumerate(rows):
            try:
                cube = build_speech_cube(avio.read_wav(row.audio_path), SpeechConfig(),
                                         cepstral=args.mfcc)
                avio.write_cube(out_dir / f"{row.subject_id}_{i:04d}.avcb", cube.values)
            except AvMatchError as exc:
                failures += 1
                print(f"error: {row.audio_path}: {exc}", file=sys.stderr)
        return EXIT_DATA if failures else EXIT_OK

    clip = avio.read_wav(args.infile)
    cube = build_speech_cube(clip, SpeechConfig(), cepstral=args.mfcc)
    avio.write_cube(args.out, cube.values)
    return EXIT_OK


def cmd_features_video(args) -> int:
    if args.cube:
        stack = avio.read_cube(args.cube)
        if stack.ndim != 3:
            raise DataError(f"{args.cube}: packed frames must be rank-3 [n, h, w]")
        frames = list(stack.astype(np.float64))
    else:
        frames = avio.read_frame_dir(args.frames)
    cube = build_visual_cube(frames, start=args.start)
    avio.write_cube(args.out, cube.values)
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = SynthConfig(n_subjects=args.subjects, clips_per_subject=args.clips,
                      clip_s=args.clip_seconds)
    manifest = generate_corpus(args.out, cfg, seed=args.seed)
    print(f"wrote {args.subjects * args.clips} clips, manifest {manifest}")
    return EXIT_OK


def _apply_config_overrides(args, parser):
    if args.config:
        overrides = _load_config_file(args.config)
        casts = {"epochs": int, "batch_size": int, "zeta": int, "seed": int,
                 "lr": float, "mu": float, "lam": float, "rho": float,
                 "eta0": float, "min_shift": float, "max_shift": float,
                 "dtype": str, "optimizer": str}
        for key, raw in overrides.items():
            if key not in casts:
                raise ConfigError(f"{args.config}: unknown config key {key!r}")
            setattr(args, key, casts[key](raw))


def _train_configs(args):
    model_cfg = ModelConfig(zeta=args.zeta, mu=args.mu, lam=args.lam, rho=args.rho,
                            seed=args.seed, dtype=args.dtype)
    train_cfg = TrainConfig(batch_size=args.batch_size, max_epochs=args.epochs,
                            learning_rate=args.lr, optimizer=args.optimizer,
                            seed=args.seed,
                            selection=SelectionConfig(eta0=args.eta0,
                                                      enabled=not args.no_selection))
    return model_cfg, train_cfg


def cmd_train(args, parser) -> int:
    _apply_config_overrides(args, parser)
    model_cfg, train_cfg = _train_configs(args)
    pairs, stats = _build_pairs(args.manifest, args.seed, args.min_shift,
                                args.max_shift, allow_fps=args.allow_fps)
    if stats.skipped:
        print(f"warning: skipped {stats.skipped} impostor windows (stream too short)",
              file=sys.stderr)
    data = pack_pairs(pairs, dtype=model_cfg.np_dtype)
    val_data = None
    if args.val_manifest:
        val_pairs, _ = _build_pairs(args.val_manifest, args.seed + 1, args.min_shift,
                                    args.max_shift, allow_fps=args.allow_fps)
        val_data = pack_pairs(val_pairs, dtype=model_cfg.np_dtype)

    model = CoupledModel(model_cfg)
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


def cmd_crossval(args, parser) -> int:
    from .training import cross_validate, param_grid

    _apply_config_overrides(args, parser)
    model_cfg, train_cfg = _train_configs(args)
    axes = {}
    for spec in (args.grid or "").split(";"):
        spec = spec.strip()
        if not spec:
            continue
        key, _, values = spec.partition("=")
        if not values:
            raise ConfigError(f"bad grid entry {spec!r}; expected key=v1,v2")
        axes[key.strip()] = [float(v) for v in values.split(",")]
    if not axes:
        raise ConfigError("crossval needs --grid with at least one axis")

    pairs, _ = _build_pairs(args.manifest, args.seed, args.min_shift, args.max_shift,
                            allow_fps=args.allow_fps)
    data = pack_pairs(pairs, dtype=model_cfg.np_dtype)
    result = cross_validate(data, param_grid(axes), model_cfg, train_cfg, k=args.folds)
    payload = {
        "best": result.best,
        "table": [{"point": point, "fold_eers": eers, "mean_eer": mean}
                  for point, eers, mean in result.table],
    }
    Path(args.out).write_text(json.dumps(payload, indent=2))
    print(f"best hyperparameters: {result.best}")
    return EXIT_OK


def cmd_eval(args, parser) -> int:
    model = avio.load_checkpoint(args.ckpt)
    pairs, _ = _build_pairs(args.manifest, args.seed, args.shift, args.shift,
                            fixed_shift=args.shift, allow_fps=args.allow_fps)
    data = pack_pairs(pairs, dtype=model.config.np_dtype)
    report = evaluate_run(model, data, folds=args.folds)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(json.dumps(report.to_dict(), indent=2))
    with open(out_dir / "roc.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["far", "tpr"])
        writer.writerows(report.roc)
    with open(out_dir / "pr.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["recall", "precision"])
        writer.writerows(report.pr)
    svgplot.write_curve(out_dir / "roc.svg", report.roc, "FAR", "TPR", "ROC curve")
    svgplot.write_curve(out_dir / "pr.svg", report.pr, "Recall", "Precision", "PR curve")
    print(f"eer={report.eer:.4f} auc={report.auc:.4f} ap={report.ap:.4f} "
          f"-> {out_dir}/metrics.json")
    return EXIT_OK


# ------------------------------------------------------------------- wiring

def build_parser() -> _Parser:
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
    fa.add_argument("--allow-fps", action="store_true")

    fv = fsub.add_parser("video", help="visual cube from grayscale frames")
    fv.add_argument("--frames", help="directory of PGM frames")
    fv.add_argument("--cube", help="packed rank-3 frame cube instead of a directory")
    fv.add_argument("--start", type=int, default=0)
    fv.add_argument("--out", required=True)

    sy = sub.add_parser("synth", help="generate a synthetic fixture corpus")
    sy.add_argument("--out", required=True)
    sy.add_argument("--subjects", type=int, default=8)
    sy.add_argument("--clips", type=int, default=4)
    sy.add_argument("--clip-seconds", type=float, default=2.0)
    sy.add_argument("--seed", type=int, default=0)

    def add_train_flags(p):
        p.add_argument("--manifest", required=True)
        p.add_argument("--config", help="key=value overrides file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=15)
        p.add_argument("--batch-size", dest="batch_size", type=int, default=32)
        p.add_argument("--lr", type=float, default=1e-3)
        p.add_argument("--optimizer", choices=("sgdm", "adam"), default="sgdm")
        p.add_argument("--zeta", type=int, default=64)
        p.add_argument("--mu", type=float, default=1.0)
        p.add_argument("--lam", type=float, default=1e-4)
        p.add_argument("--rho", type=float, default=0.5)
        p.add_argument("--eta0", type=float, default=0.5)
        p.add_argument("--no-selection", action="store_true")
        p.add_argument("--min-shift", type=float, default=0.1)
        p.add_argument("--max-shift", type=float, default=0.5)
        p.add_argument("--dtype", choices=("float32", "float64"), default="float32")
        p.add_argument("--allow-fps", action="store_true")

    tr = sub.add_parser("train", help="train a coupled model")
    add_train_flags(tr)
    tr.add_argument("--out", required=True, help="checkpoint path")
    tr.add_argument("--val-manifest", help="validation manifest for early stopping")
    tr.add_argument("--stats", help="epoch stats CSV path")

    cv = sub.add_parser("crossval", help="k-fold hyperparameter search")
    add_train_flags(cv)
    cv.add_argument("--grid", required=True, help='e.g. "mu=0.5,1.0;lam=1e-4,1e-3"')
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--out", required=True, help="result JSON path")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a test manifest")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--shift", type=float, default=0.5,
                    help="fixed impostor shift in seconds")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--folds", type=int, default=5)
    ev.add_argument("--out-dir", required=True)
    ev.add_argument("--allow-fps", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "features":
            if args.kind == "audio":
                if not args.manifest and not (args.infile and args.out):
                    raise ConfigError("features audio needs --in/--out or --manifest")
                return cmd_features_audio(args)
            if not args.frames and not args.cube:
                raise ConfigError("features video needs --frames or --cube")
            return cmd_features_video(args)
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "train":
            return cmd_train(args, parser)
        if args.command == "crossval":
            return cmd_crossval(args, parser)
        if args.command == "eval":
            return cmd_eval(args, parser)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"avmatch: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AvMatchError, OSError) as exc:
        print(f"avmatch: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())
