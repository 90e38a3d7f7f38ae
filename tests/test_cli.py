import csv
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import avmatch
from avmatch import io as avio
from avmatch.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _train_configs, build_parser, main
from avmatch.model import CoupledModel, ModelConfig
from avmatch.synth import SynthConfig, generate_corpus
from avmatch.training import TrainConfig
from checkpoint_bytes import write_nan_into_blob


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    cfg = SynthConfig(n_subjects=3, clips_per_subject=2, clip_s=1.2)
    manifest = generate_corpus(root, cfg, seed=3)
    return manifest


def checkout_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(avmatch.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def heuristic_overcommit() -> bool:
    """Whether Linux refuses an allocation past RAM and swap when it is asked for."""
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() == "0"
    except OSError:
        return False


def test_import_skips_scipy_modules_of_single_commands():
    # scipy.fft serves only --mfcc and scipy.ndimage only the corpus generator
    code = ("import sys, avmatch.cli; "
            "print(sorted(m for m in ('scipy.fft', 'scipy.ndimage') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=checkout_env(), capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_module_run_executes_the_command(tmp_path):
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "avmatch.cli", *argv], env=checkout_env(),
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)

    done = run("synth", "--out", "d", "--subjects", "2", "--clips", "1",
               "--clip-seconds", "1.0")
    assert done.returncode == EXIT_OK
    assert len(avio.load_manifest(tmp_path / "d" / "manifest.csv")) == 2
    bad = run("synth", "--out", "e", "--bogus")
    assert bad.returncode == EXIT_USAGE and "--bogus" in bad.stderr
    assert not (tmp_path / "e").exists()


class TestSynthCommand:
    def test_clip_count_and_manifest(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path / "c"), "--subjects", "2",
                   "--clips", "2", "--clip-seconds", "1.0", "--seed", "5"])
        assert rc == EXIT_OK
        rows = avio.load_manifest(tmp_path / "c" / "manifest.csv")
        assert len(rows) == 4
        clip = avio.read_wav(rows[0].audio_path)
        assert clip.sample_rate == 16000
        assert len(avio.read_frame_dir(rows[0].frames_dir)) == 30

    def test_bitwise_determinism(self, tmp_path):
        for d in ("a", "b"):
            main(["synth", "--out", str(tmp_path / d), "--subjects", "2",
                  "--clips", "1", "--clip-seconds", "1.0", "--seed", "9"])
        wav_a = (tmp_path / "a" / "s00" / "clip00" / "audio.wav").read_bytes()
        wav_b = (tmp_path / "b" / "s00" / "clip00" / "audio.wav").read_bytes()
        assert wav_a == wav_b
        pgm_a = (tmp_path / "a" / "s00" / "clip00" / "frames" / "frame0000.pgm").read_bytes()
        pgm_b = (tmp_path / "b" / "s00" / "clip00" / "frames" / "frame0000.pgm").read_bytes()
        assert pgm_a == pgm_b

    def test_alignment_correlation_beats_shifted(self, corpus):
        # measured directly on the generated streams: aligned audio envelope vs
        # frame intensity correlates better than a half-second-shifted window
        rows = avio.load_manifest(corpus)
        aligned, shifted = [], []
        for row in rows:
            clip = avio.read_wav(row.audio_path)
            frames = avio.read_frame_dir(row.frames_dir)
            means = np.array([f.mean() for f in frames])
            fps, rate = 30, clip.sample_rate
            window = np.abs(clip.samples)
            env_at = lambda t: window[int(t * rate):int(t * rate) + rate // fps].mean()
            n = 21   # 0.7 s of frames, room for a 0.5 s shift
            env_aligned = np.array([env_at(i / fps) for i in range(n)])
            env_shift = np.array([env_at(i / fps + 0.5) for i in range(n)])
            aligned.append(np.corrcoef(means[:n], env_aligned)[0, 1])
            shifted.append(np.corrcoef(means[:n], env_shift)[0, 1])
        assert np.mean(aligned) > np.mean(shifted)


class TestFeaturesCommand:
    def test_audio_cube(self, corpus, tmp_path):
        rows = avio.load_manifest(corpus)
        out = tmp_path / "a.avcb"
        rc = main(["features", "audio", "--in", str(rows[0].audio_path),
                   "--out", str(out)])
        assert rc == EXIT_OK
        cube = avio.read_cube(out)
        assert cube.shape[1:] == (40, 3)

    def test_audio_cepstral_flag(self, corpus, tmp_path):
        rows = avio.load_manifest(corpus)
        out = tmp_path / "m.avcb"
        rc = main(["features", "audio", "--in", str(rows[0].audio_path),
                   "--out", str(out), "--mfcc"])
        assert rc == EXIT_OK
        assert avio.read_cube(out).shape[1:] == (13, 3)

    def test_video_cube(self, corpus, tmp_path):
        rows = avio.load_manifest(corpus)
        out = tmp_path / "v.avcb"
        rc = main(["features", "video", "--frames", str(rows[0].frames_dir),
                   "--start", "0", "--out", str(out)])
        assert rc == EXIT_OK
        assert avio.read_cube(out).shape == (9, 60, 100, 1)

    def test_video_from_packed_cube(self, corpus, tmp_path):
        rows = avio.load_manifest(corpus)
        frames = np.stack(avio.read_frame_dir(rows[0].frames_dir)).astype(np.float32)
        packed = tmp_path / "frames.avcb"
        avio.write_cube(packed, frames)
        out = tmp_path / "v2.avcb"
        rc = main(["features", "video", "--cube", str(packed), "--start", "3",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert avio.read_cube(out).shape == (9, 60, 100, 1)

    def test_negative_video_start_is_usage_error(self, corpus, tmp_path, capsys):
        rows = avio.load_manifest(corpus)
        out = tmp_path / "v.avcb"
        rc = main(["features", "video", "--frames", str(rows[0].frames_dir),
                   "--start", "-1", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "--start" in capsys.readouterr().err
        assert not out.exists()

    def test_video_start_past_the_frames_is_data_error(self, corpus, tmp_path):
        rows = avio.load_manifest(corpus)
        n = len(avio.read_frame_dir(rows[0].frames_dir))
        rc = main(["features", "video", "--frames", str(rows[0].frames_dir),
                   "--start", str(n), "--out", str(tmp_path / "v.avcb")])
        assert rc == EXIT_DATA

    def test_manifest_mode_writes_all(self, corpus, tmp_path):
        out_dir = tmp_path / "cubes"
        rc = main(["features", "audio", "--manifest", str(corpus),
                   "--out-dir", str(out_dir)])
        assert rc == EXIT_OK
        assert len(list(out_dir.glob("*.avcb"))) == 6

    def test_corrupt_wav_exits_2(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio at all")
        rc = main(["features", "audio", "--in", str(bad),
                   "--out", str(tmp_path / "x.avcb")])
        assert rc == EXIT_DATA

    def test_bitwise_stable_outputs(self, corpus, tmp_path):
        rows = avio.load_manifest(corpus)
        outs = []
        for name in ("one.avcb", "two.avcb"):
            out = tmp_path / name
            main(["features", "audio", "--in", str(rows[0].audio_path), "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_mode_reports_bad_row_and_writes_the_rest(self, corpus, tmp_path,
                                                                capsys):
        with corpus.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio at all")
        for row in rows:
            row["audio_path"] = str(corpus.parent / row["audio_path"])
            row["frames_dir"] = str(corpus.parent / row["frames_dir"])
        rows[2]["audio_path"] = str(bad)
        manifest = tmp_path / "manifest.csv"
        with manifest.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out_dir = tmp_path / "cubes"
        rc = main(["features", "audio", "--manifest", str(manifest),
                   "--out-dir", str(out_dir)])
        assert rc == EXIT_DATA
        assert f"error: {bad}:" in capsys.readouterr().err
        written = sorted(p.name for p in out_dir.glob("*.avcb"))
        expected = sorted(f"{row['subject_id']}_{i:04d}.avcb"
                          for i, row in enumerate(rows) if i != 2)
        assert written == expected

    def test_manifest_mode_names_nan_wav_and_writes_the_rest(self, corpus, tmp_path, capsys):
        from scipy.io import wavfile
        nan_wav = tmp_path / "nan.wav"
        samples = np.zeros(16000, dtype=np.float32)
        samples[8000] = np.nan
        wavfile.write(nan_wav, 16000, samples)
        manifest, rows = _edited_manifest(corpus, tmp_path, 1, audio_path=str(nan_wav))
        out_dir = tmp_path / "cubes"
        rc = main(["features", "audio", "--manifest", str(manifest),
                   "--out-dir", str(out_dir)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: {nan_wav}: non-finite sample at 0.500000 s" in err
        assert f"{nan_wav}: {nan_wav}:" not in err
        written = sorted(p.name for p in out_dir.glob("*.avcb"))
        expected = sorted(f"{row['subject_id']}_{i:04d}.avcb"
                          for i, row in enumerate(rows) if i != 1)
        assert written == expected

    def test_manifest_mode_names_too_short_wav_once(self, corpus, tmp_path, capsys):
        short_wav = tmp_path / "short.wav"
        avio.write_wav(short_wav, np.zeros(100), 16000)   # under one 320-sample frame
        manifest, rows = _edited_manifest(corpus, tmp_path, 1, audio_path=str(short_wav))
        out_dir = tmp_path / "cubes"
        rc = main(["features", "audio", "--manifest", str(manifest),
                   "--out-dir", str(out_dir)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: {short_wav}: clip of 100 samples" in err
        assert f"{short_wav}: {short_wav}:" not in err
        written = sorted(p.name for p in out_dir.glob("*.avcb"))
        expected = sorted(f"{row['subject_id']}_{i:04d}.avcb"
                          for i, row in enumerate(rows) if i != 1)
        assert written == expected

    def test_20hz_wav_is_data_error(self, tmp_path, capsys):
        wav = tmp_path / "lo.wav"
        avio.write_wav(wav, np.zeros(20), 20)
        out = tmp_path / "x.avcb"
        rc = main(["features", "audio", "--in", str(wav), "--out", str(out)])
        assert rc == EXIT_DATA
        assert "20 Hz" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_packed_frame_is_data_error(self, tmp_path, capsys):
        frames = np.zeros((12, 60, 100), dtype=np.float32)
        frames[4, 10, 10] = np.inf
        packed = tmp_path / "frames.avcb"
        avio.write_cube(packed, frames)
        out = tmp_path / "v.avcb"
        rc = main(["features", "video", "--cube", str(packed), "--out", str(out)])
        assert rc == EXIT_DATA
        assert "packed frame 4 holds non-finite values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(9, 0, 5), (9, 5, 0)])
    def test_empty_packed_frames_are_data_error(self, tmp_path, capsys, shape):
        packed = tmp_path / "frames.avcb"
        avio.write_cube(packed, np.zeros(shape, dtype=np.float32))
        out = tmp_path / "v.avcb"
        rc = main(["features", "video", "--cube", str(packed), "--out", str(out)])
        assert rc == EXIT_DATA
        assert "frame 0 is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_48khz_wav_is_data_error(self, tmp_path):
        wav = tmp_path / "hi.wav"
        avio.write_wav(wav, np.zeros(48000 // 2), 48000)
        rc = main(["features", "audio", "--in", str(wav),
                   "--out", str(tmp_path / "x.avcb")])
        assert rc == EXIT_DATA

    def test_truncated_frame_cube_exits_2(self, tmp_path):
        packed = tmp_path / "frames.avcb"
        avio.write_cube(packed, np.zeros((12, 60, 100), dtype=np.float32))
        packed.write_bytes(packed.read_bytes()[:14])
        rc = main(["features", "video", "--cube", str(packed),
                   "--out", str(tmp_path / "v.avcb")])
        assert rc == EXIT_DATA

    def test_frame_cube_extents_past_int64_exit_2(self, tmp_path):
        packed = tmp_path / "frames.avcb"
        packed.write_bytes(avio._header(avio.CUBE_MAGIC) + struct.pack("<H4I", 4, *[65536] * 4))
        rc = main(["features", "video", "--cube", str(packed),
                   "--out", str(tmp_path / "v.avcb")])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("size", [b"-3 -2", b"0 0"])
    def test_frame_below_one_pixel_exits_2(self, tmp_path, capsys, size):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "f000.pgm").write_bytes(b"P5\n" + size + b"\n255\n" + bytes(6))
        rc = main(["features", "video", "--frames", str(frames),
                   "--out", str(tmp_path / "v.avcb")])
        assert rc == EXIT_DATA
        assert "f000.pgm: PGM size" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_required_flags(self):
        assert main(["features", "audio"]) == EXIT_USAGE

    def test_unknown_command_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--manifest", "m.csv", "--out", "c", "--bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_config_key(self, corpus, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        rc = main(["train", "--manifest", str(corpus), "--out",
                   str(tmp_path / "c.avck"), "--config", str(cfg)])
        assert rc == EXIT_USAGE

    def test_missing_manifest_is_data_error(self, tmp_path):
        rc = main(["train", "--manifest", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "c.avck")])
        assert rc == EXIT_DATA

    def test_eval_on_checkpoint_with_trailing_bytes_is_data_error(self, corpus, tmp_path):
        ckpt = tmp_path / "long.avck"
        avio.save_checkpoint(ckpt, CoupledModel(ModelConfig(zeta=8, seed=0)))
        ckpt.write_bytes(ckpt.read_bytes() + bytes(40))
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(corpus),
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_DATA

    def test_eval_on_too_small_corpus_is_one_line_data_error(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path / "c"), "--subjects", "1", "--clips", "1",
              "--clip-seconds", "0.9", "--seed", "0"])
        ckpt = tmp_path / "m.avck"
        avio.save_checkpoint(ckpt, CoupledModel(ModelConfig(zeta=8, seed=0)))
        capsys.readouterr()
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest",
                   str(tmp_path / "c" / "manifest.csv"), "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == "avmatch: need at least 5 test pairs\n"

    def test_eval_with_one_fold_is_usage_error(self, corpus, tmp_path):
        ckpt = tmp_path / "m.avck"
        avio.save_checkpoint(ckpt, CoupledModel(ModelConfig(zeta=8, seed=0)))
        out_dir = tmp_path / "eval"
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(corpus),
                   "--folds", "1", "--out-dir", str(out_dir)])
        assert rc == EXIT_USAGE
        assert not (out_dir / "metrics.json").exists()

    def test_crossval_with_zero_folds_is_usage_error(self, corpus, tmp_path):
        rc = main(["crossval", "--manifest", str(corpus), "--grid", "mu=1.0",
                   "--folds", "0", "--zeta", "8", "--out", str(tmp_path / "cv.json")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 63)])
    @pytest.mark.parametrize("command", ["synth", "train", "crossval", "eval"])
    def test_seed_out_of_range_is_usage_error_before_any_file(self, tmp_path, capsys,
                                                              command, seed):
        # nothing named below exists, so a command that read or wrote first would exit 2
        # or leave its output behind
        out = tmp_path / "out"
        argv = {"synth": ["synth", "--out", str(out)],
                "train": ["train", "--manifest", str(tmp_path / "m.csv"), "--out", str(out)],
                "crossval": ["crossval", "--manifest", str(tmp_path / "m.csv"),
                             "--grid", "mu=1.0", "--out", str(out)],
                "eval": ["eval", "--ckpt", str(tmp_path / "c.avck"),
                         "--manifest", str(tmp_path / "m.csv"), "--out-dir", str(out)]}
        with pytest.raises(SystemExit) as exc:
            main(argv[command] + ["--seed", seed])
        assert exc.value.code == EXIT_USAGE
        assert f"seed must be in [0, 2**63), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_config_file_seed_out_of_range_is_usage_error(self, tmp_path, command):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed=-1\n")
        out = tmp_path / "out"
        argv = [command, "--manifest", str(tmp_path / "m.csv"), "--config", str(cfg),
                "--out", str(out)]
        if command == "crossval":
            argv += ["--grid", "mu=1.0"]
        assert main(argv) == EXIT_USAGE
        assert not out.exists()

    def test_grid_seed_out_of_range_is_usage_error(self, tmp_path):
        rc = main(["crossval", "--manifest", str(tmp_path / "m.csv"), "--grid",
                   "seed=0,-1", "--out", str(tmp_path / "cv.json")])
        assert rc == EXIT_USAGE

    def test_eval_on_checkpoint_with_negative_seed_is_data_error(self, corpus, tmp_path,
                                                                 capsys):
        ckpt = tmp_path / "neg.avck"
        avio.save_checkpoint(ckpt, CoupledModel(ModelConfig(zeta=8, seed=0)))
        raw = bytearray(ckpt.read_bytes())
        raw[34:42] = struct.pack("<q", -1)   # seed, after magic, version, zeta, mu, lam, rho
        ckpt.write_bytes(bytes(raw))
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(corpus),
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_DATA
        assert "bad stored configuration: seed must be in" in capsys.readouterr().err

    # the header's zeta sizes fc6 before anything is checked unless every
    # blob is read first; 2**32 - 1 then asks for 8 TiB, which only a
    # heuristic overcommit policy refuses at once rather than committing
    @pytest.mark.skipif(not heuristic_overcommit(), reason="needs the heuristic overcommit policy")
    def test_eval_on_checkpoint_with_huge_stored_zeta_is_data_error(self, corpus, tmp_path,
                                                                    capsys):
        ckpt = tmp_path / "zeta.avck"
        avio.save_checkpoint(ckpt, CoupledModel(ModelConfig(zeta=8, seed=0)))
        raw = bytearray(ckpt.read_bytes())
        raw[6:10] = struct.pack("<I", 2 ** 32 - 1)   # zeta, after magic and version
        ckpt.write_bytes(bytes(raw))
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(corpus),
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (
            f"avmatch: {ckpt}: stored zeta 4294967295 disagrees with blob "
            f"visual.fc6.weights of shape (256, 8)\n")
        assert not (tmp_path / "eval").exists()

    def test_eval_on_nan_checkpoint_is_data_error(self, corpus, tmp_path):
        model = CoupledModel(ModelConfig(zeta=8, seed=0))
        ckpt = tmp_path / "nan.avck"
        avio.save_checkpoint(ckpt, model)
        write_nan_into_blob(ckpt, next(iter(model.named_parameters()))[0])
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(corpus),
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_DATA

    def test_eval_names_the_pair_and_layer_of_a_non_finite_distance(self, corpus, tmp_path,
                                                                    capsys):
        # a finite checkpoint whose visual fc6 output overflows float32
        model = CoupledModel(ModelConfig(zeta=8, seed=0))
        next(layer for layer in model.visual_net.layers
             if layer.name == "fc6").weights.data[...] = 3e37
        ckpt = tmp_path / "big.avck"
        avio.save_checkpoint(ckpt, model)
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(corpus),
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == ("avmatch: pair 0: non-finite distance; "
                                           "parameters are finite; visual.fc6 output is not\n")
        assert not (tmp_path / "eval").exists()


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    ckpt = out / "model.avck"
    stats = out / "stats.csv"
    rc = main(["train", "--manifest", str(corpus), "--out", str(ckpt),
               "--stats", str(stats), "--epochs", "1", "--zeta", "8",
               "--batch-size", "8", "--seed", "3"])
    assert rc == EXIT_OK
    return ckpt, stats


class TestTrainEvalCommands:

    def test_train_writes_checkpoint_and_stats(self, trained):
        ckpt, stats = trained
        model = avio.load_checkpoint(ckpt)
        assert model.config.zeta == 8
        lines = stats.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,selection_rate,val_EER"
        assert len(lines) == 2

    def test_flag_beats_config_file(self, corpus, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs=3\nzeta=8\n")
        stats = tmp_path / "stats.csv"
        rc = main(["train", "--manifest", str(corpus), "--out", str(tmp_path / "c.avck"),
                   "--stats", str(stats), "--epochs", "1", "--batch-size", "8",
                   "--config", str(cfg)])
        assert rc == EXIT_OK
        assert len(stats.read_text().strip().splitlines()) == 2   # header + one epoch
        assert avio.load_checkpoint(tmp_path / "c.avck").config.zeta == 8

    def test_train_deterministic_checkpoints(self, corpus, tmp_path):
        blobs = []
        for name in ("r1.avck", "r2.avck"):
            path = tmp_path / name
            rc = main(["train", "--manifest", str(corpus), "--out", str(path),
                       "--epochs", "1", "--zeta", "8", "--batch-size", "8",
                       "--seed", "11"])
            assert rc == EXIT_OK
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_diverging_run_reports_only_the_guard_line(self, corpus, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--manifest", str(corpus), "--out", str(tmp_path / "d.avck"),
                       "--lr", "1e30", "--epochs", "3"])
        assert rc == EXIT_DATA
        assert [str(w.message) for w in caught] == []
        # the pair generator's note on skipped impostors precedes training
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if not line.startswith("warning: skipped")]
        assert len(lines) == 1
        assert lines[0].startswith("avmatch: epoch 0 step 1: non-finite distance; ")
        assert not (tmp_path / "d.avck").exists()

    def test_eval_emits_metrics_and_curves(self, corpus, trained, tmp_path):
        ckpt, _ = trained
        out_dir = tmp_path / "eval"
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(corpus),
                   "--shift", "0.5", "--out-dir", str(out_dir), "--folds", "3"])
        assert rc == EXIT_OK
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert {"eer", "auc", "ap", "counts", "folds"} <= set(metrics)
        assert {"mean", "std"} == set(metrics["folds"]["eer"])
        roc = (out_dir / "roc.csv").read_text().splitlines()
        assert roc[0] == "far,tpr"
        assert (out_dir / "roc.svg").read_text().startswith("<svg")
        assert (out_dir / "pr.svg").exists()

    def test_crossval_reports_best(self, corpus, tmp_path):
        out = tmp_path / "cv.json"
        rc = main(["crossval", "--manifest", str(corpus), "--grid", "mu=1.0",
                   "--folds", "3", "--epochs", "1", "--zeta", "8",
                   "--batch-size", "8", "--out", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["best"] == {"mu": 1.0}
        assert len(payload["table"][0]["fold_eers"]) == 3


def _edited_manifest(corpus, tmp_path, index, **changes):
    """Copy of the corpus manifest with absolute paths and ``changes`` applied
    to row ``index``; returns (manifest path, rows)."""
    with corpus.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["audio_path"] = str(corpus.parent / row["audio_path"])
        row["frames_dir"] = str(corpus.parent / row["frames_dir"])
    rows[index].update(changes)
    manifest = tmp_path / "manifest.csv"
    with manifest.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return manifest, rows


class TestMalformedValues:
    def test_config_value_that_does_not_parse_is_usage_error(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs=ten\n")
        rc = main(["train", "--manifest", str(corpus), "--out",
                   str(tmp_path / "c.avck"), "--config", str(cfg)])
        assert rc == EXIT_USAGE
        assert "'ten' for epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["mu=abc", "zeta=8.5", "mu=1.0;zeta=", "bogus=1",
                                      "eta0=0.1,0.9", "mu=-1", "rho=1.0", "zeta=0",
                                      "dtype=float16"])
    def test_bad_grid_is_usage_error_before_the_manifest_is_read(self, tmp_path, grid):
        rc = main(["crossval", "--manifest", str(tmp_path / "missing.csv"), "--grid", grid,
                   "--out", str(tmp_path / "cv.json")])
        assert rc == EXIT_USAGE

    def test_repeated_grid_axis_is_usage_error_before_the_manifest_is_read(self, tmp_path,
                                                                           capsys):
        rc = main(["crossval", "--manifest", str(tmp_path / "missing.csv"),
                   "--grid", "mu=1;mu=2,3", "--out", str(tmp_path / "cv.json")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "avmatch: grid axis 'mu' given twice\n"

    def test_integer_grid_axis_trains_that_value(self, corpus, tmp_path):
        out = tmp_path / "cv.json"
        rc = main(["crossval", "--manifest", str(corpus), "--grid", "zeta=8",
                   "--folds", "3", "--epochs", "1", "--batch-size", "8", "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["best"] == {"zeta": 8}

    @pytest.mark.parametrize("flag, value", [
        ("--min-shift", "nan"), ("--max-shift", "inf"), ("--lr", "nan"), ("--lr", "-1"),
        ("--lr", "inf"), ("--mu", "inf"), ("--mu", "nan"), ("--lam", "nan"),
        ("--lam", "inf"), ("--eta0", "nan"), ("--eta0", "inf")])
    def test_non_finite_or_out_of_range_train_value_is_usage_error(self, corpus, tmp_path,
                                                                    flag, value):
        ckpt = tmp_path / "c.avck"
        rc = main(["train", "--manifest", str(corpus), "--out", str(ckpt), "--epochs", "1",
                   "--zeta", "8", "--batch-size", "8", flag, value])
        assert rc == EXIT_USAGE
        assert not ckpt.exists()

    def test_infinite_eval_shift_is_usage_error(self, corpus, tmp_path):
        ckpt = tmp_path / "m.avck"
        avio.save_checkpoint(ckpt, CoupledModel(ModelConfig(zeta=8, seed=0)))
        out_dir = tmp_path / "eval"
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(corpus), "--shift", "inf",
                   "--out-dir", str(out_dir)])
        assert rc == EXIT_USAGE
        assert not out_dir.exists()

    @pytest.mark.parametrize("seconds", ["nan", "inf"])
    def test_non_finite_clip_seconds_is_usage_error(self, tmp_path, seconds):
        rc = main(["synth", "--out", str(tmp_path / "c"), "--clip-seconds", seconds])
        assert rc == EXIT_USAGE
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("shift", ["1e308", "1e200"])
    @pytest.mark.parametrize("command", ["train", "crossval", "eval"])
    def test_shift_past_int64_hops_is_usage_error_before_any_file(self, tmp_path, capsys,
                                                                  command, shift):
        # nothing named below exists, so a command that read first would exit 2
        out = tmp_path / "out"
        manifest = str(tmp_path / "m.csv")
        argv = {"train": ["train", "--manifest", manifest, "--out", str(out),
                          "--max-shift", shift],
                "crossval": ["crossval", "--manifest", manifest, "--grid", "mu=1.0",
                             "--out", str(out), "--max-shift", shift],
                "eval": ["eval", "--ckpt", str(tmp_path / "c.avck"), "--manifest", manifest,
                         "--out-dir", str(out), "--shift", shift]}
        assert main(argv[command]) == EXIT_USAGE
        assert "than an int64 holds" in capsys.readouterr().err
        assert not out.exists()

    def test_clip_seconds_without_a_finite_sample_count_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "c"), "--clip-seconds", "1e308"])
        assert rc == EXIT_USAGE
        assert "no finite sample count" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_run_that_cannot_allocate_is_one_line_data_error(self, tmp_path, capsys):
        # 1.6e16 samples of int64 is 114 PiB, past any address space
        rc = main(["synth", "--out", str(tmp_path / "c"), "--clip-seconds", "1e12"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("avmatch: out of memory: ") and err.count("\n") == 1

    def test_clip_that_cannot_allocate_leaves_no_output_directory(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "c"), "--clip-seconds", "1e12"])
        assert rc == EXIT_DATA
        assert not (tmp_path / "c").exists()

    def test_zeta_past_the_checkpoint_u32_is_usage_error_before_the_manifest(self, tmp_path,
                                                                             capsys):
        # the manifest does not exist: reading it first would be a data error
        rc = main(["train", "--manifest", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "c.avck"), "--zeta", "4294967296"])
        assert rc == EXIT_USAGE
        assert "zeta" in capsys.readouterr().err
        assert not (tmp_path / "c.avck").exists()

    def test_bare_train_flags_are_the_config_defaults(self):
        args = build_parser().parse_args(["train", "--manifest", "m.csv", "--out", "c.avck"])
        assert _train_configs(args) == (ModelConfig(), TrainConfig())

    def test_eval_folds_checked_before_any_input_is_read(self, tmp_path):
        rc = main(["eval", "--ckpt", str(tmp_path / "missing.avck"),
                   "--manifest", str(tmp_path / "missing.csv"), "--folds", "1",
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("shift", ["0.31", "0.33"])
    def test_shift_without_a_whole_feature_hop_is_usage_error(self, corpus, tmp_path, shift):
        ckpt = tmp_path / "c.avck"
        rc = main(["train", "--manifest", str(corpus), "--out", str(ckpt), "--epochs", "1",
                   "--zeta", "8", "--batch-size", "8", "--min-shift", shift,
                   "--max-shift", shift])
        assert rc == EXIT_USAGE
        assert not ckpt.exists()
        rc = main(["eval", "--ckpt", str(tmp_path / "missing.avck"),
                   "--manifest", str(corpus), "--shift", shift,
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_USAGE
        assert not (tmp_path / "eval").exists()

    def test_eval_shift_checked_before_any_input_is_read(self, tmp_path):
        rc = main(["eval", "--ckpt", str(tmp_path / "missing.avck"),
                   "--manifest", str(tmp_path / "missing.csv"), "--shift", "inf",
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_USAGE

    def test_crossval_folds_checked_before_any_input_is_read(self, tmp_path):
        rc = main(["crossval", "--manifest", str(tmp_path / "missing.csv"),
                   "--grid", "mu=1.0", "--folds", "1", "--out", str(tmp_path / "cv.json")])
        assert rc == EXIT_USAGE


class TestStreamRates:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_declared_sample_rate_mismatch_is_data_error(self, corpus, tmp_path, capsys,
                                                         command):
        manifest, rows = _edited_manifest(corpus, tmp_path, 1, sample_rate="22050")
        ckpt = tmp_path / "m.avck"
        if command == "train":
            argv = ["train", "--manifest", str(manifest), "--out", str(ckpt),
                    "--epochs", "1", "--zeta", "8", "--batch-size", "8"]
        else:
            avio.save_checkpoint(ckpt, CoupledModel(ModelConfig(zeta=8, seed=0)))
            argv = ["eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
                    "--out-dir", str(tmp_path / "eval")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert rows[1]["audio_path"] in err and "22050" in err

    def test_features_manifest_names_row_with_wrong_sample_rate(self, corpus, tmp_path,
                                                                capsys):
        manifest, rows = _edited_manifest(corpus, tmp_path, 2, sample_rate="8000")
        out_dir = tmp_path / "cubes"
        rc = main(["features", "audio", "--manifest", str(manifest),
                   "--out-dir", str(out_dir)])
        assert rc == EXIT_DATA
        assert f"error: {rows[2]['audio_path']}:" in capsys.readouterr().err
        written = sorted(p.name for p in out_dir.glob("*.avcb"))
        expected = sorted(f"{row['subject_id']}_{i:04d}.avcb"
                          for i, row in enumerate(rows) if i != 2)
        assert written == expected

    @pytest.mark.parametrize("fps", ["0", "nan"])
    def test_fps_not_finite_and_positive_is_data_error_naming_the_record(
            self, corpus, tmp_path, capsys, fps):
        manifest, _ = _edited_manifest(corpus, tmp_path, 2, fps=fps)
        ckpt = tmp_path / "c.avck"
        rc = main(["train", "--manifest", str(manifest), "--out", str(ckpt),
                   "--epochs", "1", "--zeta", "8", "--batch-size", "8"])
        assert rc == EXIT_DATA
        assert f"record 2 has fps {float(fps)}" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_train_on_nan_wav_is_data_error_without_checkpoint(self, corpus, tmp_path,
                                                               capsys):
        from scipy.io import wavfile
        nan_wav = tmp_path / "nan.wav"
        samples = np.zeros(int(1.2 * 16000), dtype=np.float32)
        samples[100] = np.nan
        wavfile.write(nan_wav, 16000, samples)
        manifest, _ = _edited_manifest(corpus, tmp_path, 0, audio_path=str(nan_wav))
        ckpt = tmp_path / "c.avck"
        rc = main(["train", "--manifest", str(manifest), "--out", str(ckpt),
                   "--epochs", "1", "--zeta", "8", "--batch-size", "8"])
        assert rc == EXIT_DATA
        assert f"{nan_wav}: non-finite sample at 0.006250 s" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_allowed_25_fps_row_is_refused_not_misaligned(self, corpus, tmp_path, capsys):
        manifest, _ = _edited_manifest(corpus, tmp_path, 0, fps="25")
        ckpt = tmp_path / "m.avck"
        avio.save_checkpoint(ckpt, CoupledModel(ModelConfig(zeta=8, seed=0)))
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_DATA
        assert "25.0 f/s" in capsys.readouterr().err

    def test_2997_fps_row_needs_no_flag(self, corpus, tmp_path):
        manifest, _ = _edited_manifest(corpus, tmp_path, 0, fps="29.97")
        ckpt = tmp_path / "m.avck"
        avio.save_checkpoint(ckpt, CoupledModel(ModelConfig(zeta=8, seed=0)))
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_OK
        assert (tmp_path / "eval" / "metrics.json").exists()

    def test_25_fps_row_is_data_error_from_train(self, corpus, tmp_path, capsys):
        manifest, _ = _edited_manifest(corpus, tmp_path, 0, fps="25")
        ckpt = tmp_path / "m.avck"
        rc = main(["train", "--manifest", str(manifest), "--out", str(ckpt),
                   "--epochs", "1", "--zeta", "8", "--batch-size", "8"])
        assert rc == EXIT_DATA
        assert "25.0 f/s span 0.360 s" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_features_manifest_ignores_the_frame_rate(self, corpus, tmp_path):
        manifest, rows = _edited_manifest(corpus, tmp_path, 0, fps="25")
        out_dir = tmp_path / "cubes"
        rc = main(["features", "audio", "--manifest", str(manifest), "--out-dir", str(out_dir)])
        assert rc == EXIT_OK
        assert len(list(out_dir.glob("*.avcb"))) == len(rows)


class TestNotUtf8:
    """A manifest or config file that does not decode as UTF-8 is refused in
    one line naming it (a leading UTF-16 byte-order mark here)."""

    def test_csv_manifest_is_data_error(self, corpus, tmp_path, capsys):
        manifest, _ = _edited_manifest(corpus, tmp_path, 0)
        manifest.write_bytes(b"\xff\xfe" + manifest.read_bytes())
        out = tmp_path / "c.avck"
        assert main(["train", "--manifest", str(manifest), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"avmatch: {manifest}: manifest is not UTF-8")
        assert not out.exists()

    def test_jsonl_manifest_is_data_error(self, corpus, tmp_path, capsys):
        _, rows = _edited_manifest(corpus, tmp_path, 0)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_bytes(b"\xff\xfe" + "".join(json.dumps(row) + "\n" for row in rows).encode())
        out_dir = tmp_path / "cubes"
        rc = main(["features", "audio", "--manifest", str(manifest), "--out-dir", str(out_dir)])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"avmatch: {manifest}: manifest is not UTF-8")
        assert not out_dir.exists()

    def test_config_file_is_usage_error(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(b"\xff\xfeepochs=1\n")
        out = tmp_path / "c.avck"
        rc = main(["train", "--manifest", str(corpus), "--out", str(out), "--config", str(cfg)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"avmatch: {cfg}: config file is not UTF-8")
        assert not out.exists()
