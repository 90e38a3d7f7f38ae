import csv
import json

import numpy as np
import pytest

from avmatch import io as avio
from avmatch.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from avmatch.model import CoupledModel, ModelConfig
from avmatch.synth import SynthConfig, generate_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    cfg = SynthConfig(n_subjects=3, clips_per_subject=2, clip_s=1.2)
    manifest = generate_corpus(root, cfg, seed=3)
    return manifest


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

    def test_eval_on_nan_checkpoint_is_data_error(self, corpus, tmp_path):
        model = CoupledModel(ModelConfig(zeta=8, seed=0))
        next(iter(model.named_parameters()))[1].data.flat[0] = np.nan
        ckpt = tmp_path / "nan.avck"
        avio.save_checkpoint(ckpt, model)
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(corpus),
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == EXIT_DATA


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
