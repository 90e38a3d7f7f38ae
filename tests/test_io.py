import struct

import numpy as np
import pytest

from avmatch import io as avio
from avmatch.errors import ConfigError, DataError
from avmatch.model import CoupledModel, ModelConfig
from checkpoint_bytes import write_nan_into_blob


class TestWav:
    def test_int16_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.9, 0.9, 1600)
        path = tmp_path / "a.wav"
        avio.write_wav(path, samples, 16000)
        clip = avio.read_wav(path)
        assert clip.sample_rate == 16000
        np.testing.assert_allclose(clip.samples, samples, atol=1 / 32768)

    def test_float32_supported(self, tmp_path):
        from scipy.io import wavfile
        samples = np.linspace(-0.5, 0.5, 800).astype(np.float32)
        path = tmp_path / "f.wav"
        wavfile.write(path, 8000, samples)
        clip = avio.read_wav(path)
        np.testing.assert_allclose(clip.samples, samples, atol=1e-7)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample_named_by_time(self, tmp_path, value):
        from scipy.io import wavfile
        samples = np.zeros(1600, dtype=np.float32)
        samples[1200] = value
        path = tmp_path / "nan.wav"
        wavfile.write(path, 16000, samples)
        with pytest.raises(DataError, match=r"nan\.wav: non-finite sample at 0\.075000 s"):
            avio.read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "st.wav"
        wavfile.write(path, 8000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(DataError):
            avio.read_wav(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFFgarbage")
        with pytest.raises(DataError):
            avio.read_wav(path)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(60, 100)).astype(np.uint8)
        path = tmp_path / "m.pgm"
        avio.write_pgm(path, img)
        np.testing.assert_array_equal(avio.read_pgm(path), img)

    def test_header_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 3\n255\n" + bytes(range(6)))
        img = avio.read_pgm(path)
        assert img.shape == (3, 2)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "p6.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(DataError):
            avio.read_pgm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(DataError):
            avio.read_pgm(path)

    @pytest.mark.parametrize("size", [b"-3 -2", b"0 0"])
    def test_size_below_one_pixel_refused(self, tmp_path, size):
        # 6 payload bytes match -3 x -2, so only the size check can refuse it
        path = tmp_path / "z.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(6))
        with pytest.raises(DataError, match=r"z\.pgm: PGM size"):
            avio.read_pgm(path)

    def test_frame_dir_sorted(self, tmp_path):
        for i in (2, 0, 1):
            avio.write_pgm(tmp_path / f"frame{i:03d}.pgm", np.full((2, 2), i, np.uint8))
        frames = avio.read_frame_dir(tmp_path)
        assert [int(f[0, 0]) for f in frames] == [0, 1, 2]

    def test_empty_dir(self, tmp_path):
        with pytest.raises(DataError):
            avio.read_frame_dir(tmp_path)


class TestCubeFile:
    def test_bitwise_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        cube = rng.standard_normal((15, 40, 3)).astype(np.float32)
        path = tmp_path / "c.avcb"
        avio.write_cube(path, cube)
        back = avio.read_cube(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, cube)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.avcb"
        avio.write_cube(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"AVCB"
        assert len(raw) == 4 + 2 + 2 + 8 + 4 * 6

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.avcb"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(DataError):
            avio.read_cube(path)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "short.avcb"
        avio.write_cube(path, np.zeros((4, 4), dtype=np.float32))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataError):
            avio.read_cube(path)

    def test_truncated_header(self, tmp_path):
        # 14 bytes stop inside the extents; test_length_mismatch cuts the payload
        path = tmp_path / "cut.avcb"
        avio.write_cube(path, np.zeros((15, 40, 3), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:14])
        with pytest.raises(DataError):
            avio.read_cube(path)

    def test_trailing_bytes_refused(self, tmp_path):
        path = tmp_path / "long.avcb"
        avio.write_cube(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes() + bytes(6))
        with pytest.raises(DataError, match="6 unexpected bytes"):
            avio.read_cube(path)

    def test_extents_past_int64_refused(self, tmp_path):
        # 4 * 65536**4 payload bytes wrap to 0 in int64 arithmetic
        path = tmp_path / "huge.avcb"
        path.write_bytes(avio._header(avio.CUBE_MAGIC) + struct.pack("<H4I", 4, *[65536] * 4))
        with pytest.raises(DataError, match="truncated"):
            avio.read_cube(path)


@pytest.fixture(scope="module")
def model():
    return CoupledModel(ModelConfig(zeta=16, seed=4, dtype="float32"))


class TestCheckpoint:

    def test_bitwise_roundtrip(self, tmp_path, model):
        path = tmp_path / "m.avck"
        avio.save_checkpoint(path, model)
        loaded = avio.load_checkpoint(path)
        assert loaded.config.zeta == 16
        for (name_a, pa), (name_b, pb) in zip(model.named_parameters(),
                                              loaded.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)
        for (_, ba), (_, bb) in zip(model.named_buffers(), loaded.named_buffers()):
            np.testing.assert_array_equal(ba, bb)

    def test_digest_mismatch_refused(self, tmp_path, model):
        path = tmp_path / "d.avck"
        avio.save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        # flip one digest byte (digest sits after magic+version+zeta+3 doubles+seed)
        digest_offset = 4 + 2 + 4 + 24 + 8
        raw[digest_offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            avio.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.avck"
        path.write_bytes(b"AVCBwrong-kind")
        with pytest.raises(DataError):
            avio.load_checkpoint(path)

    @pytest.mark.parametrize("keep", [20, 4 + 2 + 4 + 24 + 8 + 32 + 4 + 30, -2])
    def test_truncated_is_data_error(self, tmp_path, model, keep):
        # cuts inside the config header, inside the first blob's header, and
        # inside the last blob's payload
        path = tmp_path / "cut.avck"
        avio.save_checkpoint(path, model)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DataError, match="truncated"):
            avio.load_checkpoint(path)

    def test_trailing_bytes_refused(self, tmp_path, model):
        path = tmp_path / "long.avck"
        avio.save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + bytes(40))
        with pytest.raises(DataError, match="40 unexpected bytes"):
            avio.load_checkpoint(path)

    def test_repeated_blob_refused(self, tmp_path, model):
        path = tmp_path / "twice.avck"
        avio.save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        count_offset = 4 + 2 + 4 + 24 + 8 + 32
        raw[count_offset:count_offset + 4] = struct.pack(
            "<I", struct.unpack_from("<I", raw, count_offset)[0] + 1)
        name, buffer = model.named_buffers()[-1]
        path.write_bytes(bytes(raw) + avio._pack_blob(name, buffer))
        with pytest.raises(DataError, match="repeated blob"):
            avio.load_checkpoint(path)

    def test_blob_extents_past_int64_refused(self, tmp_path, model):
        path = tmp_path / "huge.avck"
        avio.save_checkpoint(path, model)
        name, _ = model.named_parameters()[0]
        key = struct.pack("<H", len(name)) + name.encode()
        raw = path.read_bytes()
        path.write_bytes(raw[:raw.index(key) + len(key)] + struct.pack("<H4I", 4, *[65536] * 4))
        with pytest.raises(DataError, match="truncated"):
            avio.load_checkpoint(path)

    def test_nan_parameter_refused_naming_blob(self, tmp_path, model):
        name, _ = list(model.named_parameters())[3]
        path = tmp_path / "nan.avck"
        avio.save_checkpoint(path, model)
        write_nan_into_blob(path, name)
        with pytest.raises(DataError, match=f"blob {name} "):
            avio.load_checkpoint(path)

    def test_nan_margin_in_header_is_data_error(self, tmp_path, model):
        path = tmp_path / "mu.avck"
        avio.save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        raw[10:18] = struct.pack("<d", float("nan"))   # mu, after magic, version and zeta
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="bad stored configuration: mu must be finite"):
            avio.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_state_is_not_saved(self, tmp_path, value):
        bad = CoupledModel(ModelConfig(zeta=16, seed=4, dtype="float32"))
        name, buffer = bad.named_buffers()[2]
        buffer.flat[0] = value
        path = tmp_path / "bad.avck"
        with pytest.raises(DataError, match=f"blob {name} holds non-finite"):
            avio.save_checkpoint(path, bad)
        assert not path.exists()

    def test_save_after_training_restores_running_stats(self, tmp_path, model):
        model.visual_net.layers[1].running_mean[:] = 0.25
        path = tmp_path / "r.avck"
        avio.save_checkpoint(path, model)
        loaded = avio.load_checkpoint(path)
        np.testing.assert_allclose(loaded.visual_net.layers[1].running_mean, 0.25)


class TestManifest:
    def write_clip(self, root, subject="s0"):
        clip = root / subject / "clip00"
        (clip / "frames").mkdir(parents=True)
        avio.write_wav(clip / "audio.wav", np.zeros(1600), 16000)
        avio.write_pgm(clip / "frames" / "f0.pgm", np.zeros((4, 4), np.uint8))
        return clip

    def test_csv_roundtrip(self, tmp_path):
        clip = self.write_clip(tmp_path)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "subject_id,audio_path,frames_dir,fps,sample_rate\n"
            f"s0,{clip.relative_to(tmp_path)}/audio.wav,"
            f"{clip.relative_to(tmp_path)}/frames,30,16000\n")
        rows = avio.load_manifest(manifest)
        assert rows[0].subject_id == "s0"
        assert rows[0].audio_path.exists()

    def test_jsonl_accepted(self, tmp_path):
        clip = self.write_clip(tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(
            '{"subject_id": "s0", "audio_path": "%s/audio.wav", '
            '"frames_dir": "%s/frames", "fps": 30}\n'
            % (clip.relative_to(tmp_path), clip.relative_to(tmp_path)))
        rows = avio.load_manifest(manifest)
        assert rows[0].sample_rate == 16000

    def test_wrong_fps_rejected_without_override(self, tmp_path):
        clip = self.write_clip(tmp_path)
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "subject_id,audio_path,frames_dir,fps,sample_rate\n"
            f"s0,{clip.relative_to(tmp_path)}/audio.wav,"
            f"{clip.relative_to(tmp_path)}/frames,25,16000\n")
        with pytest.raises(ConfigError):
            avio.load_manifest(manifest)
        assert avio.load_manifest(manifest, allow_fps=True)[0].fps == 25.0

    @pytest.mark.parametrize("fps", ["0", "-30", "nan", "inf"])
    def test_fps_not_finite_and_positive_is_data_error(self, tmp_path, fps):
        clip = self.write_clip(tmp_path)
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "subject_id,audio_path,frames_dir,fps,sample_rate\n"
            f"s0,{clip.relative_to(tmp_path)}/audio.wav,"
            f"{clip.relative_to(tmp_path)}/frames,30,16000\n"
            f"s0,{clip.relative_to(tmp_path)}/audio.wav,"
            f"{clip.relative_to(tmp_path)}/frames,{fps},16000\n")
        with pytest.raises(DataError, match="record 1 has fps"):
            avio.load_manifest(manifest, allow_fps=True)

    def test_jsonl_zero_fps_is_not_read_as_missing(self, tmp_path):
        clip = self.write_clip(tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(
            '{"subject_id": "s0", "audio_path": "%s/audio.wav", '
            '"frames_dir": "%s/frames", "fps": 0}\n'
            % (clip.relative_to(tmp_path), clip.relative_to(tmp_path)))
        with pytest.raises(DataError, match="record 0 has fps 0.0"):
            avio.load_manifest(manifest, allow_fps=True)

    def test_missing_paths_rejected(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("subject_id,audio_path,frames_dir\nq,none.wav,nodir\n")
        with pytest.raises(DataError):
            avio.load_manifest(manifest)

    def test_missing_columns(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("subject_id,audio\nx,y\n")
        with pytest.raises(DataError):
            avio.load_manifest(manifest)
