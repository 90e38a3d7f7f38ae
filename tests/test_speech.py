import numpy as np
import pytest

from avmatch.errors import ConfigError, DataError
from avmatch.speech import (FFT_SIZE, N_CEPSTRA, N_FILTERS, AudioClip, SpeechConfig,
                            build_speech_cube, filter_center_frequencies,
                            frame_signal, hz_to_mel,
                            mel_filterbank, mel_filterbank_energies,
                            mel_to_hz, mfcc_from_mfec, mfec_matrix,
                            standardize, temporal_derivatives)
from avmatch.tensor import Tensor


def tone(freq, duration_s, rate=16000, amp=0.5):
    t = np.arange(int(duration_s * rate)) / rate
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


def naive_dft_power(frame, fft_size):
    """O(n^2) direct DFT power spectrum of the zero-padded frame."""
    padded = np.zeros(fft_size)
    padded[:len(frame)] = frame
    n = np.arange(fft_size)
    bins = fft_size // 2 + 1
    power = np.zeros(bins)
    for k in range(bins):
        re = (padded * np.cos(-2 * np.pi * k * n / fft_size)).sum()
        im = (padded * np.sin(-2 * np.pi * k * n / fft_size)).sum()
        power[k] = (re * re + im * im) / fft_size
    return power


class TestFraming:
    def test_fifteen_frames_from_300ms(self):
        frames = frame_signal(tone(440, 0.3))
        assert frames.shape == (15, 320)

    def test_single_frame_boundary(self):
        frames = frame_signal(tone(440, 0.02))
        assert frames.shape == (1, 320)

    def test_floor_semantics_drops_remainder(self):
        clip = tone(440, 0.305)
        frames = frame_signal(clip)
        assert frames.shape == (15, 320)
        assert len(clip.samples) - frames.size == 80

    def test_too_short_clip(self):
        with pytest.raises(DataError):
            frame_signal(AudioClip(np.zeros(10), 16000))

    def test_rate_below_one_sample_per_frame_is_data_error(self):
        # 20 ms at 20 Hz is 0.4 samples
        with pytest.raises(DataError, match="20 Hz"):
            frame_signal(AudioClip(np.zeros(100), 20))

    def test_frames_are_contiguous_slices(self):
        clip = AudioClip(np.arange(1000, dtype=float), 16000)
        frames = frame_signal(clip)
        np.testing.assert_array_equal(frames[0], np.arange(320))
        np.testing.assert_array_equal(frames[1], np.arange(320, 640))


class TestMelEnergies:
    def test_zero_frame_hits_floor(self):
        out = mel_filterbank_energies(np.zeros(320))
        np.testing.assert_allclose(out, np.log(1e-10))

    def test_sinusoid_peaks_at_its_filter(self):
        centers = filter_center_frequencies(16000)
        for k in (5, 12, 20, 30, 38):
            t = np.arange(320) / 16000
            frame = np.sin(2 * np.pi * centers[k] * t)
            energies = mel_filterbank_energies(frame)
            assert energies.argmax() == k, f"filter {k} (center {centers[k]:.1f} Hz)"

    @pytest.mark.parametrize("seed", range(10))
    def test_against_naive_dft_oracle(self, seed):
        rng = np.random.default_rng(seed)
        frame = rng.standard_normal(320)
        fb = mel_filterbank(N_FILTERS, FFT_SIZE, 16000, 0.0, 8000.0)
        expected = np.log(fb @ naive_dft_power(frame * np.hamming(320), FFT_SIZE) + 1e-10)
        got = mel_filterbank_energies(frame)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_monotone_under_amplitude_scaling(self):
        rng = np.random.default_rng(3)
        frame = rng.standard_normal(320)
        low = mel_filterbank_energies(frame)
        high = mel_filterbank_energies(2.0 * frame)
        assert np.all(high >= low)

    def test_nyquist_limit_enforced(self):
        with pytest.raises(ConfigError):
            mel_filterbank(40, 512, 16000, 0.0, 9000.0)

    def test_fft_shorter_than_frame_rejected(self):
        with pytest.raises(DataError, match="16000 Hz"):
            mel_filterbank_energies(np.zeros(600))

    def test_time_reversal_invariance(self):
        # energy spectra are phase-blind; symmetric windows commute with reversal
        rng = np.random.default_rng(8)
        frame = rng.standard_normal(320)
        fwd = mel_filterbank_energies(frame)
        rev = mel_filterbank_energies(frame[::-1])
        np.testing.assert_allclose(fwd, rev, atol=1e-9)


def per_filter_filterbank(n_filters, fft_size, sample_rate, f_low, f_high):
    """One triangle at a time, the way the filterbank was first written."""
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(f_low), hz_to_mel(f_high), n_filters + 2))
    bins_hz = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)
    weights = np.zeros((n_filters, len(bins_hz)))
    for j in range(n_filters):
        left, center, right = edges_hz[j], edges_hz[j + 1], edges_hz[j + 2]
        rising = (bins_hz - left) / (center - left)
        falling = (right - bins_hz) / (right - center)
        weights[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return weights


class TestVectorisedAgainstLoops:
    @pytest.mark.parametrize("rate, fft_size, f_low, f_high", [
        (16000, 512, 0.0, 8000.0),
        (8000, 256, 100.0, 3800.0),
        (22050, 1024, 300.0, 11025.0),
    ])
    def test_filterbank_equals_per_filter_loop(self, rate, fft_size, f_low, f_high):
        got = mel_filterbank(40, fft_size, rate, f_low, f_high)
        expected = per_filter_filterbank(40, fft_size, rate, f_low, f_high)
        np.testing.assert_array_equal(got, expected)

    # fixed ids keep each case's test name stable
    @pytest.mark.parametrize("clip", [
        tone(440, 0.3),
        tone(2500, 1.0, amp=0.1),
        AudioClip(np.random.default_rng(1).standard_normal(4800) * 0.3, 16000),
        AudioClip(np.random.default_rng(2).standard_normal(2400), 8000),
    ], ids=[f"clip{i}-cfg{i}" for i in range(4)])
    def test_mfec_matrix_equals_per_frame_stack(self, clip):
        frames = frame_signal(clip)
        expected = np.stack([mel_filterbank_energies(f, clip.sample_rate) for f in frames])
        got = mfec_matrix(clip)
        assert got.shape == (len(frames), N_FILTERS)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_frame_longer_than_fft_is_data_error(self):
        clip = AudioClip(np.zeros(14400), 48000)
        with pytest.raises(DataError, match="48000 Hz"):
            mfec_matrix(clip)


class TestCepstral:
    def test_constant_vector_dc_coefficient(self):
        out = mfcc_from_mfec(np.full(40, 3.0), n_coeffs=40)
        np.testing.assert_allclose(out[0], 3.0 * np.sqrt(40))
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-12)

    def test_orthonormal_round_trip(self):
        m = mfcc_from_mfec(np.eye(40), 40)   # row i transforms the i-th unit vector
        np.testing.assert_allclose(m @ m.T, np.eye(40), atol=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_against_double_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(40)
        got = mfcc_from_mfec(vec, n_coeffs=13)
        expected = np.zeros(13)
        for k in range(13):
            acc = 0.0
            for n in range(40):
                acc += vec[n] * np.cos(np.pi * k * (2 * n + 1) / (2 * 40))
            scale = np.sqrt(1.0 / 40) if k == 0 else np.sqrt(2.0 / 40)
            expected[k] = scale * acc
        assert np.abs(got - expected).max() < 1e-12

    def test_too_many_coefficients(self):
        with pytest.raises(ConfigError):
            mfcc_from_mfec(np.zeros(40), n_coeffs=41)


class TestTemporalDerivatives:
    def test_constant_input_zero_deltas(self):
        delta, ddelta = temporal_derivatives(np.full((15, 40), 2.0))
        np.testing.assert_array_equal(delta, 0.0)
        np.testing.assert_array_equal(ddelta, 0.0)

    def test_linear_ramp_interior(self):
        a = 0.7
        ramp = a * np.arange(15)[:, None] * np.ones((1, 4))
        delta, _ = temporal_derivatives(ramp)
        np.testing.assert_allclose(delta[2:-2], a, atol=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_against_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((15, 6))
        window = 2
        padded = np.concatenate([np.repeat(x[:1], window, axis=0), x,
                                 np.repeat(x[-1:], window, axis=0)])
        denom = 2.0 * sum(n * n for n in range(1, window + 1))
        expected = np.zeros_like(x)
        for t in range(15):
            acc = np.zeros(6)
            for n in range(1, window + 1):
                acc += n * (padded[window + t + n] - padded[window + t - n])
            expected[t] = acc / denom
        delta, _ = temporal_derivatives(x, window)
        np.testing.assert_array_equal(delta, expected)

    def test_single_frame_rejected(self):
        with pytest.raises(DataError):
            temporal_derivatives(np.zeros((1, 40)))


class TestStandardize:
    def test_constant_tensor_zeros(self):
        out = standardize(Tensor(np.full((3, 3), 9.0)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_two_point(self):
        np.testing.assert_allclose(standardize(np.array([0.0, 2.0])).data, [-1.0, 1.0])

    def test_moments(self):
        rng = np.random.default_rng(0)
        out = standardize(rng.uniform(5, 9, size=(4, 7))).data
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-6


class TestSpeechCube:
    def test_shape_from_300ms_clip(self):
        cube = build_speech_cube(tone(700, 0.3))
        assert cube.values.data.shape == (15, 40, 3)

    def test_white_noise_standardized(self):
        rng = np.random.default_rng(4)
        clip = AudioClip(rng.standard_normal(4800) * 0.2, 16000)
        cube = build_speech_cube(clip).values.data
        assert np.isfinite(cube).all()
        assert abs(cube.mean()) < 1e-6
        assert abs(cube.std() - 1.0) < 1e-6

    def test_deterministic(self):
        clip = tone(500, 0.3)
        a = build_speech_cube(clip).values.data
        b = build_speech_cube(clip).values.data
        np.testing.assert_array_equal(a, b)

    def test_time_axis_follows_duration(self):
        cube = build_speech_cube(tone(500, 0.42))
        assert cube.values.data.shape == (21, 40, 3)

    def test_channels_are_static_delta_deltadelta(self):
        cfg = SpeechConfig()
        clip = tone(900, 0.3)
        static = mfec_matrix(clip)
        delta, ddelta = temporal_derivatives(static)
        stacked = np.stack([static, delta, ddelta], axis=-1)
        expected = standardize(stacked).data
        np.testing.assert_allclose(build_speech_cube(clip, cfg).values.data, expected)

    def test_cepstral_path_is_mfec_plus_dct_only(self):
        clip = tone(1200, 0.3)
        static = mfec_matrix(clip)
        direct = mfcc_from_mfec(static, N_CEPSTRA)
        delta, ddelta = temporal_derivatives(direct)
        expected = standardize(np.stack([direct, delta, ddelta], axis=-1)).data
        got = build_speech_cube(clip, SpeechConfig(cepstral=True)).values.data
        assert got.shape == (15, 13, 3)
        np.testing.assert_allclose(got, expected)
