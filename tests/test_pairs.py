import numpy as np
import pytest

from avmatch.errors import ConfigError, ContractError, DataError
from avmatch.pairs import (FEATURE_HOP_S, Clip, LabeledPair, PairConfig,
                           SelectionConfig, adaptive_threshold, generate_pairs,
                           select_impostors)
from avmatch.speech import AudioClip, build_speech_cube


def make_clip(subject="s0", clip_id="c0", duration=2.0, rate=16000, fps=30, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * rate)) / rate
    audio = AudioClip(0.4 * np.sin(2 * np.pi * 800 * t) + 0.05 * rng.standard_normal(len(t)), rate)
    n_frames = int(duration * fps)
    frames = [np.full((60, 100), 100.0) + i + rng.uniform(0, 5, (60, 100))
              for i in range(n_frames)]
    return Clip(subject_id=subject, clip_id=clip_id, audio=audio, frames=frames, fps=fps)


class TestAdaptiveThreshold:
    def test_direct_arithmetic(self):
        assert adaptive_threshold([2.0, 0.5], eta0=0.1) == pytest.approx(0.4)

    def test_equal_distances_give_eta0(self):
        assert adaptive_threshold([0.7, 0.7, 0.7], eta0=0.25) == pytest.approx(0.25)

    def test_zero_min_guarded(self):
        eta = adaptive_threshold([0.0, 3.0], eta0=0.1)
        assert np.isfinite(eta) and eta > 1e9

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            adaptive_threshold([], eta0=0.1)


class TestSelectImpostors:
    def test_keep_and_discard(self):
        # max_gen 1.0, min_gen 0.5, eta0 0.1 -> eta 0.2, cut at 1.2
        keep = select_impostors([1.0, 0.5], [0.5, 1.1, 1.3], eta0=0.1)
        np.testing.assert_array_equal(keep, [0, 1])

    def test_all_beyond_threshold(self):
        keep = select_impostors([0.2, 0.25], [5.0, 6.0], eta0=0.1)
        assert keep.size == 0

    def test_no_genuine_keeps_all(self):
        keep = select_impostors([], [0.5, 1.5, 9.0], eta0=0.1)
        np.testing.assert_array_equal(keep, [0, 1, 2])

    @pytest.mark.parametrize("seed", range(50))
    def test_predicate_filter_oracle(self, seed):
        rng = np.random.default_rng(seed)
        gen = rng.uniform(0.1, 2.0, rng.integers(1, 8))
        imp = rng.uniform(0.1, 4.0, rng.integers(1, 30))
        eta0 = float(rng.uniform(0.05, 1.0))
        keep = select_impostors(gen, imp, eta0)
        cut = gen.max() + eta0 * abs(gen.max() / max(gen.min(), 1e-12))
        expected = [i for i, d in enumerate(imp) if d <= cut]
        assert keep.tolist() == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_in_eta0(self, seed):
        rng = np.random.default_rng(100 + seed)
        gen = rng.uniform(0.2, 1.5, 5)
        imp = rng.uniform(0.1, 4.0, 40)
        previous = set()
        for eta0 in (0.05, 0.2, 0.5, 1.0, 3.0):
            selected = set(select_impostors(gen, imp, eta0).tolist())
            assert previous <= selected
            previous = selected


class TestSelectionConfig:
    def test_eta0_positive(self):
        with pytest.raises(ConfigError):
            SelectionConfig(eta0=0.0)


class TestLabeledPairInvariants:
    def test_genuine_requires_zero_shift(self):
        cube = build_speech_cube(make_clip().audio.window(0, 0.3))
        from avmatch.visual import build_visual_cube
        vis = build_visual_cube(make_clip().frames, 0)
        with pytest.raises(ContractError):
            LabeledPair(cube, vis, 1, "s0", shift_s=0.1)
        with pytest.raises(ContractError):
            LabeledPair(cube, vis, 0, "s0", shift_s=0.0)


class TestGeneratePairs:
    def test_counts_and_labels(self):
        pairs, stats = generate_pairs([make_clip()], PairConfig(), seed=0)
        genuine = [p for p in pairs if p.label == 1]
        impostor = [p for p in pairs if p.label == 0]
        # 2 s clip, 0.3 s windows on a 0.3 s stride: starts 0.0 .. 1.5
        assert len(genuine) == 6
        assert stats.genuine == 6
        assert len(impostor) + stats.skipped == 6
        for p in genuine:
            assert p.shift_s == 0.0 and p.speech.values.data.shape == (15, 40, 3)
        for p in impostor:
            assert p.shift_s >= 0.1

    def test_impostor_shift_quantized_to_hop(self):
        pairs, _ = generate_pairs([make_clip(seed=1)], PairConfig(), seed=3)
        for p in pairs:
            if p.label == 0:
                hops = p.shift_s / FEATURE_HOP_S
                assert abs(hops - round(hops)) < 1e-9

    def test_fixed_half_second_shift_is_25_hops(self):
        cfg = PairConfig(fixed_shift_s=0.5)
        pairs, _ = generate_pairs([make_clip()], cfg, seed=0)
        impostors = [p for p in pairs if p.label == 0]
        assert impostors
        for p in impostors:
            assert p.shift_s == pytest.approx(0.5)
            assert round(p.shift_s / FEATURE_HOP_S) == 25
            assert p.speech.start_s == pytest.approx(0.5, abs=1e-9) or p.speech.start_s > 0

    def test_03_shift_has_zero_window_overlap(self):
        cfg = PairConfig(fixed_shift_s=0.3, max_shift_s=0.5)
        pairs, _ = generate_pairs([make_clip()], cfg, seed=0)
        window_hops = round(0.3 / FEATURE_HOP_S)
        for p in pairs:
            if p.label == 0:
                assert round(p.shift_s / FEATURE_HOP_S) == 15 == window_hops

    def test_shifted_window_equals_genuine_construction(self):
        # the impostor path is the genuine construction applied at t + shift
        clip = make_clip()
        cfg = PairConfig(fixed_shift_s=0.4)
        pairs, _ = generate_pairs([clip], cfg, seed=0)
        imp = next(p for p in pairs if p.label == 0 and p.speech.start_s == pytest.approx(0.4))
        direct = build_speech_cube(clip.audio.window(0.4, 0.3))
        np.testing.assert_array_equal(imp.speech.values.data, direct.values.data)

    def test_seed_determinism(self):
        clips = [make_clip(seed=0), make_clip(subject="s1", clip_id="c1", seed=1)]
        a, _ = generate_pairs(clips, PairConfig(), seed=11)
        b, _ = generate_pairs(clips, PairConfig(), seed=11)
        assert [p.shift_s for p in a] == [p.shift_s for p in b]
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.speech.values.data, pb.speech.values.data)

    def test_short_stream_skips_with_count(self):
        # 0.9 s clip: aligned windows fit but most shifted audio does not
        pairs, stats = generate_pairs([make_clip(duration=0.9)], PairConfig(), seed=0)
        assert stats.skipped > 0
        # stored start already includes the shift; windows stay inside the stream
        assert all(p.speech.start_s + 0.3 <= 0.9 + 1e-9 for p in pairs)

    def test_clip_too_short_for_any_window(self):
        with pytest.raises(DataError):
            generate_pairs([make_clip(duration=0.2)], PairConfig(), seed=0)

    def test_min_shift_below_hop_rejected(self):
        with pytest.raises(ConfigError):
            PairConfig(min_shift_s=0.01)

    @pytest.mark.parametrize("shift", [0.31, 0.33])
    def test_shift_range_without_a_whole_hop_rejected(self, shift):
        with pytest.raises(ConfigError, match="whole feature hops"):
            PairConfig(min_shift_s=shift, max_shift_s=shift)
        with pytest.raises(ConfigError, match="whole feature hops"):
            PairConfig(fixed_shift_s=shift)

    def test_shift_range_whose_hops_int64_cannot_count_rejected(self):
        # the generator draws up to the largest hop count plus one as int64:
        # 1e17 s is 5e18 hops, below 2**63, and 2e17 s is 1e19, above it
        _, stats = generate_pairs([make_clip(duration=0.9)], PairConfig(max_shift_s=1e17), seed=0)
        assert stats.genuine > 0
        for cfg in ({"max_shift_s": 2e17}, {"max_shift_s": 1e308},
                    {"max_shift_s": 1e200, "fixed_shift_s": 1e200}):
            with pytest.raises(ConfigError, match="than an int64 holds"):
                PairConfig(**cfg)

    @pytest.mark.parametrize("shift, hops", [(0.3, 15), (0.4, 20), (0.5, 25)])
    def test_fixed_shift_and_its_one_point_range_give_the_same_hops(self, shift, hops):
        clip = make_clip()
        for cfg in (PairConfig(fixed_shift_s=shift),
                    PairConfig(min_shift_s=shift, max_shift_s=shift)):
            pairs, _ = generate_pairs([clip], cfg, seed=0)
            shifts = {round(p.shift_s / FEATURE_HOP_S) for p in pairs if p.label == 0}
            assert shifts == {hops}

    def test_25_fps_clip_is_refused(self):
        # 9 frames at 25 f/s span 0.36 s against 0.3 s of audio
        with pytest.raises(DataError, match=r"c25: .*25 f/s"):
            generate_pairs([make_clip(clip_id="c25", fps=25)], PairConfig(), seed=0)

    def test_2997_fps_clip_gives_pairs(self):
        pairs, stats = generate_pairs([make_clip(fps=29.97)], PairConfig(), seed=0)
        assert stats.genuine > 0 and len(pairs) == stats.genuine + stats.impostor
