"""Pair generation by audio time-shifting and adaptive impostor selection.

Genuine pairs couple a visual cube with the time-aligned audio window of the
same clip; impostors reuse the visual cube but draw the audio window at a
random forward shift (quantized to the 20 ms feature hop, 0.5 s at most by
default). Streams are never wrapped.

During training, every mini-batch is first evaluated with frozen weights;
all genuine pairs are kept and an impostor survives only if its distance is
within an adaptive margin of the hardest genuine distance:

    eta = eta0 * |max_gen / min_gen|,  keep impostor i iff d_i <= max_gen + eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .speech import FRAME_MS, AudioClip, SpeechCube, build_speech_cube
from .visual import FPS, FRAME_COUNT, VisualCube, build_visual_cube

FEATURE_HOP_S = FRAME_MS / 1000
WINDOW_S = FRAME_COUNT / FPS
MIN_GEN_EPS = 1e-12


@dataclass
class SelectionConfig:
    eta0: float = 0.5
    enabled: bool = True

    def __post_init__(self):
        if not 0 < self.eta0 < math.inf:
            raise ConfigError(f"eta0 must be finite and > 0, got {self.eta0}")


@dataclass
class Clip:
    subject_id: str
    clip_id: str
    audio: AudioClip
    frames: list          # grayscale arrays at a fixed frame rate
    fps: float = FPS


@dataclass
class LabeledPair:
    speech: SpeechCube
    visual: VisualCube
    label: int            # 1 genuine, 0 impostor
    subject_id: str
    shift_s: float = 0.0

    def __post_init__(self):
        if self.label == 1 and self.shift_s != 0.0:
            raise ContractError("genuine pairs must have zero shift")
        if self.label == 0 and self.shift_s <= 0.0:
            raise ContractError("impostor pairs need a positive shift")


@dataclass
class PairConfig:
    max_shift_s: float = 0.5
    min_shift_s: float = 0.1
    fixed_shift_s: float | None = None  # pin all impostor shifts (test-set replicas)

    def __post_init__(self):
        # a chained comparison is False for NaN, so this also refuses NaN shifts
        if not FEATURE_HOP_S <= self.min_shift_s <= self.max_shift_s < math.inf:
            raise ConfigError(f"need one feature hop ({FEATURE_HOP_S} s) <= min shift <= "
                              f"max shift < inf, got {self.min_shift_s}, {self.max_shift_s}")
        if self.fixed_shift_s is not None and not (
                self.min_shift_s <= self.fixed_shift_s <= self.max_shift_s):
            raise ConfigError("fixed shift outside [min, max] shift range")
        # the generator draws hop counts up to the largest plus one as int64
        if not self.max_shift_s / FEATURE_HOP_S < np.iinfo(np.int64).max:
            raise ConfigError(f"shifts up to {self.max_shift_s} s count more feature hops "
                              f"({FEATURE_HOP_S} s) than an int64 holds")
        lo, hi = _shift_choices(self)
        if lo > hi:
            raise ConfigError(f"impostor shifts are whole feature hops ({FEATURE_HOP_S} s) "
                              f"and none lies in the shift range; the nearest are "
                              f"{hi * FEATURE_HOP_S:g} and {lo * FEATURE_HOP_S:g} s")


@dataclass
class PairGenStats:
    genuine: int = 0
    impostor: int = 0
    skipped: int = 0      # windows whose shifted audio did not fit


def _shift_choices(cfg: PairConfig):
    """Inclusive range of whole feature hops an impostor shift is drawn from;
    a fixed shift s is the range [s, s]."""
    lo_s, hi_s = ((cfg.fixed_shift_s,) * 2 if cfg.fixed_shift_s is not None
                  else (cfg.min_shift_s, cfg.max_shift_s))
    lo = int(np.ceil(round(lo_s / FEATURE_HOP_S, 9)))
    hi = int(np.floor(round(hi_s / FEATURE_HOP_S, 9)))
    return lo, hi


def generate_pairs(clips, cfg: PairConfig | None = None, seed: int = 0):
    """Produce labeled pairs from aligned clips.

    Returns (pairs, stats). Windows of ``WINDOW_S`` tile each clip from
    zero; each start yields one genuine pair and one impostor whose shift is
    drawn uniformly over whole feature hops in [min_shift_s, max_shift_s]
    (skipped when the shifted audio runs past the clip). Deterministic for a
    given seed. A clip whose ``FRAME_COUNT`` frames span more than one feature
    hop more or less than ``WINDOW_S`` is refused, since its streams would be
    misaligned.
    """
    cfg = cfg or PairConfig()
    lo_hop, hi_hop = _shift_choices(cfg)
    pairs: list[LabeledPair] = []
    stats = PairGenStats()

    for clip_idx, clip in enumerate(clips):
        if abs(FRAME_COUNT / clip.fps - WINDOW_S) > FEATURE_HOP_S:
            raise DataError(f"{clip.clip_id}: {FRAME_COUNT} frames at {clip.fps} f/s span "
                            f"{FRAME_COUNT / clip.fps:.3f} s against {WINDOW_S} s of audio")
        rng = np.random.default_rng([seed, clip_idx])
        video_dur = len(clip.frames) / clip.fps
        audio_dur = clip.audio.duration_s
        start = 0.0
        while start + WINDOW_S <= min(video_dur, audio_dur) + 1e-9:
            frame_start = int(round(start * clip.fps))
            if frame_start + FRAME_COUNT > len(clip.frames):
                break
            visual = build_visual_cube(clip.frames, start=frame_start, clip_id=clip.clip_id)
            speech = build_speech_cube(clip.audio.window(start, WINDOW_S),
                                       clip_id=clip.clip_id, start_s=start)
            pairs.append(LabeledPair(speech, visual, 1, clip.subject_id, 0.0))
            stats.genuine += 1

            shift = int(rng.integers(lo_hop, hi_hop + 1)) * FEATURE_HOP_S
            if start + shift + WINDOW_S > audio_dur + 1e-9:
                stats.skipped += 1
            else:
                shifted = build_speech_cube(clip.audio.window(start + shift, WINDOW_S),
                                            clip_id=clip.clip_id, start_s=start + shift)
                pairs.append(LabeledPair(shifted, visual, 0, clip.subject_id, shift))
                stats.impostor += 1
            start = round(start + WINDOW_S, 9)

    if not pairs:
        raise DataError("no pairs could be generated; clips too short?")
    return pairs, stats


def adaptive_threshold(genuine_distances, eta0: float) -> float:
    """eta = eta0 * |max_gen / min_gen| with the minimum guarded away from zero."""
    d = np.asarray(genuine_distances, dtype=np.float64)
    if d.size == 0:
        raise ContractError("adaptive threshold needs at least one genuine distance")
    max_gen = float(d.max())
    min_gen = max(float(d.min()), MIN_GEN_EPS)
    return eta0 * abs(max_gen / min_gen)


def select_impostors(genuine_distances, impostor_distances, eta0: float) -> np.ndarray:
    """Indices of impostors kept for the loss: d_i <= max_gen + eta.

    Genuine pairs are always kept and are not part of the returned index set.
    With no genuine distances in the batch, selection is skipped and every
    impostor is kept.
    """
    imp = np.asarray(impostor_distances, dtype=np.float64)
    gen = np.asarray(genuine_distances, dtype=np.float64)
    if gen.size == 0:
        return np.arange(imp.size)
    eta = adaptive_threshold(gen, eta0)
    return np.flatnonzero(imp <= gen.max() + eta)
