"""Synthetic audio-visual fixture corpus.

Each clip is driven by a smooth random envelope (Gaussian-filtered noise, so
its autocorrelation decays monotonically with lag). The audio track is a
subject-specific carrier tone amplitude-modulated by the envelope; each video
frame shows an elliptical aperture whose opening follows the envelope at that
frame's time. Time-aligned windows of the two streams therefore share the
envelope profile, while time-shifted windows decorrelate with the shift,
which is exactly the structure the matching task needs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .io import write_pgm, write_wav
from .speech import SAMPLE_RATE
from .visual import FPS, TARGET_H, TARGET_W

ENVELOPE_SIGMA_S = 0.06   # smoothing width; sets decorrelation speed
NOISE_LEVEL = 0.01


@dataclass
class SynthConfig:
    n_subjects: int = 8
    clips_per_subject: int = 4
    clip_s: float = 2.0

    def __post_init__(self):
        if self.n_subjects < 1 or self.clips_per_subject < 1:
            raise ConfigError("need at least one subject and one clip per subject")
        if not 0.9 <= self.clip_s < math.inf:
            raise ConfigError(f"clips must last a finite 0.9 s or more to host shifted "
                              f"windows, got {self.clip_s}")
        if not self.clip_s * SAMPLE_RATE < math.inf:
            raise ConfigError(f"a {self.clip_s} s clip has no finite sample count "
                              f"at {SAMPLE_RATE} Hz")


def envelope(n_samples: int, sample_rate: int, sigma_s: float, rng) -> np.ndarray:
    """Smooth random activity profile in (0, 1)."""
    from scipy.ndimage import gaussian_filter1d   # imported here: only the generator needs it
    noise = rng.standard_normal(n_samples)
    smooth = gaussian_filter1d(noise, sigma=sigma_s * sample_rate, mode="reflect")
    std = smooth.std()
    if std > 0:
        smooth = smooth / std
    return np.clip(0.5 + 0.28 * smooth, 0.03, 0.97)


def _render_frame(env_value: float, texture: np.ndarray, rng) -> np.ndarray:
    h, w = texture.shape
    rows = np.arange(h)[:, None] - h / 2.0
    cols = np.arange(w)[None, :] - w / 2.0
    opening = 2.0 + 0.42 * h * env_value
    mask = (rows / opening) ** 2 + (cols / (0.36 * w)) ** 2 <= 1.0
    frame = texture + 25.0
    frame = np.where(mask, 60.0 + 180.0 * env_value, frame)
    frame = frame + rng.normal(0.0, 255.0 * NOISE_LEVEL, size=frame.shape)
    return np.clip(frame, 0, 255)


def generate_corpus(out_dir, cfg: SynthConfig | None = None, seed: int = 0) -> Path:
    """Write WAV + PGM clips and a manifest; returns the manifest path.

    Clips are 16 kHz mono WAVs and 30 f/s 60x100 PGM frames. Bitwise
    deterministic for a given (config, seed).
    """
    from scipy.ndimage import gaussian_filter1d
    cfg = cfg or SynthConfig()
    n_samples = int(round(cfg.clip_s * SAMPLE_RATE))
    n_frames = int(round(cfg.clip_s * FPS))
    # the clip's sample times come first, so that a clip too long to
    # allocate fails before anything is written
    t = np.arange(n_samples) / SAMPLE_RATE
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest_rows = []
    for subj in range(cfg.n_subjects):
        subject_id = f"s{subj:02d}"
        subj_rng = np.random.default_rng([seed, subj])
        carrier_hz = float(subj_rng.uniform(500.0, 2600.0))
        texture = gaussian_filter1d(
            gaussian_filter1d(subj_rng.standard_normal((TARGET_H, TARGET_W)),
                              4.0, axis=0), 4.0, axis=1) * 40.0

        for clip in range(cfg.clips_per_subject):
            rng = np.random.default_rng([seed, subj, clip])
            env = envelope(n_samples, SAMPLE_RATE, ENVELOPE_SIGMA_S, rng)
            audio = (0.12 + 0.75 * env) * np.sin(2 * np.pi * carrier_hz * t)
            audio = audio + NOISE_LEVEL * rng.standard_normal(n_samples)

            clip_dir = out_dir / subject_id / f"clip{clip:02d}"
            frames_dir = clip_dir / "frames"
            frames_dir.mkdir(parents=True, exist_ok=True)
            write_wav(clip_dir / "audio.wav", audio * 0.8, SAMPLE_RATE)
            for i in range(n_frames):
                sample_idx = min(int(round(i / FPS * SAMPLE_RATE)), n_samples - 1)
                frame = _render_frame(env[sample_idx], texture, rng)
                write_pgm(frames_dir / f"frame{i:04d}.pgm", frame)
            manifest_rows.append({
                "subject_id": subject_id,
                "audio_path": str((clip_dir / "audio.wav").relative_to(out_dir)),
                "frames_dir": str(frames_dir.relative_to(out_dir)),
                "fps": FPS,
                "sample_rate": SAMPLE_RATE,
            })

    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["subject_id", "audio_path", "frames_dir",
                                                "fps", "sample_rate"])
        writer.writeheader()
        writer.writerows(manifest_rows)
    return manifest
