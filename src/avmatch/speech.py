"""Spectral speech features: log mel filterbank energies and derivatives.

A 0.3-second mono clip becomes a [15, 40, 3] cube: 15 non-overlapping 20 ms
frames, 40 log filterbank energies each, stacked with first and second
temporal derivatives, then standardized over the whole cube. Keeping the
filterbank energies (no final cosine transform) preserves spectral locality;
the cepstral variant is available for baseline comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .tensor import Tensor

# The paper's front end: 16 kHz audio in 20 ms Hamming-windowed frames, 40 mel
# filters from 0 Hz to the clip's Nyquist frequency, a 512-point FFT; 13 cepstra
# in the cepstral baseline.
SAMPLE_RATE = 16000
FRAME_MS = 20
N_FILTERS = 40
FFT_SIZE = 512
N_CEPSTRA = 13
LOG_ENERGY_FLOOR = 1e-10
STD_EPS = 1e-8


@dataclass
class AudioClip:
    samples: np.ndarray   # mono amplitudes, float64
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DataError("audio clip must be mono (one sample axis)")
        if self.sample_rate <= 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate}")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate

    def window(self, start_s: float, duration_s: float) -> "AudioClip":
        lo = int(round(start_s * self.sample_rate))
        hi = lo + int(round(duration_s * self.sample_rate))
        if lo < 0 or hi > len(self.samples):
            raise DataError(f"window [{start_s}, {start_s + duration_s}] s outside clip "
                            f"of {self.duration_s:.3f} s")
        return AudioClip(self.samples[lo:hi], self.sample_rate)


@dataclass
class SpeechConfig:
    cepstral: bool = False        # cosine-transform the static features (baseline)


@dataclass
class SpeechCube:
    values: Tensor                # [T, n_filters, 3]
    clip_id: str = ""
    start_s: float = 0.0


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def frame_signal(clip: AudioClip) -> np.ndarray:
    """Slice the clip into disjoint FRAME_MS frames, dropping the trailing remainder."""
    win = int(round(FRAME_MS * 1e-3 * clip.sample_rate))
    if win < 1:
        raise DataError(f"{clip.sample_rate} Hz audio gives {FRAME_MS} ms frames "
                        f"shorter than one sample")
    n = len(clip.samples)
    if n < win:
        raise DataError(f"clip of {n} samples shorter than one {win}-sample window")
    return clip.samples[:n - n % win].reshape(-1, win)


def mel_filterbank(sample_rate: int) -> np.ndarray:
    """Triangular filter weights [N_FILTERS, FFT_SIZE // 2 + 1] from 0 Hz to
    the Nyquist frequency of ``sample_rate``.

    Breakpoints are equally spaced on the mel scale; each triangle rises from
    one breakpoint to the next and falls to the one after, evaluated at the
    FFT bin center frequencies.
    """
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), N_FILTERS + 2))[:, None]
    left, center, right = edges_hz[:-2], edges_hz[1:-1], edges_hz[2:]
    bins_hz = np.arange(FFT_SIZE // 2 + 1) * (sample_rate / FFT_SIZE)
    rising = (bins_hz - left) / (center - left)
    falling = (right - bins_hz) / (right - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def mel_filterbank_energies(frames: np.ndarray, sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """Log mel filterbank energies of one frame [win] or of frames [n, win].

    Each frame is Hamming-windowed and zero-padded to FFT_SIZE; the N_FILTERS
    filters span 0 Hz to the Nyquist frequency. The result has the leading
    shape of the input and N_FILTERS on the last axis. A frame longer than
    the FFT is a DataError, since the audio's rate sets the frame length.
    """
    frames = np.asarray(frames, dtype=np.float64)
    win = frames.shape[-1]
    if win > FFT_SIZE:
        raise DataError(f"{sample_rate} Hz audio gives {win}-sample frames, "
                        f"longer than fft_size {FFT_SIZE}")
    filterbank = mel_filterbank(sample_rate)
    spectrum = np.fft.rfft(frames * np.hamming(win), n=FFT_SIZE, axis=-1)
    power = (spectrum.real ** 2 + spectrum.imag ** 2) / FFT_SIZE
    return np.log(power @ filterbank.T + LOG_ENERGY_FLOOR)


def mfcc_from_mfec(mfec: np.ndarray, n_coeffs: int = N_CEPSTRA) -> np.ndarray:
    """Orthonormal type-II cosine transform of the log energies, truncated."""
    mfec = np.asarray(mfec, dtype=np.float64)
    from scipy.fft import dct   # imported here so that commands without --mfcc skip scipy.fft
    return dct(mfec, type=2, norm="ortho", axis=-1)[..., :n_coeffs]


def temporal_derivatives(static: np.ndarray, window: int = 2):
    """Regression deltas over time (axis 0), boundary rows replicated.

    d_t = sum_{n=1..window} n * (c_{t+n} - c_{t-n}) / (2 * sum n^2); the
    second-order result is the delta of the delta.
    """
    static = np.asarray(static, dtype=np.float64)
    if static.shape[0] < 2:
        raise DataError("need at least 2 time steps for derivatives")
    delta = _delta(static, window)
    delta_delta = _delta(delta, window)
    return delta, delta_delta


def _delta(x: np.ndarray, window: int) -> np.ndarray:
    t = x.shape[0]
    padded = np.concatenate([np.repeat(x[:1], window, axis=0), x,
                             np.repeat(x[-1:], window, axis=0)], axis=0)
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    out = np.zeros_like(x)
    for n in range(1, window + 1):
        out += n * (padded[window + n: window + n + t] - padded[window - n: window - n + t])
    return out / denom


def standardize(x: np.ndarray) -> Tensor:
    """(x - mean) / max(std, eps) over all elements of the array."""
    data = np.asarray(x, dtype=np.float64)
    std = data.std()
    out = (data - data.mean()) / max(std, STD_EPS)
    return Tensor(out)


def mfec_matrix(clip: AudioClip) -> np.ndarray:
    """Static log filterbank energies [frames, N_FILTERS] for a clip."""
    return mel_filterbank_energies(frame_signal(clip), clip.sample_rate)


def build_speech_cube(clip: AudioClip, cfg: SpeechConfig | None = None,
                      clip_id: str = "", start_s: float = 0.0) -> SpeechCube:
    """Stack [static, delta, delta-delta] into a standardized feature cube.

    A 0.3 s clip yields [15, 40, 3]; in general the time axis has
    floor(duration / FRAME_MS) steps. With ``cfg.cepstral`` the static
    features are cosine-transformed first (shape [T, N_CEPSTRA, 3]).
    """
    static = mfec_matrix(clip)
    if cfg is not None and cfg.cepstral:
        static = mfcc_from_mfec(static)
    delta, delta_delta = temporal_derivatives(static)
    cube = np.stack([static, delta, delta_delta], axis=-1)
    return SpeechCube(values=standardize(cube), clip_id=clip_id, start_s=start_s)
