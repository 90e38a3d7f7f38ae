"""Correctness oracles for the benchmark's workloads.

Every check is a pure function of arrays and numbers: it recomputes the
expected value its own way (plain numpy, the standard library, the formulas
the README of ``avmatch`` documents) and returns ``None`` when the program's
output agrees, or a one-line reason when it does not. ``selftest.py`` feeds
each check a corrupted input to show that it can fail.
"""

from __future__ import annotations

import csv
import math
import re
import struct
import wave
from pathlib import Path

import numpy as np

F32_RTOL = 1e-4           # float32 results of one computation, batched differently
GRAD_RTOL = 1e-6          # float64 central difference against the tape gradient
STANDARD_TOL = 1e-4       # mean 0 and std 1 of a standardised float32 cube
PIXEL_TOL = 1e-5          # standardised frames, float64 reference vs float32 cube

SPEECH_SHAPE = (15, 40, 3)
VISUAL_SHAPE = (9, 60, 100, 1)
WINDOW_S = 0.3
WINDOW_STRIDE_S = 0.3
FRAMES_PER_WINDOW = 9
N_MEL = 40


# ---------------------------------------------------------------- train

def directional_derivative(analytic: float, numeric, rtol: float = GRAD_RTOL):
    """Tape gradient projected on a direction against central differences.

    ``numeric`` holds one central difference per step size. The check passes
    when one of them agrees: a kink of max-pool or PReLU that happens to lie
    within the larger step spoils that difference alone, while a wrong
    gradient disagrees with all of them.
    """
    errs = [abs(analytic - n) / max(abs(analytic), abs(n), 1e-12) for n in numeric]
    best = min(errs)
    if not math.isfinite(best) or best > rtol:
        return (f"directional derivative {analytic:.10g} (tape) vs {numeric[0]:.10g} "
                f"(central difference): relative error {best:.2e} > {rtol:g}")
    return None


def state_unchanged(before: bytes, after: bytes):
    if before != after:
        return "model state checksum changed across the frozen selection pass"
    return None


def impostor_selection(distances, labels, eta0: float, kept, kept_in_step: int):
    """Kept impostors are exactly those with d <= max_gen + eta0 |max_gen / min_gen|.

    ``kept`` are the impostor positions (within the impostors of the batch)
    the program selected; ``kept_in_step`` is the count the optimizer step
    reported for the same batch.
    """
    d = np.asarray(distances, dtype=np.float64)
    y = np.asarray(labels)
    gen, imp = d[y == 1], d[y == 0]
    max_gen, min_gen = gen.max(), gen.min()
    threshold = max_gen + eta0 * abs(max_gen / min_gen)
    expected = [i for i, di in enumerate(imp) if di <= threshold]
    got = sorted(int(i) for i in kept)
    if got != expected:
        return f"kept impostors {got} differ from recomputed {expected}"
    if kept_in_step != len(expected):
        return f"step kept {kept_in_step} impostors, recomputation keeps {len(expected)}"
    return None


def finite_and_moved(losses, params, before: bytes, after: bytes):
    bad_loss = [x for x in losses if not math.isfinite(x)]
    if bad_loss or not losses:
        return f"non-finite or missing step losses: {bad_loss or losses}"
    for name, value in params:
        if not np.all(np.isfinite(value)):
            return f"parameter {name} has non-finite entries"
    if before == after:
        return "parameters did not move over the measured steps"
    return None


# ---------------------------------------------------------------- eval

def auc_mann_whitney(distances, labels, auc: float):
    """AUC against a brute-force count over all genuine x impostor pairs."""
    d = np.asarray(distances, dtype=np.float64)
    y = np.asarray(labels)
    gen, imp = d[y == 1], d[y == 0]
    wins = ties = 0
    for g in gen:
        wins += int(np.count_nonzero(imp > g))
        ties += int(np.count_nonzero(imp == g))
    expected = (wins + 0.5 * ties) / (len(gen) * len(imp))
    if abs(expected - auc) > 1e-12:
        return f"AUC {auc!r} differs from Mann-Whitney count {expected!r}"
    return None


def eer_in_bracket(distances, labels, eer: float):
    """EER lies where FAR - FRR changes sign on a dense threshold sweep.

    FAR and FRR are step functions of the threshold that only change at an
    observed distance, so sweeping every observed distance and one threshold
    below them all finds the crossing; the EER must lie within the FAR and
    the FRR ranges of that step.
    """
    d = np.asarray(distances, dtype=np.float64)
    y = np.asarray(labels)
    gen, imp = d[y == 1], d[y == 0]
    taus = np.concatenate([[-np.inf], np.unique(d)])
    far = np.array([np.mean(imp <= t) for t in taus])
    frr = np.array([np.mean(gen > t) for t in taus])
    after = np.flatnonzero(far - frr >= 0)
    if len(after) == 0:
        return "FAR never reaches FRR on the sweep"
    j = int(after[0])
    if j == 0:
        lo = hi = far[0]
    else:
        lo = max(far[j - 1], frr[j])
        hi = min(far[j], frr[j - 1])
    if not lo - 1e-12 <= eer <= hi + 1e-12:
        return f"EER {eer:.6f} outside the sweep's crossing bracket [{lo:.6f}, {hi:.6f}]"
    return None


def close_f32(reference, values, what: str, rtol: float = F32_RTOL):
    a = np.asarray(reference, dtype=np.float64)
    b = np.asarray(values, dtype=np.float64)
    if a.shape != b.shape:
        return f"{what}: shapes {a.shape} and {b.shape} differ"
    err = np.abs(a - b) / np.maximum(np.abs(a), 1.0)
    if err.size and err.max() > rtol:
        i = int(err.argmax())
        return f"{what}: {a.ravel()[i]!r} vs {b.ravel()[i]!r} (relative {err.max():.2e})"
    return None


# ---------------------------------------------------------------- ingest

def read_manifest(path):
    """Manifest rows as dicts with absolute paths, read with the csv module."""
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["audio_path"] = path.parent / row["audio_path"]
        row["frames_dir"] = path.parent / row["frames_dir"]
    return rows


def read_wav_samples(path):
    """(samples as float64 in [-1, 1), rate) from a 16-bit mono WAV."""
    with wave.open(str(path), "rb") as w:
        rate, n = w.getframerate(), w.getnframes()
        raw = w.readframes(n)
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate


def read_pgm_pixels(path):
    raw = Path(path).read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", raw)
    if header is None:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    width, height = int(header[1]), int(header[2])
    return np.frombuffer(raw, dtype=np.uint8, count=width * height,
                         offset=header.end()).reshape(height, width)


def expected_pair_counts(audio_s: float, video_s: float, shift_s: float):
    """(genuine, impostor) windows of one clip: starts at k * stride while the
    window fits both streams; an impostor also needs its shifted audio window."""
    both = min(audio_s, video_s)
    genuine = math.floor((both - WINDOW_S) / WINDOW_STRIDE_S + 1e-9) + 1
    fitting = math.floor((audio_s - WINDOW_S - shift_s) / WINDOW_STRIDE_S + 1e-9) + 1
    return max(genuine, 0), max(min(fitting, genuine), 0)


def pair_counts(clip_durations, shift_s: float, labels, stats_genuine: int,
                stats_impostor: int, stats_skipped: int):
    """Pair counts from clip durations, window stride and shift arithmetic."""
    gen = imp = 0
    for audio_s, video_s in clip_durations:
        g, i = expected_pair_counts(audio_s, video_s, shift_s)
        gen, imp = gen + g, imp + i
    labels = np.asarray(labels)
    got = (int(np.count_nonzero(labels == 1)), int(np.count_nonzero(labels == 0)))
    if got != (gen, imp):
        return f"packed pairs hold {got} genuine/impostor, durations give {(gen, imp)}"
    if (stats_genuine, stats_impostor, stats_skipped) != (gen, imp, gen - imp):
        return (f"generation stats {(stats_genuine, stats_impostor, stats_skipped)} "
                f"differ from {(gen, imp, gen - imp)}")
    return None


def standardised_cubes(cubes, shape, what: str):
    cubes = np.asarray(cubes)
    if cubes.shape[1:] != tuple(shape):
        return f"{what} cubes have shape {cubes.shape[1:]}, expected {tuple(shape)}"
    flat = cubes.reshape(len(cubes), -1).astype(np.float64)
    mean = np.abs(flat.mean(axis=1)).max()
    std_err = np.abs(flat.std(axis=1) - 1.0).max()
    if mean > STANDARD_TOL or std_err > STANDARD_TOL:
        return f"{what} cubes not standardised: |mean| up to {mean:.2e}, |std-1| up to {std_err:.2e}"
    return None


def visual_matches_frames(cube, frame_paths, what: str):
    """A visual cube equals its nine PGM frames standardised over the stack."""
    stack = np.stack([read_pgm_pixels(p) for p in frame_paths]).astype(np.float64)
    expected = (stack - stack.mean()) / stack.std()
    got = np.asarray(cube, dtype=np.float64).reshape(stack.shape)
    err = np.abs(expected - got).max()
    if err > PIXEL_TOL:
        return f"{what}: cube differs from its standardised frames by {err:.2e}"
    return None


def mel_edges_hz(sample_rate: int, n_filters: int = N_MEL):
    top = 2595.0 * math.log10(1.0 + (sample_rate / 2.0) / 700.0)
    return [700.0 * (10.0 ** (top * k / (n_filters + 1) / 2595.0) - 1.0)
            for k in range(n_filters + 2)]


def carrier_in_top_channel(samples, sample_rate: int, static_energy, what: str):
    """The FFT peak of the whole clip lies in the support of the mel channel
    whose static log energy, summed over the clip's windows, is highest."""
    spectrum = np.abs(np.fft.rfft(samples))
    spectrum[0] = 0.0
    peak_hz = float(np.argmax(spectrum)) * sample_rate / len(samples)
    channel = int(np.argmax(static_energy))
    edges = mel_edges_hz(sample_rate, len(static_energy))
    lo, hi = edges[channel], edges[channel + 2]
    if not lo < peak_hz < hi:
        return (f"{what}: carrier {peak_hz:.1f} Hz outside channel {channel} "
                f"support ({lo:.1f}, {hi:.1f}) Hz")
    return None


def parse_cube_file(raw: bytes):
    """AVCB: magic, u16 version, u16 rank, u32 extents, little-endian float32."""
    if raw[:4] != b"AVCB":
        raise ValueError("bad magic")
    version, rank = struct.unpack_from("<HH", raw, 4)
    extents = struct.unpack_from(f"<{rank}I", raw, 8)
    payload = raw[8 + 4 * rank:]
    if len(payload) != 4 * math.prod(extents):
        raise ValueError(f"payload of {len(payload)} bytes for extents {extents}")
    return version, extents, payload


def cube_file_round_trip(raw: bytes, expected: np.ndarray, reread: np.ndarray,
                         rewritten: bytes, what: str):
    """A written cube file holds exactly the float32 bytes of the cube, reads
    back bitwise and is rewritten byte for byte."""
    try:
        _, extents, payload = parse_cube_file(raw)
    except (ValueError, struct.error) as exc:
        return f"{what}: unreadable cube file ({exc})"
    want = np.ascontiguousarray(expected, dtype="<f4")
    if tuple(extents) != want.shape or payload != want.tobytes():
        return f"{what}: file payload differs from the cube it was written from"
    if np.ascontiguousarray(reread, dtype="<f4").tobytes() != payload:
        return f"{what}: reading the file back does not give its payload bitwise"
    if rewritten != raw:
        return f"{what}: rewriting the read cube does not reproduce the file"
    return None
