"""File formats: WAV/PGM ingestion, cube files, checkpoints, manifests.

All binary payloads are little-endian. Cube files (magic AVCB) hold one
row-major float32 array with explicit rank and extents; checkpoints (magic
AVCK) hold the model configuration, an architecture digest, and every
parameter and running statistic as a named float32 blob in a fixed order.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .errors import ConfigError, DataError
from .model import CoupledModel, ModelConfig
from .speech import SAMPLE_RATE, AudioClip
from .visual import FPS

CUBE_MAGIC = b"AVCB"
CKPT_MAGIC = b"AVCK"
FORMAT_VERSION = 1
# checkpoint header after magic and version: zeta, mu, lam, rho, seed,
# architecture digest, blob count
CKPT_HEADER = "<Idddq32sI"


# ---------------------------------------------------------------- audio / video

def read_wav(path) -> AudioClip:
    """Load a mono PCM WAV (16-bit integer or 32-bit float, little-endian).

    A NaN or infinite float sample is a DataError naming its time.
    """
    try:
        rate, data = wavfile.read(path)
    except Exception as exc:
        raise DataError(f"{path}: not a readable WAV file ({exc})") from exc
    if data.ndim != 1:
        raise DataError(f"{path}: expected mono audio, got {data.ndim} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise DataError(f"{path}: non-finite sample at {bad[0] / rate:.6f} s")
    else:
        raise DataError(f"{path}: unsupported sample format {data.dtype}")
    return AudioClip(samples=samples, sample_rate=int(rate))


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono 16-bit PCM; samples are clipped to [-1, 1)."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 32767.0 / 32768.0)
    wavfile.write(path, sample_rate, (clipped * 32768.0).astype(np.int16))


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM (P5) as a uint8 [H, W] array."""
    raw = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        if pos >= len(raw):
            raise DataError(f"{path}: truncated PGM header")
        if raw[pos:pos + 1].isspace():
            pos += 1
            continue
        if raw[pos:pos + 1] == b"#":
            nl = raw.find(b"\n", pos)
            pos = len(raw) if nl == -1 else nl + 1
            continue
        end = pos
        while end < len(raw) and not raw[end:end + 1].isspace():
            end += 1
        fields.append(raw[pos:end])
        pos = end
    if fields[0] != b"P5":
        raise DataError(f"{path}: not a binary grayscale PGM (magic {fields[0]!r})")
    try:
        width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError as exc:
        raise DataError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1:
        raise DataError(f"{path}: PGM size {width}x{height}; need at least 1x1")
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    pos += 1  # single whitespace after maxval
    pixels = raw[pos:pos + width * height]
    if len(pixels) != width * height:
        raise DataError(f"{path}: pixel payload shorter than {width}x{height}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def write_pgm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 2:
        raise DataError(f"PGM image must be 2-D, got shape {image.shape}")
    data = np.clip(np.round(image), 0, 255).astype(np.uint8)
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + data.tobytes())


def read_frame_dir(path) -> list:
    """All PGM frames in a directory, sorted by filename."""
    files = sorted(Path(path).glob("*.pgm"))
    if not files:
        raise DataError(f"{path}: no .pgm frames found")
    return [read_pgm(f) for f in files]


# ---------------------------------------------------------------- cube files

def _header(magic: bytes) -> bytes:
    """The 6 bytes that open every cube and checkpoint: magic, u16 format version."""
    return magic + struct.pack("<H", FORMAT_VERSION)


def _check_header(path, raw: bytes, magic: bytes, kind: str) -> int:
    """Refuse a file without ``magic`` or of another version; returns the header's length."""
    if len(raw) < 6 or raw[:4] != magic:
        raise DataError(f"{path}: not a {kind} file")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported {kind} version {version}")
    return 6


def _pack_array(array: np.ndarray) -> bytes:
    """The array record of cubes and checkpoint blobs: u16 rank, u32 extents, <f4 payload."""
    return (struct.pack(f"<H{array.ndim}I", array.ndim, *array.shape)
            + np.ascontiguousarray(array, dtype="<f4").tobytes())


def _take(path, raw: bytes, pos: int, fmt: str):
    """Unpack fmt at byte pos; returns (values, next pos). Short input is a DataError."""
    try:
        values = struct.unpack_from(fmt, raw, pos)
    except struct.error:
        raise DataError(f"{path}: truncated at byte {pos}") from None
    return values, pos + struct.calcsize(fmt)


def _take_array(path, raw: bytes, pos: int):
    """Decode the array record at byte pos; returns (read-only array, next pos)."""
    (rank,), pos = _take(path, raw, pos, "<H")
    extents, pos = _take(path, raw, pos, f"<{rank}I")
    # math.prod does not wrap: a size past what struct can address is refused as truncation
    (payload,), pos = _take(path, raw, pos, f"<{4 * math.prod(extents)}s")
    return np.frombuffer(payload, dtype="<f4").reshape(extents), pos


def write_cube(path, array) -> None:
    data = array.data if hasattr(array, "data") and not isinstance(array, np.ndarray) else array
    Path(path).write_bytes(_header(CUBE_MAGIC) + _pack_array(np.asarray(data)))


def read_cube(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    array, pos = _take_array(path, raw, _check_header(path, raw, CUBE_MAGIC, "cube"))
    if pos != len(raw):
        raise DataError(f"{path}: {len(raw) - pos} unexpected bytes after the array")
    return array


# ---------------------------------------------------------------- checkpoints

def _pack_blob(name: str, array: np.ndarray) -> bytes:
    encoded = name.encode()
    return struct.pack("<H", len(encoded)) + encoded + _pack_array(array)


def save_checkpoint(path, model: CoupledModel) -> None:
    """Write the model; a state holding NaN or inf is refused before any byte is written."""
    cfg = model.config
    blobs = [(name, p.data) for name, p in model.named_parameters()]
    blobs += [(name, b) for name, b in model.named_buffers()]
    body = struct.pack(CKPT_HEADER, cfg.zeta, cfg.mu, cfg.lam, cfg.rho, cfg.seed,
                       model.spec_digest(), len(blobs))
    for name, arr in blobs:
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: blob {name} holds non-finite values; refusing to save")
        body += _pack_blob(name, arr)
    Path(path).write_bytes(_header(CKPT_MAGIC) + body)


def load_checkpoint(path, dtype: str = "float32") -> CoupledModel:
    """Rebuild the model and load every parameter and running statistic.

    Refuses to load when the stored architecture digest does not match the
    model built from the stored configuration, when the file is
    truncated or has bytes after the last blob, or when a blob holds a NaN or
    infinite value. Blobs are copied into the built model's arrays in place.
    """
    raw = Path(path).read_bytes()
    pos = _check_header(path, raw, CKPT_MAGIC, "checkpoint")
    (zeta, mu, lam, rho, seed, digest, n_blobs), pos = _take(path, raw, pos, CKPT_HEADER)

    try:
        cfg = ModelConfig(zeta=zeta, mu=mu, lam=lam, rho=rho, seed=seed, dtype=dtype)
    except ConfigError as exc:
        raise DataError(f"{path}: bad stored configuration: {exc}") from None
    model = CoupledModel(cfg)
    if model.spec_digest() != digest:
        raise DataError(f"{path}: architecture digest mismatch; refusing to load")

    targets = {name: p.data for name, p in model.named_parameters()}
    targets.update(model.named_buffers())
    for _ in range(n_blobs):
        (name_len,), pos = _take(path, raw, pos, "<H")
        (name,), pos = _take(path, raw, pos, f"<{name_len}s")
        name = name.decode(errors="replace")
        arr, pos = _take_array(path, raw, pos)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: blob {name} holds non-finite values")
        target = targets.pop(name, None)
        if target is None:
            raise DataError(f"{path}: unknown or repeated blob {name!r}")
        if target.shape != arr.shape:
            raise DataError(f"{path}: blob {name} has shape {arr.shape}, "
                            f"expected {target.shape}")
        target[...] = arr
    if pos != len(raw):
        raise DataError(f"{path}: {len(raw) - pos} unexpected bytes after the last blob")
    if targets:
        raise DataError(f"{path}: missing blobs {sorted(targets)}")
    return model


# ---------------------------------------------------------------- manifests

@dataclass
class ManifestRow:
    subject_id: str
    audio_path: Path
    frames_dir: Path
    fps: float = FPS
    sample_rate: int = SAMPLE_RATE


REQUIRED_COLUMNS = ("subject_id", "audio_path", "frames_dir")


def _or_default(record: dict, key: str, default):
    """The record's value, or ``default`` when the field is absent or blank (not when 0)."""
    value = record.get(key)
    return default if value is None or value == "" else value


def load_manifest(path, allow_fps: bool = False) -> list:
    """Read a dataset manifest (CSV with header, or JSONL).

    Relative paths resolve against the manifest's directory and must exist.
    Frame rate must be finite and > 0, and 30 f/s unless ``allow_fps`` is set.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: manifest not found")
    base = path.parent
    rows = []
    if path.suffix.lower() in (".jsonl", ".json"):
        records = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if line:
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}: bad JSONL line: {exc}") from exc
    else:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(REQUIRED_COLUMNS) <= set(reader.fieldnames):
                raise DataError(f"{path}: manifest needs columns {REQUIRED_COLUMNS}")
            records = list(reader)
    for i, rec in enumerate(records):
        try:
            row = ManifestRow(
                subject_id=str(rec["subject_id"]),
                audio_path=base / rec["audio_path"],
                frames_dir=base / rec["frames_dir"],
                fps=float(_or_default(rec, "fps", ManifestRow.fps)),
                sample_rate=int(_or_default(rec, "sample_rate", ManifestRow.sample_rate)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad manifest record {i}: {exc}") from exc
        if not 0 < row.fps < math.inf:
            raise DataError(f"{path}: record {i} has fps {row.fps}; need a finite rate > 0")
        if row.fps != FPS and not allow_fps:
            raise ConfigError(f"{path}: record {i} has fps {row.fps}; expected {FPS} "
                              f"(pass --allow-fps to override)")
        if not row.audio_path.exists():
            raise DataError(f"{path}: record {i}: missing audio {row.audio_path}")
        if not row.frames_dir.exists():
            raise DataError(f"{path}: record {i}: missing frames dir {row.frames_dir}")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: manifest is empty")
    return rows
