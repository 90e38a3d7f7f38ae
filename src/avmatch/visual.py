"""Visual input assembly: stacks of pre-cropped grayscale mouth frames.

Nine consecutive frames (0.3 s at 30 f/s) are resized to 60x100 if needed,
stacked into a [9, 60, 100, 1] cube and standardized. Face tracking and
cropping happen upstream; this module only ingests the crops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .speech import standardize
from .tensor import Tensor

FPS = 30
FRAME_COUNT = 9
TARGET_H = 60
TARGET_W = 100


@dataclass
class VisualCube:
    values: Tensor                # [9, 60, 100, 1]
    clip_id: str = ""
    start_frame: int = 0


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling with half-pixel centers; identity at the target size."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DataError(f"expected a 2-D grayscale image, got shape {image.shape}")
    in_h, in_w = image.shape
    if (in_h, in_w) == (out_h, out_w):
        return image.copy()

    def axis_coords(n_out, n_in):
        coords = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        lo = np.floor(coords).astype(int)
        frac = coords - lo
        lo0 = np.clip(lo, 0, n_in - 1)
        lo1 = np.clip(lo + 1, 0, n_in - 1)
        return lo0, lo1, frac

    r0, r1, fr = axis_coords(out_h, in_h)
    c0, c1, fc = axis_coords(out_w, in_w)
    top = image[r0][:, c0] * (1 - fc) + image[r0][:, c1] * fc
    bot = image[r1][:, c0] * (1 - fc) + image[r1][:, c1] * fc
    return top * (1 - fr)[:, None] + bot * fr[:, None]


def build_visual_cube(frames, start: int = 0, clip_id: str = "") -> VisualCube:
    """Assemble 9 consecutive frames starting at ``start`` into a standardized cube."""
    frames = [np.asarray(f) for f in frames]
    if start < 0 or len(frames) < start + FRAME_COUNT:
        raise DataError(f"need frames [{start}, {start + FRAME_COUNT}) but only "
                        f"{len(frames)} available")
    stack = np.empty((FRAME_COUNT, TARGET_H, TARGET_W), dtype=np.float64)
    for t in range(FRAME_COUNT):
        frame = frames[start + t]
        if frame.ndim != 2:
            raise DataError(f"frame {start + t} is not grayscale (shape {frame.shape})")
        if frame.size == 0:
            raise DataError(f"frame {start + t} is empty (shape {frame.shape})")
        stack[t] = bilinear_resize(frame, TARGET_H, TARGET_W)
    cube = standardize(stack[..., None])
    return VisualCube(values=cube, clip_id=clip_id, start_frame=start)
