"""The two coupled stream networks and the contrastive criterion.

The visual stream ingests 9x60x100x1 mouth-crop stacks, the audio stream
15x40x3 spectral feature cubes (run as depth-1 volumes). Both end in an
embedding of cardinality ``zeta`` and are coupled through the Euclidean
distance between their embeddings, trained with a margin-based contrastive
loss: genuine pairs are pulled together, impostor pairs pushed beyond the
margin.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .layers import BatchNorm, Conv3D, Dense, Dropout, Flatten, LayerStack, MaxPool3D, PReLU
from .speech import FRAME_MS, N_FILTERS
from .tensor import Tensor
from .visual import FPS, FRAME_COUNT, TARGET_H, TARGET_W

# One window of each stream: FRAME_COUNT grayscale frames at FPS, and the
# disjoint FRAME_MS speech frames spanning the same time, each with N_FILTERS
# log energies and their first and second derivatives.
VISUAL_INPUT_SHAPE = (FRAME_COUNT, TARGET_H, TARGET_W, 1)
AUDIO_INPUT_SHAPE = (FRAME_COUNT * 1000 // (FPS * FRAME_MS), N_FILTERS, 3)

DISTANCE_EPS = 1e-12
ZETA_MAX = 2 ** 32 - 1   # a checkpoint's header stores zeta as a u32


def check_seed(seed: int) -> int:
    """``seed`` itself; ConfigError unless it lies in [0, 2**63), the seeds
    numpy's generators take that a checkpoint's int64 field can hold."""
    if not 0 <= seed < 2 ** 63:
        raise ConfigError(f"seed must be in [0, 2**63), got {seed}")
    return seed


@dataclass
class ModelConfig:
    zeta: int = 64          # embedding cardinality
    mu: float = 1.0         # contrastive margin
    lam: float = 1e-4       # regularization weight
    rho: float = 0.5        # dropout probability
    seed: int = 0
    dtype: str = "float32"  # float64 for gradient-check builds

    def __post_init__(self):
        if not 1 <= self.zeta <= ZETA_MAX:
            raise ConfigError(f"zeta must be in [1, {ZETA_MAX}], got {self.zeta}")
        check_seed(self.seed)
        if not 0 < self.mu < math.inf:
            raise ConfigError(f"mu must be finite and > 0, got {self.mu}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError("rho must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"unsupported dtype {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def _conv_block(idx, in_ch, out_ch, kernel, rng, dtype):
    return [
        Conv3D(in_ch, out_ch, kernel, seed=rng, dtype=dtype, name=f"conv{idx}"),
        BatchNorm(out_ch, dtype=dtype, name=f"bn{idx}"),
        PReLU(out_ch, dtype=dtype, name=f"prelu{idx}"),
    ]


def build_visual_net(cfg: ModelConfig, rng) -> LayerStack:
    """Video stream: four conv blocks with overlapping spatial pooling, two FCs."""
    dt = cfg.np_dtype
    layers = []
    layers += _conv_block("1", 1, 16, (3, 3, 3), rng, dt)
    layers.append(MaxPool3D((1, 3, 3), (1, 2, 2), name="pool1"))
    layers += _conv_block("2", 16, 32, (3, 3, 3), rng, dt)
    layers.append(MaxPool3D((1, 3, 3), (1, 2, 2), name="pool2"))
    layers += _conv_block("3", 32, 64, (3, 3, 3), rng, dt)
    layers.append(MaxPool3D((1, 3, 3), (1, 2, 2), name="pool3"))
    layers += _conv_block("4", 64, 128, (3, 3, 3), rng, dt)
    layers.append(Flatten())
    layers.append(Dense(1 * 2 * 7 * 128, 256, seed=rng, dtype=dt, name="fc5"))
    layers.append(PReLU(256, dtype=dt, name="prelu5"))
    layers.append(Dropout(cfg.rho, name="drop5"))
    layers.append(Dense(256, cfg.zeta, seed=rng, dtype=dt, name="fc6"))
    return LayerStack("visual", layers)


def build_audio_net(cfg: ModelConfig, rng) -> LayerStack:
    """Audio stream: frequency-only pooling, decreasing kernel widths, one FC."""
    dt = cfg.np_dtype
    layers = []
    layers += _conv_block("1", 1, 16, (3, 5, 3), rng, dt)
    layers.append(MaxPool3D((1, 2, 1), (1, 2, 1), name="pool1"))
    layers += _conv_block("2_1", 16, 32, (3, 4, 1), rng, dt)
    layers += _conv_block("2_2", 32, 32, (3, 4, 1), rng, dt)
    layers.append(MaxPool3D((1, 2, 1), (1, 2, 1), name="pool2"))
    layers += _conv_block("3_1", 32, 64, (3, 3, 1), rng, dt)
    layers += _conv_block("3_2", 64, 64, (3, 3, 1), rng, dt)
    layers += _conv_block("4", 64, 128, (3, 2, 1), rng, dt)
    layers.append(Flatten())
    layers.append(Dense(3 * 1 * 1 * 128, cfg.zeta, seed=rng, dtype=dt, name="fc5"))
    return LayerStack("audio", layers)


class CoupledModel:
    """Two non-identical stream networks sharing only the embedding space."""

    def __init__(self, config: ModelConfig | None = None,
                 visual_net: LayerStack | None = None,
                 audio_net: LayerStack | None = None):
        self.config = config or ModelConfig()
        rng = np.random.default_rng(self.config.seed)
        # injected nets (shrunken test models) skip the canonical shape check
        self._input_shapes = {"visual": VISUAL_INPUT_SHAPE if visual_net is None else None,
                              "audio": AUDIO_INPUT_SHAPE if audio_net is None else None}
        self.visual_net = visual_net if visual_net is not None else build_visual_net(self.config, rng)
        self.audio_net = audio_net if audio_net is not None else build_audio_net(self.config, rng)

    def _input(self, cube, stream: str) -> Tensor:
        """cube as a tensor of the model's dtype, checked against ``stream``'s
        input shape (optionally batched); an audio cube [15,40,3] or batch
        [N,15,40,3] runs as a depth-1 volume."""
        x = cube if isinstance(cube, Tensor) else Tensor(np.asarray(cube, dtype=self.config.np_dtype))
        expected, shape = self._input_shapes[stream], x.data.shape
        if expected is not None and (shape[-len(expected):] != expected
                                     or len(shape) > len(expected) + 1):
            raise ShapeError(f"{stream} input must be {expected} "
                             f"(optionally batched), got {shape}")
        if stream == "audio" and (len(shape) == 3 or len(shape) == 4 and shape[-1] != 1):
            x = x.reshape(shape + (1,))
        return x

    def embed_visual(self, cube, mode="infer", rng=None, part=None) -> Tensor:
        """The visual embedding of cube, or with ``part`` the output of the
        stream's trunk, or of its head given the trunk's output (see
        LayerStack.forward)."""
        x = cube if part == "head" else self._input(cube, "visual")
        return self.visual_net.forward(x, mode=mode, rng=rng, part=part)

    def embed_audio(self, cube, mode="infer", rng=None, part=None) -> Tensor:
        """As embed_visual, for the audio stream."""
        x = cube if part == "head" else self._input(cube, "audio")
        return self.audio_net.forward(x, mode=mode, rng=rng, part=part)

    def non_finite_source(self, speech, visual, mode="frozen") -> str:
        """Where a batch's non-finite distances under ``mode`` come from: the
        first non-finite parameter, else the first layer whose output under
        ``mode`` is. Each layer's output is held whole, so the training step
        passes its batch and scoring one pair."""
        for name, p in self.named_parameters():
            if not np.isfinite(p.data).all():
                return f"parameter {name} is non-finite"
        for net, x in ((self.visual_net, self._input(visual, "visual")),
                       (self.audio_net, self._input(speech, "audio"))):
            for layer in net.layers:
                x = layer.forward(x, mode=mode)
                if not np.isfinite(x.data).all():
                    return f"parameters are finite; {net.name}.{layer.name} output is not"
        return "parameters and every layer output are finite"

    def named_parameters(self):
        return self.visual_net.parameters() + self.audio_net.parameters()

    def named_buffers(self):
        return self.visual_net.buffers() + self.audio_net.buffers()

    def named_arrays(self):
        """(name, array) for each parameter's data, then each buffer: the
        state that a checkpoint stores and state_checksum digests, in order."""
        return [(name, p.data) for name, p in self.named_parameters()] + self.named_buffers()

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def weight_tensors(self):
        """Conv kernels and FC weights only, the tensors the regularizer covers."""
        return [p for name, p in self.named_parameters()
                if name.endswith(".kernels") or name.endswith(".weights")]

    def spec_string(self) -> str:
        """Canonical architecture description used for checkpoint digests."""
        parts = []
        for stack in (self.visual_net, self.audio_net):
            for layer in stack.layers:
                kind = type(layer).__name__
                attrs = []
                if hasattr(layer, "kernel"):
                    attrs.append(f"k={layer.kernel}")
                if hasattr(layer, "stride"):
                    attrs.append(f"s={layer.stride}")
                if hasattr(layer, "in_features"):
                    attrs.append(f"{layer.in_features}->{layer.out_features}")
                if hasattr(layer, "in_ch"):
                    attrs.append(f"{layer.in_ch}->{layer.out_ch}")
                parts.append(f"{stack.name}.{layer.name}:{kind}({','.join(attrs)})")
        parts.append(f"zeta={self.config.zeta}")
        return "|".join(parts)

    def spec_digest(self) -> bytes:
        return hashlib.sha256(self.spec_string().encode()).digest()

    def state_checksum(self) -> bytes:
        """Digest over parameter and buffer bytes, for no-mutation assertions."""
        h = hashlib.sha256()
        for name, arr in self.named_arrays():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.digest()


def pair_distance(e_visual: Tensor, e_audio: Tensor) -> Tensor:
    """Euclidean distance between two embedding vectors (scalar tensor)."""
    row = (1, -1)
    return batch_distances(e_visual.reshape(row), e_audio.reshape(row)).reshape(())


def batch_distances(e_visual: Tensor, e_audio: Tensor) -> Tensor:
    """Row-wise Euclidean distances for [N, zeta] embedding batches."""
    if e_visual.data.shape != e_audio.data.shape:
        raise ShapeError(f"embedding shape mismatch: {e_visual.data.shape} vs {e_audio.data.shape}")
    diff = e_visual - e_audio
    return ((diff * diff).sum(axis=-1) + DISTANCE_EPS).sqrt()


def contrastive_loss(distances: Tensor, labels, config: ModelConfig,
                     weights=()) -> Tensor:
    """Mean contrastive loss over a batch of (distance, label) pairs.

    Per pair: Y * 0.5 * D^2 + (1 - Y) * 0.5 * max(0, mu - D)^2, averaged,
    plus lam times the sum of squares of ``weights``. Labels are 1 for
    genuine pairs, 0 for impostors.
    """
    y = np.asarray(labels, dtype=distances.data.dtype)
    if y.size == 0:
        raise ContractError("contrastive loss needs a nonempty batch")
    if y.shape != distances.data.shape:
        raise ShapeError(f"labels shape {y.shape} does not match distances {distances.data.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ContractError("labels must be 0 or 1")

    y_t = Tensor(y)
    genuine = (distances * distances) * 0.5 * y_t
    hinge = (config.mu - distances).maximum(0.0)
    impostor = (hinge * hinge) * 0.5 * (1.0 - y_t)
    loss = (genuine + impostor).sum() * (1.0 / y.size)

    if config.lam > 0 and weights:
        reg = None
        for w in weights:
            term = (w * w).sum()
            reg = term if reg is None else reg + term
        loss = loss + reg * config.lam
    return loss
