"""Coupled 3D convolutional audio-visual stream matching.

Feature extraction (spectral speech cubes, mouth-crop stacks), two coupled
stream networks trained with a contrastive criterion and adaptive impostor
selection, and the verification metric stack (EER / AUC / AP).
"""

from .errors import AvMatchError, ConfigError, ContractError, DataError, ShapeError
from .model import CoupledModel, ModelConfig, batch_distances, contrastive_loss, pair_distance
from .pairs import Clip, LabeledPair, PairConfig, SelectionConfig, generate_pairs
from .speech import AudioClip, SpeechConfig, SpeechCube, build_speech_cube
from .tensor import Tape, Tensor, backward
from .training import TrainConfig, evaluate_run, fit, pack_pairs, split_folds
from .visual import VisualCube, build_visual_cube

__version__ = "0.1.0"

__all__ = [
    "AvMatchError", "ConfigError", "ContractError", "DataError", "ShapeError",
    "CoupledModel", "ModelConfig", "batch_distances", "contrastive_loss", "pair_distance",
    "Clip", "LabeledPair", "PairConfig", "SelectionConfig", "generate_pairs",
    "AudioClip", "SpeechConfig", "SpeechCube", "build_speech_cube",
    "Tape", "Tensor", "backward",
    "TrainConfig", "evaluate_run", "fit", "pack_pairs", "split_folds",
    "VisualCube", "build_visual_cube",
    "__version__",
]
