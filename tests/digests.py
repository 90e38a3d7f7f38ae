"""Print sha256 digests of the numbers the full-size model computes.

Two checkouts that print the same lines compute the same bits on that
host: a refactor that claims "same bits out" is checked by running this on
both commits under the same BLAS thread count, for example

    git archive <parent> | tar -x -C ../parent
    cp tests/digests.py ../parent/tests/
    OPENBLAS_NUM_THREADS=1 python ../parent/tests/digests.py > parent.txt
    OPENBLAS_NUM_THREADS=1 python tests/digests.py | diff parent.txt -

Each run imports the ``src`` next to its own ``tests`` directory. Pytest
does not collect this file. It takes about 10 s and 0.5 GB on a 2-vCPU host
with one BLAS thread.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from avmatch.io import save_checkpoint
from avmatch.model import CoupledModel, ModelConfig, batch_distances, contrastive_loss
from avmatch.pairs import SelectionConfig
from avmatch.tensor import Tape, backward
from avmatch.training import PackedPairs, TrainConfig, fit, frozen_distances, scores


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def pairs(n, seed) -> PackedPairs:
    """n random full-size pairs, genuine and impostor in turn, four subjects."""
    rng = np.random.default_rng(seed)
    visual = rng.standard_normal((n, 9, 60, 100, 1)).astype(np.float32)
    speech = rng.standard_normal((n, 15, 40, 3)).astype(np.float32)
    labels = (np.arange(n) + 1) % 2
    subjects = np.array([f"s{i % 4}" for i in range(n)], dtype=object)
    return PackedPairs(speech, visual, labels, subjects)


def gradients(model, data, mode) -> str:
    """Loss, every parameter gradient and running statistic of one step."""
    for p in model.parameters():
        p.grad = None
    rng = np.random.default_rng(0)
    with Tape() as tape:
        ev = model.embed_visual(data.visual, mode=mode, rng=rng)
        ea = model.embed_audio(data.speech, mode=mode, rng=rng)
        loss = contrastive_loss(batch_distances(ev, ea), data.labels, model.config,
                                weights=model.weight_tensors())
        backward(loss, tape)
    return digest(loss.data, *(p.grad for p in model.parameters()),
                  *(b for _, b in model.named_buffers()))


def show(label, hexdigest):
    print(f"{label:32s}{hexdigest}")


def layer(net, name):
    return next(one for one in net.layers if one.name == name)


def main():
    # forward only: a refactor of the forward keeps these lines, even where
    # it reorders gradient sums and so changes the lines below
    model = CoupledModel(ModelConfig(seed=0))
    data = pairs(32, 1)
    show("untrained frozen distances N=32",
         digest(frozen_distances(model, data.speech, data.visual)))
    show("untrained infer scores", digest(scores(model, data)[0]))

    show("train step N=32 gradients", gradients(model, data, "train"))

    # 32 pairs at batch 28: each epoch ends in a trimmed 4-pair step
    data = pairs(32, 2)
    for optimizer in ("sgdm", "adam"):
        model = CoupledModel(ModelConfig(seed=0))
        result = fit(model, data, TrainConfig(batch_size=28, max_epochs=2, optimizer=optimizer))
        show(f"fit {optimizer} history", digest(repr(result.history).encode()))
        show(f"fit {optimizer} state_checksum", digest(model.state_checksum()))
        show(f"fit {optimizer} infer scores", digest(scores(model, data)[0]))
        if optimizer == "sgdm":
            # the file format: the names, order and bytes of the stored state
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "model.avck"
                save_checkpoint(path, model)
                show("fit sgdm checkpoint bytes", digest(path.read_bytes()))

    # 12 pairs at batch 3 with a tiny eta0: the first epoch skips one update
    # and drops pairs in two steps, so each puts back the running statistics
    # of its selection pass, and the second epoch keeps every pair
    model = CoupledModel(ModelConfig(seed=0))
    result = fit(model, pairs(12, 1), TrainConfig(batch_size=3, max_epochs=2,
                                                  selection=SelectionConfig(eta0=1e-3)))
    assert result.history[0].steps < 4 and result.history[0].selection_rate < 1
    show("fit selecting history", digest(repr(result.history).encode()))
    show("fit selecting state_checksum", digest(model.state_checksum()))

    # a negative gamma and a negative slope: those blocks run as written
    model = CoupledModel(ModelConfig(seed=0))
    layer(model.visual_net, "bn1").gamma.data[0] = -0.5
    layer(model.audio_net, "prelu2_2").slope.data[0] = -0.25
    data = pairs(16, 3)
    for mode in ("train", "frozen"):
        show(f"non-monotone {mode} gradients", gradients(model, data, mode))


if __name__ == "__main__":
    main()
