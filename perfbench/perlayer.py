"""Per-layer metrics of a traced run, derived from its spans and counts.

Times are normalised by the operation they serve: visual and audio layer
times and step phases per optimizer step (``bench.train_step`` regions, the
warm-up step excluded), scoring times per scored pair (``bench.eval_call``
regions), ``metrics.report_ms`` per ``evaluate_run`` call, and the ingest and
checkpoint functions per call, averaged over every call in the run.
"""

from __future__ import annotations

import statistics

from tracing import BACKWARD_RULE, STACK_FORWARD

VISUAL_LAYERS = ("conv1", "bn1", "prelu1", "pool1", "conv2", "bn2", "prelu2", "pool2",
                 "conv3", "bn3", "prelu3", "pool3", "conv4", "bn4", "prelu4",
                 "fc5", "prelu5", "drop5", "fc6")
BATCH_STAT_MODES = ("train", "frozen")
STEP = "bench.train_step"
EVAL = "bench.eval_call"
PER_CALL = ("io.load_checkpoint", "io.save_checkpoint", "io.load_manifest", "io.read_wav",
            "io.read_frame_dir", "speech.mfec_matrix", "speech.build_speech_cube",
            "visual.build_visual_cube", "pairs.generate_pairs", "training.pack_pairs",
            "io.write_cube")


def metric_units() -> dict:
    """name -> (unit, better) for every per-layer metric, in report order."""
    out = {}
    for layer in VISUAL_LAYERS:
        for kind in ("fwd", "bwd", "infer"):
            out[f"layers.visual.{layer}.{kind}_ms"] = ("ms", "lower")
    out["layers.audio.fwd_ms"] = ("ms", "lower")
    out["layers.audio.bwd_ms"] = ("ms", "lower")
    out["layers.visual.step_share"] = ("ratio", "lower")
    out["layers.audio.step_share"] = ("ratio", "lower")
    for name in ("training.frozen_ms", "training.select_ms", "model.train_forward_ms",
                 "model.loss_ms", "tensor.backward_ms", "training.optimizer_ms"):
        out[name] = ("ms", "lower")
    out["tensor.tape_nodes"] = ("count", "lower")
    out["pairs.kept_impostor_ratio"] = ("ratio", "higher")
    out["training.update_pairs"] = ("count", "lower")
    for name in ("training.scores_ms_per_pair", "model.embed_visual_infer_ms",
                 "model.embed_audio_infer_ms", "metrics.report_ms"):
        out[name] = ("ms", "lower")
    out["pairs.unique_visual_share"] = ("ratio", "lower")
    for name in PER_CALL:
        out[f"{name}_ms"] = ("ms", "lower")
    out["pairs.windows"] = ("count", "higher")
    out["pairs.skipped_impostors"] = ("count", "lower")
    out["training.packed_mb"] = ("MB", "lower")
    out["trace.overhead_ratio"] = ("ratio", "lower")
    return out


def _total(spans) -> float:
    return sum(s.ms for s in spans)


def _per(total: float, count: float, what: str) -> float:
    if not count:
        raise RuntimeError(f"traced run recorded no {what}")
    return total / count


def per_layer_metrics(tracer, facts: dict, overhead: list) -> dict:
    by_id = {s.sid: s for s in tracer.spans}

    def stream_of(span):
        parent = by_id.get(span.parent)
        return parent.label if parent is not None and parent.name == STACK_FORWARD else None

    def parent_name(span):
        parent = by_id.get(span.parent)
        return parent.name if parent is not None else None

    steps = tracer.regions(STEP)
    n_steps = len(steps)
    step_ms = _total(s for s, _ in steps)
    evals = tracer.regions(EVAL)
    n_pairs = sum(info["pairs"] for _, info in evals)

    layer_spans = [s for s in tracer.spans
                   if s.name.startswith("layers.") and s.name.endswith(".forward")
                   and s.name != STACK_FORWARD and stream_of(s) == "visual"]
    rules = list(tracer.select(name=BACKWARD_RULE, region=STEP))

    out = {}
    visual_ms = 0.0
    for layer in VISUAL_LAYERS:
        mine = [s for s in layer_spans if s.label == layer]
        fwd = _total(s for s in mine if s.region == STEP and s.mode in BATCH_STAT_MODES)
        bwd = _total(s for s in rules if s.label == f"visual.{layer}")
        infer = _total(s for s in mine if s.region == EVAL and s.mode == "infer")
        visual_ms += fwd + bwd
        out[f"layers.visual.{layer}.fwd_ms"] = _per(fwd, n_steps, "training steps")
        out[f"layers.visual.{layer}.bwd_ms"] = _per(bwd, n_steps, "training steps")
        out[f"layers.visual.{layer}.infer_ms"] = _per(infer, n_pairs, "scored pairs")

    audio_fwd = _total(tracer.select(name=STACK_FORWARD, region=STEP, label="audio",
                                     modes=BATCH_STAT_MODES))
    audio_bwd = _total(s for s in rules if s.label.startswith("audio."))
    out["layers.audio.fwd_ms"] = _per(audio_fwd, n_steps, "training steps")
    out["layers.audio.bwd_ms"] = _per(audio_bwd, n_steps, "training steps")
    out["layers.visual.step_share"] = _per(visual_ms, step_ms, "step time")
    out["layers.audio.step_share"] = _per(audio_fwd + audio_bwd, step_ms, "step time")

    def step_total(names, modes=None, parent=None):
        return _per(_total(s for s in tracer.spans
                           if s.region == STEP and s.name in names
                           and (modes is None or s.mode in modes)
                           and (parent is None or parent_name(s) == parent)),
                    n_steps, "training steps")

    out["training.frozen_ms"] = step_total({"training.frozen_distances"})
    out["training.select_ms"] = step_total({"pairs.select_impostors"})
    out["model.train_forward_ms"] = step_total(
        {"model.CoupledModel.embed_visual", "model.CoupledModel.embed_audio"}, modes=("train",))
    out["model.loss_ms"] = step_total({"model.batch_distances", "model.contrastive_loss"},
                                      parent="training.train_epoch")
    out["tensor.backward_ms"] = step_total({"tensor.backward"})
    out["training.optimizer_ms"] = step_total({"training.SGDMomentum.step",
                                               "training.SGDMomentum.zero_grad"})
    out["tensor.tape_nodes"] = _per(
        sum(1 for _ in tracer.select(name="tensor.Tape.record", region=STEP)),
        n_steps, "training steps")
    out["pairs.kept_impostor_ratio"] = statistics.fmean(facts["kept_ratio"])
    out["training.update_pairs"] = statistics.fmean(facts["update_pairs"])

    def eval_total(name, modes=None):
        return _per(_total(tracer.select(name=name, region=EVAL, modes=modes)),
                    n_pairs, "scored pairs")

    out["training.scores_ms_per_pair"] = eval_total("training.scores")
    out["model.embed_visual_infer_ms"] = eval_total("model.CoupledModel.embed_visual", ("infer",))
    out["model.embed_audio_infer_ms"] = eval_total("model.CoupledModel.embed_audio", ("infer",))
    out["metrics.report_ms"] = _per(
        _total(tracer.select(name="metrics.metrics_from_scores", region=EVAL)),
        len(evals), "evaluate_run calls")
    out["pairs.unique_visual_share"] = facts["unique_share"]

    for name in PER_CALL:
        calls = list(tracer.select(name=name))
        out[f"{name}_ms"] = _per(_total(calls), len(calls), f"calls of {name}")

    out["pairs.windows"] = facts["windows"]
    out["pairs.skipped_impostors"] = facts["skipped"]
    out["training.packed_mb"] = facts["packed_mb"]
    out["trace.overhead_ratio"] = overhead_ratio(overhead)
    return out


def overhead_ratio(rounds) -> float:
    """Median over traced home rounds of their time over the mean of the
    untraced rounds next to them, minus 1. Neighbours in time share most of
    the machine's drift, which is larger than the overhead itself."""
    ratios = []
    for i, (traced, dt) in enumerate(rounds):
        near = [d for j, (t, d) in enumerate(rounds) if not t and abs(i - j) == 1]
        if traced and near:
            ratios.append(dt / statistics.fmean(near) - 1.0)
    if not ratios:
        raise RuntimeError("traced run has no traced round next to an untraced one")
    return statistics.median(ratios)
