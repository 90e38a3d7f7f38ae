"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Each check first gets a clean input, which it must accept, then a corrupted
one (a perturbed gradient, swapped labels, a shifted frame, a truncated
cube, ...), which it must reject. Exits 0 when every check behaves so.
Takes about ten seconds on one core.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["AVSYNC_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import checks
    import workloads
    from avmatch import io as avio, metrics, model as avmodel, pairs, speech, synth, training

    results = []

    def expect(what, clean, corrupted):
        ok = clean is None and corrupted is not None
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}: clean -> {clean or 'accepted'}; "
              f"corrupted -> {corrupted or 'accepted'}")

    rng = np.random.default_rng(0)

    # train: gradient, frozen pass, selection, finiteness
    model64 = avmodel.CoupledModel(workloads.model_config(0, "float64"))
    sp = rng.standard_normal((2,) + checks.SPEECH_SHAPE)
    vi = rng.standard_normal((2,) + checks.VISUAL_SHAPE)
    labels = np.array([1, 0])

    def bump_conv1(params):
        params[0].grad *= 1.1   # visual conv1 kernels

    expect("directional derivative vs perturbed gradient",
           checks.directional_derivative(*workloads.directional_derivative_terms(
               model64, sp, vi, labels, 0)),
           checks.directional_derivative(*workloads.directional_derivative_terms(
               model64, sp, vi, labels, 0, perturb=bump_conv1)))

    model = avmodel.CoupledModel(workloads.model_config(0))
    before = model.state_checksum()
    training.frozen_distances(model, sp.astype(np.float32), vi.astype(np.float32))
    clean = checks.state_unchanged(before, model.state_checksum())
    model.embed_visual(vi.astype(np.float32), mode="train", rng=rng)   # updates running stats
    expect("frozen pass leaves state unchanged vs a train-mode pass",
           clean, checks.state_unchanged(before, model.state_checksum()))

    d = rng.uniform(5.0, 15.0, 32)
    y = np.tile([1, 0], 16)
    kept = pairs.select_impostors(d[y == 1], d[y == 0], 0.5)
    swapped = y.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    expect("impostor selection vs swapped labels",
           checks.impostor_selection(d, y, 0.5, kept, len(kept)),
           checks.impostor_selection(d, swapped, 0.5, kept, len(kept)))

    named = [(n, p.data) for n, p in model.named_parameters()]
    expect("finite and moved vs a NaN loss",
           checks.finite_and_moved([1.0, 2.0], named, b"a", b"b"),
           checks.finite_and_moved([1.0, float("nan")], named, b"a", b"b"))
    expect("finite and moved vs unmoved parameters",
           checks.finite_and_moved([1.0], named, b"a", b"b"),
           checks.finite_and_moved([1.0], named, b"a", b"a"))

    # eval: AUC, EER, batched vs single, genuine across shifts
    d = np.concatenate([rng.normal(8.0, 2.0, 40), rng.normal(11.0, 2.0, 40)])
    y = np.repeat([1, 0], 40)
    report = metrics.metrics_from_scores(d, y)
    swapped = y.copy()
    swapped[[0, 79]] = swapped[[79, 0]]
    expect("AUC vs Mann-Whitney with swapped labels",
           checks.auc_mann_whitney(d, y, report.auc),
           checks.auc_mann_whitney(d, swapped, report.auc))
    shifted = metrics.metrics_from_scores(d + 3.0 * (y == 0), y)
    expect("EER bracket vs another score set's EER",
           checks.eer_in_bracket(d, y, report.eer),
           checks.eer_in_bracket(d, y, shifted.eer))
    expect("batched vs single-pair distance of another pair",
           checks.close_f32(d[:4], d[:4] * (1 + 1e-6), "single"),
           checks.close_f32(d[:4], d[1:5], "single"))
    expect("genuine distances across shifts vs a shifted order",
           checks.close_f32(d[y == 1], d[y == 1].copy(), "genuine"),
           checks.close_f32(d[y == 1], np.roll(d[y == 1], 1), "genuine"))

    # ingest: counts, standardisation, frames, carrier, cube files
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_out"))
    try:
        manifest = synth.generate_corpus(
            work / "corpus", synth.SynthConfig(n_subjects=2, clips_per_subject=1), seed=0)
        rows = checks.read_manifest(manifest)
        clips = [pairs.Clip(r["subject_id"], f"{r['subject_id']}/{i}",
                            avio.read_wav(r["audio_path"]), avio.read_frame_dir(r["frames_dir"]))
                 for i, r in enumerate(rows)]
        pair_list, stats = pairs.generate_pairs(clips, pairs.PairConfig(fixed_shift_s=0.5))
        packed = training.pack_pairs(pair_list)
        durations = []
        for r in rows:
            samples, rate = checks.read_wav_samples(r["audio_path"])
            n_frames = len(list(Path(r["frames_dir"]).glob("*.pgm")))
            durations.append((len(samples) / rate, n_frames / 30.0))
        swapped = packed.labels.copy()
        swapped[0] = 1 - swapped[0]
        counts = (stats.genuine, stats.impostor, stats.skipped)
        expect("pair counts vs swapped labels",
               checks.pair_counts(durations, 0.5, packed.labels, *counts),
               checks.pair_counts(durations, 0.5, swapped, *counts))
        expect("speech cube shape vs a truncated cube",
               checks.standardised_cubes(packed.speech, checks.SPEECH_SHAPE, "speech"),
               checks.standardised_cubes(packed.speech[:, :-1], checks.SPEECH_SHAPE, "speech"))
        expect("visual cubes standardised vs scaled cubes",
               checks.standardised_cubes(packed.visual, checks.VISUAL_SHAPE, "visual"),
               checks.standardised_cubes(packed.visual * 1.01, checks.VISUAL_SHAPE, "visual"))
        frames = sorted(Path(rows[0]["frames_dir"]).glob("*.pgm"))
        p = pair_list[0]
        start = p.visual.start_frame
        expect("visual cube vs frames shifted by one",
               checks.visual_matches_frames(packed.visual[0], frames[start:start + 9], "pair 0"),
               checks.visual_matches_frames(packed.visual[0], frames[start + 1:start + 10],
                                            "pair 0"))
        samples, rate = checks.read_wav_samples(rows[0]["audio_path"])
        energy = packed.speech[0][..., 0].astype(np.float64).sum(axis=0)
        other = [i for i, q in enumerate(pair_list) if q.subject_id != p.subject_id][0]
        energy_other = packed.speech[other][..., 0].astype(np.float64).sum(axis=0)
        expect("carrier in top mel channel vs another subject's cube",
               checks.carrier_in_top_channel(samples, rate, energy, "clip 0"),
               checks.carrier_in_top_channel(samples, rate, energy_other, "clip 0"))
        cube = speech.build_speech_cube(avio.read_wav(rows[0]["audio_path"]))
        path = work / "cube.avcb"
        avio.write_cube(path, cube.values)
        raw = path.read_bytes()
        reread = avio.read_cube(path)
        expect("cube file round trip vs a truncated file",
               checks.cube_file_round_trip(raw, cube.values.data, reread, raw, "cube"),
               checks.cube_file_round_trip(raw[:-4], cube.values.data, reread, raw, "cube"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{sum(results)}/{len(results)} checks accept clean input and reject corrupted input")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
