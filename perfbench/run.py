"""Benchmark for avmatch.

    python3 perfbench/run.py --workload {train,eval,ingest} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. One workload runs per process. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``. Run outputs
and trace summaries go to ``.perfbench_out/`` at the root; the work
directory of each run is removed when it ends. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "AVSYNC_THREADS")


def cap_threads() -> None:
    """One BLAS thread and one feature-extraction worker.

    On a small shared machine a second BLAS thread makes the 32-pair step
    about 15% faster but several times less steady from run to run (two
    threads meet at every GEMM, so a stall of either core stalls both).
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "eval", "ingest"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(run) -> dict:
    out = {"setup_s": run.setup_s, "peak_rss_mb": run.peak_rss_mb}
    for name, values in run.samples.items():
        out[name] = statistics.median(values)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "avmatch").is_dir():
        print(f"perfbench: no avmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import perlayer
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = workloads.Run(workdir, args.seed, args.seconds, tracer)
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values = end_to_end(run)
        units = declared_metrics(False)
    else:
        values = perlayer.per_layer_metrics(tracer, run.facts, run.overhead)
        units = declared_metrics(True)
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: run produced no value for {missing}", file=sys.stderr)
        return 1
    for name, samples in run.samples.items():
        print(f"perfbench: {name}: {len(samples)} samples, median {statistics.median(samples):.4g}, "
              f"range {min(samples):.4g} to {max(samples):.4g}", file=sys.stderr)
    for failure in run.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
