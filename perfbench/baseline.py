"""Run the benchmark over several seeds and summarize the spread.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 [--write perfbench/baseline.json]

For each workload in BENCHMARK.json, ``run.py`` runs with tracing off once
per seed, then as many times again on the first seed alone, then once with
tracing on (first seed); each run lasts ``run_seconds`` from BENCHMARK.json.
For every end-to-end metric it prints, over the seeds and over the repeats
of one seed, the median, the quartiles and the spread ``(q3 - q1) / median``
(``statistics.quantiles(n=4)``), next to the metric's bound: the first is
what a check across seeds sees, the second the noise of the machine alone.
``--write`` stores the same numbers, each seed's ``artifact_sha256`` (which
``run.py`` compares against), the per-layer numbers of the traced run and a
description of the machine.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import OPENBLAS_NUM_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loads, if it can be found."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy
    import scipy

    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cli_openblas_threads": int(OPENBLAS_NUM_THREADS),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """The result line of one benchmark run, and its artifact digest."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    prefix = "perfbench: artifact_sha256: "
    digest = next(line[len(prefix):] for line in lines if line.startswith(prefix))
    return json.loads(lines[-1]), digest


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def measure(workload: str, seeds: list[int], seconds: int, bounds: dict, label: str) -> tuple[dict, dict]:
    """Statistics of the end-to-end metrics over one run per seed, and the digests."""
    values: dict[str, list[float]] = {}
    digests: dict[str, str] = {}
    for seed in seeds:
        start = time.perf_counter()
        result, digest = run_once(workload, seed, seconds, 0)
        if not result["correct"]:
            print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} runs failed")
        if digests.setdefault(str(seed), digest) != digest:
            print(f"{workload} seed {seed}: artifact_sha256 differs between repeats")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: {shown} ({time.perf_counter() - start:.0f} s)", flush=True)
    stats = {name: summarize(v) for name, v in values.items()}
    for name, s in stats.items():
        bound = bounds[name]
        flag = "" if s["spread"] < bound / 3 else "  <-- spread above a third of the bound"
        print(f"{workload} {label} {name}: median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g} "
              f"spread {s['spread']:.3f} bound {bound}{flag}", flush=True)
    return stats, digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--write", type=Path, help="store the summary as JSON")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("need at least 2 seeds for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"machine": machine(), "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        across, digests = measure(workload, args.seeds, seconds, bounds, "across seeds")
        first = args.seeds[0]
        repeats, repeat_digests = measure(workload, [first] * len(args.seeds), seconds, bounds, f"seed {first} repeated")
        if repeat_digests[str(first)] != digests[str(first)]:
            print(f"{workload} seed {first}: artifact_sha256 differs between repeats")
        traced, _ = run_once(workload, first, seconds, 1)
        summary["workloads"][workload] = {
            "end_to_end": across,
            "end_to_end_one_seed": {"seed": first, **repeats},
            "artifact_sha256": digests,
            "per_layer": {"seed": first, **{k: v["value"] for k, v in traced["metrics"].items()}},
        }
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
