"""Closed-loop benchmark of the swarmphase CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 0

One client runs one CLI subprocess at a time; each starts only after the
previous one has ended. A run has three parts:

1. Set-up, repeated ``SETUP_REPEATS`` times: a child process imports
   swarmphase from the checkout's ``src`` and writes the workload's inputs
   for the seed. ``setup_s`` comes from their wall times.
2. One warm-up CLI run, checked but not timed.
3. Rounds for ``--seconds`` (at least ``MIN_ROUNDS`` of them), each a
   reference loop and then a CLI run. With ``--trace 0`` each CLI run is a
   plain ``swarmphase`` process; ``run_s`` and ``cpu_s`` (user + sys from
   ``wait4``) come from their times and ``peak_rss_mb`` is the median
   ``ru_maxrss``. With ``--trace 1`` each goes in-process through
   ``cli.main`` with a span around every layer call (``traced_cli.py``), and
   the per-layer metrics are medians over them, not scaled.

Right before every timed CLI run the benchmark process times a fixed
pure-Python loop (``reference_loop``). The speed of a shared host drifts by
tens of percent over minutes, and the loop drifts with it, so the end-to-end
times are reported at a fixed machine speed: ``setup_s``, ``run_s`` and
``cpu_s`` are the mean of the raw times over the mean time of the loops,
times ``REFERENCE_S`` (``at_reference_speed``). A set-up is shorter than
one swing of the host's speed, so a loop next to it would say little; the
set-ups are scaled by the loops of the timed runs. The raw medians are
printed too.

Every CLI run is checked (``checks.py``) once the last one has ended, so
that numpy and scipy, which the checks load, do not enter the children's
``ru_maxrss``: Linux counts in it the memory of the process a child was
spawned from. A run fails on a non-zero exit, a broken invariant or an artifact digest that differs from the other runs of
the seed. The digest is also compared with the one ``baseline.json`` records
for the workload and seed, if any, and the result printed; a difference is
not a failure, since a faster program may round differently, but it asks
for an explanation. The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans of all traced runs stay in
memory and are written once, at the end, to
``.perfbench/spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from checks import artifact_digest, check_artifacts
from spans import Span, layer_totals, uncovered
from workloads import OUT_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

SETUP_REPEATS = 5
# reference_loop: its size, and about its time on the 2-vCPU Xeon VM the
# benchmark was written on, which only sets the scale of the times. The loop
# takes about a third of each timed round: the shorter it is, the less of the
# machine's speed it sees, and the noisier the scaled times.
REFERENCE_ITERATIONS = 12_000_000
REFERENCE_S = 1.2
MIN_ROUNDS = 3
# OpenBLAS in the children runs one thread. With two, a CLI run on this
# 2-vCPU VM switched between a worker that sleeps between BLAS calls and pays
# a wake-up on each, and one that spins on the other vCPU: crowd's scaled
# run_s moved by 23% between two sets of runs, with cpu_s / run_s 1.14 in
# one and 0.99 in the other.
OPENBLAS_NUM_THREADS = "1"
# The whole benchmark must end within 180 s: no round starts that would
# likely end after ROUND_DEADLINE_S, and any child still running at
# KILL_DEADLINE_S is killed.
ROUND_DEADLINE_S = 150.0
KILL_DEADLINE_S = 172.0

CLI = "import sys; from swarmphase.cli import main; sys.exit(main())"

# per-layer metric -> (span name, "total" or "self")
SPAN_METRICS = {
    "cli.import_s": ("cli.import", "total"),
    "pipeline.self_s": ("pipeline.run_pipeline", "self"),
    # simulate (scenario workloads) or load (CSV workload): each alone would
    # read 0 on some workload
    "pipeline.build_dataset_s": ("pipeline.build_dataset", "total"),
    "mapping.velocities_s": ("mapping.velocities", "total"),
    "mapping.canonicalize_s": ("mapping.canonicalize", "total"),
    "observables.compute_s": ("observables.compute", "total"),
    "observables.epsilon_s": ("observables.epsilon", "total"),
    "observables.components_s": ("observables.components", "total"),
    "observables.distance_matrix_s": ("observables.distance_matrix", "total"),
    "segment.segment_s": ("segment.segment", "total"),
    "manifold.isomap_s": ("manifold.isomap", "total"),
    "manifold.knn_graph_s": ("manifold.knn_graph", "total"),
    "manifold.geodesic_s": ("manifold.geodesic", "total"),
    "manifold.residual_s": ("manifold.residual", "total"),
    "manifold.isomap_self_s": ("manifold.isomap", "self"),
    "io.write_s": ("io.write", "total"),
}

BASELINE = HERE / "baseline.json"


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (no program, failed set-up)."""


@dataclass
class Child:
    start: float
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int


@dataclass
class Outcome:
    """One checked CLI run."""

    child: Child
    measured: bool
    out_dir: Path | None = None
    reference: float | None = None  # reference_loop right before the run
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def run_child(argv: list[str], cwd: Path, env: dict, timeout: float) -> Child:
    """Run ``argv`` to completion; wall time, and CPU and peak RSS from ``wait4``."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted before the child was reaped: leave nothing running
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        start=start,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
    )


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop: the machine's speed right now.

    It runs in the benchmark process, which loads no numpy, so it adds
    nothing to the children's ``ru_maxrss``."""
    start = time.perf_counter()
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - start


def at_reference_speed(times: list[float], references: list[float]) -> float:
    """Mean of ``times`` at the speed at which ``reference_loop`` takes
    ``REFERENCE_S``, from the loops timed along with them."""
    return statistics.mean(times) * REFERENCE_S / statistics.mean(references)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    def __init__(self, workload_name: str, seed: int, seconds: float, trace: bool):
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t0 = time.perf_counter()
        self.work = WORK_ROOT / f"{workload_name}-seed{seed}-{os.getpid()}"
        self.run_dir = self.work / "run"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env["OPENBLAS_NUM_THREADS"] = OPENBLAS_NUM_THREADS
        self.outcomes: list[Outcome] = []
        self.setup_walls: list[float] = []
        self.problems: list[str] = []

    def timeout(self) -> float:
        return KILL_DEADLINE_S - (time.perf_counter() - self.t0)

    def setup(self) -> None:
        digests = []
        for i in range(SETUP_REPEATS):
            dest = self.work / f"setup{i}"
            argv = [sys.executable, str(HERE / "workloads.py"), self.workload.name, str(self.seed), str(dest), str(SRC)]
            child = run_child(argv, self.work, self.env, self.timeout())
            if child.exit_code != 0:
                err = (self.work / "stderr.txt").read_text(errors="replace").strip()
                raise BenchmarkError(f"set-up failed with exit code {child.exit_code}: {err[-2000:]}")
            self.setup_walls.append(child.wall)
            digests.append(artifact_digest(dest))
        if len(set(digests)) != 1:
            self.problems.append("set-up wrote different inputs on repeats of one seed")
        dest.rename(self.run_dir)

    def cli_run(self, measured: bool) -> Outcome:
        out = self.run_dir / OUT_DIR
        shutil.rmtree(out, ignore_errors=True)
        result_file = self.run_dir / "trace.json"
        result_file.unlink(missing_ok=True)
        cli_args = self.workload.cli_args(self.seed)
        if self.trace:
            run_id = len(self.outcomes)
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(run_id), str(result_file), *cli_args]
        else:
            argv = [sys.executable, "-c", CLI, *cli_args]
        outcome = Outcome(run_child(argv, self.run_dir, self.env, self.timeout()), measured)
        if outcome.child.exit_code != 0:
            err = (self.run_dir / "stderr.txt").read_text(errors="replace").strip()
            outcome.problems.append(f"exit code {outcome.child.exit_code}: {err[-500:]}")
        else:
            # kept for check_outputs
            outcome.out_dir = self.work / "outputs" / str(len(self.outcomes))
            if out.is_dir():
                out.rename(outcome.out_dir)
            if self.trace and not result_file.is_file():
                outcome.problems.append("traced run wrote no result file")
            elif self.trace:
                outcome.trace = json.loads(result_file.read_text())
                outcome.problems += outcome.trace["problems"]
        self.outcomes.append(outcome)
        return outcome

    def measure(self) -> None:
        self.cli_run(measured=False)  # warm-up
        loop_start = time.perf_counter()
        rounds: list[float] = []
        while True:
            round_start = time.perf_counter()
            reference = reference_loop()
            self.cli_run(measured=True).reference = reference
            now = time.perf_counter()
            rounds.append(now - round_start)
            typical = statistics.median(rounds)
            if now - self.t0 + max(rounds) > ROUND_DEADLINE_S:
                break
            if len(rounds) >= MIN_ROUNDS and now - loop_start + typical > self.seconds:
                break

    def check_outputs(self) -> None:
        w = self.workload
        for o in self.outcomes:
            if o.out_dir is None:
                continue
            o.problems += check_artifacts(o.out_dir, w.frames, w.agents, w.simulated)
            if o.out_dir.is_dir():
                o.digest = artifact_digest(o.out_dir)

    def judge_digests(self) -> str | None:
        counts = Counter(o.digest for o in self.outcomes if o.ok)
        if not counts:
            return None
        reference = counts.most_common(1)[0][0]
        for o in self.outcomes:
            if o.ok and o.digest != reference:
                o.problems.append("artifact digest differs from the other runs of this seed")
        return reference

    def timed(self) -> list[Outcome]:
        """Timed runs to report: those that passed their checks, or, when
        every one failed, those that at least ran to completion (the result
        line then says ``correct: false``)."""
        runs = [o for o in self.outcomes if o.measured]
        passed = [o for o in runs if o.ok]
        return passed or [o for o in runs if o.child.exit_code == 0 and (o.trace or not self.trace)]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        timed = self.timed()
        if not timed:
            raise BenchmarkError("no timed CLI run completed")
        runs = [o.child for o in timed]
        references = [o.reference for o in timed]
        return {
            "run_s": (at_reference_speed([c.wall for c in runs], references), "s"),
            "cpu_s": (at_reference_speed([c.cpu for c in runs], references), "s"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c in runs), "MB"),
            "setup_s": (at_reference_speed(self.setup_walls, references), "s"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        traced = self.timed()
        if not traced:
            raise BenchmarkError("no traced CLI run completed")
        rows = [layer_metrics(o) for o in traced]
        out = {}
        for name in rows[0]:
            unit = "s" if name.endswith("_s") else "fraction" if name.endswith("_frac") else "count"
            if name.startswith("io.bytes"):
                unit = "B"
            out[name] = (statistics.median(r[name] for r in rows), unit)
        return out

    def write_spans(self) -> Path:
        path = WORK_ROOT / f"spans-{self.workload.name}-seed{self.seed}.json"
        rows = [row for o in self.outcomes if o.trace for row in o.trace["spans"]]
        header = ["span_id", "name", "start", "end", "parent_id", "run_id"]
        path.write_text(json.dumps({"fields": header, "spans": rows}))
        return path


def layer_metrics(outcome: Outcome) -> dict[str, float]:
    """Per-layer numbers of one traced run, from its spans and counts."""
    trace = outcome.trace
    spans = [Span.from_list(row) for row in trace["spans"]]
    totals = layer_totals(spans)
    out = {}
    for metric, (span_name, kind) in SPAN_METRICS.items():
        out[metric] = totals[span_name][kind] if span_name in totals else 0.0
    out.update(trace["counts"])
    # the benchmark's own post-run counting is not part of the traced run
    wall = outcome.child.wall - (trace["post_end"] - trace["traced_end"])
    out["trace.wall_s"] = wall
    out["trace.uncovered_s"] = uncovered(spans, outcome.child.start, outcome.child.start + wall)
    return out


def compare_with_baseline(workload: str, seed: int, digest: str | None) -> str:
    """Whether ``digest`` is the one ``baseline.json`` records for the seed."""
    recorded = {}
    if BASELINE.is_file():
        recorded = json.loads(BASELINE.read_text())["workloads"].get(workload, {}).get("artifact_sha256", {})
    reference = recorded.get(str(seed))
    if reference is None:
        return f"artifact_sha256: baseline.json records none for seed {seed}"
    if reference == digest:
        return "artifact_sha256: matches baseline.json"
    return f"artifact_sha256: differs from baseline.json ({reference}); explain the change in output"


def report(bench: Bench, metrics: dict[str, tuple[float, str]], digest: str | None) -> dict:
    w = bench.workload
    attempted = len(bench.outcomes)
    failed = sum(not o.ok for o in bench.outcomes)
    measured = [o.child for o in bench.timed()]
    print(f"perfbench: workload={w.name} seed={bench.seed} trace={int(bench.trace)} seconds={bench.seconds:g}")
    print(f"perfbench: cli: swarmphase {' '.join(w.cli_args(bench.seed))}")
    for label, values in (
        ("run_s", [c.wall for c in measured]),
        ("cpu_s", [c.cpu for c in measured]),
        ("peak_rss_mb", [c.rss_mb for c in measured]),
        ("setup_s", bench.setup_walls),
        ("reference_loop_s", [o.reference for o in bench.timed()]),
    ):
        q1, q2, q3 = quartiles(values)
        print(f"perfbench: raw {label}: median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} n={len(values)}")
    print(f"perfbench: fail_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"perfbench: artifact_sha256: {digest}")
    print(f"perfbench: {compare_with_baseline(w.name, bench.seed, digest)}")
    for i, o in enumerate(bench.outcomes):
        for problem in o.problems:
            print(f"perfbench: run {i} failed: {problem}")
    for problem in bench.problems:
        print(f"perfbench: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"perfbench: {name} = {value!r} {unit}")
    return {
        "correct": failed == 0 and not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the swarmphase CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "swarmphase" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no swarmphase sources at {SRC}\n")
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(bench.work, ignore_errors=True)
    (bench.work / "outputs").mkdir(parents=True)
    try:
        bench.setup()
        bench.measure()
        bench.check_outputs()
        digest = bench.judge_digests()
        if bench.trace:
            metrics = bench.per_layer()
            spans_path = bench.write_spans()
        else:
            metrics = bench.end_to_end()
        result = report(bench, metrics, digest)
        if bench.trace:
            print(f"perfbench: spans written to {spans_path.relative_to(ROOT)}")
    except BenchmarkError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
