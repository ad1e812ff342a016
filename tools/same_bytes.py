"""Check that this working tree's CLI gives the same results as a git revision.

Usage, from anywhere inside the repository:

    python3 tools/same_bytes.py REV

Exports REV with ``git archive`` into a temporary directory, makes the shared
inputs with REV's code, then runs the swarmphase CLI from both trees on a
fixed list of argument sets. For each set it compares the artifact tree byte
for byte, stdout, stderr (each tree's source path masked as ``<src>``) and
the exit code, prints one line per set and the differences, and exits 1 if
anything differs. For a CSV that differs it also prints the largest absolute
difference between numeric fields, so that a rounding change shows as a size.
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# every agent of frame 61 within a few thousandths of their centre, so
# steps 60 and 61 raise LowConfidenceMatchWarning
MAKE_COLLAPSE = """
import sys
import numpy as np
from swarmphase import io, sim
frames = sim.simulate(sim.scenario_speed_switch(n_agents=10, n_steps=105, seed=3)).unwrapped.copy()
frames[60] = frames[60].mean(axis=0) + 1e-3 * np.arange(10)[:, None]
io.save_trajectory_csv(sys.argv[1], frames)
"""

# 40 agents over 300 frames; frame 103 collapses as in MAKE_COLLAPSE, so
# steps 102 and 103 warn, and the correspondence dump carries both
MAKE_BLOCK_EDGE = """
import sys
import numpy as np
from swarmphase import io, sim
frames = sim.simulate(sim.scenario_speed_switch(n_agents=40, n_steps=300, seed=3)).unwrapped.copy()
frames[102] = frames[102].mean(axis=0) + 1e-3 * np.arange(40)[:, None]
io.save_trajectory_csv(sys.argv[1], frames)
"""

# 3 agents at the origin for 30 frames: the derived interaction radius is 0
MAKE_COINCIDENT = """
import sys
import numpy as np
from swarmphase import io
io.save_trajectory_csv(sys.argv[1], np.zeros((30, 3, 2)))
"""

# 8 agents that never move over 40 frames: speed and P are 0 and X is
# constant, so the distance image, the Gram matrices and the residual's
# correlation all take their all-zero branches
MAKE_STATIC = """
import sys
import numpy as np
from swarmphase import io
agents = np.column_stack([np.arange(8.0), np.arange(8.0) % 3])
io.save_trajectory_csv(sys.argv[1], np.broadcast_to(agents, (40, 8, 2)))
"""

# 10 agents over 60 frames: 5 never move, and 5 move in fixed directions
# except over steps 26-35, so speed and P see steps with some agents at rest
# and steps with all of them at rest
MAKE_HALF_STATIC = """
import sys
import numpy as np
from swarmphase import io
angles = 0.3 * np.arange(5)
steps = 0.05 * np.column_stack((np.cos(angles), np.sin(angles)))
moving = (np.arange(60) - np.clip(np.arange(60) - 25, 0, 10))[:, None, None] * steps
agents = np.column_stack((np.arange(10.0) % 5, 3.0 * (np.arange(10) >= 5)))
frames = np.broadcast_to(agents, (60, 10, 2)).copy()
frames[:, 5:] += moving
io.save_trajectory_csv(sys.argv[1], frames)
"""

# a 6 x 5 integer grid shifted half a spacing along x each frame, for 40
# frames: each agent's nearest proposals tie exactly, so sources collide and
# leftovers go to residual matching, and every adjacent pair is exactly at
# the nearest-neighbour epsilon (the spacing)
MAKE_LATTICE = """
import sys
import numpy as np
from swarmphase import io
xs, ys = np.meshgrid(np.arange(6.0), np.arange(5.0))
grid = np.column_stack((xs.ravel(), ys.ravel()))
io.save_trajectory_csv(sys.argv[1], grid + 0.5 * np.arange(40)[:, None, None] * np.array([1.0, 0.0]))
"""

# a speed-switch track as a 4-column file with a header, rows shuffled and
# CRLF line endings: the loader's bulk pass reads it
MAKE_HEADER_CRLF = """
import sys
import numpy as np
from swarmphase import io, sim
io.save_trajectory_csv(sys.argv[1], sim.simulate(sim.scenario_speed_switch(n_agents=20, n_steps=110, seed=4)).unwrapped)
with open(sys.argv[1]) as lines:
    rows = np.random.default_rng(0).permutation(lines.read().splitlines()).tolist()
with open(sys.argv[1], "w", newline="\\r\\n") as out:
    out.write("t,id,x,y\\n" + "\\n".join(rows) + "\\n")
"""

# a 3-column track with a whitespace-only line after every tenth row: numpy
# refuses the file, and the per-line reader loads it
MAKE_WHITESPACE_LINES = """
import sys
from swarmphase import io, sim
io.save_trajectory_csv(sys.argv[1], sim.simulate(sim.scenario_speed_switch(n_agents=20, n_steps=110, seed=4)).unwrapped)
with open(sys.argv[1]) as lines:
    rows = ["{0},{2},{3}".format(*row.split(",")) for row in lines.read().splitlines()]
with open(sys.argv[1], "w") as out:
    out.write("".join(row + ("\\n \\t\\n" if i % 10 == 9 else "\\n") for i, row in enumerate(rows)))
"""

# 12 agents over 30 frames at uniform random positions in +-1e160: beyond
# the loader's 1e140 limit, past which distances overflow
MAKE_HUGE = """
import sys
import numpy as np
from swarmphase import io
io.save_trajectory_csv(sys.argv[1], np.random.default_rng(0).uniform(-1e160, 1e160, size=(30, 12, 2)))
"""

# 10 agents over 90 frames in three groups of 30, each frame jittered about
# its group's layout, the groups half a unit apart along x: the
# configurations form three clusters, so the Isomap's k grows from 7 to 30,
# past twice the requested k
MAKE_CLUSTERS = """
import sys
import numpy as np
from swarmphase import io
rng = np.random.default_rng(0)
layout = rng.uniform(0.0, 10.0, size=(10, 2))
groups = np.repeat(np.arange(3), 30)[:, None, None] * np.array([0.5, 0.0])
io.save_trajectory_csv(sys.argv[1], layout + groups + 0.02 * rng.normal(size=(90, 10, 2)))
"""

# a speed-switch track moved by 1e6 along both axes: its steps of about 0.005
# are a few hundred ulps of the coordinates, so an Isomap's Gram estimates
# of the raw points would cancel away; the k-NN screen centres them first
MAKE_OFFSET = """
import sys
from swarmphase import io, sim
frames = sim.simulate(sim.scenario_speed_switch(n_agents=15, n_steps=120, seed=8)).unwrapped
io.save_trajectory_csv(sys.argv[1], frames + 1e6)
"""

SPEED = ["run", "--scenario", "speed-switch"]
NOISE = ["run", "--scenario", "noise-switch"]
SPLIT = ["run", "--scenario", "split-rejoin"]

# name -> CLI arguments; "{name}" stands for a shared input file and
# "--out out" is appended unless the set asks for help or names its own --out
ARGUMENT_SETS = {
    "crowd": [*SPEED, "--n-agents", "150", "--n-steps", "150", "--seed", "201"],
    "long": [*SPEED, "--n-agents", "30", "--n-steps", "600", "--seed", "201"],
    # above 256 agents the simulator's and the matching's blocks hold runs of rows, not whole frames
    "many-agents": [*SPEED, "--n-agents", "300", "--n-steps", "100", "--seed", "201"],
    # 599 analysed frames of 120 agents are 71880 cells: component_series runs two blocks
    "many-frames": [*SPEED, "--n-agents", "120", "--n-steps", "600", "--seed", "201"],
    "tracked-csv": ["analyze", "--input", "{tracked}"],
    # k=1 leaves the Isomap graphs disconnected, so knn_graph must grow k
    "k-growth": ["analyze", "--input", "{tracked}", "--k", "1"],
    # k grows from 7 to 30, so knn_graph ranks the neighbours again at 14, 28 and 56 columns
    "k-growth-wide": ["isomap", "--input", "{clusters}"],
    # the k-NN screen where a common offset dwarfs each step
    "offset-isomap": ["isomap", "--input", "{offset}"],
    # k=1 on the shifted lattice, whose configurations tie exactly at the
    # cut: the screen must keep every tied candidate and rank ties by index
    "lattice-k1": ["analyze", "--input", "{lattice}", "--k", "1", "--min-len", "5"],
    # 1-9 point segments: 3-point Isomaps with degenerate spectra, SegmentationWarnings
    "tiny-segments": ["analyze", "--input", "{tracked}", "--min-len", "1"],
    "noise-switch": [*NOISE, "--n-agents", "80", "--seed", "201"],
    "split-rejoin": [*SPLIT, "--n-agents", "60", "--seed", "201"],
    "split-rejoin-dt1": [*SPLIT, "--n-agents", "100", "--dt", "1.0", "--seed", "201"],
    # 120 agents in a 2.5 x 1.5 box: the simulator's periodic neighbour search is dense
    "tiny-box": [
        *SPEED, "--n-agents", "120", "--half-width", "1.25", "--half-height", "0.75", "--dt", "2.0", "--seed", "6",
    ],
    # a 3-high box: the y span straddles the seam on every step and the x span
    # never does, so the simulator shifts y differences only
    "one-axis-seam": [*SPEED, "--n-agents", "60", "--half-height", "1.5", "--seed", "201"],
    "scenario-dump": [*SPEED, "--n-agents", "40", "--seed", "5", "--dump-correspondence"],
    "nearest-epsilon": [*NOISE, "--n-agents", "50", "--seed", "4", "--epsilon-mode", "nearest_neighbor", "--no-canonicalize"],
    "simulate": ["simulate", "--scenario", "split-rejoin", "--n-agents", "40", "--seed", "2"],
    "isomap": ["isomap", "--input", "{wrapped}"],
    "isomap-nocanon": ["isomap", "--input", "{wrapped}", "--no-canonicalize"],
    # settings the command never reads, each written out at its default
    "explicit-defaults-simulate": [
        "simulate", "--scenario", "split-rejoin", "--n-agents", "40", "--seed", "2",
        "--k", "7", "--dmax", "10", "--canonicalize", "--no-dump-correspondence",
    ],
    "explicit-defaults-isomap": ["isomap", "--input", "{wrapped}", "--min-len", "10", "--merge-tol", "0.1"],
    # no dimension reaches the threshold: a 12-column embedding, a 12-row curve, a ManifoldWarning
    "isomap-wide": ["isomap", "--input", "{tracked}", "--threshold", "1e-12", "--dmax", "12"],
    "analyze-dump": ["analyze", "--input", "{wrapped}", "--dump-correspondence"],
    "low-confidence": ["analyze", "--input", "{collapse}"],
    # two adjacent low-confidence steps, warned in order and dumped
    "block-edge": ["analyze", "--input", "{block_edge}", "--dump-correspondence"],
    # matches N=1, then exits 1 at observables
    "one-agent": ["analyze", "--input", "{agent}"],
    # exits 1 at observables: epsilon is 0
    "coincident": ["analyze", "--input", "{coincident}", "--min-len", "2"],
    "static": ["analyze", "--input", "{static}", "--min-len", "5"],
    "half-static": ["analyze", "--input", "{half_static}", "--min-len", "5"],
    "lattice": [
        "analyze", "--input", "{lattice}", "--epsilon-mode", "nearest_neighbor", "--min-len", "5", "--dump-correspondence",
    ],
    "header-crlf": ["analyze", "--input", "{header_crlf}"],
    "whitespace-lines": ["analyze", "--input", "{whitespace}"],
    # exits 1 at load; before the limit it exited 1 at observables, after overflow warnings
    "huge": ["analyze", "--input", "{huge}", "--min-len", "2"],
    # exits 1 at sim; before the limit it exited 1 at observables, after overflow
    # and low-confidence warnings
    "huge-dt": [*SPEED, "--n-agents", "10", "--n-steps", "100", "--dt", "1e300"],
    # exits 1 at sim: the box side 2 * 1e308 is not finite; before that check it
    # exited 0 after two "invalid value" warnings, with no agent its own neighbour
    "huge-box": [*SPEED, "--n-agents", "10", "--n-steps", "100", "--half-height", "1e308"],
    # exits 1 at sim, frame 2; before the step loop ignored overflow it first
    # warned "overflow encountered in add"
    "overflow-dt": [*SPEED, "--n-agents", "10", "--n-steps", "100", "--dt", "1e308"],
    # exits 1 at sim, frame 21: the one simulate set that reaches the limit
    "simulate-huge-dt": ["simulate", "--scenario", "speed-switch", "--n-agents", "10", "--n-steps", "100", "--dt", "1e140"],
    # exits 1 at sim, frame 1: both tracks start at x = -1e150, so the message
    # is the same whichever track is checked first
    "huge-half-width": [*SPEED, "--n-agents", "10", "--n-steps", "100", "--half-width", "1e150"],
    "fail-one-frame": ["run", "--input", "{one}"],
    "fail-short": [*SPEED, "--n-steps", "50"],
    "fail-no-input": ["analyze"],
    # exits 1 before loading: the config file is not UTF-8; before the key
    # was named, the decoder's message came without its "config: " prefix
    "undecodable-config": ["run", "--config", "{undecodable}"],
    # exits 1 before loading: the output path lies below a file; before the
    # check it ran every stage, then failed with a bare [Errno 20]
    "out-below-file": ["analyze", "--input", "{tracked}", "--out", "{one}/sub"],
    "help": ["run", "--help"],
}


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev], check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def python(src: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def make_inputs(src: Path, perfbench: Path, dest: Path) -> dict[str, str]:
    """Shared input files, written by one tree's code so both trees read the same bytes."""
    dest.mkdir()
    steps = [
        [str(perfbench / "workloads.py"), "tracked-csv", "201", str(dest / "tracked"), str(src)],
        ["-m", "swarmphase.cli", "simulate", "--scenario", "speed-switch", "--n-agents", "40",
         "--n-steps", "120", "--seed", "3", "--out", str(dest / "sim")],
        ["-m", "swarmphase.cli", "simulate", "--scenario", "speed-switch", "--n-agents", "1",
         "--n-steps", "120", "--seed", "3", "--out", str(dest / "agent")],
        ["-c", MAKE_COLLAPSE, str(dest / "collapse.csv")],
        ["-c", MAKE_BLOCK_EDGE, str(dest / "block_edge.csv")],
        ["-c", MAKE_COINCIDENT, str(dest / "coincident.csv")],
        ["-c", MAKE_STATIC, str(dest / "static.csv")],
        ["-c", MAKE_HALF_STATIC, str(dest / "half_static.csv")],
        ["-c", MAKE_LATTICE, str(dest / "lattice.csv")],
        ["-c", MAKE_HEADER_CRLF, str(dest / "header_crlf.csv")],
        ["-c", MAKE_WHITESPACE_LINES, str(dest / "whitespace.csv")],
        ["-c", MAKE_HUGE, str(dest / "huge.csv")],
        ["-c", MAKE_CLUSTERS, str(dest / "clusters.csv")],
        ["-c", MAKE_OFFSET, str(dest / "offset.csv")],
    ]
    for args in steps:
        done = python(src, args, dest)
        if done.returncode != 0:
            sys.exit(f"same_bytes: making inputs failed: {' '.join(args[:2])}\n{done.stderr}")
    (dest / "one.csv").write_text("1,0.0,0.0\n1,1.0,1.0\n")
    (dest / "undecodable.cfg").write_bytes(b"\xff")
    return {
        "tracked": str(dest / "tracked" / "input.csv"),
        "wrapped": str(dest / "sim" / "trajectory.csv"),
        "collapse": str(dest / "collapse.csv"),
        "block_edge": str(dest / "block_edge.csv"),
        "coincident": str(dest / "coincident.csv"),
        "static": str(dest / "static.csv"),
        "half_static": str(dest / "half_static.csv"),
        "lattice": str(dest / "lattice.csv"),
        "header_crlf": str(dest / "header_crlf.csv"),
        "whitespace": str(dest / "whitespace.csv"),
        "huge": str(dest / "huge.csv"),
        "clusters": str(dest / "clusters.csv"),
        "offset": str(dest / "offset.csv"),
        "agent": str(dest / "agent" / "trajectory.csv"),
        "one": str(dest / "one.csv"),
        "undecodable": str(dest / "undecodable.cfg"),
    }


def run_set(src: Path, args: list[str], run_dir: Path) -> tuple[dict[str, bytes], str, str, int]:
    run_dir.mkdir(parents=True)
    if "--help" not in args and "--out" not in args:
        args = [*args, "--out", "out"]
    done = python(src, ["-m", "swarmphase.cli", *args], run_dir)
    out = run_dir / "out"
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return files, done.stdout, done.stderr.replace(str(src), "<src>"), done.returncode


def largest_difference(old: bytes, new: bytes) -> str:
    """The largest absolute difference between the numeric fields of two CSV texts."""
    old_rows, new_rows = ([line.split(",") for line in text.decode().splitlines()] for text in (old, new))
    if [len(r) for r in old_rows] != [len(r) for r in new_rows]:
        return "rows or columns differ"
    worst = 0.0
    for a, b in zip((f for r in old_rows for f in r), (f for r in new_rows for f in r)):
        if a == b:
            continue
        try:
            worst = max(worst, abs(float(a) - float(b)))
        except ValueError:
            return f"a non-numeric field differs: {a!r} -> {b!r}"
    return f"largest absolute difference {worst:.3g}"


def compare(name: str, base, change) -> list[str]:
    """Lines describing how two runs of one argument set differ; empty if they match."""
    (base_files, *base_streams), (change_files, *change_streams) = base, change
    report = []
    differing = sorted(k for k in base_files.keys() | change_files.keys() if base_files.get(k) != change_files.get(k))
    if differing:
        report.append(f"  artifacts differ: {', '.join(differing)}")
        report.extend(
            f"    {k}: {largest_difference(base_files[k], change_files[k])}"
            for k in differing
            if k.endswith(".csv") and k in base_files and k in change_files
        )
    for label, old, new in zip(("stdout", "stderr", "exit code"), base_streams, change_streams):
        if old == new:
            continue
        if label == "exit code":
            report.append(f"  exit code {old} -> {new}")
            continue
        report.append(f"  {label} differs:")
        diff = difflib.unified_diff(old.splitlines(), new.splitlines(), "base", "change", lineterm="", n=0)
        report.extend(f"    {line}" for line in diff)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with, e.g. HEAD~")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        root = Path(tmp)
        export(rev, root / "base")
        trees = {"base": root / "base" / "src", "change": REPO / "src"}
        inputs = make_inputs(trees["base"], root / "base" / "perfbench", root / "inputs")
        differing = 0
        for name, template in ARGUMENT_SETS.items():
            args = [a.format(**inputs) for a in template]
            base, change = (run_set(src, args, root / label / name) for label, src in trees.items())
            report = compare(name, base, change)
            differing += bool(report)
            print(f"{'DIFF' if report else 'same'}  {name}: {' '.join(template)} (exit {change[3]})")
            for line in report:
                print(line)
    print(f"same_bytes: {len(ARGUMENT_SETS) - differing} of {len(ARGUMENT_SETS)} argument sets identical to {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
