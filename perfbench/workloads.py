"""The benchmark's workloads: what the CLI is asked to do, and its inputs.

Each workload stresses different layers of the pipeline (shares measured
with the layer spans at the sizes below):

- ``crowd``: many agents, few frames. The O(N^2) layers dominate:
  observables (union-find over neighbour pairs) and the simulator's dense
  neighbour search; Isomap sees only T-1 points.
- ``long``: few agents, many frames. Isomap is the largest layer: k-NN
  graph, Dijkstra from every vertex and a dense eigensolve on T-1 points; it
  also sets the largest peak RSS. The simulator's neighbour search is cheap
  at this N.
- ``tracked-csv``: ``analyze`` on a shuffled 3-column CSV made in set-up. No
  simulator; the loader parses every row; coarse frames make nearest-neighbour
  proposals collide, so correspondence resolves real conflicts and
  canonicalization really permutes; the segmentation yields many small
  Isomap runs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

INPUT_CSV = "input.csv"
OUT_DIR = "out"


@dataclass(frozen=True)
class Workload:
    name: str
    agents: int
    frames: int
    simulated: bool  # the CLI simulates a scenario; otherwise it reads INPUT_CSV

    def cli_args(self, seed: int) -> list[str]:
        """Arguments of the swarmphase CLI, relative to the run directory."""
        if self.simulated:
            return [
                "run", "--scenario", "speed-switch",
                "--n-agents", str(self.agents), "--n-steps", str(self.frames),
                "--seed", str(seed), "--out", OUT_DIR,
            ]
        return ["analyze", "--input", INPUT_CSV, "--out", OUT_DIR]


# why each was chosen: BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("crowd", agents=150, frames=150, simulated=True),
        Workload("long", agents=30, frames=600, simulated=True),
        Workload("tracked-csv", agents=60, frames=600, simulated=False),
    )
}

# split-rejoin frames 20x coarser than the scenario default (dt 0.05), so
# nearest-neighbour proposals collide
TRACKED_DT = 1.0


def write_tracked_csv(path: Path, seed: int, agents: int, frames: int) -> None:
    """Rows ``t,x,y`` of a split-rejoin run's unwrapped track, shuffled per frame."""
    import numpy as np
    from swarmphase.sim import make_scenario, simulate

    dataset = simulate(
        make_scenario("split-rejoin", seed=seed, n_agents=agents, n_steps=frames, dt=TRACKED_DT)
    )
    rng = np.random.default_rng([seed, 1])
    lines = []
    for t, frame in enumerate(dataset.unwrapped, start=1):
        for x, y in frame[rng.permutation(agents)]:
            lines.append(f"{t},{x:.17g},{y:.17g}")
    path.write_text("\n".join(lines) + "\n")


def make_inputs(workload: Workload, seed: int, dest: Path) -> None:
    """Write the workload's input files for ``seed`` into ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    if not workload.simulated:
        write_tracked_csv(dest / INPUT_CSV, seed, workload.agents, workload.frames)


def main(argv: list[str]) -> int:
    """Set-up step, run as a child: ``workloads.py NAME SEED DEST SRC``.

    Imports swarmphase (which must resolve inside SRC, the checkout's source
    tree) and writes the workload's inputs into DEST.
    """
    name, seed, dest, src = argv[0], int(argv[1]), Path(argv[2]), Path(argv[3]).resolve()
    import swarmphase.cli

    origin = Path(swarmphase.cli.__file__).resolve()
    if not origin.is_relative_to(src):
        sys.stderr.write(f"swarmphase resolves to {origin}, not inside {src}\n")
        return 2
    make_inputs(WORKLOADS[name], seed, dest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
