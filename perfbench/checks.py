"""Invariants every CLI run's artifact set must satisfy, and its digest."""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

COMMON_ARTIFACTS = {
    "trajectory.csv",
    "observables.csv",
    "distance.pgm",
    "segments.csv",
    "residual_full.csv",
    "summary.txt",
}


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, [row for row in reader if row]


def _unit_interval(value: str) -> bool:
    x = float(value)
    return math.isfinite(x) and 0.0 <= x <= 1.0


def check_artifacts(out_dir: Path, frames: int, agents: int, simulated: bool) -> list[str]:
    """Problems found in one run's artifact set; an empty list means it passed.

    Checks: the exact file set (residual files only for segments with a
    dimension estimate), ``observables.csv`` has ``frames - 1`` rows with X
    in [0, 1], the segments tile steps ``1 .. frames - 1``, every residual
    curve lies in [0, 1], the distance image is ``(frames - 1)`` square and
    the summary states the frame and agent counts.
    """
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        return [f"{out_dir}: output directory missing"]
    problems: list[str] = []
    steps = frames - 1
    present = {p.name for p in out_dir.iterdir()}
    expected = set(COMMON_ARTIFACTS)
    if simulated:
        expected.add("trajectory_unwrapped.csv")
    try:
        if "segments.csv" in present:
            header, rows = _rows(out_dir / "segments.csv")
            if header != ["start", "end", "mean_X", "label", "dstar"]:
                problems.append(f"segments.csv: header {header}")
            expected |= {f"residual_segment_{i:02d}.csv" for i, row in enumerate(rows, start=1) if row[4]}
            bounds = [(int(row[0]), int(row[1])) for row in rows]
            tiles = bool(bounds) and bounds[0][0] == 1 and bounds[-1][1] == steps
            tiles = tiles and all(s <= e for s, e in bounds)
            tiles = tiles and all(b[0] == a[1] + 1 for a, b in zip(bounds, bounds[1:]))
            if not tiles:
                problems.append(f"segments.csv: {bounds} do not tile steps 1..{steps}")
        if present != expected:
            missing = sorted(expected - present)
            extra = sorted(present - expected)
            problems.append(f"artifact set: missing {missing}, unexpected {extra}")
        if "observables.csv" in present:
            header, rows = _rows(out_dir / "observables.csv")
            if header != ["t", "speed", "P", "C", "X"]:
                problems.append(f"observables.csv: header {header}")
            if [int(row[0]) for row in rows] != list(range(1, steps + 1)):
                problems.append(f"observables.csv: {len(rows)} rows, expected steps 1..{steps}")
            if not all(_unit_interval(row[4]) for row in rows):
                problems.append("observables.csv: X outside [0, 1]")
        for name in sorted(n for n in present if n.startswith("residual_")):
            header, rows = _rows(out_dir / name)
            if header != ["d", "residual_variance"] or not rows:
                problems.append(f"{name}: header {header}, {len(rows)} rows")
            elif not all(_unit_interval(row[1]) for row in rows):
                problems.append(f"{name}: residual variance outside [0, 1]")
        if "distance.pgm" in present:
            data = (out_dir / "distance.pgm").read_bytes()
            head = f"P5\n{steps} {steps}\n255\n".encode("ascii")
            if not data.startswith(head) or len(data) != len(head) + steps * steps:
                problems.append("distance.pgm: wrong header or size")
        if "summary.txt" in present:
            lines = (out_dir / "summary.txt").read_text().splitlines()
            for line in (f"frames: {frames}", f"agents: {agents}"):
                if line not in lines:
                    problems.append(f"summary.txt: no line {line!r}")
        track = "trajectory_unwrapped.csv" if simulated else "trajectory.csv"
        if not problems and {track, "observables.csv", "summary.txt"} <= present:
            problems += check_observables(out_dir, track, frames, agents)
    except (ValueError, IndexError, KeyError, UnicodeDecodeError) as exc:
        problems.append(f"unreadable artifact: {exc}")
    return problems


def check_observables(out_dir: Path, track_file: str, frames: int, agents: int) -> list[str]:
    """Recompute the observables from the written track, independently of swarmphase.

    The interaction radius is the mean distance over every agent pair of every
    frame; the component count of step ``t`` is that of frame ``t`` under
    inclusive range search (scipy's k-d tree and ``connected_components``
    rather than the program's union-find); and X is the clipped convex
    combination of speed, polarization and component fraction. Positions are
    written with 17 significant digits, so the counts must match exactly.
    """
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree
    from scipy.spatial.distance import pdist

    summary = dict(line.split(": ", 1) for line in (out_dir / "summary.txt").read_text().splitlines() if ": " in line)
    epsilon, xi1, xi2 = (float(summary[key]) for key in ("epsilon", "xi1", "xi2"))
    rows = np.loadtxt(out_dir / track_file, delimiter=",", ndmin=2)
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    track = rows[:, 2:4].reshape(frames, agents, 2)
    _, obs = _rows(out_dir / "observables.csv")
    speed, pol, comps, x = (np.array([float(r[i]) for r in obs]) for i in (1, 2, 3, 4))

    problems = []
    mean_pair = float(np.mean([pdist(frame) for frame in track]))
    if not math.isclose(mean_pair, epsilon, rel_tol=1e-9):
        problems.append(f"summary.txt: epsilon {epsilon!r}, mean pair distance is {mean_pair!r}")
    expected = []
    for frame in track[:-1]:
        pairs = cKDTree(frame).query_pairs(epsilon, output_type="ndarray")
        graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(agents, agents))
        expected.append(connected_components(graph, directed=False)[0])
    wrong = np.flatnonzero(comps != np.array(expected))
    if wrong.size:
        t = wrong[0] + 1
        problems.append(f"observables.csv: C wrong at {wrong.size} steps (first: step {t}, {comps[t - 1]:g} not {expected[t - 1]})")
    combined = np.clip(xi1 * speed + xi2 * pol + (1.0 - xi1 - xi2) * comps / agents, 0.0, 1.0)
    if not np.allclose(x, combined, rtol=0.0, atol=1e-12):
        problems.append("observables.csv: X is not the clipped combination of speed, P and C / N")
    return problems


def artifact_digest(out_dir: Path) -> str:
    """sha256 over every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    return h.hexdigest()
