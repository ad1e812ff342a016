"""File formats: trajectory/observable/segment CSVs, distance-image PGM, config files.

Floats are serialized with 17 significant digits so CSV round trips are
exact, and the PGM writer is byte-deterministic for a fixed input.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .sim import TrajectoryDataset

TRAJECTORY_HEADER_NAMES = {"t", "id", "x", "y"}


def format_float(x: float) -> str:
    return f"{x:.17g}"


def save_trajectory_csv(path, positions: np.ndarray) -> None:
    """Write rows ``t,id,x,y`` with 1-based frame and agent indices."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 3 or pos.shape[2] != 2:
        raise ValueError("positions must have shape (T, N, 2)")
    with open(path, "w") as out:
        for t, frame in enumerate(pos, start=1):
            for agent, (x, y) in enumerate(frame, start=1):
                out.write(f"{t},{agent},{format_float(x)},{format_float(y)}\n")


def load_trajectory_csv(path) -> TrajectoryDataset:
    """Read a trajectory from rows ``t,x,y`` or ``t,id,x,y``.

    In the 3-column form agent identity is the row order within each frame
    block; in the 4-column form rows are ordered by the id column. Every
    frame must contain the same number of agents. Non-finite values,
    non-integer frame labels and an id repeated within a frame are rejected
    with the line number.
    """
    frames: dict[int, dict[float, tuple[float, float]]] = {}
    n_fields = None
    with open(path) as lines:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if line_no == 1 and set(f.lower() for f in fields) <= TRAJECTORY_HEADER_NAMES:
                continue
            if len(fields) not in (3, 4):
                raise ValueError(f"line {line_no}: expected 3 or 4 fields, found {len(fields)}")
            if n_fields is None:
                n_fields = len(fields)
            elif len(fields) != n_fields:
                raise ValueError(f"line {line_no}: expected {n_fields} fields, found {len(fields)}")
            try:
                numbers = [float(f) for f in fields]
            except ValueError:
                bad = next(f for f in fields if not _is_number(f))
                raise ValueError(f"line {line_no}: non-numeric field {bad!r}") from None
            if not all(map(math.isfinite, numbers)):
                bad = next(f for f, v in zip(fields, numbers) if not math.isfinite(v))
                raise ValueError(f"line {line_no}: non-finite field {bad!r}")
            if not numbers[0].is_integer():
                raise ValueError(f"line {line_no}: frame label {fields[0]!r} is not an integer")
            t = int(numbers[0])
            rows = frames.setdefault(t, {})
            key = numbers[1] if n_fields == 4 else len(rows)
            if key in rows:
                raise ValueError(f"line {line_no}: duplicate id {fields[1]!r} in frame {t}")
            rows[key] = (numbers[-2], numbers[-1])

    if not frames:
        raise ValueError("trajectory file contains no data rows")
    expected = len(next(iter(frames.values())))
    for t, rows in frames.items():
        if len(rows) != expected:
            raise ValueError(f"frame {t}: expected {expected} agents, found {len(rows)}")

    positions = np.array([[rows[key] for key in sorted(rows)] for _, rows in sorted(frames.items())])
    return TrajectoryDataset(wrapped=positions)


def _is_number(field: str) -> bool:
    try:
        float(field)
        return True
    except ValueError:
        return False


def save_observables_csv(path, series) -> None:
    lines = ["t,speed,P,C,X"]
    for t in range(series.n_steps):
        lines.append(
            f"{t + 1},{format_float(series.speed[t])},{format_float(series.polarization[t])},"
            f"{int(series.components[t])},{format_float(series.coarse[t])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def save_segments_csv(path, segmentation, dimensions=None) -> None:
    """Segment table: start, end, mean X, label, estimated dimension."""
    lines = ["start,end,mean_X,label,dstar"]
    dims = dimensions if dimensions is not None else [None] * len(segmentation.segments)
    for seg, dim in zip(segmentation.segments, dims):
        label = "" if seg.label is None else str(seg.label)
        dstar = "" if dim is None else str(dim)
        lines.append(f"{seg.start},{seg.end},{format_float(seg.mean_value)},{label},{dstar}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_residual_csv(path, residuals: np.ndarray) -> None:
    lines = ["d,residual_variance"]
    for d, r in enumerate(np.asarray(residuals, dtype=float), start=1):
        lines.append(f"{d},{format_float(r)}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_embedding_csv(path, coordinates: np.ndarray) -> None:
    coords = np.asarray(coordinates, dtype=float)
    if coords.ndim != 2:
        raise ValueError("coordinates must be a 2-D array")
    header = "index," + ",".join(f"x{i + 1}" for i in range(coords.shape[1]))
    lines = [header]
    for idx, row in enumerate(coords, start=1):
        lines.append(f"{idx}," + ",".join(format_float(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n")


def save_correspondence_csv(path, maps) -> None:
    """Debug dump of per-step permutations and velocities."""
    lines = ["t,source,target,bijective,vx,vy"]
    for m in maps:
        for i in range(m.n_agents):
            lines.append(
                f"{m.step},{i + 1},{int(m.permutation[i]) + 1},{int(m.bijective[i])},"
                f"{format_float(m.velocities[i, 0])},{format_float(m.velocities[i, 1])}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def save_distance_pgm(path, delta: np.ndarray) -> None:
    """Binary 8-bit grayscale PGM of a distance matrix.

    Values are rescaled by the matrix maximum so black is 0 and white is the
    largest distance; an all-zero matrix produces an all-black image.
    """
    mat = np.asarray(delta, dtype=float)
    if mat.ndim != 2:
        raise ValueError("distance matrix must be 2-D")
    peak = mat.max()
    scaled = mat / peak if peak > 0 else np.zeros_like(mat)
    pixels = np.rint(255.0 * scaled).clip(0, 255).astype(np.uint8)
    header = f"P5\n{mat.shape[1]} {mat.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def load_config_file(path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())
