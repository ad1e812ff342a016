"""File formats: trajectory/observable/segment CSVs, distance-image PGM, config files.

Floats are serialized with 17 significant digits so CSV round trips are
exact, and the PGM writer is byte-deterministic for a fixed input.
"""

from __future__ import annotations

import math
import warnings
from array import array
from io import BytesIO, TextIOWrapper
from pathlib import Path

import numpy as np

from .manifold import _BAND_ROWS
from .sim import MAX_COORDINATE, TrajectoryDataset

TRAJECTORY_HEADER_NAMES = {"t", "id", "x", "y"}


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _rows(n_rows: int, fields: str, prefix: str = "") -> str:
    """Format string of a table: a row ``<prefix>i,<fields>`` for each ``i`` from 1.

    ``%`` fills in the row values; ``%.17g`` prints a float as ``format_float``
    does. The frame writers pass the prefix ``{0},``, which ``str.format``
    fills in with the frame label first.
    """
    return "".join(f"{prefix}{i},{fields}\n" for i in range(1, n_rows + 1))


def save_trajectory_csv(path, positions: np.ndarray) -> None:
    """Write rows ``t,id,x,y`` with 1-based frame and agent indices."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 3 or pos.shape[2] != 2:
        raise ValueError("positions must have shape (T, N, 2)")
    rows = _rows(pos.shape[1], "%.17g,%.17g", "{0},")
    with open(path, "w") as out:
        for t, frame in enumerate(pos, start=1):
            out.write(rows.format(t) % tuple(frame.ravel().tolist()))


def load_trajectory_csv(path) -> TrajectoryDataset:
    """Read a trajectory from rows ``t,x,y`` or ``t,id,x,y``.

    In the 3-column form agent identity is the row order within each frame
    block; in the 4-column form rows are ordered by the id column. Every
    frame must contain the same number of agents. A first line made only of
    the names ``t``, ``id``, ``x`` and ``y`` is a header; blank lines are
    skipped.

    A valid file is parsed in one ``np.loadtxt`` pass and checked as a
    whole. A file that pass refuses goes to the per-line reader
    ``_checked_rows``, which decides what is rejected and names the first
    faulty line: a wrong field count, a non-numeric or non-finite value, an x
    or y above ``MAX_COORDINATE`` in magnitude, a non-integer frame label, an
    id repeated within a frame. It also loads the few files numpy refuses but
    ``float()`` reads, such as a whitespace-only line or non-ASCII digits.
    numpy converts a field with the same ``PyOS_string_to_double`` as
    ``float()`` but refuses more (digit-grouping underscores, quoted fields,
    ragged rows), so a file the bulk pass accepts gives the same rows on
    either path. Frame sizes are checked after either path.

    The magnitude limit keeps Isomap finite. Its Gram matrix squares
    geodesics, sums of up to T-2 configuration distances, each at most
    ``2 * sqrt(2N)`` times the largest coordinate. At N=60 and T=600,
    coordinates of 1e140 bound those squares by 1.7e288, below float64's
    1.8e308; at 1e150 the bound is 1.7e308, and uniform random positions
    overflow the Gram matrix.
    """
    # read once, so that a pipe can feed both paths; TextIOWrapper decodes as open(path) does
    with open(path, "rb") as file:
        data = file.read()
    with TextIOWrapper(BytesIO(data)) as lines:
        rows = _parsed_rows(lines)
        if rows is None:
            lines.seek(0)
            rows = _checked_rows(lines)
    width = rows.shape[1]
    labels, first_row, sizes = np.unique(rows[:, 0], return_index=True, return_counts=True)
    expected = sizes[np.argmin(first_row)]
    wrong = np.flatnonzero(sizes != expected)
    if wrong.size:
        k = wrong[np.argmin(first_row[wrong])]
        raise ValueError(f"frame {int(labels[k])}: expected {expected} agents, found {sizes[k]}")

    # a stable sort by frame label, then id; the 3-column form keeps row order
    order = np.lexsort((rows[:, 1], rows[:, 0]) if width == 4 else (rows[:, 0],))
    positions = rows[order, -2:].reshape(labels.size, expected, 2)
    return TrajectoryDataset(wrapped=positions)


def _is_header(line: str) -> bool:
    return set(f.strip().lower() for f in line.split(",")) <= TRAJECTORY_HEADER_NAMES


def _parsed_rows(lines: TextIOWrapper) -> np.ndarray | None:
    """The data rows through one ``np.loadtxt`` pass, or None if numpy or a check refuses them."""
    if not _is_header(lines.readline()):
        lines.seek(0)
    try:
        with warnings.catch_warnings():
            # a file without data rows is reported by the per-line reader
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    if rows.shape[1] not in (3, 4) or not np.isfinite(rows).all():
        return None
    labels = rows[:, 0]
    if not (np.abs(rows[:, -2:]) <= MAX_COORDINATE).all() or not (labels == np.floor(labels)).all():
        return None
    if rows.shape[1] == 4:
        keys = rows[np.lexsort((rows[:, 1], labels)), :2]
        if (keys[1:] == keys[:-1]).all(axis=1).any():
            return None
    return rows


def _checked_rows(lines: TextIOWrapper) -> np.ndarray:
    """The data rows read one line at a time; raises on the first faulty line, by number."""
    width = None
    values = array("d")
    seen_ids = set()
    for line_no, raw in enumerate(lines, start=1):
        # float() ignores surrounding whitespace; fields are stripped only for messages
        fields = raw.split(",")
        if len(fields) == 1 and not raw.strip():
            continue
        if line_no == 1 and _is_header(raw):
            continue
        if len(fields) not in (3, 4):
            raise ValueError(f"line {line_no}: expected 3 or 4 fields, found {len(fields)}")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(f"line {line_no}: expected {width} fields, found {len(fields)}")
        try:
            if "_" in raw:
                raise ValueError  # float() reads digit-grouping underscores: '1_0' is 10
            numbers = list(map(float, fields))
        except ValueError:
            bad = next(f.strip() for f in fields if not _is_number(f))
            raise ValueError(f"line {line_no}: non-numeric field {bad!r}") from None
        if not all(map(math.isfinite, numbers)):
            bad = next(f.strip() for f, v in zip(fields, numbers) if not math.isfinite(v))
            raise ValueError(f"line {line_no}: non-finite field {bad!r}")
        if max(abs(numbers[-2]), abs(numbers[-1])) > MAX_COORDINATE:
            bad = next(f.strip() for f, v in zip(fields[-2:], numbers[-2:]) if abs(v) > MAX_COORDINATE)
            raise ValueError(f"line {line_no}: field {bad!r} exceeds 1e140 in magnitude")
        if not numbers[0].is_integer():
            raise ValueError(f"line {line_no}: frame label {fields[0].strip()!r} is not an integer")
        if len(numbers) == 4:
            key = (numbers[0], numbers[1])
            if key in seen_ids:
                raise ValueError(f"line {line_no}: duplicate id {fields[1].strip()!r} in frame {int(numbers[0])}")
            seen_ids.add(key)
        values.extend(numbers)

    if width is None:
        raise ValueError("trajectory file contains no data rows")
    return np.frombuffer(values).reshape(-1, width)


def _is_number(field: str) -> bool:
    try:
        float(field)
        return "_" not in field
    except ValueError:
        return False


def _write_table(path, header: str, fields: str, table: np.ndarray) -> None:
    rows = _rows(table.shape[0], fields)
    Path(path).write_text(header + "\n" + rows % tuple(table.ravel().tolist()))


def save_observables_csv(path, series) -> None:
    # %d prints the component count as int() does
    table = np.column_stack((series.speed, series.polarization, series.components, series.coarse))
    _write_table(path, "t,speed,P,C,X", "%.17g,%.17g,%d,%.17g", table)


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
    _write_table(path, "d,residual_variance", "%.17g", np.asarray(residuals, dtype=float)[:, None])


def save_embedding_csv(path, coordinates: np.ndarray) -> None:
    coords = np.asarray(coordinates, dtype=float)
    if coords.ndim != 2:
        raise ValueError("coordinates must be a 2-D array")
    header = "index," + ",".join(f"x{i + 1}" for i in range(coords.shape[1]))
    _write_table(path, header, ",".join(["%.17g"] * coords.shape[1]), coords)


def save_correspondence_csv(path, maps) -> None:
    """Debug dump of a correspondence record's permutations and velocities, per step and agent."""
    with open(path, "w") as out:
        out.write("t,source,target,bijective,vx,vy\n")
        rows = _rows(maps.n_agents, "%d,%d,%.17g,%.17g", "{0},")
        for t, perm, bij, v in zip(maps.step, maps.permutation, maps.bijective, maps.velocities):
            # one float table per step; %d prints the integral target and flag columns
            table = np.column_stack((perm + 1, bij, v))
            out.write(rows.format(t) % tuple(table.ravel().tolist()))


def save_distance_pgm(path, delta: np.ndarray) -> None:
    """Binary 8-bit grayscale PGM of a distance matrix.

    Values are rescaled by the matrix maximum so black is 0 and white is the
    largest distance; an all-zero matrix produces an all-black image. A
    non-finite entry is rejected.
    """
    mat = np.asarray(delta, dtype=float)
    if mat.ndim != 2:
        raise ValueError("distance matrix must be 2-D")
    # NaN propagates through both reductions, so no n x n mask is built
    peak = mat.max()
    if not (math.isfinite(peak) and math.isfinite(mat.min())):
        raise ValueError("distance matrix must be finite")
    pixels = np.zeros(mat.shape, dtype=np.uint8)
    if peak > 0:
        # scaled, rounded and clipped a band of rows at a time, in the band
        # mat / peak makes; the uint8 image is the only full-size array
        for lo in range(0, mat.shape[0], _BAND_ROWS):
            band = mat[lo : lo + _BAND_ROWS] / peak
            band *= 255.0
            np.rint(band, out=band)
            pixels[lo : lo + _BAND_ROWS] = band.clip(0, 255, out=band)
    with open(path, "wb") as out:
        out.write(f"P5\n{mat.shape[1]} {mat.shape[0]}\n255\n".encode("ascii"))
        out.write(pixels)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ValueError(f"config line {line_no}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config_file(path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())
