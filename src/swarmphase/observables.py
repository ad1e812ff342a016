"""Coarse per-step observables of group motion and the metric they induce.

Three scaled quantities are combined: normalized mean group speed,
polarization of the reconstructed velocities, and the normalized number of
connected components of the interaction graph. Their convex combination
``X(t)`` lives in [0, 1], and the absolute difference ``|X(t1) - X(t2)|``
is a pseudometric on time steps that separates phases of group behavior.

A frame's component count is N minus its minimum-spanning-tree edges within
the interaction radius, so the pairs within the radius are never listed.
"""

from __future__ import annotations

import warnings

import numpy as np
from dataclasses import dataclass

from .sim import _BLOCK_CELLS, check_track

# the estimators interaction_epsilon accepts
EPSILON_MODES = ("all_pairs", "nearest_neighbor")


class DegenerateSeriesWarning(UserWarning):
    """Raised when an observable hits a degenerate all-zero case."""


@dataclass
class ObservableSeries:
    """Per-step group observables; one entry per consecutive frame pair."""

    speed: np.ndarray
    polarization: np.ndarray
    components: np.ndarray
    coarse: np.ndarray
    epsilon: float


def group_speed_series(maps) -> np.ndarray:
    """Norm of the group mean velocity per step, normalized by its maximum.

    An all-zero series is returned as all zeros (with a warning), not 0/0.
    """
    # a 1-D np.linalg.norm is sqrt(x.dot(x)), and vecdot runs the same dot
    # kernel; a norm along axis 1 can differ in the last bit
    mean = maps.velocities.mean(axis=1)
    norms = np.sqrt(np.vecdot(mean, mean))
    if norms.size == 0:
        raise ValueError("need at least one correspondence step")
    peak = norms.max()
    if peak == 0.0:
        warnings.warn("group mean velocity is zero at every step", DegenerateSeriesWarning, stacklevel=2)
        return norms
    return norms / peak


def polarization(velocities: np.ndarray) -> float:
    """``polarization_series`` of one step's ``(N, 2)`` velocities."""
    v = np.asarray(velocities, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValueError("velocities must have shape (N, 2)")
    return float(polarization_series(v[None])[0])


def polarization_series(velocities: np.ndarray) -> np.ndarray:
    """Normalized magnitude of the summed unit velocity directions, per step of ``(T, N, 2)`` velocities.

    Agents with exactly zero velocity have no direction and are excluded;
    the normalization uses the count of included agents. A step where every
    velocity is zero gets 0, and the series warns once.
    """
    norms = np.linalg.norm(velocities, axis=2)
    keep = norms > 0.0
    included = keep.sum(axis=1)
    if not included.all():
        warnings.warn("all velocities are zero; polarization undefined", DegenerateSeriesWarning, stacklevel=2)
    # an excluded agent adds exact zeros, so each step sums its unit vectors in agent order
    units = np.divide(velocities, norms[..., None], out=np.zeros_like(velocities), where=keep[..., None])
    summed = units.sum(axis=1)
    # a 1-D norm's bits, as in group_speed_series; a step at rest divides 0 by 1
    return np.minimum(np.sqrt(np.vecdot(summed, summed)) / np.maximum(included, 1), 1.0)


def interaction_epsilon(positions: np.ndarray, mode: str = "all_pairs") -> float:
    """Interaction radius derived from the whole dataset.

    ``all_pairs``: mean distance over every unordered agent pair and every
    frame. ``nearest_neighbor``: mean over agents and frames of each agent's
    nearest-neighbor distance. ``positions`` must pass ``sim.check_track``.

    The all-pairs mean has the bits of adding ``pdist(frame).sum()`` frame by
    frame: a block of frames is gathered into C-contiguous rows of pair
    distances, one row per frame in ``pdist``'s pair order, so that numpy sums
    each row pairwise as it sums ``pdist``'s output. Only the nearest-neighbour
    mean imports ``scipy.spatial``.
    """
    pos = check_track(positions)
    if pos.shape[1] < 2:
        raise ValueError("interaction radius needs at least 2 agents")
    if mode == "all_pairs":
        first, second = np.triu_indices(pos.shape[1], 1)
        per_block = max(_BLOCK_CELLS // len(first), 1)
        total = 0.0
        for start in range(0, len(pos), per_block):
            block = pos[start : start + per_block]
            step = np.take(block, first, axis=1)
            step -= np.take(block, second, axis=1)
            step *= step
            rows = step[..., 0] + step[..., 1]
            for row_sum in np.sqrt(rows, out=rows).sum(axis=1):
                total += row_sum
        return total / (len(pos) * len(first))
    if mode == "nearest_neighbor":
        from scipy.spatial import cKDTree

        total = 0.0
        for frame in pos:
            dist, _ = cKDTree(frame).query(frame, k=2)
            total += dist[:, 1].sum()
        return total / (pos.shape[0] * pos.shape[1])
    raise ValueError(f"unknown epsilon mode {mode!r} (use {' or '.join(map(repr, EPSILON_MODES))})")


def connected_component_count(positions: np.ndarray, radius: float) -> int:
    """Number of connected components of the distance-``radius`` graph.

    Agents at distance exactly ``radius`` are linked (range search is
    inclusive).
    """
    return int(component_series(np.asarray(positions, dtype=float)[None], radius)[0])


def component_series(positions: np.ndarray, radius: float) -> np.ndarray:
    """Component count per frame of a ``(T, N, 2)`` stack: N minus the
    frame's minimum-spanning-tree edges no longer than ``radius``.

    Those edges span each component of the inclusive distance-``radius``
    graph, whichever way ties are broken. Prim's algorithm runs in lockstep
    over a block of ``_BLOCK_CELLS // N`` frames: at each step every frame
    adds its nearest agent outside its tree. An edge is within reach when
    ``dx*dx + dy*dy <= radius*radius``, as in a k-d tree's range search.
    ``positions`` must pass ``sim.check_track``.
    """
    pos = check_track(positions)
    if not radius > 0:
        raise ValueError("radius must be positive")
    n_frames, n = pos.shape[:2]
    counts = np.full(n_frames, n)
    per_block = max(_BLOCK_CELLS // max(n, 1), 1)
    for start in range(0, n_frames, per_block):
        block = pos[start : start + per_block]
        frames = np.arange(len(block))
        # each frame's tree starts at agent 0; rows of x, y and nearest are
        # the agents outside it, columns the frames, and nearest holds each
        # agent's squared distance to the tree
        px, py = block[:, 0, 0], block[:, 0, 1]
        x, y = block[:, 1:, 0].T.copy(), block[:, 1:, 1].T.copy()
        nearest = np.full(x.shape, np.inf)
        # squares go to buffers made once: a temporary per step raised
        # tracked-csv's peak RSS by 0.4 MB
        dx, dy = np.empty_like(x), np.empty_like(y)
        for m in range(n - 1, 0, -1):
            d, e = np.subtract(x, px, out=dx[:m]), np.subtract(y, py, out=dy[:m])
            d *= d
            e *= e
            d += e
            np.minimum(nearest, d, out=nearest)
            j = nearest.argmin(axis=0)
            counts[start : start + len(block)] -= nearest[j, frames] <= radius * radius
            px, py = x[j, frames], y[j, frames]
            # the added agent's row takes the last row, which is then dropped
            for a in (x, y, nearest):
                a[j, frames] = a[m - 1]
            x, y, nearest = x[: m - 1], y[: m - 1], nearest[: m - 1]
    return counts


def coarse_observable(
    speed: np.ndarray,
    polarization: np.ndarray,
    components: np.ndarray,
    n_agents: int,
    weight_speed: float = 1.0 / 3.0,
    weight_polarization: float = 1.0 / 3.0,
) -> np.ndarray:
    """Convex combination of speed, polarization, and component fraction; bad input fails by name."""
    if not (weight_speed >= 0 and weight_polarization >= 0):
        raise ValueError("observable weights must be non-negative")
    if weight_speed + weight_polarization > 1.0:
        raise ValueError("observable weights must sum to at most 1")
    if not n_agents >= 1:
        raise ValueError(f"n_agents: must be at least 1, found {n_agents!r}")
    speed = np.asarray(speed, dtype=float)
    pol = np.asarray(polarization, dtype=float)
    comp = np.asarray(components, dtype=float)
    for name, values in (("speed", speed), ("polarization", pol), ("components", comp)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name}: must be finite")
    structure = 1.0 - weight_speed - weight_polarization
    x = weight_speed * speed + weight_polarization * pol + structure * comp / n_agents
    return np.clip(x, 0.0, 1.0)


def distance_matrix(series: np.ndarray) -> np.ndarray:
    """Pairwise absolute differences of a finite scalar series."""
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series must be nonempty")
    if not np.isfinite(x).all():
        raise ValueError("series must be finite")
    delta = np.subtract.outer(x, x)
    return np.abs(delta, out=delta)


def compute_observables(
    dataset,
    maps,
    weight_speed: float = 1.0 / 3.0,
    weight_polarization: float = 1.0 / 3.0,
    epsilon_mode: str = "all_pairs",
) -> ObservableSeries:
    """Full observable series for a dataset's analysis track and its correspondence record.

    The interaction radius aggregates over all frames; component counts and
    polarization are evaluated at the source frame of each step.
    """
    track = dataset.analysis_track()
    epsilon = interaction_epsilon(track, mode=epsilon_mode)
    if epsilon == 0.0:
        raise ValueError(
            f"epsilon: 0 with epsilon_mode {epsilon_mode!r}; each agent coincides with another in every frame"
        )
    components = component_series(track[:-1], epsilon)
    speed = group_speed_series(maps)
    pol = polarization_series(maps.velocities)
    coarse = coarse_observable(
        speed, pol, components, dataset.n_agents, weight_speed, weight_polarization
    )
    return ObservableSeries(
        speed=speed,
        polarization=pol,
        components=components,
        coarse=coarse,
        epsilon=epsilon,
    )
