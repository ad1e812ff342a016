"""Coarse per-step observables of group motion and the metric they induce.

Three scaled quantities are combined: normalized mean group speed,
polarization of the reconstructed velocities, and the normalized number of
connected components of the interaction graph. Their convex combination
``X(t)`` lives in [0, 1], and the absolute difference ``|X(t1) - X(t2)|``
is a pseudometric on time steps that separates phases of group behavior.
"""

from __future__ import annotations

import warnings

import numpy as np
from dataclasses import dataclass
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

# the estimators interaction_epsilon accepts
EPSILON_MODES = ("all_pairs", "nearest_neighbor")

# component_series hands csgraph one block-diagonal graph per run of frames
# holding about this many pairs: one call per frame costs more in set-up than
# the graph search itself, while one graph over all frames holds every
# frame's pairs at once and raised crowd's peak RSS by 55%
_BLOCK_PAIRS = 1 << 14

# a block also holds at most this many nodes, so that its node ids fit in
# uint16, which numpy's stable argsort orders by radix sort
_BLOCK_NODES = 1 << 16


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

    The normalization needs the whole series (two passes). An all-zero
    series is returned as all zeros (with a warning) instead of 0/0.
    """
    # one 1-D norm per step: a norm along axis 1 can differ in the last bit
    norms = np.array([float(np.linalg.norm(v)) for v in maps.mean_velocity])
    if norms.size == 0:
        raise ValueError("need at least one correspondence step")
    peak = norms.max()
    if peak == 0.0:
        warnings.warn("group mean velocity is zero at every step", DegenerateSeriesWarning, stacklevel=2)
        return norms
    return norms / peak


def polarization(velocities: np.ndarray) -> float:
    """Normalized magnitude of the summed unit velocity directions.

    Agents with exactly zero velocity have no direction and are excluded;
    the normalization uses the count of included agents. Returns 0 (with a
    warning) when every velocity is zero.
    """
    v = np.asarray(velocities, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValueError("velocities must have shape (N, 2)")
    norms = np.linalg.norm(v, axis=1)
    keep = norms > 0.0
    if not keep.any():
        warnings.warn("all velocities are zero; polarization undefined", DegenerateSeriesWarning, stacklevel=2)
        return 0.0
    units = v[keep] / norms[keep, None]
    return min(float(np.linalg.norm(units.sum(axis=0)) / keep.sum()), 1.0)


def polarization_series(maps) -> np.ndarray:
    return np.array([polarization(v) for v in maps.velocities])


def interaction_epsilon(positions: np.ndarray, mode: str = "all_pairs") -> float:
    """Interaction radius derived from the whole dataset.

    ``all_pairs``: mean distance over every unordered agent pair and every
    frame. ``nearest_neighbor``: mean over agents and frames of each agent's
    nearest-neighbor distance.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 2:
        pos = pos[None, :, :]
    if pos.ndim != 3 or pos.shape[2] != 2:
        raise ValueError("positions must have shape (T, N, 2)")
    if pos.shape[1] < 2:
        raise ValueError("interaction radius needs at least 2 agents")
    if mode == "all_pairs":
        total = 0.0
        count = 0
        for frame in pos:
            d = pdist(frame)
            total += d.sum()
            count += d.size
        return total / count
    if mode == "nearest_neighbor":
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
    """Component count per frame of a ``(T, N, 2)`` stack.

    Each frame's pairs come from an inclusive ``query_pairs(radius)``.
    Consecutive frames are stacked into one block-diagonal graph until it
    holds ``_BLOCK_PAIRS`` pairs or ``_BLOCK_NODES`` nodes, and csgraph labels
    each block's components in one call; a frame's count is the number of
    distinct labels among its agents.
    """
    pos = np.asarray(positions, dtype=float)
    if not radius > 0:
        raise ValueError("radius must be positive")
    n_frames, n = pos.shape[:2]
    max_frames = max(_BLOCK_NODES // max(n, 1), 1)
    counts = np.empty(n_frames, dtype=int)
    start, block, held = 0, [], 0
    for t, frame in enumerate(pos):
        pairs = cKDTree(frame).query_pairs(radius, output_type="ndarray")
        # each frame's agents get their own node range in the block
        block.append(pairs + (t - start) * n)
        held += len(pairs)
        if held >= _BLOCK_PAIRS or len(block) == max_frames or t == n_frames - 1:
            counts[start : t + 1] = _block_counts(np.concatenate(block), len(block), n)
            start, block, held = t + 1, [], 0
    return counts


def _block_counts(pairs: np.ndarray, n_frames: int, n: int) -> np.ndarray:
    """Component count per frame of ``n_frames`` frames of ``n`` nodes linked by ``pairs``.

    The graph goes to csgraph as a CSR matrix whose rows are grouped by a
    stable sort of the first node of each pair, so csgraph need not sort it.
    """
    m = n_frames * n
    rows = pairs[:, 0].astype(np.min_scalar_type(m - 1))
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    graph = csr_matrix((np.ones(len(pairs)), pairs[order, 1].astype(np.int32), indptr), shape=(m, m))
    n_labels, labels = connected_components(graph, directed=False)
    frame_of_label = np.empty(n_labels, dtype=np.intp)
    frame_of_label[labels] = np.arange(m) // n
    return np.bincount(frame_of_label, minlength=n_frames)


def coarse_observable(
    speed: np.ndarray,
    polarization: np.ndarray,
    components: np.ndarray,
    n_agents: int,
    weight_speed: float = 1.0 / 3.0,
    weight_polarization: float = 1.0 / 3.0,
) -> np.ndarray:
    """Convex combination of speed, polarization, and component fraction."""
    if not (weight_speed >= 0 and weight_polarization >= 0):
        raise ValueError("observable weights must be non-negative")
    if weight_speed + weight_polarization > 1.0:
        raise ValueError("observable weights must sum to at most 1")
    speed = np.asarray(speed, dtype=float)
    pol = np.asarray(polarization, dtype=float)
    comp = np.asarray(components, dtype=float)
    structure = 1.0 - weight_speed - weight_polarization
    x = weight_speed * speed + weight_polarization * pol + structure * comp / n_agents
    return np.clip(x, 0.0, 1.0)


def distance_matrix(series: np.ndarray) -> np.ndarray:
    """Pairwise absolute differences of a scalar series."""
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series must be nonempty")
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
    pol = polarization_series(maps)
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
