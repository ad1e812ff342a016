"""Frame-to-frame agent correspondence reconstructed from positions alone.

Agent identities are not assumed to be preserved between frames. For each
consecutive frame pair the match is built in three stages:

1. every source agent proposes its nearest neighbor in the next frame
   (KD-tree lookup, ties broken toward the lowest target index);
2. proposals that do not collide are accepted outright; when several sources
   share a target, the source with the smallest displacement wins and the
   rest are left unmatched;
3. the leftover sources are matched greedily (in source order) to leftover
   targets by picking the displacement closest to the mean velocity of the
   already-matched agents.

The result is always a bijection, and every agent's velocity is the
displacement to its matched target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


class LowConfidenceMatchWarning(UserWarning):
    """Raised when fewer than half the agents matched without conflicts."""


@dataclass
class CorrespondenceMap:
    """Permutation of agent indices between two consecutive frames.

    ``permutation[i] = j`` means source agent ``i`` maps to target agent
    ``j``. ``bijective`` marks the sources whose nearest-neighbor proposal
    was accepted without conflict; ``velocities[i]`` is the displacement of
    agent ``i`` to its matched target (units: length per step).
    """

    step: int
    permutation: np.ndarray
    bijective: np.ndarray
    velocities: np.ndarray
    domain_mean_velocity: np.ndarray
    mean_velocity: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.permutation.shape[0]


def _as_points(config: np.ndarray, name: str) -> np.ndarray:
    pts = np.asarray(config, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{name} must have shape (N, 2)")
    return pts


def _box_displacements(deltas: np.ndarray, box_size: np.ndarray | None) -> np.ndarray:
    if box_size is None:
        return deltas
    return deltas - box_size * np.round(deltas / box_size)


def _into_box(points: np.ndarray, box: np.ndarray) -> np.ndarray:
    # np.mod can round a tiny negative up to the box edge itself; fold it back
    shifted = np.mod(points, box)
    return np.where(shifted >= box, 0.0, shifted)


def nearest_neighbor_map(
    source: np.ndarray, target: np.ndarray, box_size: tuple[float, float] | None = None
) -> np.ndarray:
    """Nearest target index for every source agent.

    Distance ties are broken toward the lowest target index. When
    ``box_size`` is given, distances use the periodic minimum image and all
    coordinates are interpreted modulo the box.
    """
    source = _as_points(source, "source")
    target = _as_points(target, "target")
    if source.shape[0] != target.shape[0]:
        raise ValueError("source and target must contain the same number of agents")
    n = target.shape[0]
    if n == 1:
        return np.zeros(1, dtype=int)

    box = np.asarray(box_size, dtype=float) if box_size is not None else None
    if box is None:
        tree = cKDTree(target)
        dist, idx = tree.query(source, k=2)
    else:
        tree = cKDTree(_into_box(target, box), boxsize=box)
        dist, idx = tree.query(_into_box(source, box), k=2)
    candidates = idx[:, 0].astype(int)

    # An exact distance tie makes the KD-tree's pick order-dependent; redo
    # those rows by brute force so the lowest index always wins.
    for i in np.flatnonzero(dist[:, 0] == dist[:, 1]):
        deltas = _box_displacements(target - source[i], box)
        d2 = np.einsum("ij,ij->i", deltas, deltas)
        candidates[i] = int(np.flatnonzero(d2 == d2.min())[0])
    return candidates


def extract_bijective_domain(candidates: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Mask of sources whose nearest-neighbor proposal is accepted.

    Among sources proposing the same target, the one with the smallest
    displacement is retained (ties toward the lowest source index).
    """
    candidates = np.asarray(candidates, dtype=int)
    distances = np.asarray(distances, dtype=float)
    n = candidates.shape[0]
    order = np.lexsort((np.arange(n), distances, candidates))
    ranked = candidates[order]
    first_of_group = np.ones(n, dtype=bool)
    first_of_group[1:] = ranked[1:] != ranked[:-1]
    mask = np.zeros(n, dtype=bool)
    mask[order[first_of_group]] = True
    return mask


def residual_match(
    source_indices: np.ndarray,
    target_indices: np.ndarray,
    source: np.ndarray,
    target: np.ndarray,
    mean_velocity: np.ndarray,
    box_size: tuple[float, float] | None = None,
) -> np.ndarray:
    """Greedy assignment of leftover sources to leftover targets.

    Sources are visited in increasing index order; each takes the remaining
    target whose displacement is closest to ``mean_velocity`` (ties toward
    the lowest target index). Returns the matched target per source, aligned
    with ``source_indices``.
    """
    source_indices = np.asarray(source_indices, dtype=int)
    target_indices = np.asarray(target_indices, dtype=int)
    if source_indices.shape != target_indices.shape:
        raise ValueError("unmatched source and target counts must agree")
    box = np.asarray(box_size, dtype=float) if box_size is not None else None
    mu = np.asarray(mean_velocity, dtype=float)

    remaining = sorted(target_indices.tolist())
    out = np.empty_like(source_indices)
    for pos, i in enumerate(source_indices):
        options = np.asarray(remaining, dtype=int)
        deltas = _box_displacements(target[options] - source[i], box) - mu
        best = int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))
        out[pos] = remaining.pop(best)
    return out


def correspond(
    source: np.ndarray,
    target: np.ndarray,
    step: int = 1,
    fallback_mean: np.ndarray | None = None,
    box_size: tuple[float, float] | None = None,
) -> CorrespondenceMap:
    """Full bijective correspondence between two consecutive frames.

    ``fallback_mean`` substitutes for the conflict-free mean velocity when no
    proposal survives stage two (degenerate collisions); it defaults to zero.
    """
    source = _as_points(source, "source")
    target = _as_points(target, "target")
    if source.shape[0] != target.shape[0]:
        raise ValueError("source and target must contain the same number of agents")
    n = source.shape[0]
    box = np.asarray(box_size, dtype=float) if box_size is not None else None

    candidates = nearest_neighbor_map(source, target, box_size=box_size)
    cand_disp = _box_displacements(target[candidates] - source, box)
    mask = extract_bijective_domain(candidates, np.linalg.norm(cand_disp, axis=1))

    permutation = np.full(n, -1, dtype=int)
    velocities = np.empty((n, 2))
    permutation[mask] = candidates[mask]
    velocities[mask] = cand_disp[mask]

    if mask.any():
        mu1 = velocities[mask].mean(axis=0)
    elif fallback_mean is not None:
        mu1 = np.asarray(fallback_mean, dtype=float)
    else:
        mu1 = np.zeros(2)

    leftovers = np.flatnonzero(~mask)
    if leftovers.size:
        free_targets = np.setdiff1d(np.arange(n), permutation[mask])
        assigned = residual_match(leftovers, free_targets, source, target, mu1, box_size=box_size)
        permutation[leftovers] = assigned
        velocities[leftovers] = _box_displacements(target[assigned] - source[leftovers], box)

    return CorrespondenceMap(
        step=step,
        permutation=permutation,
        bijective=mask,
        velocities=velocities,
        domain_mean_velocity=mu1,
        mean_velocity=velocities.mean(axis=0),
    )


def velocities(
    dataset,
    prefer_unwrapped: bool = True,
    periodic_matching: bool = False,
) -> list[CorrespondenceMap]:
    """Correspondence maps for every consecutive frame pair of a dataset.

    Emits a ``LowConfidenceMatchWarning`` for steps where fewer than half the
    agents matched without conflicts. With ``periodic_matching`` distances use
    the minimum image of the dataset's box (intended for wrapped-only data).
    """
    track = dataset.analysis_track(prefer_unwrapped)
    if track.shape[0] < 2:
        raise ValueError("need at least 2 frames")
    box_size = None
    if periodic_matching:
        if dataset.half_width is None or dataset.half_height is None:
            raise ValueError("periodic matching needs the dataset box size")
        box_size = (2.0 * dataset.half_width, 2.0 * dataset.half_height)

    maps: list[CorrespondenceMap] = []
    previous_mean: np.ndarray | None = None
    n = track.shape[1]
    for t in range(track.shape[0] - 1):
        m = correspond(track[t], track[t + 1], step=t + 1, fallback_mean=previous_mean, box_size=box_size)
        matched = int(m.bijective.sum())
        if matched < n / 2:
            warnings.warn(
                f"step {t + 1}: only {matched} of {n} agents matched without conflicts",
                LowConfidenceMatchWarning,
                stacklevel=2,
            )
        previous_mean = m.mean_velocity
        maps.append(m)
    return maps


def canonicalize_order(positions: np.ndarray, maps: list[CorrespondenceMap]) -> np.ndarray:
    """Reorder every frame so one slot follows one physical agent.

    Slot ``i`` starts as agent ``i`` of the first frame and is threaded
    through the per-step permutations, which makes configuration vectors
    comparable across frames even when the input ordering was arbitrary.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.shape[0] != len(maps) + 1:
        raise ValueError("need exactly one correspondence map per frame pair")
    out = np.empty_like(positions)
    out[0] = positions[0]
    slots = np.arange(positions.shape[1])
    for t, m in enumerate(maps):
        slots = m.permutation[slots]
        out[t + 1] = positions[t + 1][slots]
    return out
