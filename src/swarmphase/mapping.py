"""Frame-to-frame agent correspondence reconstructed from positions alone.

Agent identities are not assumed to be preserved between frames.
All consecutive frame pairs are matched in one pass, each pair in three
stages:

1. every source agent proposes its nearest neighbor in the next frame
   (squared distances in blocks of at most the simulator's ``_BLOCK_CELLS``,
   ties broken toward the lowest target index);
2. proposals that do not collide are accepted outright; when several sources
   share a target, the source with the smallest displacement wins and the
   rest are left unmatched;
3. the leftover sources are matched greedily (in source order) to leftover
   targets by picking the displacement closest to the mean velocity of the
   already-matched agents; the r-th leftover source of every frame is
   placed in one pass.

The result is always a bijection, and every agent's velocity is the
displacement to its matched target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .sim import _BLOCK_CELLS, check_track


class LowConfidenceMatchWarning(UserWarning):
    """Raised when fewer than half the agents matched without conflicts."""


@dataclass
class CorrespondenceMap:
    """Permutation of agent indices between two consecutive frames.

    ``permutation[i] = j`` means source agent ``i`` maps to target agent
    ``j``. ``bijective`` marks the sources whose nearest-neighbor proposal
    was accepted without conflict; ``velocities[i]`` is the displacement of
    agent ``i`` to its matched target (units: length per step).

    The record of a whole run stacks every field along a leading step axis:
    an int index gives one step's map, and a slice a record of views.
    """

    step: int | np.ndarray
    permutation: np.ndarray
    bijective: np.ndarray
    velocities: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.permutation.shape[-1]

    def __len__(self) -> int:
        return len(self.step)

    def __getitem__(self, index) -> CorrespondenceMap:
        return CorrespondenceMap(*(getattr(self, f.name)[index] for f in fields(self)))


def _frame_pair(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The two frames as one ``(2, N, 2)`` track, checked by ``sim.check_track``."""
    pair = []
    for config, name in ((source, "source"), (target, "target")):
        pts = np.asarray(config, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"{name} must have shape (N, 2)")
        pair.append(pts)
    if pair[0].shape[0] != pair[1].shape[0]:
        raise ValueError("source and target must contain the same number of agents")
    return check_track(np.stack(pair))


def nearest_neighbor_map(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Nearest target index for every source agent, by plain Euclidean distance.

    Distance ties are broken toward the lowest target index. Coordinates are
    taken as they are, never folded into a periodic domain, so a track that
    wraps should be given unwrapped. The pair must pass ``sim.check_track``
    as a track of two frames.
    """
    pair = _frame_pair(source, target)
    return _nearest(pair[:1], pair[1:])[0]


def _nearest(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``nearest_neighbor_map`` of P frame pairs at once: ``(P, N, 2)`` in, candidates ``(P, N)`` out.

    ``np.argmin`` returns the first of equal minima, the lowest target index.
    """
    n_pairs, n = source.shape[:2]
    candidates = np.empty((n_pairs, n), dtype=np.intp)
    # whole frames per block while N*N fits, else one frame in runs of rows
    frames = max(_BLOCK_CELLS // max(n * n, 1), 1)
    rows = max(_BLOCK_CELLS // max(n, 1), 1)
    for f in range(0, n_pairs, frames):
        for r in range(0, n, rows):
            src, tgt = source[f : f + frames, r : r + rows], target[f : f + frames]
            dx = tgt[:, None, :, 0] - src[:, :, None, 0]
            dy = tgt[:, None, :, 1] - src[:, :, None, 1]
            dx *= dx
            dy *= dy
            dx += dy
            candidates[f : f + frames, r : r + rows] = np.argmin(dx, axis=2)
    return candidates


def extract_bijective_domain(candidates: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Mask of sources whose nearest-neighbor proposal is accepted.

    Among sources proposing the same target, the one with the smallest
    displacement is retained (ties toward the lowest source index).
    """
    candidates = np.asarray(candidates, dtype=int)
    distances = np.asarray(distances, dtype=float)
    n = candidates.shape[0]
    # the output is allocated below the sort's temporaries, so that freeing
    # them lets malloc return the top of its heap
    mask = np.zeros(n, dtype=bool)
    # lexsort is stable, so equal (target, distance) keys keep source order
    order = np.lexsort((distances, candidates))
    ranked = candidates[order]
    first_of_group = np.ones(n, dtype=bool)
    first_of_group[1:] = ranked[1:] != ranked[:-1]
    mask[order[first_of_group]] = True
    return mask


def _residual_match(
    permutation: np.ndarray,
    leftover: np.ndarray,
    source: np.ndarray,
    target: np.ndarray,
    mean_velocity: np.ndarray,
) -> None:
    """Greedy assignment of every frame's leftover sources, in place.

    Within a frame, leftover sources are visited in increasing index order;
    each takes the free target whose displacement is closest to the frame's
    ``mean_velocity`` (ties toward the lowest target index). One pass places
    the r-th leftover source of every frame.
    """
    counts = leftover.sum(axis=1)
    if not counts.any():
        return
    width = counts.max()
    # a leftover proposed a target that an accepted source holds, so the
    # targets proposed at all are the taken ones
    taken = np.zeros(leftover.shape, dtype=bool)
    taken[np.arange(len(leftover))[:, None], permutation] = True
    # a stable sort lists each frame's leftover sources, and its equally many
    # free targets, first and in index order; the padding columns are closed.
    # The cut columns are copied, so the whole sorts are freed
    sources = np.argsort(~leftover, axis=1, kind="stable")[:, :width].copy()
    free = np.argsort(taken, axis=1, kind="stable")[:, :width].copy()
    closed = np.arange(width) >= counts[:, None]
    for r in range(width):
        frames = np.flatnonzero(counts > r)
        rows = sources[frames, r]
        options = free[frames]
        deltas = target[frames[:, None], options] - source[frames, rows][:, None]
        deltas -= mean_velocity[frames][:, None]
        d2 = deltas[..., 0] * deltas[..., 0] + deltas[..., 1] * deltas[..., 1]
        d2[closed[frames]] = np.inf
        best = np.argmin(d2, axis=1)
        permutation[frames, rows] = options[np.arange(frames.size), best]
        closed[frames, best] = True


def _match(track: np.ndarray, first_step: int) -> CorrespondenceMap:
    """Correspondence record of every consecutive frame pair of a ``(T, N, 2)`` track."""
    n = track.shape[1]
    if n == 0:
        raise ValueError("correspondence needs at least 1 agent per frame, found 0")
    source, target = track[:-1], track[1:]
    pair = np.arange(len(source))[:, None]
    permutation = _nearest(source, target)
    velocities = target[pair, permutation]
    velocities -= source
    # the frame is the outermost key, so each frame keeps its own closest claimants
    mask = extract_bijective_domain(
        (permutation + n * pair).ravel(), np.linalg.norm(velocities, axis=2).ravel()
    ).reshape(permutation.shape)

    # every frame accepts at least one proposal; bincount sums each frame
    # from zero in source order, the bits of velocities[mask].mean(axis=0)
    accepted_frame = np.nonzero(mask)[0]
    accepted = velocities[mask]
    domain_sums = [np.bincount(accepted_frame, weights=accepted[:, a]) for a in (0, 1)]
    mu1 = np.stack(domain_sums, axis=1) / np.bincount(accepted_frame)[:, None]

    _residual_match(permutation, ~mask, source, target, mu1)
    frames, rows = np.nonzero(~mask)
    velocities[frames, rows] = target[frames, permutation[frames, rows]] - source[frames, rows]
    return CorrespondenceMap(np.arange(first_step, first_step + len(source)), permutation, mask, velocities)


def correspond(source: np.ndarray, target: np.ndarray, step: int = 1) -> CorrespondenceMap:
    """Full bijective correspondence between two consecutive frames."""
    return _match(_frame_pair(source, target), step)[0]


def velocities(dataset) -> CorrespondenceMap:
    """Correspondence record of every consecutive frame pair of the dataset's analysis track.

    Emits a ``LowConfidenceMatchWarning`` for steps where fewer than half the
    agents matched without conflicts. Distances are plain on either track: a
    wrapped track is matched as it stands, wrap jumps included. The dataset
    has checked its tracks with ``sim.check_track``.
    """
    track = dataset.analysis_track()
    if track.shape[0] < 2:
        raise ValueError("need at least 2 frames")
    maps = _match(track, 1)
    n = maps.n_agents
    matched = maps.bijective.sum(axis=1)
    for s in np.flatnonzero(matched < n / 2):
        warnings.warn(
            f"step {maps.step[s]}: only {matched[s]} of {n} agents matched without conflicts",
            LowConfidenceMatchWarning,
            stacklevel=2,
        )
    return maps


def canonicalize_order(positions: np.ndarray, maps: CorrespondenceMap) -> np.ndarray:
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
    for t, permutation in enumerate(maps.permutation):
        slots = permutation[slots]
        out[t + 1] = positions[t + 1][slots]
    return out
