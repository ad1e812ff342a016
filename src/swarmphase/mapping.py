"""Frame-to-frame agent correspondence reconstructed from positions alone.

Agent identities are not assumed to be preserved between frames.
Consecutive frame pairs are matched a block of frames at a time, each pair
in three stages:

1. every source agent proposes its nearest neighbor in the next frame
   (every squared distance of a block of frames at once, ties broken toward
   the lowest target index);
2. proposals that do not collide are accepted outright; when several sources
   share a target, the source with the smallest displacement wins and the
   rest are left unmatched;
3. the leftover sources are matched greedily (in source order) to leftover
   targets by picking the displacement closest to the mean velocity of the
   already-matched agents; the r-th leftover source of every frame of a
   block is placed in one pass.

The result is always a bijection, and every agent's velocity is the
displacement to its matched target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np


# _match matches runs of frame pairs holding about this many agents at once:
# every pair's (N, 2) temporaries of a run are alive together, and on long
# tracks small runs are faster (N=100, T=1500 on a 2-core Xeon: 154 ms
# against 171 ms for one run of all frames)
_BLOCK_AGENTS = 1 << 12

# _nearest holds at most this many (source, target) squared distances at
# once: 512 KB per float64 temporary
_BLOCK_CELLS = 1 << 16


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
    mean_velocity: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.permutation.shape[-1]

    def __len__(self) -> int:
        return len(self.step)

    def __getitem__(self, index) -> CorrespondenceMap:
        return CorrespondenceMap(*(getattr(self, f.name)[index] for f in fields(self)))


def _frame_pair(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The two frames, checked, as one ``(2, N, 2)`` array."""
    pair = []
    for config, name in ((source, "source"), (target, "target")):
        pts = np.asarray(config, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"{name} must have shape (N, 2)")
        if not np.isfinite(pts).all():
            raise ValueError(f"{name} positions must be finite")
        pair.append(pts)
    if pair[0].shape[0] != pair[1].shape[0]:
        raise ValueError("source and target must contain the same number of agents")
    return np.stack(pair)


def nearest_neighbor_map(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Nearest target index for every source agent, by plain Euclidean distance.

    Distance ties are broken toward the lowest target index. Coordinates are
    taken as they are, never folded into a periodic domain, so a track that
    wraps should be given unwrapped.
    """
    pair = _frame_pair(source, target)
    return _nearest(pair[:1], pair[1:], np.empty((1, pair.shape[1]), dtype=np.intp))[0]


def _nearest(source: np.ndarray, target: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """``nearest_neighbor_map`` of P frame pairs at once, ``(P, N, 2)`` in, into ``candidates (P, N)``.

    ``np.argmin`` returns the first of equal minima, the lowest target index.
    """
    n_pairs, n = source.shape[:2]
    # whole frames per block while N*N fits, else one frame in runs of rows
    frames = max(_BLOCK_CELLS // max(n * n, 1), 1)
    rows = max(_BLOCK_CELLS // max(n, 1), 1)
    # far-apart finite points overflow to inf, which still compares as farthest
    with np.errstate(over="ignore"):
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
    order = np.lexsort((np.arange(n), distances, candidates))
    ranked = candidates[order]
    first_of_group = np.ones(n, dtype=bool)
    first_of_group[1:] = ranked[1:] != ranked[:-1]
    mask = np.zeros(n, dtype=bool)
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
    taken = np.zeros(leftover.shape, dtype=bool)
    taken[np.nonzero(~leftover)[0], permutation[~leftover]] = True
    # a stable sort lists each frame's leftover sources, and its equally many
    # free targets, first and in index order; the padding columns are closed
    sources = np.argsort(~leftover, axis=1, kind="stable")[:, :width]
    free = np.argsort(taken, axis=1, kind="stable")[:, :width]
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
        # when every free target is at d2 = inf, the lowest free one is the pick
        stuck = np.isinf(d2[np.arange(frames.size), best])
        best[stuck] = np.argmin(closed[frames[stuck]], axis=1)
        permutation[frames, rows] = options[np.arange(frames.size), best]
        closed[frames, best] = True


def _match(track: np.ndarray, first_step: int) -> CorrespondenceMap:
    """Correspondence record of every consecutive frame pair of a ``(T, N, 2)`` track.

    The record is allocated once; runs of frame pairs fill their slices of it in turn.
    """
    n_pairs, n = track.shape[0] - 1, track.shape[1]
    if n == 0:
        raise ValueError("correspondence needs at least 1 agent per frame, found 0")
    out = CorrespondenceMap(
        step=np.arange(first_step, first_step + n_pairs),
        permutation=np.empty((n_pairs, n), dtype=np.intp),
        bijective=np.empty((n_pairs, n), dtype=bool),
        velocities=np.empty((n_pairs, n, 2)),
        mean_velocity=np.empty((n_pairs, 2)),
    )
    block = max(_BLOCK_AGENTS // n, 1)
    sources, targets = track[:-1], track[1:]
    for start in range(0, n_pairs, block):
        chunk = slice(start, start + block)
        part, source, target = out[chunk], sources[chunk], targets[chunk]
        permutation, mask, velocities = part.permutation, part.bijective, part.velocities
        pair = np.arange(len(source))[:, None]
        _nearest(source, target, permutation)
        cand_disp = np.subtract(target[pair, permutation], source, out=velocities)
        # the frame is the outermost key, so each frame keeps its own closest claimants
        mask[...] = extract_bijective_domain(
            (permutation + n * pair).ravel(), np.linalg.norm(cand_disp, axis=2).ravel()
        ).reshape(mask.shape)

        # every frame accepts at least one proposal; bincount sums each frame
        # from zero in source order, the bits of velocities[mask].mean(axis=0)
        accepted_frame = np.nonzero(mask)[0]
        accepted = cand_disp[mask]
        domain_sums = [np.bincount(accepted_frame, weights=accepted[:, a]) for a in (0, 1)]
        mu1 = np.stack(domain_sums, axis=1) / np.bincount(accepted_frame)[:, None]

        _residual_match(permutation, ~mask, source, target, mu1)
        frames, rows = np.nonzero(~mask)
        velocities[frames, rows] = target[frames, permutation[frames, rows]] - source[frames, rows]
        velocities.mean(axis=1, out=part.mean_velocity)
    return out


def correspond(source: np.ndarray, target: np.ndarray, step: int = 1) -> CorrespondenceMap:
    """Full bijective correspondence between two consecutive frames."""
    return _match(_frame_pair(source, target), step)[0]


def velocities(dataset) -> CorrespondenceMap:
    """Correspondence record of every consecutive frame pair of the dataset's analysis track.

    Emits a ``LowConfidenceMatchWarning`` for steps where fewer than half the
    agents matched without conflicts. Distances are plain on either track: a
    wrapped track is matched as it stands, wrap jumps included.
    """
    track = dataset.analysis_track()
    if track.shape[0] < 2:
        raise ValueError("need at least 2 frames")
    if not np.isfinite(track).all():
        raise ValueError("track positions must be finite")
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
