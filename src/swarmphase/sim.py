"""Augmented Vicsek simulation of two-dimensional collective motion.

Agents live in a periodic box of size ``2L x 2H``. Each update step an agent
replaces its heading by the direction of the averaged (and optionally
rotated) unit headings of all neighbors within the interaction radius,
including itself, plus a uniform noise term. The agent then moves a distance
``speed * dt`` along its own (optionally rotated) heading. Per-agent, per-step
rotation matrices are what allow a subgroup to be steered away from the rest
so the group can split and rejoin.

Three ready-made schedules are provided:

- ``speed-switch``: the common speed jumps up for the middle third of the run.
- ``noise-switch``: the heading-noise amplitude jumps up for the middle third.
- ``split-rejoin``: half the agents are deflected by ``+gamma(t)``, the other
  half by ``-gamma(t)``, where ``gamma`` follows the tangent angle of a
  bump-shaped reference path, so the group splits into two and later merges.

The simulator records both wrapped positions (inside the box) and unwrapped
positions (raw accumulated displacement); downstream analysis prefers the
unwrapped track so that velocities are not corrupted by wrap jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

TWO_PI = 2.0 * math.pi

# Alignment vectors shorter than this are treated as zero (direction undefined).
ZERO_ALIGNMENT_TOL = 1e-12


def rotation_matrices(angles: np.ndarray) -> np.ndarray:
    """Stack of 2x2 rotation matrices, one per entry of ``angles``."""
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    out = np.empty(angles.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def wrap_positions(positions: np.ndarray, half_width: float, half_height: float) -> np.ndarray:
    """Map positions into ``[-L, L) x [-H, H)``."""
    lo = np.array([-half_width, -half_height])
    box = np.array([2.0 * half_width, 2.0 * half_height])
    return (positions - lo) % box + lo


def minimum_image(deltas: np.ndarray, half_width: float, half_height: float) -> np.ndarray:
    """Shortest periodic representative of displacement vectors."""
    box = np.array([2.0 * half_width, 2.0 * half_height])
    return deltas - box * np.round(deltas / box)


def into_box(points: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Coordinates modulo ``box``, inside ``[0, box)`` as a periodic k-d tree needs them."""
    # np.mod can round a tiny negative up to the box edge itself; fold it back
    shifted = np.mod(points, box)
    return np.where(shifted >= box, 0.0, shifted)


@dataclass
class SimParams:
    """Full description of one simulation run.

    Schedule arrays have one entry per update step (``n_steps - 1`` entries;
    index ``k`` drives the update from frame ``k+1`` to frame ``k+2`` in
    1-based frame counting); a scalar applies to every step. ``rotations``
    may be ``None``, meaning identity for every agent at every step.
    """

    n_agents: int
    n_steps: int
    half_width: float
    half_height: float
    speed_base: np.ndarray
    speed_jitter: float
    noise_low: np.ndarray
    noise_high: np.ndarray
    rotations: np.ndarray | None = None
    dt: float = 0.05
    interaction_radius: float = 1.0
    seed: int = 0
    phase_boundaries: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("n_agents must be at least 1")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if self.half_width <= 0 or self.half_height <= 0:
            raise ValueError("half_width and half_height must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.interaction_radius <= 0:
            raise ValueError("interaction_radius must be positive")
        n_updates = self.n_steps - 1
        for key in ("speed_base", "noise_low", "noise_high"):
            value = np.asarray(getattr(self, key), dtype=float)
            setattr(self, key, np.broadcast_to(value, (n_updates,)).copy())
        if np.any(self.noise_low > self.noise_high):
            raise ValueError("noise bounds must satisfy low <= high at every step")
        if self.rotations is not None:
            self.rotations = np.asarray(self.rotations, dtype=float)
            expected = (n_updates, self.n_agents, 2, 2)
            if self.rotations.shape != expected:
                raise ValueError(f"rotations must have shape {expected}, got {self.rotations.shape}")
            rtr = np.einsum("...ji,...jk->...ik", self.rotations, self.rotations)
            if not np.allclose(rtr, np.eye(2), atol=1e-12):
                raise ValueError("all scheduled rotation matrices must be orthogonal")
            det = (
                self.rotations[..., 0, 0] * self.rotations[..., 1, 1]
                - self.rotations[..., 0, 1] * self.rotations[..., 1, 0]
            )
            if not np.allclose(det, 1.0, atol=1e-12):
                raise ValueError("all scheduled rotation matrices must have determinant +1")


@dataclass
class TrajectoryDataset:
    """Ordered positions of a constant-size agent group over time.

    ``wrapped`` holds in-box positions, shape ``(T, N, 2)``. ``unwrapped``
    holds raw accumulated displacements when the data came from the
    simulator, otherwise ``None`` (e.g. data loaded from CSV).
    """

    wrapped: np.ndarray
    unwrapped: np.ndarray | None = None
    half_width: float | None = None
    half_height: float | None = None
    phase_boundaries: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        self.wrapped = np.asarray(self.wrapped, dtype=float)
        if self.wrapped.ndim != 3 or self.wrapped.shape[2] != 2:
            raise ValueError("positions must have shape (T, N, 2)")
        if self.unwrapped is not None:
            self.unwrapped = np.asarray(self.unwrapped, dtype=float)
            if self.unwrapped.shape != self.wrapped.shape:
                raise ValueError("wrapped and unwrapped tracks must have identical shape")

    @property
    def n_frames(self) -> int:
        return self.wrapped.shape[0]

    @property
    def n_agents(self) -> int:
        return self.wrapped.shape[1]

    def analysis_track(self, prefer_unwrapped: bool = True) -> np.ndarray:
        """Positions used by downstream analysis.

        The unwrapped track is returned when available and preferred, so that
        frame-to-frame displacements are free of periodic wrap jumps.
        """
        if prefer_unwrapped and self.unwrapped is not None:
            return self.unwrapped
        return self.wrapped


def _adjacency(
    positions: np.ndarray,
    radius: float,
    half_width: float | None,
    half_height: float | None,
    periodic: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor relation as ``(rows, cols)`` pair arrays, self-loops included.

    The pairs are sorted row-major: by row, then by column within a row. A
    k-d tree (periodic when ``periodic``) proposes every pair within a
    slightly enlarged radius, since it measures on shifted coordinates that
    round differently; the same minimum-image ``<= radius**2`` test as a
    dense pairwise check then decides membership, so the relation is exactly
    the dense one.
    """
    n = positions.shape[0]
    if periodic:
        box = np.array([2.0 * half_width, 2.0 * half_height])
        tree = cKDTree(into_box(positions, box), boxsize=box)
    else:
        tree = cKDTree(positions)
    pairs = tree.query_pairs(radius * (1.0 + 1e-9), output_type="ndarray")
    deltas = positions[pairs[:, 0]] - positions[pairs[:, 1]]
    if periodic:
        deltas = minimum_image(deltas, half_width, half_height)
    i, j = pairs[np.einsum("ij,ij->i", deltas, deltas) <= radius * radius].T
    # sorting the keys ``row * n + col`` sorts the pairs row-major
    keys = np.sort(np.concatenate((i * n + j, j * n + i, np.arange(n) * (n + 1))))
    return np.divmod(keys, n)


def neighbors_within(
    positions: np.ndarray,
    radius: float,
    half_width: float | None = None,
    half_height: float | None = None,
    periodic: bool = True,
) -> list[np.ndarray]:
    """Index sets of all agents within ``radius`` of each agent (self included).

    Uses the minimum-image distance when ``periodic``. The relation is
    symmetric and every agent is its own neighbor.
    """
    positions = np.asarray(positions, dtype=float)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if periodic and (half_width is None or half_height is None):
        raise ValueError("periodic neighbor search needs half_width and half_height")
    rows, cols = _adjacency(positions, radius, half_width, half_height, periodic)
    bounds = np.searchsorted(rows, np.arange(positions.shape[0] + 1))
    return [cols[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]


def step(
    wrapped: np.ndarray,
    unwrapped: np.ndarray,
    headings: np.ndarray,
    params: SimParams,
    step_index: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the group by one update step.

    Random draws happen in a fixed order (speed jitter first, heading noise
    second) so runs are reproducible for a given generator state. When an
    agent's averaged alignment vector vanishes, its previous heading is kept.
    """
    n = params.n_agents
    rows, cols = _adjacency(
        wrapped, params.interaction_radius, params.half_width, params.half_height, periodic=True
    )
    units = np.column_stack((np.cos(headings), np.sin(headings)))
    if params.rotations is None:
        deflected = units
    else:
        deflected = np.einsum("nij,nj->ni", params.rotations[step_index], units)

    # bincount sums each neighborhood in ascending index order from zero,
    # then the sums are divided: the same bits as deflected[neighbors].mean(axis=0)
    sums = [np.bincount(rows, weights=deflected[cols, a], minlength=n) for a in (0, 1)]
    alignment = np.column_stack(sums) / np.bincount(rows, minlength=n)[:, None]

    jitter = rng.uniform(-params.speed_jitter, params.speed_jitter, n)
    noise = rng.uniform(params.noise_low[step_index], params.noise_high[step_index], n)

    speeds = params.speed_base[step_index] + jitter
    displacement = (speeds * params.dt)[:, None] * deflected
    new_unwrapped = unwrapped + displacement
    new_wrapped = wrap_positions(wrapped + displacement, params.half_width, params.half_height)

    norms = np.linalg.norm(alignment, axis=1)
    new_headings = np.where(
        norms > ZERO_ALIGNMENT_TOL,
        np.arctan2(alignment[:, 1], alignment[:, 0]) + noise,
        headings,
    )
    return new_wrapped, new_unwrapped, new_headings


def simulate(params: SimParams) -> TrajectoryDataset:
    """Run the full schedule and record every frame.

    Initial headings are all zero; initial positions are uniform over a disk
    of radius 2 centered at ``(-L + 2, 0)``. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(params.seed)
    n, n_frames = params.n_agents, params.n_steps

    radii = 2.0 * np.sqrt(rng.random(n))
    angles = TWO_PI * rng.random(n)
    center = np.array([-params.half_width + 2.0, 0.0])
    start = center + np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))

    wrapped = np.empty((n_frames, n, 2))
    unwrapped = np.empty((n_frames, n, 2))
    unwrapped[0] = start
    wrapped[0] = wrap_positions(start, params.half_width, params.half_height)
    headings = np.zeros(n)

    for k in range(n_frames - 1):
        wrapped[k + 1], unwrapped[k + 1], headings = step(
            wrapped[k], unwrapped[k], headings, params, k, rng
        )

    return TrajectoryDataset(
        wrapped=wrapped,
        unwrapped=unwrapped,
        half_width=params.half_width,
        half_height=params.half_height,
        phase_boundaries=params.phase_boundaries,
    )


# ---------------------------------------------------------------------------
# Scenario schedules
# ---------------------------------------------------------------------------

def _middle_window(scenario: str, n_steps: int, inside: float, outside: float) -> np.ndarray:
    """Per-step schedule: ``inside`` during steps 50..99, ``outside`` elsewhere."""
    if n_steps < 100:
        raise ValueError(f"{scenario} schedule needs n_steps >= 100")
    # 1-based label of each update step; step t moves frame t to frame t+1
    t = np.arange(1, n_steps)
    return np.where((t >= 50) & (t < 100), inside, outside)


def scenario_speed_switch(
    n_agents: int = 50,
    n_steps: int = 150,
    half_width: float = 8.0,
    half_height: float = 5.0,
    dt: float = 0.05,
    seed: int = 0,
    slow_speed: float = 0.05,
    fast_speed: float = 0.1,
    speed_jitter: float = 0.01,
    noise_amplitude: float = 0.01,
) -> SimParams:
    """Speed doubles during steps 50..99, reverts at 100."""
    return SimParams(
        n_agents=n_agents,
        n_steps=n_steps,
        half_width=half_width,
        half_height=half_height,
        speed_base=_middle_window("speed-switch", n_steps, fast_speed, slow_speed),
        speed_jitter=speed_jitter,
        noise_low=-noise_amplitude,
        noise_high=noise_amplitude,
        dt=dt,
        seed=seed,
        phase_boundaries=(50, 100),
    )


def scenario_noise_switch(
    n_agents: int = 50,
    n_steps: int = 150,
    half_width: float = 6.0,
    half_height: float = 6.0,
    dt: float = 0.05,
    seed: int = 0,
    speed: float = 0.05,
    speed_jitter: float = 0.01,
    low_noise: float = 0.01,
    high_noise: float = 0.2,
) -> SimParams:
    """Heading-noise amplitude jumps from low to high during steps 50..99."""
    amp = _middle_window("noise-switch", n_steps, high_noise, low_noise)
    return SimParams(
        n_agents=n_agents,
        n_steps=n_steps,
        half_width=half_width,
        half_height=half_height,
        speed_base=speed,
        speed_jitter=speed_jitter,
        noise_low=-amp,
        noise_high=amp,
        dt=dt,
        seed=seed,
        phase_boundaries=(50, 100),
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def split_reference_path(n_steps: int) -> np.ndarray:
    """Bump-shaped reference path whose tangent steers the split.

    The horizontal coordinate sweeps -6..6 in ``n_steps`` uniform increments.
    The vertical coordinate is a difference of two sigmoids in normalized
    time (argument ``12 t / T``), rising to a plateau and falling back.
    """
    t = np.arange(1, n_steps + 1, dtype=float)
    x1 = 6.0 * (2.0 * t - n_steps) / n_steps
    arg = 12.0 * t / n_steps
    x2 = 5.0 * (_sigmoid(arg - 4.0) - _sigmoid(arg - 8.0))
    return np.column_stack((x1, x2))


def split_rotation_angles(path: np.ndarray) -> np.ndarray:
    """Tangent angle of each path segment, via the two-argument arctangent."""
    d = np.diff(np.asarray(path, dtype=float), axis=0)
    return np.arctan2(d[:, 1], d[:, 0])


def scenario_split_rejoin(
    n_agents: int = 50,
    n_steps: int = 220,
    half_width: float = 6.0,
    half_height: float = 6.0,
    dt: float = 0.05,
    seed: int = 0,
    speed: float = 0.05,
    speed_jitter: float = 0.01,
    noise_amplitude: float = 0.01,
) -> SimParams:
    """First half of the agents deflected by ``+gamma(t)``, second half by ``-gamma(t)``."""
    if n_agents % 2 != 0:
        raise ValueError("split-rejoin needs an even n_agents (two equal halves)")
    path = split_reference_path(n_steps)
    gamma = split_rotation_angles(path)
    first_half = (n_agents + 1) // 2
    rotations = np.empty((n_steps - 1, n_agents, 2, 2))
    rotations[:, :first_half] = rotation_matrices(gamma)[:, None, :, :]
    rotations[:, first_half:] = rotation_matrices(-gamma)[:, None, :, :]
    return SimParams(
        n_agents=n_agents,
        n_steps=n_steps,
        half_width=half_width,
        half_height=half_height,
        speed_base=speed,
        speed_jitter=speed_jitter,
        noise_low=-noise_amplitude,
        noise_high=noise_amplitude,
        rotations=rotations,
        dt=dt,
        seed=seed,
    )


SCENARIOS = {
    "speed-switch": scenario_speed_switch,
    "noise-switch": scenario_noise_switch,
    "split-rejoin": scenario_split_rejoin,
}


def make_scenario(name: str, **overrides) -> SimParams:
    """Build a named scenario schedule, applying keyword overrides."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})") from None
    return builder(**overrides)
