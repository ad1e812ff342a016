"""Augmented Vicsek simulation of two-dimensional collective motion.

Agents live in a periodic box of size ``2L x 2H``. Each update step an agent
replaces its heading by the direction of the averaged (and optionally
rotated) unit headings of all neighbors within the interaction radius,
including itself, plus a noise term drawn uniformly from ``[-eta, eta]``,
where ``eta`` is the step's noise amplitude. The agent then moves a distance
``speed * dt`` along its own (optionally rotated) heading. Per-agent, per-step
rotation angles are what allow a subgroup to be steered away from the rest
so the group can split and rejoin.

Three ready-made schedules are provided:

- ``speed-switch``: the common speed jumps up for the middle third of the run.
- ``noise-switch``: the heading-noise amplitude jumps up for the middle third.
- ``split-rejoin``: half the agents are deflected by ``+gamma(t)``, the other
  half by ``-gamma(t)``, where ``gamma`` follows the tangent angle of a
  bump-shaped reference path, so the group splits into two and later merges.

The simulator records both wrapped positions (inside the box) and unwrapped
positions (raw accumulated displacement); downstream analysis reads the
unwrapped track so that velocities are not corrupted by wrap jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Alignment vectors shorter than this are treated as zero (direction undefined).
ZERO_ALIGNMENT_TOL = 1e-12

# largest |x| or |y| a trajectory may hold, simulated or loaded. It keeps
# Isomap's Gram matrix finite (see io.load_trajectory_csv), and no squared
# distance the matching or the component count forms overflows: below it
# each stays under about 3.2e281
MAX_COORDINATE = 1e140

# _adjacency, mapping._nearest, observables.interaction_epsilon (per
# coordinate) and observables.component_series hold at most this many cells
# (agent pairs) at once: 512 KB per float64 temporary
_BLOCK_CELLS = 1 << 16


def wrap_positions(positions: np.ndarray, half_width: float, half_height: float) -> np.ndarray:
    """Map positions into ``[-L, L) x [-H, H)``."""
    lo = np.array([-half_width, -half_height])
    box = np.array([2.0 * half_width, 2.0 * half_height])
    # np.mod can round a tiny negative up to the box edge itself; fold it back
    shifted = np.mod(positions - lo, box)
    return np.where(shifted >= box, 0.0, shifted) + lo


@dataclass
class SimParams:
    """Full description of one simulation run.

    Schedule arrays have one entry per update step (``n_steps - 1`` entries;
    index ``k`` drives the update from frame ``k+1`` to frame ``k+2`` in
    1-based frame counting); a scalar applies to every step. ``noise`` is the
    heading-noise amplitude: step ``k`` draws each agent's noise uniformly
    from ``[-noise[k], noise[k]]``. ``rotations`` holds the angle ``a`` by
    which each agent's heading ``h`` is turned at each step, shape
    ``(n_steps - 1, n_agents)``: the turned unit heading is
    ``(cos a cos h - sin a sin h, sin a cos h + cos a sin h)``. ``None``
    means no turn for any agent.
    """

    n_agents: int
    n_steps: int
    half_width: float
    half_height: float
    speed_base: np.ndarray
    speed_jitter: float
    noise: np.ndarray
    rotations: np.ndarray | None = None
    dt: float = 0.05
    interaction_radius: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("n_agents must be at least 1")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if self.half_width <= 0 or self.half_height <= 0:
            raise ValueError("half_width and half_height must be positive")
        for key in ("half_width", "half_height"):
            if not math.isfinite(2.0 * getattr(self, key)):
                raise ValueError(f"{key}: the box side 2 * {getattr(self, key)!r} is not finite")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not self.interaction_radius > 0:
            raise ValueError("interaction_radius must be positive")
        if not 0 <= self.speed_jitter < math.inf:
            raise ValueError("speed_jitter must be non-negative and finite")
        n_updates = self.n_steps - 1
        for key in ("speed_base", "noise"):
            value = np.asarray(getattr(self, key), dtype=float)
            setattr(self, key, np.broadcast_to(value, (n_updates,)).copy())
        if not np.isfinite(self.speed_base).all():
            raise ValueError("speed_base must be finite")
        # the longest step an agent can take; an infinite one would make NaN
        # positions (inf times a zero heading component) inside the step loop
        fastest, jitter, dt = float(np.abs(self.speed_base).max()), float(self.speed_jitter), float(self.dt)
        if not math.isfinite((fastest + jitter) * dt):
            raise ValueError(f"speed_base: the longest step ({fastest!r} + {jitter!r}) * {dt!r} is not finite")
        if not (np.isfinite(self.noise) & (self.noise >= 0)).all():
            raise ValueError("noise amplitudes must be finite and non-negative")
        # an amplitude of -0.0 passes the checks above, but numpy's uniform
        # refuses the range [0.0, -0.0]; abs makes it 0.0
        self.speed_jitter, self.noise = abs(self.speed_jitter), np.abs(self.noise)
        if self.rotations is not None:
            self.rotations = np.asarray(self.rotations, dtype=float)
            expected = (n_updates, self.n_agents)
            if self.rotations.shape != expected:
                raise ValueError(f"rotations must have shape {expected}, got {self.rotations.shape}")
            if not np.isfinite(self.rotations).all():
                raise ValueError("rotation angles must be finite")


@dataclass
class TrajectoryDataset:
    """Ordered positions of a constant-size agent group over time.

    ``wrapped`` holds in-box positions, shape ``(T, N, 2)``. ``unwrapped``
    holds raw accumulated displacements when the data came from the
    simulator, otherwise ``None`` (e.g. data loaded from CSV). Analysis
    measures plain distances on either track, so a wrapped track keeps its
    wrap jumps. Each track must pass ``check_track``, the unwrapped one first.
    """

    wrapped: np.ndarray
    unwrapped: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.unwrapped is not None:
            self.unwrapped = check_track(self.unwrapped)
        self.wrapped = check_track(self.wrapped)
        if self.unwrapped is not None and self.unwrapped.shape != self.wrapped.shape:
            raise ValueError("wrapped and unwrapped tracks must have identical shape")

    @property
    def n_frames(self) -> int:
        return self.wrapped.shape[0]

    @property
    def n_agents(self) -> int:
        return self.wrapped.shape[1]

    def analysis_track(self) -> np.ndarray:
        """Positions used by downstream analysis.

        The unwrapped track is returned when there is one, so that
        frame-to-frame displacements are free of periodic wrap jumps.
        """
        if self.unwrapped is not None:
            return self.unwrapped
        return self.wrapped


def _adjacency(
    positions: np.ndarray, radius: float, half_width: float, half_height: float
) -> tuple[np.ndarray, np.ndarray]:
    """Periodic neighbor relation as ``(rows, cols)`` pair arrays, self-loops included.

    The pairs are sorted row-major: by row, then by column within a row. Each
    block of rows is tested against every agent with the minimum-image rule
    ``dx*dx + dy*dy <= radius**2``, one axis at a time: each difference is
    reduced by the nearest multiple of its box side. That shift is applied only
    along an axis whose positions span at least half the box side. Below that,
    every difference has magnitude at most the span, less than half the side,
    so ``np.rint`` of its ratio to the side is +-0 and the shift would leave it
    unchanged (a zero's sign is lost when it is squared).
    """
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    n = max(positions.shape[0], 1)
    per_block = max(_BLOCK_CELLS // n, 1)
    # (coordinates, box side, shift?) per axis; np.ptp refuses an empty axis
    axes = [
        (positions[:, axis], 2.0 * half, len(positions) > 0 and np.ptp(positions[:, axis]) >= half)
        for axis, half in enumerate((half_width, half_height))
    ]
    keys = []
    # n >= 1, so no agents still make one (empty) block
    for start in range(0, n, per_block):
        squares = []
        for coords, width, wraps in axes:
            d = np.subtract.outer(coords[start : start + per_block], coords)
            if wraps:
                d -= width * np.rint(d / width)  # np.rint is np.round to 0 decimals
            squares.append(np.multiply(d, d, out=d))
        squares[0] += squares[1]
        # the key ``row * n + col`` of a pair is its row-major flat index
        keys.append(np.flatnonzero(squares[0] <= radius * radius) + start * n)
    keys = np.concatenate(keys)
    rows = keys // n
    return rows, keys - rows * n


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
    second) so runs are reproducible for a given generator state. Each unit
    heading ``(cos h, sin h)`` is turned by the agent's angle ``a`` for this
    step, written out as ``(c cos h - s sin h, s cos h + c sin h)`` with
    ``c, s = cos a, sin a``. When an agent's averaged alignment vector
    vanishes, its previous heading is kept.
    """
    n = params.n_agents
    rows, cols = _adjacency(wrapped, params.interaction_radius, params.half_width, params.half_height)
    cos_h, sin_h = np.cos(headings), np.sin(headings)
    if params.rotations is None:
        turned_x, turned_y = cos_h, sin_h
    else:
        c, s = np.cos(params.rotations[step_index]), np.sin(params.rotations[step_index])
        turned_x, turned_y = c * cos_h - s * sin_h, s * cos_h + c * sin_h

    # bincount sums each neighborhood in ascending index order from zero,
    # then the sums are divided: per axis, the same bits as the mean of the
    # neighbors' turned headings
    counts = np.bincount(rows, minlength=n)
    align_x = np.bincount(rows, weights=turned_x[cols], minlength=n) / counts
    align_y = np.bincount(rows, weights=turned_y[cols], minlength=n) / counts

    jitter = rng.uniform(-params.speed_jitter, params.speed_jitter, n)
    noise = rng.uniform(-params.noise[step_index], params.noise[step_index], n)

    lengths = (params.speed_base[step_index] + jitter) * params.dt
    displacement = np.empty_like(wrapped)
    np.multiply(lengths, turned_x, out=displacement[:, 0])
    np.multiply(lengths, turned_y, out=displacement[:, 1])
    new_unwrapped = unwrapped + displacement
    new_wrapped = wrap_positions(wrapped + displacement, params.half_width, params.half_height)

    # one addition per agent: the bits of np.linalg.norm along the last axis
    norms = np.sqrt(align_x * align_x + align_y * align_y)
    new_headings = np.where(norms > ZERO_ALIGNMENT_TOL, np.arctan2(align_y, align_x) + noise, headings)
    return new_wrapped, new_unwrapped, new_headings


def simulate(params: SimParams) -> TrajectoryDataset:
    """Run the full schedule and record every frame.

    Initial headings are all zero; initial positions are uniform over a disk
    of radius 2 centered at ``(-L + 2, 0)``. Deterministic for a fixed seed.
    A run in which any coordinate exceeds ``MAX_COORDINATE`` in magnitude
    fails with ``check_track``'s ``ValueError`` naming the first such frame.
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

    # an overflow makes a coordinate or a squared distance inf: the coordinate
    # fails the dataset's track check, and the distance is correctly no neighbour
    with np.errstate(over="ignore"):
        for k in range(n_frames - 1):
            wrapped[k + 1], unwrapped[k + 1], headings = step(
                wrapped[k], unwrapped[k], headings, params, k, rng
            )
    return TrajectoryDataset(wrapped=wrapped, unwrapped=unwrapped)


def check_track(positions: np.ndarray) -> np.ndarray:
    """``positions`` as a float ``(T, N, 2)`` array of finite coordinates at most
    ``MAX_COORDINATE`` in magnitude; raises ``ValueError`` on the first fault in
    frame order, naming the frame of a coordinate past the limit."""
    track = np.asarray(positions, dtype=float)
    if track.ndim != 3 or track.shape[2] != 2:
        raise ValueError("positions must have shape (T, N, 2)")
    # NaN fails the comparison too, so it is found in its place in frame order
    faults = np.argwhere(~(np.abs(track) <= MAX_COORDINATE))
    if len(faults):
        value = float(track[tuple(faults[0])])
        if not math.isfinite(value):
            raise ValueError("positions must be finite")
        raise ValueError(f"frame {faults[0, 0] + 1}: coordinate {value!r} exceeds 1e140 in magnitude")
    return track


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
        noise=noise_amplitude,
        dt=dt,
        seed=seed,
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
    return SimParams(
        n_agents=n_agents,
        n_steps=n_steps,
        half_width=half_width,
        half_height=half_height,
        speed_base=speed,
        speed_jitter=speed_jitter,
        noise=_middle_window("noise-switch", n_steps, high_noise, low_noise),
        dt=dt,
        seed=seed,
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
    # one column per agent: +gamma for the first half, -gamma for the second
    rotations = np.repeat(np.column_stack((gamma, -gamma)), n_agents // 2, axis=1)
    return SimParams(
        n_agents=n_agents,
        n_steps=n_steps,
        half_width=half_width,
        half_height=half_height,
        speed_base=speed,
        speed_jitter=speed_jitter,
        noise=noise_amplitude,
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
