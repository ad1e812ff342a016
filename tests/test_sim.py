import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmphase import manifold, mapping, observables, sim


def brute_neighbors(positions, radius, L, H):
    """Exhaustive pairwise minimum-image neighbor check."""
    n = len(positions)
    out = []
    for i in range(n):
        members = []
        for j in range(n):
            d = positions[i] - positions[j]
            d = d - np.array([2 * L, 2 * H]) * np.round(d / np.array([2 * L, 2 * H]))
            if np.hypot(*d) <= radius:
                members.append(j)
        out.append(members)
    return out


def minimum_image(deltas, half_width, half_height):
    """Shortest periodic representative of displacement vectors."""
    box = np.array([2.0 * half_width, 2.0 * half_height])
    return deltas - box * np.round(deltas / box)


def matrix_turn(angles, units):
    """Each unit vector times the 2x2 rotation matrix of its angle.

    The product is summed column by column, because a numpy reduction starts
    from +0.0 and would turn a -0.0 result into +0.0.
    """
    c, s = np.cos(angles), np.sin(angles)
    turns = np.stack((np.stack((c, -s), axis=-1), np.stack((s, c), axis=-1)), axis=-2)
    return turns[..., 0] * units[:, None, 0] + turns[..., 1] * units[:, None, 1]


def neighbor_lists(positions, radius, L, H):
    """``sim._adjacency`` as one list of neighbor indices per agent."""
    rows, cols = sim._adjacency(np.asarray(positions, dtype=float), radius, L, H)
    return [cols[rows == i].tolist() for i in range(len(positions))]


class TestNeighbors:
    def test_single_agent_is_own_neighbor(self):
        assert neighbor_lists(np.array([[0.3, -0.2]]), 1.0, 8.0, 5.0) == [[0]]

    def test_periodic_wrap_pair(self):
        # agents near opposite vertical edges are mutual neighbors through the wrap
        L = 8.0
        pos = np.array([[-L + 0.1, 0.0], [L - 0.1, 0.0]])
        assert neighbor_lists(pos, 1.0, L, 5.0) == [[0, 1], [0, 1]]

    def test_three_agents_example(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
        assert neighbor_lists(pos, 1.0, 8.0, 8.0) == [[0, 1], [0, 1], [2]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            L, H = 4.0, 3.0
            pos = np.column_stack((rng.uniform(-L, L, n), rng.uniform(-H, H, n)))
            assert neighbor_lists(pos, 1.2, L, H) == brute_neighbors(pos, 1.2, L, H)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        pos = np.column_stack((rng.uniform(-6, 6, 30), rng.uniform(-6, 6, 30)))
        nbrs = neighbor_lists(pos, 1.0, 6.0, 6.0)
        for i, members in enumerate(nbrs):
            for j in members:
                assert i in nbrs[j]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_positions(self, value):
        pos = np.array([[0.0, 0.0], [0.5, value]])
        with pytest.raises(ValueError, match="must be finite"):
            sim._adjacency(pos, 1.0, 3.0, 2.0)

    def test_blocks_of_rows_match_brute_force(self, monkeypatch):
        # 25 agents in blocks of 50 cells: two rows per block, 13 blocks
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 50)
        rng = np.random.default_rng(12)
        L, H = 3.0, 2.0
        pos = np.column_stack((rng.uniform(-L, L, 25), rng.uniform(-H, H, 25)))
        assert neighbor_lists(pos, 1.5, L, H) == brute_neighbors(pos, 1.5, L, H)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="^interaction_radius must be positive$"):
            single_agent_params(interaction_radius=0.0)


def always_shifted_pairs(positions, radius, L, H):
    """``sim._adjacency``'s pairs with the minimum-image shift applied on both axes, whatever their span."""
    squares = []
    for axis, width in enumerate((2.0 * L, 2.0 * H)):
        d = np.subtract.outer(positions[:, axis], positions[:, axis])
        d -= width * np.rint(d / width)
        squares.append(d * d)
    return np.divmod(np.flatnonzero(squares[0] + squares[1] <= radius * radius), max(len(positions), 1))


def assert_same_pairs(positions, radius, L, H):
    rows, cols = sim._adjacency(positions, radius, L, H)
    want_rows, want_cols = always_shifted_pairs(positions, radius, L, H)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert rows.dtype == want_rows.dtype and cols.dtype == want_cols.dtype
    return rows, cols


class TestShiftRule:
    """``_adjacency`` shifts only an axis whose positions span at least half the box side."""

    @pytest.mark.parametrize("placement", ["mid-box", "seam"])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    def test_span_one_ulp_from_half_the_side(self, axis, offset, placement):
        # two agents a span apart along one axis, around the box centre or
        # straddling the seam at -half; the radius is the half side, so one
        # ulp above it the pair is linked only through the shift
        L, H = 3.0, 2.0
        half = (L, H)[axis]
        span = {-1: np.nextafter(half, 0.0), 0: half, 1: np.nextafter(half, np.inf)}[offset]
        start = {"mid-box": -0.5, "seam": -1.5}[placement] * half
        pos = np.zeros((2, 2))
        pos[:, axis] = start, start + span
        assert np.ptp(pos[:, axis]) == span
        rows, _ = assert_same_pairs(pos, half, L, H)
        assert len(rows) == 4

    @pytest.mark.parametrize("axis", [0, 1], ids=["x-straddles", "y-straddles"])
    def test_one_axis_straddles_the_seam(self, axis):
        # a compact group cut by the seam of one axis only: its pairs across
        # that seam are linked through the shift, the other axis is not shifted
        L, H = 3.0, 2.0
        half = (L, H)[axis]
        rng = np.random.default_rng(axis)
        pos = rng.uniform(-0.4, 0.4, (16, 2))
        pos[:, axis] = np.where(pos[:, axis] < 0.0, half, -half) + pos[:, axis]
        assert np.ptp(pos[:, axis]) >= half and np.ptp(pos[:, 1 - axis]) < (L, H)[1 - axis]
        rows, cols = assert_same_pairs(pos, 1.0, L, H)
        side = pos[:, axis] > 0.0
        assert (side[rows] != side[cols]).any()

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_agent_or_one(self, n):
        rows, cols = assert_same_pairs(np.full((n, 2), 2.5), 1.0, 3.0, 2.0)
        assert rows.tolist() == cols.tolist() == list(range(n))

    def test_groups_about_half_the_side_wide(self):
        # extents from half to one and a half times the half side, anywhere in or around the box
        rng = np.random.default_rng(21)
        L, H = 3.0, 2.0
        for _ in range(40):
            n = int(rng.integers(2, 20))
            extent = rng.uniform(0.5, 1.5, 2) * (L, H)
            pos = rng.uniform(-1.5, 1.5, 2) * (L, H) + rng.uniform(0.0, 1.0, (n, 2)) * extent
            assert_same_pairs(pos, 1.2, L, H)


def single_agent_params(**kw):
    defaults = dict(
        n_agents=1,
        n_steps=2,
        half_width=8.0,
        half_height=5.0,
        speed_base=np.array([0.05]),
        speed_jitter=0.0,
        noise=np.array([0.0]),
        dt=0.05,
    )
    defaults.update(kw)
    return sim.SimParams(**defaults)


class TestStep:
    def test_single_agent_displacement(self):
        params = single_agent_params()
        rng = np.random.default_rng(0)
        w, u, h = sim.step(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1), params, 0, rng)
        assert np.allclose(u, [[0.0025, 0.0]], atol=1e-15)
        assert h[0] == 0.0

    def test_two_neighbors_average_heading(self):
        params = single_agent_params(n_agents=2)
        pos = np.array([[0.0, 0.0], [0.1, 0.0]])
        headings = np.array([0.0, math.pi / 2])
        rng = np.random.default_rng(0)
        _, _, new_headings = sim.step(pos, pos.copy(), headings, params, 0, rng)
        assert np.allclose(new_headings, math.pi / 4, atol=1e-12)

    def test_displacement_norm_is_speed_times_dt(self):
        rng = np.random.default_rng(7)
        p = sim.scenario_split_rejoin(n_agents=10, n_steps=120, seed=7)
        ds = sim.simulate(p)
        steps = np.diff(ds.unwrapped, axis=0)
        norms = np.linalg.norm(steps, axis=2)
        assert np.all(norms <= (p.speed_base[:, None] + p.speed_jitter) * p.dt + 1e-12)
        assert np.all(norms >= (p.speed_base[:, None] - p.speed_jitter) * p.dt - 1e-12)

    def test_turn_matches_the_rotation_matrix_product_bit_for_bit(self):
        rng = np.random.default_rng(3)
        # every pairing of the angles 0.0, -0.0, +-pi/2 with the headings +-0.0
        angles = np.concatenate((rng.uniform(-7, 7, 64), np.repeat([0.0, -0.0, math.pi / 2, -math.pi / 2], 2)))
        headings = np.concatenate((rng.uniform(-7, 7, 64), np.tile([0.0, -0.0], 4)))
        n = len(angles)
        params = single_agent_params(n_agents=n, speed_base=1.0, dt=1.0, rotations=angles[None])
        # speed * dt is exactly 1 and the track starts at -0.0, so the new
        # unwrapped position is the turned unit heading, signed zeros included
        _, turned, _ = sim.step(np.zeros((n, 2)), np.full((n, 2), -0.0), headings, params, 0, rng)
        want = matrix_turn(angles, np.column_stack((np.cos(headings), np.sin(headings))))
        assert np.signbit(want[want == 0.0]).any()
        assert np.array_equal(turned.view(np.int64), want.view(np.int64))

    def test_zero_alignment_keeps_heading(self):
        # two agents heading exactly opposite: the mean direction cancels
        params = single_agent_params(n_agents=2)
        pos = np.array([[0.0, 0.0], [0.1, 0.0]])
        headings = np.array([0.0, math.pi])
        rng = np.random.default_rng(0)
        _, _, new_headings = sim.step(pos, pos.copy(), headings, params, 0, rng)
        assert new_headings[0] == 0.0
        assert new_headings[1] == math.pi


class TestSchedules:
    def test_speed_switch_ranges(self):
        p = sim.scenario_speed_switch()
        # 1-based step t maps to index t-1
        assert p.speed_base[48] == 0.05
        assert p.speed_base[49] == 0.1
        assert p.speed_base[148] == 0.05
        assert p.speed_jitter == 0.01
        # realized speeds stay inside the scheduled bands
        ds = sim.simulate(p)
        norms = np.linalg.norm(np.diff(ds.unwrapped, axis=0), axis=2) / p.dt
        assert np.all(norms[48] >= 0.04) and np.all(norms[48] <= 0.06)
        assert np.all(norms[49] >= 0.09) and np.all(norms[49] <= 0.11)
        assert np.all(norms[148] >= 0.04) and np.all(norms[148] <= 0.06)

    def test_speed_switch_rejects_short_run(self):
        with pytest.raises(ValueError, match="^speed-switch schedule needs n_steps >= 100$"):
            sim.scenario_speed_switch(n_steps=99)

    def test_noise_switch_bounds(self):
        p = sim.scenario_noise_switch()
        assert p.noise[9] == 0.01
        assert p.noise[74] == 0.2
        assert p.noise[119] == 0.01
        with pytest.raises(ValueError, match="^noise-switch schedule needs n_steps >= 100$"):
            sim.scenario_noise_switch(n_steps=80)

    @pytest.mark.parametrize("n_steps", [100, 101, 150, 600])
    def test_switch_schedules_are_the_middle_window(self, n_steps):
        # 1-based step t drives frame t to t+1; steps 50..99 are switched
        t = np.arange(1, n_steps)
        middle = (t >= 50) & (t < 100)
        speed = sim.scenario_speed_switch(n_steps=n_steps)
        assert np.array_equal(speed.speed_base, np.where(middle, 0.1, 0.05))
        assert np.array_equal(speed.noise, np.where(middle, 0.01, 0.01))
        noise = sim.scenario_noise_switch(n_steps=n_steps)
        assert np.array_equal(noise.speed_base, np.where(middle, 0.05, 0.05))
        assert np.array_equal(noise.noise, np.where(middle, 0.2, 0.01))

    def test_split_rejects_odd_agents(self):
        with pytest.raises(ValueError):
            sim.scenario_split_rejoin(n_agents=49)

    def test_split_path_shape(self):
        path = sim.split_reference_path(220)
        assert path[-1, 0] == pytest.approx(6.0)
        spacing = np.diff(path[:, 0])
        assert np.allclose(spacing, 12.0 / 220)

    def test_split_halves_are_transposed_rotations(self):
        # the turn by -a is the transpose of the turn by a
        p = sim.scenario_split_rejoin(n_agents=50, n_steps=220)
        assert np.array_equal(p.rotations[:, 0], -p.rotations[:, -1])

    @pytest.mark.parametrize("n_agents, n_steps", [(2, 2), (10, 120), (50, 220), (60, 600)])
    def test_split_turns_are_the_two_halves_matrices(self, n_agents, n_steps):
        # each half turns by one angle per step, broadcast over its agents
        gamma = sim.split_rotation_angles(sim.split_reference_path(n_steps))
        half = n_agents // 2
        p = sim.scenario_split_rejoin(n_agents=n_agents, n_steps=n_steps)
        assert p.rotations.shape == (n_steps - 1, n_agents)
        assert (p.rotations[:, :half] == gamma[:, None]).all()
        assert (p.rotations[:, half:] == -gamma[:, None]).all()
        assert np.array_equal(p.rotations[:, half:], -p.rotations[:, :half])

    def test_flat_tangent_gives_zero_angle(self):
        path = np.column_stack((np.arange(5.0), np.ones(5)))
        assert np.allclose(sim.split_rotation_angles(path), 0.0)

    def test_literal_sigmoid_saturates(self):
        # the normalized argument 12 t / T rises to a plateau; the literal
        # T/12 * t would saturate both sigmoids at once and leave a flat path
        bump = sim.split_reference_path(220)
        assert np.max(bump[:, 1]) > 3.0

    def test_make_scenario_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            sim.make_scenario("zigzag")


class TestSimulate:
    def test_deterministic_for_seed(self):
        p1 = sim.scenario_speed_switch(n_agents=12, n_steps=110, seed=42)
        p2 = sim.scenario_speed_switch(n_agents=12, n_steps=110, seed=42)
        a, b = sim.simulate(p1), sim.simulate(p2)
        assert np.array_equal(a.wrapped, b.wrapped)
        assert np.array_equal(a.unwrapped, b.unwrapped)

    def test_initial_disk(self):
        p = sim.scenario_noise_switch(n_agents=40, n_steps=100 + 1, seed=9)
        ds = sim.simulate(p)
        center = np.array([-p.half_width + 2.0, 0.0])
        assert np.all(np.linalg.norm(ds.unwrapped[0] - center, axis=1) <= 2.0 + 1e-12)

    def test_zero_noise_stays_aligned(self):
        p = single_agent_params(
            n_agents=8,
            n_steps=40,
            speed_base=np.full(39, 0.05),
            noise=np.zeros(39),
        )
        ds = sim.simulate(p)
        steps = np.diff(ds.unwrapped, axis=0)
        # all headings stay at zero: displacement is purely +x
        assert np.allclose(steps[:, :, 1], 0.0)
        assert np.all(steps[:, :, 0] > 0)
        # polarization of simulated velocities is exactly 1
        units = steps / np.linalg.norm(steps, axis=2, keepdims=True)
        pol = np.linalg.norm(units.sum(axis=1), axis=1) / p.n_agents
        assert np.allclose(pol, 1.0, atol=1e-12)

    def test_wrapped_inside_box_and_consistent(self):
        p = sim.scenario_speed_switch(n_agents=15, n_steps=120, seed=3, dt=5.0)
        ds = sim.simulate(p)
        L, H = p.half_width, p.half_height
        assert np.all(ds.wrapped[..., 0] >= -L) and np.all(ds.wrapped[..., 0] < L)
        assert np.all(ds.wrapped[..., 1] >= -H) and np.all(ds.wrapped[..., 1] < H)
        multiples = (ds.unwrapped - ds.wrapped) / np.array([2 * L, 2 * H])
        assert np.allclose(multiples, np.round(multiples), atol=1e-9)

    def test_analysis_track_prefers_unwrapped(self):
        ds = sim.simulate(sim.scenario_speed_switch(n_agents=4, n_steps=105, seed=0))
        assert ds.analysis_track() is ds.unwrapped
        assert replace(ds, unwrapped=None).analysis_track() is ds.wrapped


# every entry that takes a track, each called on a (T, N, 2)-like stack
TRACK_ENTRIES = {
    "TrajectoryDataset": lambda track: sim.TrajectoryDataset(wrapped=track),
    "correspond": lambda track: mapping.correspond(track[0], track[1]),
    "nearest_neighbor_map": lambda track: mapping.nearest_neighbor_map(track[0], track[1]),
    "interaction_epsilon": observables.interaction_epsilon,
    "component_series": lambda track: observables.component_series(track, 1.0),
    "configuration_matrix": manifold.configuration_matrix,
}


class TestCheckTrack:
    @pytest.mark.parametrize("entry", TRACK_ENTRIES)
    @pytest.mark.parametrize("fault", ["three-axes", "nan", "beyond-limit"])
    def test_every_entry_rejects_a_bad_track(self, entry, fault):
        track = np.zeros((2, 3, 3 if fault == "three-axes" else 2))
        track[1, 2, 1] = {"three-axes": 0.0, "nan": np.nan, "beyond-limit": 1e141}[fault]
        message = {
            "three-axes": "positions must have shape (T, N, 2)",
            "nan": "positions must be finite",
            "beyond-limit": "frame 2: coordinate 1e+141 exceeds 1e140 in magnitude",
        }[fault]
        if fault == "three-axes" and entry in ("correspond", "nearest_neighbor_map"):
            message = "source must have shape (N, 2)"  # the pair entries name the side
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TRACK_ENTRIES[entry](track)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            (np.nan, 1e141, "positions must be finite"),
            (-np.inf, 1e141, "positions must be finite"),
            (-2e141, np.nan, "frame 2: coordinate -2e+141 exceeds 1e140 in magnitude"),
        ],
        ids=["nan-first", "inf-first", "beyond-limit-first"],
    )
    def test_the_first_fault_in_frame_order_is_reported(self, first, second, message):
        track = np.zeros((3, 2, 2))
        track[1, 1, 1], track[2, 0, 0] = first, second
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim.check_track(track)

    def test_the_unwrapped_track_is_checked_first(self):
        track = np.zeros((2, 2, 2))
        with pytest.raises(ValueError, match="^positions must be finite$"):
            sim.TrajectoryDataset(wrapped=track + 1e141, unwrapped=track + np.nan)

    def test_a_valid_track_is_returned_as_floats(self):
        track = sim.check_track([[[1, -1]], [[sim.MAX_COORDINATE, -sim.MAX_COORDINATE]]])
        assert track.dtype == float and track.shape == (2, 1, 2)


class TestParamValidation:
    @pytest.mark.parametrize("value", [-0.1, -5e-324, np.nan, np.inf], ids=["negative", "tiny-negative", "nan", "inf"])
    def test_noise_must_be_a_non_negative_amplitude(self, value):
        with pytest.raises(ValueError, match="^noise amplitudes must be finite and non-negative$"):
            single_agent_params(n_steps=3, noise=np.array([0.1, value]))

    @pytest.mark.parametrize(
        "shape", [(1,), (1, 2), (2, 1), (1, 1, 2, 2)], ids=["per-step", "two-agents", "two-steps", "matrices"]
    )
    def test_rotations_must_be_one_angle_per_step_and_agent(self, shape):
        with pytest.raises(ValueError, match=r"^rotations must have shape \(1, 1\), got "):
            single_agent_params(rotations=np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rotation_angles_must_be_finite(self, value):
        with pytest.raises(ValueError, match="^rotation angles must be finite$"):
            single_agent_params(n_agents=2, rotations=np.array([[0.5, value]]))

    @pytest.mark.parametrize("key", ["half_width", "half_height"])
    def test_box_side_must_not_overflow(self, key):
        with pytest.raises(ValueError, match=f"^{key}: the box side 2 \\* 1e\\+308 is not finite$"):
            single_agent_params(**{key: 1e308})
        # the largest half size whose double is finite still builds
        assert getattr(single_agent_params(**{key: np.finfo(float).max / 2}), key) > 8e307

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("dt", np.nan, "dt must be positive and finite"),
            ("dt", np.inf, "dt must be positive and finite"),
            ("speed_base", np.nan, "speed_base must be finite"),
            ("speed_base", -np.inf, "speed_base must be finite"),
            ("speed_jitter", np.nan, "speed_jitter must be non-negative and finite"),
            ("speed_jitter", np.inf, "speed_jitter must be non-negative and finite"),
            ("speed_jitter", -1.0, "speed_jitter must be non-negative and finite"),
            ("interaction_radius", np.nan, "interaction_radius must be positive"),
        ],
    )
    def test_non_finite_or_negative_settings_fail_by_name(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            single_agent_params(**{field: value})

    def test_infinite_step_fails_by_name_before_any_step(self):
        # (1e10 + 0.01) * 1e300 overflows: the step loop used to warn
        # "invalid value" twice, then fail with "positions must be finite"
        with pytest.raises(
            ValueError, match=r"^speed_base: the longest step \(10000000000\.0 \+ 0\.01\) \* 1e\+300 is not finite$"
        ):
            sim.scenario_speed_switch(n_agents=5, slow_speed=1e10, fast_speed=1e10, dt=1e300)
        # a negative speed steps as far as its magnitude
        with pytest.raises(ValueError, match=r"^speed_base: the longest step \(1e\+300 \+ 0\.0\) \* 10000000000\.0 is not finite$"):
            single_agent_params(speed_base=-1e300, speed_jitter=0.0, dt=1e10)

    def test_finite_step_past_the_coordinate_limit_fails_by_frame(self):
        params = sim.scenario_speed_switch(n_agents=5, slow_speed=1e10, fast_speed=1e10, dt=1e290)
        with pytest.raises(ValueError, match="^frame 2: coordinate .* exceeds 1e140 in magnitude$"):
            sim.simulate(params)

    @pytest.mark.parametrize("field", ["speed_jitter", "noise"])
    def test_negative_zero_amplitude_is_zero(self, field):
        # numpy's uniform refuses the range [0.0, -0.0]
        p = sim.scenario_speed_switch(n_agents=6, n_steps=100, seed=4)
        want = sim.simulate(replace(p, **{field: 0.0}))
        got = sim.simulate(replace(p, **{field: -0.0}))
        assert np.array_equal(got.unwrapped, want.unwrapped)

    @pytest.mark.parametrize("field,value", [("n_agents", 0), ("n_steps", 1), ("dt", 0.0)])
    def test_basic_bounds(self, field, value):
        with pytest.raises(ValueError):
            single_agent_params(**{field: value})


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-100, 100),
    st.floats(-100, 100),
    st.floats(0.5, 20),
    st.floats(0.5, 20),
)
# a tiny offset below -L, which ``%`` alone rounds up to +L
@example(np.nextafter(-6.0, -np.inf), 0.0, 6.0, 5.0)
@example(np.nextafter(-2.5, -np.inf), 0.0, 2.5, 5.0)
@example(np.nextafter(-1.25, -np.inf), 0.0, 1.25, 5.0)
@example(0.0, np.nextafter(-5.0, -np.inf), 6.0, 5.0)
def test_wrap_round_trip(x, y, L, H):
    wrapped = sim.wrap_positions(np.array([[x, y]]), L, H)
    assert -L <= wrapped[0, 0] < L
    assert -H <= wrapped[0, 1] < H
    multiples = (np.array([x, y]) - wrapped[0]) / np.array([2 * L, 2 * H])
    assert np.allclose(multiples, np.round(multiples), atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(0.5, 10),
    st.floats(0.5, 10),
)
def test_minimum_image_is_shortest_representative(dx, dy, L, H):
    mi = minimum_image(np.array([dx, dy]), L, H)
    assert abs(mi[0]) <= L * (1 + 1e-12)
    assert abs(mi[1]) <= H * (1 + 1e-12)
    shifts = (np.array([dx, dy]) - mi) / np.array([2 * L, 2 * H])
    assert np.allclose(shifts, np.round(shifts), atol=1e-6)


def dense_step(wrapped, unwrapped, headings, params, step_index, rng):
    """The dense minimum-image update step: an N x N x 2 delta tensor and a per-agent mean."""
    n = params.n_agents
    deltas = minimum_image(wrapped[:, None, :] - wrapped[None, :, :], params.half_width, params.half_height)
    within = np.einsum("ijk,ijk->ij", deltas, deltas) <= params.interaction_radius * params.interaction_radius
    units = np.column_stack((np.cos(headings), np.sin(headings)))
    if params.rotations is None:
        deflected = units
    else:
        # each agent's unit heading turned by its angle, written out
        c, s = np.cos(params.rotations[step_index]), np.sin(params.rotations[step_index])
        deflected = np.column_stack((c * units[:, 0] - s * units[:, 1], s * units[:, 0] + c * units[:, 1]))
    alignment = np.empty_like(deflected)
    for i, row in enumerate(within):
        alignment[i] = deflected[np.flatnonzero(row)].mean(axis=0)
    jitter = rng.uniform(-params.speed_jitter, params.speed_jitter, n)
    noise = rng.uniform(-params.noise[step_index], params.noise[step_index], n)
    speeds = params.speed_base[step_index] + jitter
    displacement = (speeds * params.dt)[:, None] * deflected
    new_wrapped = sim.wrap_positions(wrapped + displacement, params.half_width, params.half_height)
    norms = np.linalg.norm(alignment, axis=1)
    new_headings = np.where(
        norms > sim.ZERO_ALIGNMENT_TOL,
        np.arctan2(alignment[:, 1], alignment[:, 0]) + noise,
        headings,
    )
    return new_wrapped, unwrapped + displacement, new_headings


class TestDenseOracle:
    @pytest.mark.parametrize(
        "box, shifted",
        [
            ({}, {False}),
            ({"half_width": 2.5, "half_height": 2.0, "dt": 1.0}, {True}),
            ({"half_width": 4.5, "half_height": 3.0, "dt": 1.0}, {False, True}),
        ],
        ids=["scenario-box", "tight-box", "seam-crossing"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("scenario", sorted(sim.SCENARIOS))
    def test_simulate_matches_dense_step_bit_for_bit(self, monkeypatch, scenario, seed, box, shifted):
        # the group stays compact in the scenario box; it overfills the tight
        # box, so many neighbor pairs sit across the periodic seams throughout
        # the run; in the third box it crosses a seam mid-run (speed-switch
        # seed 0: x is compact on 79 of 119 steps, y on none)
        params = sim.make_scenario(scenario, n_agents=24, n_steps=120, seed=seed, **box)
        got = sim.simulate(params)
        monkeypatch.setattr(sim, "step", dense_step)
        want = sim.simulate(params)
        assert np.array_equal(got.wrapped, want.wrapped)
        assert np.array_equal(got.unwrapped, want.unwrapped)
        # the branches of _adjacency's shift rule that ran, one per step and axis
        spans = np.ptp(got.wrapped[:-1], axis=1)
        assert set((spans >= (params.half_width, params.half_height)).ravel().tolist()) == shifted

    @pytest.mark.parametrize("radius", [1.0, 2.0])
    def test_lattice_pairs_at_exactly_the_radius(self, radius):
        # integer lattice filling a 6 x 4 box: many pairs sit at exactly the
        # radius, inside the box and across both periodic seams
        L, H = 3.0, 2.0
        xs, ys = np.meshgrid(np.arange(-3.0, 3.0), np.arange(-2.0, 2.0))
        pos = np.column_stack((xs.ravel(), ys.ravel()))
        assert neighbor_lists(pos, radius, L, H) == brute_neighbors(pos, radius, L, H)

    def test_lattice_outside_the_box_and_at_the_fold(self):
        # positions given outside [-L, L) x [-H, H), and a coordinate a hair
        # below a box multiple, which np.mod rounds up to the box edge
        L, H = 3.0, 2.0
        pos = np.array([[-1e-17, 0.0], [6.0, 1.0], [-3.0, -2.0], [9.0, 2.0], [2.0, -4.0], [1.0, 0.0]])
        assert neighbor_lists(pos, 1.0, L, H) == brute_neighbors(pos, 1.0, L, H)

    def test_pair_a_hair_beyond_the_radius_is_excluded(self):
        # four ulps past the radius, inside the box and across the seam; every
        # difference and wrap below is exact in binary floating point
        L, H = 3.0, 2.0
        beyond = 1.0 + 4 * np.finfo(float).eps
        pos = np.array([[0.0, 0.0], [beyond, 0.0], [-L, 1.0], [L - beyond, 1.0]])
        assert neighbor_lists(pos, 1.0, L, H) == [[0], [1], [2], [3]]
        assert brute_neighbors(pos, 1.0, L, H) == [[0], [1], [2], [3]]

    def test_no_agents_gives_no_neighbor_sets(self):
        assert neighbor_lists(np.zeros((0, 2)), 1.0, 3.0, 2.0) == []
