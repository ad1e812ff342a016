import math
import re
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from swarmphase import mapping, observables, sim
from swarmphase.mapping import CorrespondenceMap


def fake_map(velocities):
    """A correspondence record of identity maps with the given ``(T, N, 2)`` velocities."""
    v = np.asarray(velocities, dtype=float)
    steps, n = v.shape[:2]
    return CorrespondenceMap(
        step=np.arange(1, steps + 1),
        permutation=np.broadcast_to(np.arange(n), (steps, n)),
        bijective=np.ones((steps, n), dtype=bool),
        velocities=v,
    )


class TestGroupSpeed:
    def test_constant_translation_is_all_ones(self):
        maps = fake_map(np.tile([0.1, 0.0], (3, 5, 1)))
        assert np.allclose(observables.group_speed_series(maps), 1.0)

    def test_normalization_example(self):
        maps = fake_map([np.tile([v, 0.0], (3, 1)) for v in (0.05, 0.1, 0.05)])
        assert np.allclose(observables.group_speed_series(maps), [0.5, 1.0, 0.5])

    def test_stationary_group_warns_and_zeros(self):
        maps = fake_map(np.zeros((1, 4, 2)))
        with pytest.warns(observables.DegenerateSeriesWarning):
            out = observables.group_speed_series(maps)
        assert np.array_equal(out, [0.0])


def looped_speed(velocities):
    """Per-step oracle of ``group_speed_series``: one 1-D norm of each step's mean velocity."""
    norms = np.array([float(np.linalg.norm(v)) for v in velocities.mean(axis=1)])
    return norms / norms.max() if norms.max() > 0.0 else norms


def looped_polarization(velocities):
    """Per-step oracle of ``polarization_series``: the unit vectors of the moving agents only."""
    out = []
    for v in velocities:
        norms = np.linalg.norm(v, axis=1)
        keep = norms > 0.0
        units = v[keep] / norms[keep, None]
        out.append(min(float(np.linalg.norm(units.sum(axis=0)) / keep.sum()), 1.0) if keep.any() else 0.0)
    return np.array(out)


class TestSeriesMatchThePerStepLoop:
    """Speed and polarization series, bit for bit the per-step loops they replace."""

    def assert_same_bits(self, velocities):
        maps = fake_map(velocities)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", observables.DegenerateSeriesWarning)
            speed = observables.group_speed_series(maps)
            pol = observables.polarization_series(maps.velocities)
        assert speed.tobytes() == looped_speed(maps.velocities).tobytes()
        assert pol.tobytes() == looped_polarization(maps.velocities).tobytes()

    @pytest.mark.parametrize(
        "scenario, settings",
        [
            ("speed-switch", {"seed": 0}),
            ("noise-switch", {"seed": 0}),
            ("split-rejoin", {"seed": 0}),
            ("speed-switch", {"n_agents": 150, "n_steps": 150, "seed": 201}),
            ("split-rejoin", {"n_agents": 60, "n_steps": 600, "dt": 1.0, "seed": 201}),
        ],
    )
    def test_simulated_tracks(self, scenario, settings):
        ds = sim.simulate(sim.make_scenario(scenario, **settings))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", mapping.LowConfidenceMatchWarning)
            self.assert_same_bits(mapping.velocities(ds).velocities)

    def test_random_velocities_with_zero_rows(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            steps, n = rng.integers(1, 20), rng.integers(1, 40)
            v = rng.normal(size=(steps, n, 2)) * 10.0 ** rng.integers(-5, 5)
            v[rng.random((steps, n)) < rng.random()] = 0.0
            self.assert_same_bits(v)

    def test_a_zero_step_gets_zero_and_the_series_warns_once(self):
        v = np.zeros((3, 4, 2))
        v[1] = [1.0, 0.0]
        with pytest.warns(observables.DegenerateSeriesWarning) as caught:
            pol = observables.polarization_series(v)
        assert pol.tolist() == [0.0, 1.0, 0.0]
        assert [str(w.message) for w in caught] == ["all velocities are zero; polarization undefined"]


class TestPolarization:
    def test_aligned_headings(self):
        v = np.tile([0.3, 0.4], (6, 1))
        assert observables.polarization(v) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_headings_cancel(self):
        v = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert observables.polarization(v) == pytest.approx(0.0, abs=1e-12)

    def test_three_heading_example(self):
        # headings 0, pi/2, pi sum to the unit vector (0, 1): P = 1/3
        v = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert observables.polarization(v) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_velocity_agents_excluded(self):
        v = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert observables.polarization(v) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_warns(self):
        with pytest.warns(observables.DegenerateSeriesWarning):
            assert observables.polarization(np.zeros((3, 2))) == 0.0

    def test_invariant_under_global_rotation(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(20, 2))
        c, s = math.cos(1.1), math.sin(1.1)
        rotated = v @ np.array([[c, -s], [s, c]]).T
        assert observables.polarization(rotated) == pytest.approx(
            observables.polarization(v), abs=1e-12
        )

    def test_speed_changes_do_not_matter(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(15, 2))
        scaled = v * rng.uniform(0.1, 10.0, size=(15, 1))
        assert observables.polarization(scaled) == pytest.approx(
            observables.polarization(v), abs=1e-12
        )


class TestInteractionEpsilon:
    def test_two_agents_constant_distance(self):
        frames = np.stack([np.array([[0.0, 0.0], [3.0, 0.0]])] * 4)
        assert observables.interaction_epsilon(frames) == pytest.approx(3.0)
        assert observables.interaction_epsilon(frames, "nearest_neighbor") == pytest.approx(3.0)

    def test_collinear_example(self):
        frame = np.array([[[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]])
        # pairs: 1, 3, 2 -> mean 2; nearest: 1, 1, 2 -> mean 4/3
        assert observables.interaction_epsilon(frame) == pytest.approx(2.0)
        assert observables.interaction_epsilon(frame, "nearest_neighbor") == pytest.approx(4.0 / 3.0)

    def test_time_duplication_idempotent(self):
        rng = np.random.default_rng(2)
        frames = rng.uniform(-4, 4, size=(3, 10, 2))
        doubled = np.concatenate([frames, frames])
        assert observables.interaction_epsilon(doubled) == pytest.approx(
            observables.interaction_epsilon(frames)
        )

    def test_single_agent_rejected(self):
        with pytest.raises(ValueError):
            observables.interaction_epsilon(np.zeros((2, 1, 2)))

    # the two tracks on which an all-pairs sum over the wrong layout moved
    # the last bit: split-rejoin N=60 seed 201, and the same scenario at
    # dt 1.0 over 600 steps (the tracked-csv benchmark's track); and 300
    # agents, where one frame's pairs fill more than a block
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_agents=60, seed=201),
            dict(n_agents=60, n_steps=600, dt=1.0, seed=201),
            dict(n_agents=300, n_steps=100, seed=3),
        ],
        ids=["split-rejoin", "tracked-csv", "many-agents"],
    )
    def test_all_pairs_has_the_bits_of_the_per_frame_pdist_sum(self, overrides):
        track = sim.simulate(sim.scenario_split_rejoin(**overrides)).unwrapped
        total = 0.0
        for frame in track:
            total += pdist(frame).sum()
        n = track.shape[1]
        want = total / (len(track) * (n * (n - 1) // 2))
        # a strided view of the same track: every other column of a wider array
        wide = np.zeros(track.shape[:2] + (4,))
        wide[..., ::2] = track
        for positions in (track, wide[..., ::2]):
            assert observables.interaction_epsilon(positions) == want

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="epsilon mode"):
            observables.interaction_epsilon(np.zeros((1, 3, 2)), "median")


def bfs_count(pos, radius):
    """Dense oracle: breadth-first search over the inclusive distance-``radius`` graph."""
    linked = np.linalg.norm(pos[:, None] - pos[None, :], axis=2) <= radius
    seen = np.zeros(len(pos), dtype=bool)
    count = 0
    for start in range(len(pos)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in np.flatnonzero(linked[i] & ~seen):
                seen[j] = True
                queue.append(j)
    return count


class TestComponents:
    def test_chain_is_one_component(self):
        pos = np.array([[i * 0.9, 0.0] for i in range(8)])
        assert observables.connected_component_count(pos, 1.0) == 1

    def test_two_clusters(self):
        cluster = np.array([[i * 0.1, 0.0] for i in range(5)])
        pos = np.vstack([cluster, cluster + [10.0, 0.0]])
        assert observables.connected_component_count(pos, 1.0) == 2

    def test_all_isolated(self):
        pos = np.array([[i * 5.0, 0.0] for i in range(6)])
        assert observables.connected_component_count(pos, 1.0) == 6

    def test_boundary_distance_is_linked(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert observables.connected_component_count(pos, 1.0) == 1

    def test_invariant_under_reordering_and_rigid_motion(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(-3, 3, size=(25, 2))
        base = observables.connected_component_count(pos, 1.0)
        shuffled = pos[rng.permutation(25)]
        c, s = math.cos(0.7), math.sin(0.7)
        moved = pos @ np.array([[c, -s], [s, c]]).T + np.array([5.0, -2.0])
        assert observables.connected_component_count(shuffled, 1.0) == base
        assert observables.connected_component_count(moved, 1.0) == base

    def test_series(self):
        frames = np.stack(
            [
                np.array([[0.0, 0.0], [0.5, 0.0], [9.0, 0.0]]),
                np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]]),
            ]
        )
        assert list(observables.component_series(frames, 1.0)) == [2, 3]

    def test_matches_dense_bfs_oracle(self):
        rng = np.random.default_rng(11)
        boundary_pairs = 0
        for case in range(300):
            n = 1 if case < 5 else int(rng.integers(2, 40))
            if case % 2:
                # lattice points: many pairs sit exactly at an integer radius
                pos = rng.integers(0, 6, size=(n, 2)).astype(float)
                radius = float(rng.integers(1, 4))
            else:
                pos = rng.uniform(-3, 3, size=(n, 2))
                radius = float(rng.uniform(0.1, 2.0))
            dist = np.linalg.norm(pos[:, None] - pos[None, :], axis=2)
            boundary_pairs += int(np.sum(np.triu(dist == radius, 1)))
            assert observables.connected_component_count(pos, radius) == bfs_count(pos, radius)
        assert boundary_pairs > 0


class TestCoarseObservable:
    def test_all_components_at_max(self):
        x = observables.coarse_observable(
            np.array([1.0]), np.array([1.0]), np.array([50]), 50, 1 / 3, 1 / 3
        )
        assert x[0] == pytest.approx(1.0)

    def test_single_component_example(self):
        x = observables.coarse_observable(
            np.array([1.0]), np.array([1.0]), np.array([1]), 50, 1 / 3, 1 / 3
        )
        assert x[0] == pytest.approx((1.0 + 1.0 + 0.02) / 3.0, abs=1e-12)

    def test_degenerate_weights_pick_out_speed(self):
        speed = np.array([0.2, 0.8])
        x = observables.coarse_observable(speed, np.array([0.5, 0.5]), np.array([3, 3]), 10, 1.0, 0.0)
        assert np.allclose(x, speed)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            observables.coarse_observable(np.array([1.0]), np.array([1.0]), np.array([1]), 5, 0.7, 0.4)
        with pytest.raises(ValueError):
            observables.coarse_observable(np.array([1.0]), np.array([1.0]), np.array([1]), 5, -0.1, 0.5)

    @pytest.mark.parametrize("n_agents", [0, -3])
    def test_fewer_than_one_agent_rejected_by_name(self, n_agents):
        with pytest.raises(ValueError, match=f"^n_agents: must be at least 1, found {n_agents}$"):
            observables.coarse_observable(np.array([1.0]), np.array([1.0]), np.array([1]), n_agents)

    @pytest.mark.parametrize("name", ["speed", "polarization", "components"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected_by_name(self, name, value):
        series = {"speed": np.array([0.5, 1.0]), "polarization": np.array([0.5, 1.0]), "components": np.array([1, 2.0])}
        series[name][1] = value
        with pytest.raises(ValueError, match=f"^{name}: must be finite$"):
            observables.coarse_observable(series["speed"], series["polarization"], series["components"], 5)

    @pytest.mark.parametrize("weights", [(np.nan, 0.5), (0.5, np.nan), (np.nan, np.nan)])
    def test_nan_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="^observable weights must be non-negative$"):
            observables.coarse_observable(np.array([1.0]), np.array([1.0]), np.array([1]), 5, *weights)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0, 1),
        st.floats(0, 1),
        st.integers(1, 50),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    def test_bounds(self, speed, pol, comp, w1, w2):
        if w1 + w2 > 1.0:
            w1, w2 = w1 / 2, w2 / 2
        x = observables.coarse_observable(
            np.array([speed]), np.array([pol]), np.array([comp]), 50, w1, w2
        )
        assert 0.0 <= x[0] <= 1.0


class TestDistanceMatrix:
    def test_zero_diagonal_and_symmetry(self):
        d = observables.distance_matrix(np.array([0.2, 0.9, 0.4]))
        assert np.array_equal(np.diag(d), np.zeros(3))
        assert np.array_equal(d, d.T)

    def test_two_point_example(self):
        d = observables.distance_matrix(np.array([0.2, 0.9]))
        assert d[0, 1] == pytest.approx(0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            observables.distance_matrix(np.array([]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_series_rejected(self, value):
        # a NaN used to give a NaN matrix, which the PGM writer drew all black
        with pytest.raises(ValueError, match="^series must be finite$"):
            observables.distance_matrix([0.1, value, 0.3])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=2, max_size=25))
    def test_pseudometric_axioms(self, series):
        d = observables.distance_matrix(np.array(series))
        n = len(series)
        assert np.array_equal(np.diag(d), np.zeros(n))
        assert np.array_equal(d, d.T)
        # triangle inequality with a tiny slack for double rounding
        lhs = d[:, None, :]
        rhs = d[:, :, None] + d[None, :, :]
        assert np.all(lhs <= rhs + 1e-15)


    def test_bits_match_the_broadcast_difference(self):
        x = np.random.default_rng(8).random(50)
        assert np.array_equal(observables.distance_matrix(x), np.abs(x[:, None] - x[None, :]))

    def test_peak_memory_is_one_matrix(self):
        # the differences are taken in the output buffer; the broadcast
        # expression held two matrices
        n = 599
        x = np.random.default_rng(9).random(n)
        tracemalloc.start()
        try:
            observables.distance_matrix(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * n * n * 8


class TestComponentSeriesBlocks:
    @staticmethod
    def pair_count(frame, radius):
        return int(np.sum(pdist(frame) <= radius)) if len(frame) > 1 else 0

    def mixed_stack(self, rng, n_frames, n):
        """Frames of three kinds: one cluster, isolated agents, random scatter."""
        frames = []
        for t in range(n_frames):
            if t % 3 == 0:
                frames.append(rng.uniform(0, 0.5, size=(n, 2)))
            elif t % 3 == 1:
                frames.append(10.0 * rng.permutation(n)[:, None] * np.array([[1.0, 0.5]]))
            else:
                frames.append(rng.integers(0, 8, size=(n, 2)).astype(float))
        return np.array(frames)

    @pytest.mark.parametrize(
        "n_frames,n",
        [(60, 50), (5, 200), (7, 1), (1, 25), (1, 200)],
        ids=["many-frames", "many-agents", "one-agent", "one-frame", "one-big-frame"],
    )
    def test_matches_per_frame_oracle(self, n_frames, n):
        rng = np.random.default_rng(n_frames * 1000 + n)
        stack, radius = self.mixed_stack(rng, n_frames, n), 1.0
        pairs = [self.pair_count(frame, radius) for frame in stack]
        got = observables.component_series(stack, radius)
        assert list(got) == [bfs_count(frame, radius) for frame in stack]
        if n_frames > 1 and n > 1:
            assert 0 in pairs

    @pytest.mark.parametrize("cells", [1, 30, 100])
    def test_any_block_budget_gives_the_same_counts(self, monkeypatch, cells):
        # blocks of 1, 3 and 11 frames of 9 agents; the last block is short
        # for 3 and 11
        stack = self.mixed_stack(np.random.default_rng(cells), 23, 9)
        expected = observables.component_series(stack, 1.0)
        monkeypatch.setattr(observables, "_BLOCK_CELLS", cells)
        assert np.array_equal(observables.component_series(stack, 1.0), expected)
        assert expected.tolist() == [bfs_count(frame, 1.0) for frame in stack]

    @pytest.mark.parametrize("n_frames", [1, 4])
    def test_nan_radius_rejected(self, n_frames):
        # NaN passes a ``radius <= 0`` check and then links no pair at all
        with pytest.raises(ValueError, match="^radius must be positive$"):
            observables.component_series(np.zeros((n_frames, 3, 2)), np.nan)

    def test_radius_and_empty_stack(self):
        assert observables.component_series(np.zeros((0, 5, 2)), 1.0).size == 0
        with pytest.raises(ValueError, match="radius"):
            observables.component_series(np.zeros((2, 3, 2)), 0.0)
        with pytest.raises(ValueError, match="radius"):
            observables.connected_component_count(np.zeros((3, 2)), -1.0)

    @pytest.mark.parametrize(
        "value, message",
        [
            (np.nan, "positions must be finite"),
            (np.inf, "positions must be finite"),
            (-np.inf, "positions must be finite"),
            (1e300, "frame 2: coordinate 1e+300 exceeds 1e140 in magnitude"),
            (-1e141, "frame 2: coordinate -1e+141 exceeds 1e140 in magnitude"),
        ],
    )
    def test_bad_positions_fail_by_name(self, value, message):
        stack = np.zeros((3, 4, 2))
        stack[1, 2, 1] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            observables.component_series(stack, 1.0)

    @pytest.mark.parametrize("shape", [(3, 4), (3, 4, 3), (2, 3, 4, 2), (3, 4, 1)])
    def test_other_shapes_fail_by_name(self, shape):
        with pytest.raises(ValueError, match=r"^positions must have shape \(T, N, 2\)$"):
            observables.component_series(np.zeros(shape), 1.0)


def kd_tree_counts(stack, radius):
    """Oracle: csgraph's components of each frame's inclusive ``query_pairs(radius)`` graph."""
    counts = []
    for frame in stack:
        pairs = cKDTree(frame).query_pairs(radius, output_type="ndarray")
        graph = coo_matrix((np.ones(len(pairs)), tuple(pairs.T)), shape=(len(frame), len(frame)))
        counts.append(connected_components(graph, directed=False)[0])
    return counts


def assert_matches_kd_tree(stack, radius):
    counts = observables.component_series(stack, radius)
    assert counts.tolist() == kd_tree_counts(stack, radius)
    return counts


class TestKdTreeOracle:
    """Component counts equal those of the k-d tree and csgraph path they replaced."""

    @pytest.mark.parametrize("offset", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("radius", [1.0, math.sqrt(2.0)])
    def test_integer_grids(self, radius, offset):
        # side and diagonal neighbours sit at the radius, exactly (offset 0)
        # or up to rounding; agents are shuffled, and in half of the frames
        # every third agent moves off the grid
        rng = np.random.default_rng(int(10 * offset))
        xs, ys = np.meshgrid(np.arange(7.0), np.arange(6.0))
        grid = np.column_stack((xs.ravel(), ys.ravel())) + offset
        stack = np.array([grid[rng.permutation(len(grid))] for _ in range(20)])
        stack[10:, ::3] += 0.5
        counts = assert_matches_kd_tree(stack, radius)
        assert counts[0] == 1

    def test_pairs_a_few_ulps_around_the_radius(self):
        # two agents at distance ~radius along a random direction, the second
        # moved 0-3 ulps either way in x: the squared test decides, and a
        # test on the distance itself would decide some frames otherwise
        rng = np.random.default_rng(17)
        radius, frames = 1.1, []
        for _ in range(500):
            angle = rng.uniform(0, 2 * math.pi)
            p = rng.uniform(-50, 50, size=2)
            q = p + radius * np.array([math.cos(angle), math.sin(angle)])
            for ulps in range(-3, 4):
                x = q[0]
                for _ in range(abs(ulps)):
                    x = np.nextafter(x, math.copysign(np.inf, ulps))
                frames.append([p, [x, q[1]]])
        stack = np.array(frames)
        counts = assert_matches_kd_tree(stack, radius)
        assert set(counts.tolist()) == {1, 2}
        distance = np.linalg.norm(stack[:, 1] - stack[:, 0], axis=1)
        assert np.any((counts == 1) != (distance <= radius))

    def test_duplicate_agents(self):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 4, size=(30, 12, 2)).astype(float)
        stack = np.concatenate([base, np.zeros((2, 12, 2)), np.ones((1, 12, 2)) * [3.0, -2.0]])
        counts = assert_matches_kd_tree(stack, 1e-9)
        assert counts[-3:].tolist() == [1, 1, 1]

    def test_one_and_two_agents(self):
        assert_matches_kd_tree(np.zeros((4, 1, 2)), 1.0)
        two = np.array([[[0.0, 0.0], [d, 0.0]] for d in (0.0, 0.5, 1.0, 1.5)])
        assert assert_matches_kd_tree(two, 1.0).tolist() == [1, 1, 1, 2]

    @pytest.mark.parametrize("radius", [1e124, 2e125, 3e140])
    def test_coordinates_near_the_limit(self, radius):
        limit = sim.MAX_COORDINATE
        frame = np.array(
            [[limit, -limit], [limit, -limit + 1e125], [-limit, limit], [-limit + 1e125, limit], [0.0, 0.0]]
        )
        stack = np.array([frame, -frame, frame[::-1]])
        counts = assert_matches_kd_tree(stack, radius)
        assert counts.tolist() == {1e124: [5] * 3, 2e125: [3] * 3, 3e140: [1] * 3}[radius]

    def test_a_stack_of_more_than_one_block(self):
        n = 60
        n_frames = sim._BLOCK_CELLS // n + 9
        rng = np.random.default_rng(6)
        stack = rng.uniform(-6, 6, size=(n_frames, n, 2))
        assert n_frames * n > observables._BLOCK_CELLS
        counts = assert_matches_kd_tree(stack, 1.0)
        assert counts.min() < counts.max()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda t: st.integers(1, 12).flatmap(
                lambda n: st.lists(
                    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n),
                    min_size=t,
                    max_size=t,
                )
            )
        ),
        st.sampled_from([0.5, 1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 3.0]),
        st.sampled_from([1.0, 0.1, 0.3]),
    )
    def test_small_lattice_stacks(self, frames, radius, scale):
        assert_matches_kd_tree(np.array(frames, dtype=float) * scale, radius * scale)
