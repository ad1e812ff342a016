import math
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
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
        ids=["many-blocks", "frame-over-budget", "one-agent", "one-frame", "one-big-frame"],
    )
    def test_matches_per_frame_oracle(self, n_frames, n):
        rng = np.random.default_rng(n_frames * 1000 + n)
        stack, radius = self.mixed_stack(rng, n_frames, n), 1.0
        pairs = [self.pair_count(frame, radius) for frame in stack]
        got = observables.component_series(stack, radius)
        assert list(got) == [bfs_count(frame, radius) for frame in stack]
        # the cases hold what their names say
        if n_frames > 1 and n > 1:
            assert 0 in pairs
        if n == 200:
            assert max(pairs) > observables._BLOCK_PAIRS
        if n_frames == 60:
            # the first block closes with less than this, so frames remain for a second
            assert sum(pairs) > observables._BLOCK_PAIRS + max(pairs)

    def test_one_graph_search_per_block(self, monkeypatch):
        rng = np.random.default_rng(5)
        stack = rng.uniform(-3, 3, size=(600, 30, 2))
        radius = 3.0
        expected = observables.component_series(stack, radius)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return connected_components(*args, **kwargs)

        monkeypatch.setattr(observables, "connected_components", counting)
        assert np.array_equal(observables.component_series(stack, radius), expected)
        total = sum(self.pair_count(frame, radius) for frame in stack)
        assert total > 4 * observables._BLOCK_PAIRS
        assert 1 < len(calls) <= math.ceil(total / observables._BLOCK_PAIRS) + 1

    def test_node_cap_closes_a_block_at_exactly_65536_nodes(self, monkeypatch):
        # 300 frames of 256 agents far apart: no pairs, so only the node cap closes blocks
        stack = np.broadcast_to(10.0 * np.arange(512.0).reshape(256, 2), (300, 256, 2))
        calls, block_counts = [], observables._block_counts

        def counting(pairs, n_frames, n):
            calls.append(n_frames * n)
            return block_counts(pairs, n_frames, n)

        monkeypatch.setattr(observables, "_block_counts", counting)
        assert observables.component_series(stack, 1.0).tolist() == [256] * 300
        assert calls == [observables._BLOCK_NODES, 44 * 256]

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


def coo_block_counts(pairs, n_frames, n):
    """The ``coo_matrix`` path ``_block_counts`` replaced: csgraph sorts the graph itself."""
    m = n_frames * n
    graph = coo_matrix((np.ones(len(pairs)), tuple(pairs.T)), shape=(m, m))
    n_labels, labels = connected_components(graph, directed=False)
    frame_of_label = np.empty(n_labels, dtype=np.intp)
    frame_of_label[labels] = np.arange(m) // n
    return np.bincount(frame_of_label, minlength=n_frames)


@st.composite
def block_graphs(draw):
    """(pairs, n_frames, n): random pairs i < j within each frame, in random order; some frames get none."""
    n_frames, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    pairs = []
    for t in range(n_frames):
        if n > 1 and draw(st.booleans()):
            ij = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
            pairs.extend((t * n + min(i, j), t * n + max(i, j)) for i, j in ij if i != j)
    order = draw(st.permutations(range(len(pairs))))
    return np.array([pairs[k] for k in order], dtype=np.intp).reshape(-1, 2), n_frames, n


class TestBlockCounts:
    @settings(max_examples=200, deadline=None)
    @given(block_graphs())
    def test_matches_the_coo_path(self, graph):
        assert np.array_equal(observables._block_counts(*graph), coo_block_counts(*graph))

    def test_frames_without_pairs(self):
        pairs = np.array([[5, 6], [4, 5]])
        assert observables._block_counts(pairs, 3, 3).tolist() == [3, 1, 3]
        assert observables._block_counts(np.zeros((0, 2), dtype=np.intp), 4, 5).tolist() == [5] * 4

    def test_one_block_of_65536_nodes(self):
        # 256 frames of 256 agents; the last node id is the largest uint16
        rng = np.random.default_rng(21)
        n_frames = n = 256
        assert n_frames * n == observables._BLOCK_NODES
        local = np.sort(rng.integers(0, n, size=(n_frames, 200, 2)), axis=2)
        pairs = (local + n * np.arange(n_frames)[:, None, None]).reshape(-1, 2)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs = np.vstack((pairs, [[n_frames * n - 2, n_frames * n - 1]]))
        rng.shuffle(pairs)
        got = observables._block_counts(pairs, n_frames, n)
        assert np.array_equal(got, coo_block_counts(pairs, n_frames, n))
        assert got.min() < got.max() < n
