import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist

from swarmphase import observables
from swarmphase.mapping import CorrespondenceMap


def fake_map(velocities, step=1):
    v = np.asarray(velocities, dtype=float)
    n = v.shape[0]
    return CorrespondenceMap(
        step=step,
        permutation=np.arange(n),
        bijective=np.ones(n, dtype=bool),
        velocities=v,
        domain_mean_velocity=v.mean(axis=0),
        mean_velocity=v.mean(axis=0),
    )


class TestGroupSpeed:
    def test_constant_translation_is_all_ones(self):
        maps = [fake_map(np.tile([0.1, 0.0], (5, 1)), step=t) for t in range(1, 4)]
        assert np.allclose(observables.group_speed_series(maps), 1.0)

    def test_normalization_example(self):
        maps = [fake_map(np.tile([v, 0.0], (3, 1))) for v in (0.05, 0.1, 0.05)]
        assert np.allclose(observables.group_speed_series(maps), [0.5, 1.0, 0.5])

    def test_stationary_group_warns_and_zeros(self):
        maps = [fake_map(np.zeros((4, 2)))]
        with pytest.warns(observables.DegenerateSeriesWarning):
            out = observables.group_speed_series(maps)
        assert np.array_equal(out, [0.0])

    def test_explicit_normalization_constant(self):
        maps = [fake_map(np.tile([v, 0.0], (3, 1))) for v in (0.05, 0.1)]
        assert np.allclose(observables.group_speed_series(maps, normalization=0.2), [0.25, 0.5])
        with pytest.raises(ValueError):
            observables.group_speed_series(maps, normalization=0.0)


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

    def test_radius_and_empty_stack(self):
        assert observables.component_series(np.zeros((0, 5, 2)), 1.0).size == 0
        with pytest.raises(ValueError, match="radius"):
            observables.component_series(np.zeros((2, 3, 2)), 0.0)
        with pytest.raises(ValueError, match="radius"):
            observables.connected_component_count(np.zeros((3, 2)), -1.0)
