import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmphase import mapping, observables, sim


def brute_nearest(source, target):
    """O(N^2) oracle for the nearest-neighbor stage (lowest index on ties)."""
    out = np.empty(len(source), dtype=int)
    for i, a in enumerate(source):
        d = np.linalg.norm(target - a, axis=1)
        out[i] = int(np.flatnonzero(d == d.min())[0])
    return out


def random_frame_pair(rng, n):
    a = rng.uniform(-5, 5, size=(n, 2))
    if rng.random() < 0.5:
        b = a + rng.normal(scale=0.05, size=(n, 2))
    else:
        b = rng.uniform(-5, 5, size=(n, 2))
    return a, b


class TestNearestNeighborMap:
    def test_identical_configs_map_to_self(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-3, 3, size=(12, 2))
        assert np.array_equal(mapping.nearest_neighbor_map(a, a), np.arange(12))

    def test_two_agent_example(self):
        a = np.array([[0.0, 0.0], [0.5, 0.0]])
        b = np.array([[0.2, 0.0], [0.9, 0.0]])
        assert list(mapping.nearest_neighbor_map(a, b)) == [0, 0]

    def test_rigid_translation_is_identity(self):
        rng = np.random.default_rng(1)
        # spacing above 0.2 guarantees translation by 0.1 preserves nearest neighbors
        a = np.array([[i * 0.5, (i % 3) * 0.5] for i in range(10)], dtype=float)
        b = a + np.array([0.1, 0.0])
        assert np.array_equal(mapping.nearest_neighbor_map(a, b), np.arange(10))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a, b = random_frame_pair(rng, n)
            assert np.array_equal(mapping.nearest_neighbor_map(a, b), brute_nearest(a, b))

    def test_tie_breaks_to_lowest_index(self):
        a = np.array([[0.0, 0.0], [3.0, 3.0]])
        b = np.array([[1.0, 0.0], [-1.0, 0.0]])  # equidistant from agent 0
        assert mapping.nearest_neighbor_map(a, b)[0] == 0

    def test_periodic_box(self):
        box = (16.0, 10.0)
        a = np.array([[-7.9, 0.0], [0.0, 0.0]])
        b = np.array([[7.9, 0.0], [0.1, 0.0]])  # 0.2 away through the wrap
        assert list(mapping.nearest_neighbor_map(a, b, box_size=box)) == [0, 1]


class TestBijectiveDomain:
    def test_no_conflicts_keeps_everyone(self):
        cand = np.array([2, 0, 1])
        mask = mapping.extract_bijective_domain(cand, np.ones(3))
        assert mask.all()

    def test_conflict_smallest_displacement_wins(self):
        cand = np.array([0, 0])
        mask = mapping.extract_bijective_domain(cand, np.array([0.2, 0.3]))
        assert list(mask) == [True, False]

    def test_all_share_one_target(self):
        cand = np.zeros(6, dtype=int)
        mask = mapping.extract_bijective_domain(cand, np.arange(6, 0, -1.0))
        assert mask.sum() == 1
        assert mask[5]  # smallest displacement

    def test_distance_tie_keeps_lowest_source(self):
        cand = np.array([1, 1])
        mask = mapping.extract_bijective_domain(cand, np.array([0.5, 0.5]))
        assert list(mask) == [True, False]


class TestCorrespond:
    def test_identical_configs(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-2, 2, size=(8, 2))
        m = mapping.correspond(a, a)
        assert np.array_equal(m.permutation, np.arange(8))
        assert np.allclose(m.velocities, 0.0)
        assert np.allclose(m.mean_velocity, 0.0)

    def test_hand_executed_two_agent_chain(self):
        a = np.array([[0.0, 0.0], [0.5, 0.0]])
        b = np.array([[0.2, 0.0], [0.9, 0.0]])
        m = mapping.correspond(a, b)
        assert list(m.permutation) == [0, 1]
        assert list(m.bijective) == [True, False]
        assert np.allclose(m.velocities, [[0.2, 0.0], [0.4, 0.0]])
        assert np.allclose(m.domain_mean_velocity, [0.2, 0.0])
        assert np.allclose(m.mean_velocity, [0.3, 0.0])

    def test_rigid_translation(self):
        a = np.array([[i * 0.7, (i % 4) * 0.6] for i in range(12)], dtype=float)
        b = a + np.array([0.1, 0.0])
        m = mapping.correspond(a, b)
        assert np.array_equal(m.permutation, np.arange(12))
        assert np.allclose(m.velocities, [0.1, 0.0])

    def test_always_a_permutation(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            a, b = random_frame_pair(rng, n)
            m = mapping.correspond(a, b)
            assert np.array_equal(np.sort(m.permutation), np.arange(n))

    def test_stage_domains_are_disjoint_and_total(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            a, b = random_frame_pair(rng, n)
            m = mapping.correspond(a, b)
            direct_targets = set(m.permutation[m.bijective].tolist())
            residual_targets = set(m.permutation[~m.bijective].tolist())
            assert direct_targets.isdisjoint(residual_targets)
            assert direct_targets | residual_targets == set(range(n))

    def test_domain_velocity_is_exact_displacement(self):
        rng = np.random.default_rng(6)
        a, b = random_frame_pair(rng, 15)
        m = mapping.correspond(a, b)
        for i in np.flatnonzero(m.bijective):
            assert np.array_equal(m.velocities[i], b[m.permutation[i]] - a[i])

    def test_residual_recovers_translation_pairing(self):
        # two independent candidate collisions leave two unmatched pairs; the
        # residual stage must pair them the translation-consistent way
        mu = np.array([1.0, 0.0])
        a = np.array([[0.0, 0.0], [0.3, 0.0], [10.0, 0.0], [10.3, 0.0], [5.0, 5.0]])
        b = a + mu
        m = mapping.correspond(a, b)
        leftovers = np.flatnonzero(~m.bijective)
        assert leftovers.size == 2
        # oracle: brute force over all pairings minimizing total deviation from mu1
        free = np.setdiff1d(np.arange(5), m.permutation[m.bijective])
        best, best_cost = None, np.inf
        for perm in itertools.permutations(free):
            cost = sum(
                np.linalg.norm(b[j] - a[i] - m.domain_mean_velocity)
                for i, j in zip(leftovers, perm)
            )
            if cost < best_cost:
                best, best_cost = perm, cost
        assert list(m.permutation[leftovers]) == list(best)
        # each leftover source is paired with the target in its own cluster
        assert m.permutation[0] == 1 and m.permutation[2] == 3


class TestVelocities:
    def test_two_identical_frames(self):
        frames = np.tile(np.random.default_rng(0).uniform(-1, 1, (1, 6, 2)), (2, 1, 1))
        ds = sim.TrajectoryDataset(wrapped=frames)
        maps = mapping.velocities(ds)
        assert len(maps) == 1
        assert np.array_equal(maps[0].permutation, np.arange(6))

    def test_needs_two_frames(self):
        ds = sim.TrajectoryDataset(wrapped=np.zeros((1, 3, 2)))
        with pytest.raises(ValueError, match="need at least 2 frames"):
            mapping.velocities(ds)

    def test_low_confidence_warning(self):
        # all four agents collapse onto one target, one lands far away
        a = np.array([[0.0, 0.0], [0.01, 0.0], [0.0, 0.01], [0.01, 0.01]])
        b = np.array([[0.0, 0.0], [50.0, 0.0], [50.0, 50.0], [0.0, 50.0]])
        ds = sim.TrajectoryDataset(wrapped=np.stack([a, b]))
        with pytest.warns(mapping.LowConfidenceMatchWarning):
            mapping.velocities(ds)

    def test_matches_ground_truth_identities_on_sim_data(self):
        params = sim.scenario_speed_switch(n_agents=20, n_steps=120, seed=8)
        ds = sim.simulate(params)
        maps = mapping.velocities(ds)
        for m in maps:
            assert np.array_equal(m.permutation, np.arange(20))

    def test_shuffled_frames_preserve_velocity_multiset(self):
        rng = np.random.default_rng(12)
        base = rng.uniform(-4, 4, size=(14, 2))
        drift = np.array([0.08, -0.03])
        frames = np.stack([base + t * drift for t in range(5)])
        shuffled = np.stack([frame[rng.permutation(14)] for frame in frames])
        maps_a = mapping.velocities(sim.TrajectoryDataset(wrapped=frames))
        maps_b = mapping.velocities(sim.TrajectoryDataset(wrapped=shuffled))
        for ma, mb in zip(maps_a, maps_b):
            va = sorted(map(tuple, ma.velocities.tolist()))
            vb = sorted(map(tuple, mb.velocities.tolist()))
            assert va == vb
            assert np.allclose(ma.mean_velocity, mb.mean_velocity, atol=1e-14)

    def test_shuffled_frames_give_same_coarse_series(self):
        rng = np.random.default_rng(9)
        base = np.array([[i * 1.0, (i * 7 % 5) * 1.0] for i in range(10)], dtype=float)
        drift = np.array([0.05, 0.02])
        frames = np.stack([base + t * drift for t in range(8)])
        shuffled = np.stack([frame[rng.permutation(10)] for frame in frames])

        def coarse(positions):
            ds = sim.TrajectoryDataset(wrapped=positions)
            maps = mapping.velocities(ds)
            return observables.compute_observables(ds, maps).coarse

        assert np.max(np.abs(coarse(frames) - coarse(shuffled))) < 1e-12


class TestCanonicalize:
    def test_restores_shuffled_order(self):
        rng = np.random.default_rng(10)
        base = np.array([[i * 1.0, 0.0] for i in range(7)], dtype=float)
        frames = np.stack([base + t * np.array([0.05, 0.0]) for t in range(6)])
        shuffled = frames.copy()
        for t in range(1, 6):  # keep frame 0 so slots align with the original
            shuffled[t] = shuffled[t][rng.permutation(7)]
        ds = sim.TrajectoryDataset(wrapped=shuffled)
        maps = mapping.velocities(ds)
        canonical = mapping.canonicalize_order(shuffled, maps)
        assert np.allclose(canonical, frames)

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            mapping.canonicalize_order(np.zeros((3, 2, 2)), [])


def looped_bijective_domain(candidates, distances):
    """Per-target oracle: each target keeps its closest claimant, ties toward the lowest source."""
    mask = np.zeros(len(candidates), dtype=bool)
    for j in np.unique(candidates):
        claimants = np.flatnonzero(candidates == j)
        mask[claimants[np.argmin(distances[claimants])]] = True
    return mask


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        max_size=40,
    )
)
def test_bijective_domain_matches_per_target_loop(claims):
    # few targets and few distinct distances: most groups collide and tie
    candidates = np.array([c for c, _ in claims], dtype=int)
    distances = np.array([d for _, d in claims], dtype=float)
    got = mapping.extract_bijective_domain(candidates, distances)
    assert np.array_equal(got, looped_bijective_domain(candidates, distances))


coordinates = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
points = st.tuples(coordinates, coordinates)


@st.composite
def coincident_frames(draw):
    """Two frames whose agents sit on a handful of shared positions."""
    sites = draw(st.lists(points, min_size=1, max_size=3))
    n = draw(st.integers(2, 12))
    pick = st.lists(st.sampled_from(sites), min_size=n, max_size=n)
    return np.array(draw(pick)), np.array(draw(pick))


@st.composite
def one_point_sources(draw):
    """Every source agent at one point; the targets anywhere, possibly coincident."""
    n = draw(st.integers(2, 12))
    source = np.tile(draw(points), (n, 1))
    target = np.array(draw(st.lists(points, min_size=n, max_size=n)))
    return source, target


single_agent = st.tuples(points, points).map(lambda pair: (np.array([pair[0]]), np.array([pair[1]])))

BOXES = pytest.mark.parametrize("box_size", [None, (4.0, 3.0)], ids=["open", "periodic"])


def assert_bijection_with_exact_velocities(source, target, box_size):
    m = mapping.correspond(source, target, box_size=box_size)
    n = source.shape[0]
    assert np.array_equal(np.sort(m.permutation), np.arange(n))
    deltas = target[m.permutation] - source
    if box_size is not None:
        deltas = sim.minimum_image(deltas, box_size[0] / 2.0, box_size[1] / 2.0)
    assert np.array_equal(m.velocities, deltas)


@BOXES
@settings(max_examples=100, deadline=None)
@given(coincident_frames())
def test_correspond_fuzz_coincident_points(box_size, frames):
    assert_bijection_with_exact_velocities(*frames, box_size)


@BOXES
@settings(max_examples=100, deadline=None)
@given(one_point_sources())
def test_correspond_fuzz_every_source_at_one_point(box_size, frames):
    assert_bijection_with_exact_velocities(*frames, box_size)


@BOXES
@settings(max_examples=50, deadline=None)
@given(single_agent)
def test_correspond_fuzz_single_agent(box_size, frames):
    assert_bijection_with_exact_velocities(*frames, box_size)


def test_correspond_folds_coordinates_that_round_onto_the_box_edge():
    # np.mod(-1e-17, 4.0) is 4.0, which a periodic k-d tree refuses; the tree
    # is built on the target frame, so the edge cases sit there
    box_size = (4.0, 3.0)
    tiny = np.nextafter(0.0, -1.0)
    target = np.array([[-1e-17, 1.0], [tiny, 2.0], [4.0, -3.0], [2.0, -1e-17], [1.0, tiny]])
    source = np.array([[3.95, 1.05], [0.05, 1.9], [0.1, 2.95], [2.0, 2.9], [1.1, 0.1]])
    assert np.any(np.mod(target, box_size) >= box_size)
    assert_bijection_with_exact_velocities(source, target, box_size)
