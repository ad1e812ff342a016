import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

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

    @pytest.mark.parametrize(
        "source, target",
        [
            ([[0.0, 0.0]], [[5.0, 5.0]]),
            ([[1e140, -1e140]], [[-1e140, 1e140]]),  # at the coordinate limit
        ],
    )
    def test_one_agent_maps_to_itself(self, source, target):
        # within the limit no squared distance overflows, so nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mapping.nearest_neighbor_map(np.array(source), np.array(target))
        assert got.tolist() == [0]

    def test_blocks_of_rows_match_brute_force(self, monkeypatch):
        # 40 agents in blocks of 600 cells: one frame pair's rows in runs of 15, 15 and 10
        monkeypatch.setattr(mapping, "_BLOCK_CELLS", 600)
        rng = np.random.default_rng(4)
        a, b = rng.integers(-3, 4, size=(2, 40, 2)).astype(float)
        assert np.array_equal(mapping.nearest_neighbor_map(a, b), brute_nearest(a, b))


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

    def test_hand_executed_two_agent_chain(self):
        a = np.array([[0.0, 0.0], [0.5, 0.0]])
        b = np.array([[0.2, 0.0], [0.9, 0.0]])
        m = mapping.correspond(a, b)
        assert list(m.permutation) == [0, 1]
        assert list(m.bijective) == [True, False]
        assert np.allclose(m.velocities, [[0.2, 0.0], [0.4, 0.0]])
        assert np.allclose(m.velocities[m.bijective].mean(axis=0), [0.2, 0.0])
        assert np.allclose(m.velocities.mean(axis=0), [0.3, 0.0])

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
        # oracle: brute force over all pairings minimizing total deviation from
        # mu1, the mean velocity of the conflict-free matches
        free = np.setdiff1d(np.arange(5), m.permutation[m.bijective])
        mu1 = m.velocities[m.bijective].mean(axis=0)
        best, best_cost = None, np.inf
        for perm in itertools.permutations(free):
            cost = sum(
                np.linalg.norm(b[j] - a[i] - mu1)
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
            assert np.allclose(ma.velocities.mean(axis=0), mb.velocities.mean(axis=0), atol=1e-14)

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


def assert_bijection_with_exact_velocities(source, target):
    m = mapping.correspond(source, target)
    n = source.shape[0]
    assert np.array_equal(np.sort(m.permutation), np.arange(n))
    assert np.array_equal(m.velocities, target[m.permutation] - source)


@settings(max_examples=100, deadline=None)
@given(coincident_frames())
def test_correspond_fuzz_coincident_points(frames):
    assert_bijection_with_exact_velocities(*frames)


@settings(max_examples=100, deadline=None)
@given(one_point_sources())
def test_correspond_fuzz_every_source_at_one_point(frames):
    assert_bijection_with_exact_velocities(*frames)


@settings(max_examples=50, deadline=None)
@given(single_agent)
def test_correspond_fuzz_single_agent(frames):
    assert_bijection_with_exact_velocities(*frames)


def looped_velocities(track):
    """Per-pair oracle of ``velocities``: KD query, brute-force tie retry,
    lexsort domain and a greedy ``remaining.pop`` over the leftover sources."""
    n = track.shape[1]
    maps, messages = [], []
    for t in range(track.shape[0] - 1):
        source, target = track[t], track[t + 1]
        candidates = np.zeros(n, dtype=int)
        if n > 1:
            dist, idx = cKDTree(target).query(source, k=2)
            candidates = idx[:, 0].astype(int)
            for i in np.flatnonzero(dist[:, 0] == dist[:, 1]):
                deltas = target - source[i]
                d2 = np.einsum("ij,ij->i", deltas, deltas)
                candidates[i] = int(np.flatnonzero(d2 == d2.min())[0])
        cand_disp = target[candidates] - source
        order = np.lexsort((np.arange(n), np.linalg.norm(cand_disp, axis=1), candidates))
        ranked = candidates[order]
        mask = np.zeros(n, dtype=bool)
        mask[order[np.r_[True, ranked[1:] != ranked[:-1]]]] = True

        permutation = np.where(mask, candidates, -1)
        velocities = np.where(mask[:, None], cand_disp, 0.0)
        mu1 = velocities[mask].mean(axis=0)
        remaining = sorted(np.setdiff1d(np.arange(n), candidates[mask]).tolist())
        for i in np.flatnonzero(~mask):
            deltas = target[np.asarray(remaining, dtype=int)] - source[i] - mu1
            j = remaining.pop(int(np.argmin(np.einsum("ij,ij->i", deltas, deltas))))
            permutation[i] = j
            velocities[i] = target[j] - source[i]
        if mask.sum() < n / 2:
            messages.append(f"step {t + 1}: only {mask.sum()} of {n} agents matched without conflicts")
        maps.append((permutation, mask, velocities))
    return maps, messages


@st.composite
def tracks(draw):
    """(T, N, 2) tracks: free floats, tie-heavy lattices with signed zeros and
    coincident points, or values up to the coordinate limit, whose squared
    distances are the largest the matching forms."""
    n_frames, n = draw(st.integers(2, 8)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["lattice", "lattice", "free", "limit"]))
    values = {
        "lattice": st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
        "free": coordinates,
        "limit": st.sampled_from([-1e140, -3e139, 0.0, 2e139, 1e140]),
    }[kind]
    size = n_frames * n * 2
    return np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(n_frames, n, 2)


@settings(max_examples=400, deadline=None)
@given(tracks())
def test_velocities_match_the_per_pair_loop(track):
    ds = sim.TrajectoryDataset(wrapped=track)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        maps = mapping.velocities(ds)
        expected, messages = looped_velocities(track)
    assert [str(w.message) for w in caught] == messages
    assert [m.step for m in maps] == list(range(1, track.shape[0]))
    for m, (permutation, mask, vel) in zip(maps, expected, strict=True):
        assert np.array_equal(m.permutation, permutation)
        assert np.array_equal(m.bijective, mask)
        assert np.array_equal(m.velocities, vel)


@st.composite
def crowded_tracks(draw):
    """(T, N, 2) tracks with N > 16 agents on a coarse lattice, so many agents
    coincide and many proposals collide; numpy sorts rows this long with an
    algorithm that is not stable unless asked."""
    n_frames, n = draw(st.integers(2, 4)), draw(st.integers(17, 60))
    spacing = draw(st.sampled_from([[-1.0, -0.0, 0.0, 1.0], [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]]))
    size = n_frames * n * 2
    return np.array(draw(st.lists(st.sampled_from(spacing), min_size=size, max_size=size))).reshape(n_frames, n, 2)


@settings(max_examples=150, deadline=None)
@given(crowded_tracks())
def test_velocities_match_the_per_pair_loop_above_16_agents(track):
    # the same checks as the test above, on its undecorated body
    test_velocities_match_the_per_pair_loop.hypothesis.inner_test(track)


def test_velocities_match_the_per_pair_loop_across_frame_blocks():
    # 89 frame pairs of 150 agents
    n_frames, n = 90, 150
    rng = np.random.default_rng(17)
    steps = rng.normal(scale=0.05, size=(n_frames, n, 2))
    track = rng.uniform(-2.0, 2.0, size=(1, n, 2)) + np.cumsum(steps, axis=0)
    test_velocities_match_the_per_pair_loop.hypothesis.inner_test(track)


class TestStackedRecord:
    """``velocities`` returns one record whose fields carry a leading step axis."""

    @pytest.fixture(scope="class")
    def track(self):
        # 299 frame pairs of 40 agents; frame 103 collapses, so steps 102 and
        # 103 warn, in that order
        n_frames, n = 300, 40
        rng = np.random.default_rng(23)
        steps = rng.normal(scale=0.1, size=(n_frames, n, 2))
        track = rng.uniform(-2.0, 2.0, size=(1, n, 2)) + np.cumsum(steps, axis=0)
        track[102] = track[102].mean(axis=0) + 1e-3 * np.arange(n)[:, None]
        return track

    @pytest.fixture(scope="class")
    def maps(self, track):
        with pytest.warns(mapping.LowConfidenceMatchWarning) as caught:
            maps = mapping.velocities(sim.TrajectoryDataset(wrapped=track))
        assert [str(w.message).split(":")[0] for w in caught] == ["step 102", "step 103"]
        return maps

    def test_fields_are_stacked_by_step(self, track, maps):
        t, n = track.shape[:2]
        assert len(maps) == t - 1
        assert maps.n_agents == n
        assert np.array_equal(maps.step, np.arange(1, t))
        assert maps.permutation.shape == maps.bijective.shape == (t - 1, n)
        assert maps.velocities.shape == (t - 1, n, 2)

    def test_an_int_index_is_that_steps_correspond(self, track, maps):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", mapping.LowConfidenceMatchWarning)
            for s in range(len(maps)):
                one, want = maps[s], mapping.correspond(track[s], track[s + 1])
                assert one.step == s + 1 and want.step == 1
                for name in ("permutation", "bijective", "velocities"):
                    got, expected = getattr(one, name), getattr(want, name)
                    assert got.shape == expected.shape and got.dtype == expected.dtype
                    assert got.tobytes() == expected.tobytes()

    def test_a_slice_is_a_record_of_views(self, maps):
        part = maps[101:104]
        assert np.array_equal(part.step, [102, 103, 104])
        for name in ("permutation", "bijective", "velocities"):
            whole, view = getattr(maps, name), getattr(part, name)
            assert view.shape == (3,) + whole.shape[1:]
            assert np.shares_memory(view, whole)
            assert np.array_equal(view, whole[101:104])

    def test_iteration_gives_what_a_per_step_reader_needs(self, track, maps):
        steps = list(maps)
        n = track.shape[1]
        assert [m.step for m in steps] == list(range(1, track.shape[0]))
        assert all(m.n_agents == n for m in steps)
        assert all(np.array_equal(np.sort(m.permutation), np.arange(n)) for m in steps)
        assert [int(m.bijective.sum()) for m in steps] == maps.bijective.sum(axis=1).tolist()
        residual = sum(m.n_agents - int(m.bijective.sum()) for m in steps)
        assert int((~maps.bijective).sum()) == residual > 0

    def test_the_record_matches_the_per_pair_loop(self, track):
        test_velocities_match_the_per_pair_loop.hypothesis.inner_test(track)


def test_velocities_use_plain_distances_on_either_track():
    # one agent steps (1, 3) in a 4 x 4 box and crosses its right edge
    unwrapped = np.array([[[1.5, 0.0]], [[2.5, 3.0]]])
    ds = sim.TrajectoryDataset(wrapped=sim.wrap_positions(unwrapped, 2.0, 2.0), unwrapped=unwrapped)

    def step(dataset):
        return mapping.velocities(dataset)[0].velocities.tolist()

    assert step(ds) == [[1.0, 3.0]]  # the unwrapped track: the true step
    assert step(replace(ds, unwrapped=None)) == [[-3.0, -1.0]]  # the wrapped track: its wrap jump


def test_a_simulated_wrapped_track_is_matched_like_a_loaded_one():
    # a 5 x 3 box and long steps, so agents cross its edges between frames
    params = sim.make_scenario("speed-switch", n_agents=8, n_steps=100, half_width=2.5, half_height=1.5, dt=2.0, seed=6)
    ds = sim.simulate(params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", mapping.LowConfidenceMatchWarning)
        got = mapping.velocities(replace(ds, unwrapped=None))
        want = mapping.velocities(sim.TrajectoryDataset(wrapped=ds.wrapped))
    for m, expected in zip(got, want, strict=True):
        assert np.array_equal(m.permutation, expected.permutation)
        assert np.array_equal(m.velocities, expected.velocities)
    # plain distances keep the wrap jumps, which are longer than half the box
    assert max(np.abs(m.velocities[:, 0]).max() for m in got) > params.half_width


def test_residual_pass_skips_targets_taken_at_an_earlier_rank():
    # three sources propose target 0; the two losers share a nearest free
    # target, and the second must fall back to the other free one
    source = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
    target = np.array([[0.0, 0.0], [-0.5, 0.0], [5.0, 0.0]])
    m = mapping.correspond(source, target)
    assert list(m.bijective) == [True, False, False]
    assert list(m.permutation) == [0, 1, 2]


class TestNonFinitePositions:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_frame_pair_functions_reject_by_name(self, side, value):
        frames = {"source": np.zeros((3, 2)), "target": np.ones((3, 2))}
        frames[side][1, 0] = value
        for fn in (mapping.correspond, mapping.nearest_neighbor_map):
            with pytest.raises(ValueError, match="must be finite"):
                fn(frames["source"], frames["target"])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_velocities_rejects_by_name(self, value):
        track = np.zeros((4, 3, 2))
        track[2, 1, 1] = value
        with pytest.raises(ValueError, match="must be finite"):
            mapping.velocities(sim.TrajectoryDataset(wrapped=track))


class TestNoAgents:
    def test_velocities_rejects_an_empty_track_by_agent_count(self):
        ds = sim.TrajectoryDataset(wrapped=np.zeros((4, 0, 2)))
        with pytest.raises(ValueError, match="at least 1 agent per frame, found 0"):
            mapping.velocities(ds)

    def test_correspond_rejects_empty_frames_by_agent_count(self):
        with pytest.raises(ValueError, match="at least 1 agent per frame, found 0"):
            mapping.correspond(np.zeros((0, 2)), np.zeros((0, 2)))


def test_velocities_reject_coordinates_past_the_limit_before_matching():
    # squared distances of +-1e200 overflow: matched, every step would keep 1 of 12 agents
    track = np.random.default_rng(0).uniform(-1e200, 1e200, size=(6, 12, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^frame 1: coordinate .* exceeds 1e140 in magnitude$"):
            mapping.velocities(sim.TrajectoryDataset(wrapped=track))


@pytest.mark.parametrize(
    "scenario, settings, errors, steps_with_errors, agent_steps",
    [
        ("speed-switch", {"seed": 0}, 0, 0, 7450),
        ("noise-switch", {"seed": 0}, 0, 0, 7450),
        ("split-rejoin", {"seed": 0}, 0, 0, 10950),
        ("speed-switch", {"n_agents": 150, "n_steps": 150, "seed": 201}, 0, 0, 22350),
        # frames 20x coarser than the default: the halves pass through each other
        ("split-rejoin", {"n_agents": 60, "n_steps": 600, "dt": 1.0, "seed": 201}, 2882, 563, 35940),
    ],
)
def test_identity_errors_against_the_simulated_truth(scenario, settings, errors, steps_with_errors, agent_steps):
    # a simulated track keeps each agent in its slot, so the true map is the identity
    ds = sim.simulate(sim.make_scenario(scenario, **settings))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", mapping.LowConfidenceMatchWarning)
        maps = mapping.velocities(ds)
    wrong = maps.permutation != np.arange(maps.n_agents)
    assert (int(wrong.sum()), int(wrong.any(axis=1).sum()), wrong.size) == (errors, steps_with_errors, agent_steps)
