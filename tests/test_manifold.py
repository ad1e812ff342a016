import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist, squareform

from swarmphase import manifold


def floyd_warshall(n, edges):
    """Dense min-plus oracle for all-pairs shortest paths."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in edges:
        d[i, j] = min(d[i, j], w)
        d[j, i] = min(d[j, i], w)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def graph_from_edges(n, edges):
    nbrs = [[] for _ in range(n)]
    wts = [[] for _ in range(n)]
    for i, j, w in edges:
        nbrs[i].append(j)
        wts[i].append(w)
        nbrs[j].append(i)
        wts[j].append(w)
    return manifold.NeighborGraph(
        n_vertices=n,
        k=0,
        neighbors=[np.array(a, dtype=int) for a in nbrs],
        weights=[np.array(a, dtype=float) for a in wts],
    )


def random_connected_graph(rng, n):
    """Random spanning tree plus extra edges, small integer weights."""
    edges = set()
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        edges.add((min(a, b), max(a, b)))
    extra = int(rng.integers(0, 2 * n))
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return [(int(i), int(j), float(rng.integers(1, 10))) for i, j in edges]


class TestKnnGraph:
    def test_collinear_points_make_a_path(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        g = manifold.knn_graph(pts, k=1)
        assert list(g.neighbors[0]) == [1]
        assert list(g.neighbors[1]) == [0, 2]
        assert list(g.neighbors[2]) == [1]

    def test_disconnected_clusters_grow_k(self):
        cluster = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        pts = np.vstack([cluster, cluster + [50.0, 0.0]])
        g = manifold.knn_graph(pts, k=1)
        assert g.k > 1
        # connected after growth
        geo = manifold.geodesic_distances(g)
        assert np.isfinite(geo).all()

    def test_large_k_is_complete(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(6, 3))
        g = manifold.knn_graph(pts, k=10)
        assert g.k == 5
        assert all(len(nbr) == 5 for nbr in g.neighbors)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            manifold.knn_graph(np.zeros((1, 2)), k=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [manifold.knn_graph, manifold.isomap], ids=["knn_graph", "isomap"])
    def test_non_finite_point_rejected(self, fn, value):
        # an inf point used to give a graph, and isomap then failed as disconnected
        pts = np.random.default_rng(0).uniform(size=(8, 3))
        pts[5, 1] = value
        with pytest.raises(ValueError, match="^points must be finite$"):
            fn(pts, 3)


class TestGeodesics:
    def test_path_graph_endpoints(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        geo = manifold.geodesic_distances(g)
        assert geo[0, 2] == 2.0
        assert np.array_equal(geo, geo.T)
        assert np.array_equal(np.diag(geo), np.zeros(3))

    def test_complete_metric_graph_keeps_direct_edges(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(8, 2))
        g = manifold.knn_graph(pts, k=7)
        geo = manifold.geodesic_distances(g)
        direct = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        assert np.allclose(geo, direct)

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(3, 50))
            edges = random_connected_graph(rng, n)
            got = manifold.geodesic_distances(graph_from_edges(n, edges))
            want = floyd_warshall(n, edges)
            assert np.array_equal(got, want)  # integer weights: exact

    def test_zero_weight_edges_match_floyd_warshall_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 50))
            edges = [(i, j, float(rng.integers(0, 3))) for i, j, _ in random_connected_graph(rng, n)]
            got = manifold.geodesic_distances(graph_from_edges(n, edges))
            assert np.array_equal(got, floyd_warshall(n, edges))

    def test_duplicate_configurations_are_zero_apart(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        geo = manifold.geodesic_distances(manifold.knn_graph(pts, k=1))
        assert np.array_equal(geo, [[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [5.0, 5.0, 0.0]])

    def test_metric_axioms_exhaustive_hundred_vertices(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(100, 3))
        geo = manifold.geodesic_distances(manifold.knn_graph(pts, k=4))
        assert np.array_equal(geo, geo.T)
        assert np.array_equal(np.diag(geo), np.zeros(100))
        assert np.all(geo[np.triu_indices(100, 1)] > 0)
        lhs = geo[:, None, :]
        rhs = geo[:, :, None] + geo[None, :, :]
        assert np.all(lhs <= rhs + 1e-12)

    def test_disconnected_rejected(self):
        g = graph_from_edges(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="disconnected"):
            manifold.geodesic_distances(g)


class TestClassicalMds:
    def test_recovers_collinear_coordinates(self):
        coords = np.array([0.0, 1.0, 3.0])
        d = np.abs(coords[:, None] - coords[None, :])
        emb = manifold.classical_mds(d, 1)[:, 0]
        emb -= emb.min()
        if emb[0] > emb[-1]:
            emb = emb.max() - emb
        assert np.max(np.abs(np.sort(emb) - coords)) < 1e-9

    def test_planar_distances_reproduced_exactly(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-5, 5, size=(40, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        emb = manifold.classical_mds(d, 2)
        d2 = np.linalg.norm(emb[:, None] - emb[None, :], axis=2)
        assert np.max(np.abs(d2 - d)) < 1e-9 * max(1.0, d.max())

    def test_zero_matrix_embeds_to_zeros(self):
        with pytest.warns(manifold.ManifoldWarning):
            emb = manifold.classical_mds(np.zeros((4, 4)), 2)
        assert np.array_equal(emb, np.zeros((4, 2)))

    def test_padding_warns(self):
        coords = np.array([0.0, 1.0, 2.0, 3.0])
        d = np.abs(coords[:, None] - coords[None, :])
        with pytest.warns(manifold.ManifoldWarning, match="padding"):
            emb = manifold.classical_mds(d, 3)
        assert np.allclose(emb[:, 1:], 0.0, atol=1e-6)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 20, 60])
    def test_collinear_points_pad_all_but_one_axis(self, n):
        # the zero eigenvalues of a line come out as rounding noise of either
        # sign; below lambda_max * n * eps they count as zero
        for seed in range(10):
            rng = np.random.default_rng(seed)
            t = rng.uniform(-5.0, 5.0, n)
            direction = rng.normal(size=3)
            pts = t[:, None] * (direction / np.linalg.norm(direction)) + rng.normal(size=3)
            d = squareform(pdist(pts))
            with pytest.warns(manifold.ManifoldWarning, match="only 1 positive eigenvalues; padding 1 "):
                emb = manifold.classical_mds(d, 2)
            assert np.array_equal(emb[:, 1], np.zeros(n))
            assert np.abs(np.abs(emb[:, 0, None] - emb[None, :, 0]) - d).max() < 1e-9

    def test_thin_planar_set_keeps_its_second_axis(self):
        # lambda_2 / lambda_1 ~ 1e-12 is far above n * eps: a real axis, not padding
        rng = np.random.default_rng(13)
        pts = np.column_stack([rng.uniform(0.0, 1.0, 20), 1e-6 * rng.uniform(0.0, 1.0, 20)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emb = manifold.classical_mds(squareform(pdist(pts)), 2)
        assert np.all(emb[:, 1] != 0.0)

    def test_dimension_bounds(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValueError):
            manifold.classical_mds(d, 0)
        with pytest.raises(ValueError):
            manifold.classical_mds(d, 3)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            manifold.classical_mds(np.ones((3, 3)), 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_distance_rejected_before_symmetry(self, value):
        # a NaN distance used to fail as "must be symmetric"
        d = squareform(pdist(np.arange(8.0).reshape(4, 2)))
        d[1, 2] = value
        with pytest.raises(ValueError, match="^distance matrix must be finite$"):
            manifold.classical_mds(d, 1)


class TestResidualVariance:
    def test_perfect_embedding_gives_zero(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(20, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        assert manifold.residual_variance(d, pts) < 1e-12

    def test_flattening_a_grid_leaves_residual(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        grid = np.column_stack([xs.ravel(), ys.ravel()])
        d = np.linalg.norm(grid[:, None] - grid[None, :], axis=2)
        emb = manifold.classical_mds(d, 1)
        assert manifold.residual_variance(d, emb) > 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(size=(15, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        emb = manifold.classical_mds(d, 2)
        assert manifold.residual_variance(d, emb) == manifold.residual_variance(d, emb)

    def test_condensed_geodesics_give_the_square_result(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(size=(25, 3))
        d = squareform(pdist(pts))
        emb = manifold.classical_mds(d, 2)
        condensed = squareform(d, checks=False)
        assert manifold.residual_variance(condensed, emb) == manifold.residual_variance(d, emb)
        with pytest.raises(ValueError, match="same points"):
            manifold.residual_variance(condensed[:-1], emb)

    def test_zero_variance_warns(self):
        d = np.zeros((3, 3))
        with pytest.warns(manifold.ManifoldWarning):
            assert manifold.residual_variance(d, np.zeros((3, 1))) == 0.0

    def test_zero_variance_warning_names_the_dimension(self):
        with pytest.warns(manifold.ManifoldWarning, match=r"^d=2: distance vector has zero variance"):
            manifold.residual_variance(np.zeros((3, 3)), np.zeros((3, 2)))


def pdist_residual(condensed, coords):
    """Reference residual variance: the correlation of the condensed geodesics with ``pdist``."""
    g = condensed - condensed.mean()
    e = pdist(coords)
    e -= e.mean()
    gg, ee = g @ g, e @ e
    if gg == 0.0 or ee == 0.0:
        return 0.0
    rho = (g @ e) / (np.sqrt(gg) * np.sqrt(ee))
    return float(np.clip(1.0 - rho * rho, 0.0, 1.0))


# 65 points have 64 rows in the upper triangle, one band; 66 have two
@pytest.mark.parametrize("n", [2, 3, 64, 65, 66, 130, 200])
def test_running_sums_have_the_bits_of_pdist_for_each_dimension(n):
    rng = np.random.default_rng(n)
    coords = rng.normal(size=(n, 8)) * 10.0 ** rng.integers(-4, 5, size=8)
    total = np.zeros(n * (n - 1) // 2)
    for d in range(1, 9):
        manifold._add_squared_differences(total, coords[:, d - 1])
        assert np.sqrt(total).tobytes() == pdist(coords[:, :d]).tobytes()


@pytest.mark.parametrize("n", [3, 40, 66, 150])
def test_residual_curve_has_the_bits_of_pdist_for_each_dimension(n):
    rng = np.random.default_rng(n + 1)
    pts = np.cumsum(rng.normal(size=(n, 12)), axis=0)
    report = manifold.isomap(pts, k=5, d_max=10)
    condensed = squareform(manifold.geodesic_distances(manifold.knn_graph(pts, 5)), checks=False)
    full = report.embeddings[-1]
    want = [pdist_residual(condensed, full[:, :d]) for d in range(1, full.shape[1] + 1)]
    assert report.residual_variances.tobytes() == np.array(want).tobytes()
    # the public function measures its own distances, with the same bits
    got = [manifold.residual_variance(condensed, full[:, :d]) for d in range(1, full.shape[1] + 1)]
    assert got == want


class TestEstimateDimension:
    def test_threshold_rule(self):
        r = np.array([0.8, 0.3, 0.05, 0.04, 0.03])
        assert manifold.estimate_dimension(r, 0.1) == 3

    def test_immediate_hit(self):
        assert manifold.estimate_dimension(np.array([0.05, 0.01]), 0.1) == 1

    def test_never_below_warns_and_returns_max(self):
        with pytest.warns(manifold.ManifoldWarning):
            assert manifold.estimate_dimension(np.array([0.9, 0.8, 0.7]), 0.1) == 3

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            manifold.estimate_dimension(np.array([]))

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            manifold.estimate_dimension(np.array([0.5]), 1.5)


def swiss_roll(n, seed=0):
    rng = np.random.default_rng(seed)
    t = 1.5 * np.pi * (1.0 + rng.random(n))
    h = 20.0 * rng.random(n)
    return np.column_stack((t * np.cos(t), h, t * np.sin(t)))


class TestIsomap:
    def test_planar_sheet_in_high_dim(self):
        rng = np.random.default_rng(7)
        sheet = np.zeros((60, 10))
        sheet[:, 0] = rng.uniform(0, 4, 60)
        sheet[:, 1] = rng.uniform(0, 4, 60)
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        report = manifold.isomap(sheet @ q, k=7)
        assert report.dimension == 2

    def test_swiss_roll_unrolls_to_two(self):
        report = manifold.isomap(swiss_roll(300), k=7)
        assert report.dimension == 2
        assert report.k == 7

    def test_duplicated_points_keep_dimension(self):
        rng = np.random.default_rng(8)
        sheet = np.column_stack([rng.uniform(0, 3, 40), rng.uniform(0, 3, 40), np.zeros(40)])
        base = manifold.isomap(sheet, k=5).dimension
        doubled = manifold.isomap(np.vstack([sheet, sheet]), k=5).dimension
        assert doubled == base

    def test_embeddings_are_nested(self):
        report = manifold.isomap(swiss_roll(80, seed=9), k=7, d_max=5)
        for d in range(1, 5):
            assert np.array_equal(report.embeddings[d][:, :d], report.embeddings[d - 1])

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(10)
        pts = swiss_roll(100, seed=11)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = pts @ q + rng.normal(size=3)
        a = manifold.isomap(pts, k=7)
        b = manifold.isomap(moved, k=7)
        assert a.dimension == b.dimension
        geo_a = manifold.geodesic_distances(manifold.knn_graph(pts, 7))
        geo_b = manifold.geodesic_distances(manifold.knn_graph(moved, 7))
        assert np.allclose(geo_a, geo_b, rtol=1e-9, atol=1e-9)
        assert np.allclose(a.residual_variances, b.residual_variances, atol=1e-7)

    def test_matches_standalone_mds(self):
        pts = swiss_roll(50, seed=12)
        report = manifold.isomap(pts, k=7, d_max=3)
        geo = manifold.geodesic_distances(manifold.knn_graph(pts, 7))
        # the same request as isomap's (the top d_max = 3 pairs) gives the same bits
        direct = manifold.classical_mds(geo, 3)[:, :2]
        assert np.array_equal(report.embeddings[1], direct)

    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_collinear_points_embed_on_one_axis(self, n):
        # classical_mds's rule: eigenvalues at rounding-noise size give zero axes
        pts = np.outer(np.linspace(0.0, 1.0, n), [1.0, 2.0, -1.0])
        report = manifold.isomap(pts, k=3, d_max=4)
        assert np.all(report.embeddings[-1][:, 0] != 0.0)
        assert np.all(report.embeddings[-1][:, 1:] == 0.0)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            manifold.isomap(np.zeros((2, 4)))


def test_configuration_matrix_shape():
    pos = np.arange(24, dtype=float).reshape(2, 6, 2)
    mat = manifold.configuration_matrix(pos)
    assert mat.shape == (2, 12)
    assert np.array_equal(mat[0, :2], pos[0, 0])


def dense_knn_graph(points, k):
    """Reference graph: an n x n bool adjacency rebuilt for every k tried."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    distances = squareform(pdist(pts))
    order = np.argsort(distances, axis=1, kind="stable")
    rows = np.arange(n)[:, None]
    ranked = order[order != rows].reshape(n, n - 1)
    k_eff = min(k, n - 1)
    while True:
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[rows, ranked[:, :k_eff]] = True
        adjacency |= adjacency.T
        if connected_components(csr_matrix(adjacency), directed=False)[0] == 1:
            break
        k_eff += 1
    neighbors = [np.flatnonzero(adjacency[i]) for i in range(n)]
    weights = [distances[i, nbr] for i, nbr in enumerate(neighbors)]
    return k_eff, neighbors, weights


def assert_matches_dense_knn_graph(pts, k):
    graph = manifold.knn_graph(pts, k)
    k_want, neighbors, weights = dense_knn_graph(pts, k)
    assert graph.k == k_want
    for got, want in zip(graph.neighbors, neighbors, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for got, want in zip(graph.weights, weights, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return graph


@st.composite
def clustered_lattice_points(draw):
    """Shuffled clusters of small-lattice points: distance ties, duplicates, and k that must grow."""
    dim = draw(st.integers(1, 3))
    cell = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
    clusters = [
        np.array(draw(st.lists(cell, min_size=1, max_size=10)), dtype=float) + 100.0 * c
        for c in range(draw(st.integers(1, 4)))
    ]
    pts = np.vstack(clusters) * draw(st.sampled_from([1.0, 0.1, 3e5]))
    assume(pts.shape[0] >= 2)
    order = draw(st.permutations(range(pts.shape[0])))
    return pts[order], draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(clustered_lattice_points())
def test_knn_graph_matches_dense_per_k_reference(case):
    assert_matches_dense_knn_graph(*case)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_knn_graph_lattice_ties_at_the_cut(k):
    # an inner vertex of a 6x6 unit lattice has 4 neighbours at distance 1 and
    # 4 at sqrt(2): with k = 1..3 and 5 the cut falls inside a tie, n > k + 1
    xs, ys = np.meshgrid(np.arange(6.0), np.arange(6.0))
    lattice = np.column_stack([xs.ravel(), ys.ravel()])
    order = np.random.default_rng(k).permutation(len(lattice))
    assert_matches_dense_knn_graph(lattice[order], k)


def test_knn_graph_grows_k_until_the_clusters_connect():
    # three clusters of 8 points far apart: k=1 must grow to 8, the first k
    # at which a point lists a neighbour in another cluster
    rng = np.random.default_rng(11)
    pts = np.vstack([rng.uniform(size=(8, 3)) + 100.0 * c for c in range(3)])
    graph = assert_matches_dense_knn_graph(pts[rng.permutation(len(pts))], 1)
    assert graph.k == 8


# the screen's hard cases: a common offset of 1e6 under steps of 1e-3 (the
# Gram matrix of the raw points would cancel away every difference), lattice
# ties at the k-th rank, coordinates at the track limit and repeated points
SCREEN_CASES = {
    "offset-lattice": lambda rng: 1e6 + 1e-3 * rng.integers(0, 4, size=(150, 6)),
    "offset-walk": lambda rng: 1e6 + np.cumsum(1e-3 * rng.normal(size=(130, 20)), axis=0),
    "ties": lambda rng: rng.integers(0, 3, size=(140, 3)).astype(float),
    "limit": lambda rng: 1e140 * rng.choice([-1.0, 0.0, 1.0], size=(90, 4)) * rng.integers(1, 3, size=(1, 4)),
    "duplicates": lambda rng: rng.normal(size=(12, 5))[rng.integers(0, 12, size=100)],
}


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("kind", SCREEN_CASES)
def test_knn_graph_screen_matches_the_dense_reference(kind, k):
    assert_matches_dense_knn_graph(SCREEN_CASES[kind](np.random.default_rng(k)), k)


@st.composite
def screen_stress_points(draw):
    """Small point sets of one of ``SCREEN_CASES``' kinds, with a random k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, dim = draw(st.integers(2, 70)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["offset", "ties", "limit", "duplicates"]))
    if kind == "offset":
        pts = 1e6 + 1e-3 * rng.integers(0, 4, size=(n, dim))
    elif kind == "ties":
        pts = rng.integers(0, 3, size=(n, dim)).astype(float)
    elif kind == "limit":
        pts = 1e140 * rng.choice([-1.0, 0.0, 1.0], size=(n, dim))
    else:
        pts = rng.normal(size=(draw(st.integers(1, 10)), dim))
        pts = pts[rng.integers(0, len(pts), size=n)]
    return pts, draw(st.integers(1, 8))


@settings(max_examples=200, deadline=None)
@given(screen_stress_points())
def test_knn_graph_screen_matches_the_dense_reference_on_stress_sets(case):
    assert_matches_dense_knn_graph(*case)


def test_knn_graph_rejects_points_whose_squared_distances_overflow():
    with pytest.raises(ValueError, match="^points are too far apart: their squared distances overflow$"):
        manifold.knn_graph(np.array([[-1e300, 0.0], [0.0, 0.0], [1e300, 0.0]]), 1)


def test_knn_graph_holds_no_square_distance_matrix():
    # the screen holds bands of 64 rows; squareform(pdist) held 1.5 matrices
    n = 599
    pts = np.cumsum(np.random.default_rng(1).normal(size=(n, 60)), axis=0)
    tracemalloc.start()
    try:
        manifold.knn_graph(pts, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * n * n * 8


def test_knn_graph_grows_k_past_twice_the_request_across_bands():
    # two clusters of 70 points far apart and k=5: the ranks are cut at 5, 10,
    # 20, 40 and 80 columns before the graph connects at k=70, and every cut
    # spans bands of 64 rows
    rng = np.random.default_rng(12)
    pts = np.vstack([rng.uniform(size=(70, 3)) + 100.0 * c for c in range(2)])
    graph = assert_matches_dense_knn_graph(pts[rng.permutation(len(pts))], 5)
    assert graph.k == 70


def double_centred_gram(distances):
    """Reference Gram matrix of classical MDS: -1/2 J D^2 J, symmetrized."""
    d2 = np.asarray(distances, dtype=float) ** 2
    row = d2.mean(axis=1, keepdims=True)
    col = d2.mean(axis=0, keepdims=True)
    gram = -0.5 * (d2 - row - col + d2.mean())
    return 0.5 * (gram + gram.T)


@st.composite
def tie_heavy_distances(draw):
    """Distance matrices with repeated eigenvalues: duplicated configurations, integer lattices, all zeros."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["duplicates", "lattice", "zeros"]))
    if kind == "zeros":
        return np.zeros((n, n))
    dim = draw(st.integers(1, 4))
    if kind == "lattice":
        cell = st.lists(st.integers(0, 2), min_size=dim, max_size=dim)
        pts = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
    else:
        coord = st.floats(-5.0, 5.0, allow_nan=False)
        distinct = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=4))
        copies = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
        pts = np.array(distinct, dtype=float)[copies]
    return squareform(pdist(pts))


@st.composite
def random_distances(draw):
    """Euclidean distances of random points, or geodesics of their k-NN graph (negative eigenvalues)."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, draw(st.integers(1, 6)))) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        return squareform(pdist(pts))
    return manifold.geodesic_distances(manifold.knn_graph(pts, draw(st.integers(1, 4))))


@st.composite
def spectrum_requests(draw):
    distances = draw(st.one_of(tie_heavy_distances(), random_distances()))
    return distances, draw(st.integers(1, max(1, distances.shape[0] - 1)))


@settings(max_examples=300, deadline=None)
@given(spectrum_requests())
def test_mds_spectrum_returns_the_top_eigenpairs(request):
    distances, top = request
    evals, evecs = manifold._mds_spectrum(distances**2, top)
    gram = double_centred_gram(distances)
    every = np.linalg.eigvalsh(gram)
    tol = 1e-9 * max(1.0, np.abs(every).max())
    assert evals.shape == (top,) and evecs.shape == (gram.shape[0], top)
    wanted = every[::-1][:top]
    # at or below lambda_max * n * eps (rounding noise or negative) reads as 0
    positive = wanted > abs(wanted[0]) * gram.shape[0] * np.finfo(float).eps
    assert np.all(evals >= 0.0)
    assert np.abs(evals - np.where(positive, wanted, 0.0)).max() <= tol
    assert np.linalg.norm(gram @ evecs - evecs * wanted, axis=0).max() <= tol
    assert np.abs(evecs.T @ evecs - np.eye(top)).max() <= 1e-9
    # sign rule: the largest-magnitude entry of each axis, the first of equals, is positive
    assert np.all(evecs[np.argmax(np.abs(evecs), axis=0), np.arange(top)] > 0.0)


def full_buffer_mds_spectrum(distances, top):
    """``_mds_spectrum`` through the reference Gram matrix, built with full-size temporaries."""
    gram = double_centred_gram(distances)
    n = gram.shape[0]
    evals, evecs = eigh(gram, subset_by_index=(n - top, n - 1))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    evals = np.where(evals > abs(evals[0]) * n * np.finfo(float).eps, evals, 0.0)
    peaks = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(top)]
    return evals, evecs * np.where(peaks < 0.0, -1.0, 1.0)


def assert_same_bits_as_full_buffer_spectrum(distances, top):
    kept = distances.copy()
    evals, evecs = manifold._mds_spectrum(distances**2, top)
    want_evals, want_evecs = full_buffer_mds_spectrum(distances, top)
    assert np.array_equal(evals, want_evals)
    assert np.array_equal(evecs, want_evecs)
    assert np.array_equal(distances, kept)


# 63, 64 and 65 sit around the symmetrisation band of 64 rows
@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 200])
def test_mds_spectrum_bits_match_the_full_buffer_gram(n):
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(n, 4))
    distances = squareform(pdist(pts))
    if n > 3:
        # geodesics are not Euclidean, so the Gram matrix has negative eigenvalues
        distances = manifold.geodesic_distances(manifold.knn_graph(pts, 4))
    assert_same_bits_as_full_buffer_spectrum(distances, min(10, n - 1))


@settings(max_examples=100, deadline=None)
@given(tie_heavy_distances(), st.integers(1, 10))
def test_mds_spectrum_bits_match_the_full_buffer_gram_with_ties(distances, top):
    assert_same_bits_as_full_buffer_spectrum(distances, min(top, distances.shape[0] - 1))


def test_classical_mds_leaves_its_input_unchanged():
    distances = squareform(pdist(np.random.default_rng(5).normal(size=(30, 3))))
    kept = distances.copy()
    manifold.classical_mds(distances, 3)
    assert np.array_equal(distances, kept)


def test_mds_spectrum_peak_memory_stays_near_one_matrix():
    # the Gram matrix is built and solved in the caller's squared buffer, so
    # nothing of n x n floats is allocated (0.25 matrices: eigh's finiteness
    # mask, bands and eigenvectors); squaring into a buffer of its own peaked
    # at 1.25 matrices, the full-size temporaries before that at 3.09
    n = 599
    squared = squareform(pdist(np.random.default_rng(6).normal(size=(n, 5)))) ** 2
    tracemalloc.start()
    try:
        manifold._mds_spectrum(squared, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * n * n * 8


def test_isomap_peak_memory_stays_below_two_matrices():
    # the geodesics are condensed without a copy, squared in place and solved
    # in their own buffer, then dropped before the residual curve (1.84
    # matrices); a second geodesic matrix for the minimum, the square kept
    # alive through the residuals and a full argsort peaked at 2.61
    n = 599
    pts = np.cumsum(np.random.default_rng(0).normal(size=(n, 60)), axis=0)
    tracemalloc.start()
    try:
        manifold.isomap(pts, 7, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * n * n * 8
