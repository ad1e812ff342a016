import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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

    def test_dimension_bounds(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValueError):
            manifold.classical_mds(d, 0)
        with pytest.raises(ValueError):
            manifold.classical_mds(d, 3)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            manifold.classical_mds(np.ones((3, 3)), 1)


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

    def test_zero_variance_warns(self):
        d = np.zeros((3, 3))
        with pytest.warns(manifold.ManifoldWarning):
            assert manifold.residual_variance(d, np.zeros((3, 1))) == 0.0


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
        assert np.allclose(a.geodesics, b.geodesics, rtol=1e-9, atol=1e-9)
        assert np.allclose(a.residual_variances, b.residual_variances, atol=1e-7)

    def test_matches_standalone_mds(self):
        pts = swiss_roll(50, seed=12)
        report = manifold.isomap(pts, k=7, d_max=3)
        direct = manifold.classical_mds(report.geodesics, 2)
        assert np.array_equal(report.embeddings[1], direct)

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
    pts, k = case
    graph = manifold.knn_graph(pts, k)
    k_want, neighbors, weights = dense_knn_graph(pts, k)
    assert graph.k == k_want
    for got, want in zip(graph.neighbors, neighbors, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for got, want in zip(graph.weights, weights, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def argsort_mds_spectrum(distances):
    """Reference spectrum: eigh's pairs gathered into descending order through an argsort."""
    d2 = np.asarray(distances, dtype=float) ** 2
    row = d2.mean(axis=1, keepdims=True)
    col = d2.mean(axis=0, keepdims=True)
    gram = -0.5 * (d2 - row - col + d2.mean())
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)
    idx = np.argsort(evals)[::-1]
    return evals[idx], evecs[:, idx]


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


@settings(max_examples=300, deadline=None)
@given(tie_heavy_distances())
def test_mds_spectrum_matches_argsort_gather(distances):
    evals, evecs = manifold._mds_spectrum(distances)
    want_evals, want_evecs = argsort_mds_spectrum(distances)
    assert np.array_equal(evals, want_evals)
    assert np.array_equal(evecs, want_evecs)
