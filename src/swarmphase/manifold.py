"""Isomap dimensionality analysis of configuration sets.

Configurations (stacked agent positions) are treated as points in 2N-dim
space. A symmetrized k-nearest-neighbor graph approximates the manifold,
graph geodesics approximate intrinsic distances, classical multidimensional
scaling embeds them, and the residual variance curve over target dimensions
yields an intrinsic-dimension estimate (first dimension whose residual drops
below a threshold). Nothing is logged: a rise in the residual curve shows in
the returned ``residual_variances`` and in ``residual_*.csv``.

Graph connectivity and Dijkstra shortest paths come from
``scipy.sparse.csgraph``. MDS solves only the top eigenpairs it reads (the
top ``d_max`` in ``isomap``) with ``scipy.linalg.eigh(subset_by_index=...)``,
and fixes each axis's sign: its largest-magnitude entry is positive.

Every Euclidean distance has the bits of ``scipy.spatial.distance.pdist``:
squared differences added one axis at a time from the first, then ``sqrt``.
No n x n distance matrix is built for the neighbour graph: a Gram-matrix
estimate screens each point's candidates, and only those are measured.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from .sim import check_track


# rows per band where an n x n quantity is screened, condensed, symmetrised
# or scaled into the distance image: whole, the Gram estimates, the upper
# triangle's differences, ``np.minimum(out, out.T)`` or ``mat / peak`` would
# build a second n x n array
_BAND_ROWS = 64


class ManifoldWarning(UserWarning):
    """Raised for degenerate spectra or unreachable residual thresholds."""


@dataclass
class NeighborGraph:
    """Symmetrized k-nearest-neighbor graph with Euclidean edge weights.

    ``neighbors[i]`` lists each neighbor of vertex ``i`` once, and
    ``weights[i]`` the matching edge lengths.
    """

    n_vertices: int
    k: int
    neighbors: list[np.ndarray]
    weights: list[np.ndarray]


@dataclass
class EmbeddingReport:
    """Everything produced by one Isomap run.

    ``embeddings[d-1]`` has shape ``(n, d)``; successive embeddings share
    their leading coordinate axes. ``dimension`` is the first ``d`` whose
    residual variance is at or below the threshold. ``residual_variances``
    is the whole curve, rises included; no log record reports them.
    """

    embeddings: list[np.ndarray]
    residual_variances: np.ndarray
    dimension: int
    k: int


def configuration_matrix(positions: np.ndarray) -> np.ndarray:
    """Flatten a track that passes ``sim.check_track`` into ``(T, 2N)`` points."""
    pos = check_track(positions)
    return pos.reshape(pos.shape[0], -1)


def _exact_distances(columns: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``pdist``'s distance of each pair ``(rows[m], cols[m])`` of the points
    whose coordinates are the columns of ``columns``, shape ``(dim, n)``."""
    total = np.zeros(len(rows))
    for axis in columns:
        step = axis[rows] - axis[cols]
        step *= step
        total += step
    return np.sqrt(total, out=total)


def _nearest_ranks(columns: np.ndarray, width: int) -> np.ndarray:
    """Each point's ``width`` nearest other points, nearest first and ties in
    index order: the stable ``argsort`` of its row of ``pdist`` distances, past itself.

    A Gram band of centred points ``a``, ``b`` estimates the squared
    distances. To first order an estimate is within
    ``(dim + 3) * eps * (|a| + |b|) ** 2`` of ``pdist``'s sum of squares, and
    two sums that tie under ``sqrt`` differ by at most
    ``2 * eps * (|a| + |b|) ** 2``. So with ``|b|`` taken as the largest norm,
    ``bound = (dim + 5) * (eps * (|a| + |b|) ** 2 + tiny)`` covers an
    estimate's error, half such a tie, the higher orders and underflow: every
    point that can rank ahead of or tie with a row's ``width``-th has an
    estimate within ``2 * bound`` of that row's ``width``-th estimate. Only
    those candidates are measured exactly and sorted.
    """
    dim, n = columns.shape
    # inf - inf in the centring is NaN, which the check below also refuses
    with np.errstate(over="ignore", invalid="ignore"):
        centred = columns.T - columns.mean(axis=1)
        squares = np.einsum("ij,ij->i", centred, centred)
        norms = np.sqrt(squares)
        bound = (dim + 5) * (np.finfo(float).eps * (norms + norms.max()) ** 2 + np.finfo(float).tiny)
    if not np.isfinite(bound).all():
        raise ValueError("points are too far apart: their squared distances overflow")
    ranked = np.empty((n, width), dtype=np.intp)
    for lo in range(0, n, _BAND_ROWS):
        hi = min(lo + _BAND_ROWS, n)
        estimates = centred[lo:hi] @ centred.T
        estimates *= -2.0
        estimates += squares[lo:hi, None]
        estimates += squares
        band = np.arange(hi - lo)
        # a point is not its own neighbour
        estimates[band, band + lo] = np.inf
        reach = np.partition(estimates, width - 1, axis=1)[:, width - 1] + 2.0 * bound[lo:hi]
        rows, cols = np.nonzero(estimates <= reach[:, None])
        order = np.lexsort((cols, _exact_distances(columns, rows + lo, cols), rows))
        # nonzero lists the rows in order, each with at least width candidates
        ranked[lo:hi] = cols[order][np.searchsorted(rows, band)[:, None] + np.arange(width)]
    return ranked


def _symmetrise(mat: np.ndarray, combine: np.ufunc) -> None:
    """Set both triangles of the square ``mat`` to ``combine(mat, mat.T)`` in place.

    ``combine`` must be symmetric in its arguments. A band of rows at a time:
    each band reads only rows and columns at or past its own first row, which
    earlier bands never write.
    """
    n = mat.shape[0]
    for lo in range(0, n, _BAND_ROWS):
        hi = min(lo + _BAND_ROWS, n)
        band = combine(mat[lo:hi, lo:], mat[lo:, lo:hi].T)
        mat[lo:hi, lo:] = band
        mat[lo:, lo:hi] = band.T


def knn_graph(points: np.ndarray, k: int) -> NeighborGraph:
    """Symmetrized k-nearest-neighbor graph, grown until connected.

    An edge exists when either endpoint lists the other among its k nearest.
    If the graph is disconnected, k is incremented until it is connected;
    the final k is reported on the returned graph.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array of row vectors")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least 2 configurations to build a neighbor graph")
    if k < 1:
        raise ValueError("k must be at least 1")

    columns = pts.T.copy()
    k_eff = min(k, n - 1)
    ranked = _nearest_ranks(columns, k_eff)
    while True:
        # row i lists its k_eff nearest; undirected components link i and j
        # when either row lists the other
        listed = csr_matrix(
            (np.ones(n * k_eff, dtype=bool), ranked[:, :k_eff].ravel(), np.arange(0, n * k_eff + 1, k_eff)),
            shape=(n, n),
        )
        if connected_components(listed, directed=False)[0] == 1:
            break
        k_eff += 1
        if k_eff > ranked.shape[1]:
            ranked = _nearest_ranks(columns, min(2 * ranked.shape[1], n - 1))

    # sorted_indices: the sum need not list a row's neighbours in index order
    edges = (listed + listed.T).sorted_indices()
    cols = edges.indices.astype(np.intp)
    rows = np.repeat(np.arange(n), np.diff(edges.indptr))
    neighbors = np.split(cols, edges.indptr[1:-1])
    weights = np.split(_exact_distances(columns, rows, cols), edges.indptr[1:-1])
    return NeighborGraph(n_vertices=n, k=k_eff, neighbors=neighbors, weights=weights)


def geodesic_distances(graph: NeighborGraph) -> np.ndarray:
    """All-pairs shortest-path lengths via Dijkstra from every vertex.

    Zero-weight edges (duplicate configurations) are kept as edges.
    """
    n = graph.n_vertices
    rows = np.repeat(np.arange(n), [len(nbr) for nbr in graph.neighbors])
    cols = np.concatenate(graph.neighbors)
    adjacency = csr_matrix((np.concatenate(graph.weights), (rows, cols)), shape=(n, n))
    out = shortest_path(adjacency, method="D")
    if np.isinf(out).any():
        raise ValueError("graph is disconnected; geodesic distances undefined")
    # Forward and reverse path sums can differ in the last bit; keep the
    # smaller, which symmetrizes the matrix exactly.
    _symmetrise(out, np.minimum)
    return out


def _mds_spectrum(gram: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``top`` largest eigenpairs of the double-centred Gram matrix, in
    descending order. Each eigenvector's largest-magnitude entry, the first
    of equals, is positive. An eigenvalue at or below ``lambda_max * n * eps``
    (the ``numpy.linalg.matrix_rank`` rule), rounding noise or negative, is
    returned as 0; ``classical_mds`` and ``isomap`` share this rule.

    ``gram`` holds the squared distances, C-contiguous float64, on entry; the
    Gram matrix is built and solved in that buffer, which is left overwritten.
    """
    # centred in place step by step, in the rounding order of
    # -0.5 * (d2 - row - col + mean)
    row = gram.mean(axis=1, keepdims=True)
    col = gram.mean(axis=0, keepdims=True)
    mean = gram.mean()
    gram -= row
    gram -= col
    gram += mean
    gram *= -0.5
    # then 0.5 * (g + g.T), in two steps so that each band makes one temporary
    _symmetrise(gram, np.add)
    gram *= 0.5
    n = gram.shape[0]
    # eigh reads only the lower triangle of gram.T (lower=True), the Fortran
    # order that LAPACK overwrites without a copy of its own
    evals, evecs = eigh(gram.T, subset_by_index=(n - top, n - 1), overwrite_a=True)
    # eigh returns ascending eigenvalues; reversed views give descending order
    evals, evecs = evals[::-1], evecs[:, ::-1]
    evals = np.where(evals > abs(evals[0]) * n * np.finfo(float).eps, evals, 0.0)
    peaks = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(top)]
    return evals, evecs * np.where(peaks < 0.0, -1.0, 1.0)


def classical_mds(distances: np.ndarray, dim: int) -> np.ndarray:
    """Classical (Torgerson) MDS coordinates for a target dimension.

    Coordinates are the top eigenvectors of the double-centered squared
    distance matrix, scaled by the square roots of their eigenvalues.
    Only the top ``dim`` eigenpairs are solved. An eigenvalue counts as
    positive above ``lambda_max * n * eps``; the axes past the positive ones
    are zero, with a warning. Each axis's largest-magnitude entry is positive.
    """
    dmat = np.asarray(distances, dtype=float)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise ValueError("distance matrix must be square")
    n = dmat.shape[0]
    if not np.isfinite(dmat).all():
        raise ValueError("distance matrix must be finite")
    if not np.allclose(dmat, dmat.T):
        raise ValueError("distance matrix must be symmetric")
    if not np.allclose(np.diag(dmat), 0.0):
        raise ValueError("distance matrix must have a zero diagonal")
    if not (1 <= dim <= n - 1):
        raise ValueError(f"embedding dimension must be in [1, {n - 1}], got {dim}")
    evals, evecs = _mds_spectrum(dmat**2, dim)
    n_positive = int(np.count_nonzero(evals))
    if n_positive < dim:
        warnings.warn(
            f"only {n_positive} positive eigenvalues; padding {dim - n_positive} "
            "embedding axes with zeros",
            ManifoldWarning,
            stacklevel=2,
        )
    return evecs * np.sqrt(evals)


def _upper_triangle(mat: np.ndarray) -> np.ndarray:
    """The condensed form of a square matrix: its upper triangle in row order."""
    n = mat.shape[0]
    return mat[np.arange(n)[:, None] < np.arange(n)]


def _add_squared_differences(total: np.ndarray, column: np.ndarray) -> None:
    """Add ``(column[i] - column[j]) ** 2`` to the condensed ``total`` entry of
    each pair ``i < j``, in place, 64 rows of the upper triangle at a time."""
    n = len(column)
    start = 0
    for lo in range(0, n - 1, _BAND_ROWS):
        hi = min(lo + _BAND_ROWS, n - 1)
        step = np.subtract.outer(column[lo:hi], column[lo:])
        step *= step
        upper = step[np.arange(lo, hi)[:, None] < np.arange(lo, n)]
        total[start : start + len(upper)] += upper
        start += len(upper)


def _residual(g: np.ndarray, gg: float, e: np.ndarray, dim: int) -> float:
    """``residual_variance`` from the centred condensed geodesics ``g``,
    ``gg = g @ g`` and the embedded distances ``e``, which are centred in place."""
    e -= e.mean()
    ee = e @ e
    if gg == 0.0 or ee == 0.0:
        warnings.warn(
            f"d={dim}: distance vector has zero variance; residual variance defined as 0",
            ManifoldWarning,
            stacklevel=3,
        )
        return 0.0
    rho = (g @ e) / (np.sqrt(gg) * np.sqrt(ee))
    return float(np.clip(1.0 - rho * rho, 0.0, 1.0))


def residual_variance(geodesics: np.ndarray, embedding: np.ndarray) -> float:
    """One minus the squared correlation of geodesic vs embedded distances.

    ``geodesics`` is the square matrix or its condensed upper triangle (the
    ``squareform`` convention).
    """
    gmat = np.asarray(geodesics, dtype=float)
    coords = np.asarray(embedding, dtype=float)
    n = coords.shape[0]
    if gmat.shape != ((n, n) if gmat.ndim == 2 else (n * (n - 1) // 2,)):
        raise ValueError("geodesic matrix and embedding must cover the same points")
    g = _upper_triangle(gmat) if gmat.ndim == 2 else gmat
    g = g - g.mean()
    total = np.zeros(n * (n - 1) // 2)
    for column in coords.T:
        _add_squared_differences(total, column)
    return _residual(g, g @ g, np.sqrt(total, out=total), coords.shape[1])


def _residual_curve(condensed: np.ndarray, embedding: np.ndarray) -> np.ndarray:
    """``residual_variance(condensed, embedding[:, :d])`` for every ``d``, the
    same bits: one running sum of squared differences gains an embedding axis
    per ``d``, which is how ``pdist`` adds them. ``condensed`` is centred in place.
    """
    condensed -= condensed.mean()
    gg = condensed @ condensed
    total = np.zeros_like(condensed)
    distances = np.empty_like(condensed)
    curve = np.empty(embedding.shape[1])
    for d, column in enumerate(embedding.T):
        _add_squared_differences(total, column)
        curve[d] = _residual(condensed, gg, np.sqrt(total, out=distances), d + 1)
    return curve


def estimate_dimension(residuals: np.ndarray, threshold: float = 0.1) -> int:
    """Smallest dimension whose residual variance is at or below threshold."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residual curve is empty")
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    below = np.flatnonzero(r <= threshold)
    if below.size:
        return int(below[0]) + 1
    warnings.warn(
        f"no dimension reaches residual {threshold}; reporting the maximum tried",
        ManifoldWarning,
        stacklevel=2,
    )
    return int(r.size)


def isomap(points: np.ndarray, k: int = 7, d_max: int = 10, threshold: float = 0.1) -> EmbeddingReport:
    """Full Isomap pass: neighbor graph, geodesics, embeddings, dimension.

    ``d_max`` is capped at ``n - 1``. Residual variance should be
    non-increasing in the embedding dimension, but the degenerate spectral
    tail can make it rise; a rise is returned as is and not reported.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array of row vectors")
    if pts.shape[0] < 3:
        raise ValueError("need at least 3 configurations for isomap")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")

    n = pts.shape[0]
    graph = knn_graph(pts, k)
    geo = geodesic_distances(graph)
    cap = min(d_max, n - 1)

    condensed = _upper_triangle(geo)
    # squared in place and handed over: the spectrum is solved in geo's
    # buffer, which is then freed before the residual curve
    evals, evecs = _mds_spectrum(np.square(geo, out=geo), cap)
    del geo
    full = evecs * np.sqrt(evals)
    embeddings = [full[:, :d] for d in range(1, cap + 1)]
    residuals = _residual_curve(condensed, full)
    return EmbeddingReport(
        embeddings=embeddings,
        residual_variances=residuals,
        dimension=estimate_dimension(residuals, threshold),
        k=graph.k,
    )
