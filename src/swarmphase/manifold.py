"""Isomap dimensionality analysis of configuration sets.

Configurations (stacked agent positions) are treated as points in 2N-dim
space. A symmetrized k-nearest-neighbor graph approximates the manifold,
graph geodesics approximate intrinsic distances, classical multidimensional
scaling embeds them, and the residual variance curve over target dimensions
yields an intrinsic-dimension estimate (first dimension whose residual drops
below a threshold).

Graph connectivity and Dijkstra shortest paths come from
``scipy.sparse.csgraph``; MDS uses a dense symmetric eigendecomposition.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.spatial.distance import pdist, squareform

logger = logging.getLogger(__name__)


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
    residual variance is at or below ``threshold``.
    """

    geodesics: np.ndarray
    embeddings: list[np.ndarray]
    residual_variances: np.ndarray
    dimension: int
    threshold: float
    k: int

    @property
    def n_points(self) -> int:
        return self.geodesics.shape[0]


def configuration_matrix(positions: np.ndarray) -> np.ndarray:
    """Flatten per-frame agent positions ``(T, N, 2)`` into ``(T, 2N)`` points."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 3 or pos.shape[2] != 2:
        raise ValueError("positions must have shape (T, N, 2)")
    return pos.reshape(pos.shape[0], -1)


def knn_graph(points: np.ndarray, k: int) -> NeighborGraph:
    """Symmetrized k-nearest-neighbor graph, grown until connected.

    An edge exists when either endpoint lists the other among its k nearest.
    If the graph is disconnected, k is incremented until it is connected;
    the final k is reported on the returned graph.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array of row vectors")
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least 2 configurations to build a neighbor graph")
    if k < 1:
        raise ValueError("k must be at least 1")

    distances = squareform(pdist(pts))
    order = np.argsort(distances, axis=1, kind="stable")
    rows = np.arange(n)[:, None]
    ranked = order[order != rows].reshape(n, n - 1)

    k_eff = min(k, n - 1)
    while True:
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[rows, ranked[:, :k_eff]] = True
        adjacency |= adjacency.T
        # sparse input: csgraph would first copy a dense matrix to float64
        if connected_components(csr_matrix(adjacency), directed=False)[0] == 1:
            break
        k_eff += 1

    neighbors = [np.flatnonzero(adjacency[i]) for i in range(n)]
    weights = [distances[i, nbr] for i, nbr in enumerate(neighbors)]
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
    out = np.minimum(out, out.T)
    np.fill_diagonal(out, 0.0)
    return out


def _mds_spectrum(distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = np.asarray(distances, dtype=float) ** 2
    row = d2.mean(axis=1, keepdims=True)
    col = d2.mean(axis=0, keepdims=True)
    gram = -0.5 * (d2 - row - col + d2.mean())
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)
    idx = np.argsort(evals)[::-1]
    return evals[idx], evecs[:, idx]


def classical_mds(distances: np.ndarray, dim: int) -> np.ndarray:
    """Classical (Torgerson) MDS coordinates for a target dimension.

    Coordinates are the top eigenvectors of the double-centered squared
    distance matrix, scaled by the square roots of their eigenvalues.
    Dimensions beyond the positive spectrum are zero-padded with a warning.
    Deterministic up to per-axis sign.
    """
    dmat = np.asarray(distances, dtype=float)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise ValueError("distance matrix must be square")
    n = dmat.shape[0]
    if not np.allclose(dmat, dmat.T):
        raise ValueError("distance matrix must be symmetric")
    if not np.allclose(np.diag(dmat), 0.0):
        raise ValueError("distance matrix must have a zero diagonal")
    if not (1 <= dim <= n - 1):
        raise ValueError(f"embedding dimension must be in [1, {n - 1}], got {dim}")
    evals, evecs = _mds_spectrum(dmat)
    leading = evals[:dim]
    n_positive = int(np.sum(leading > 0.0))
    if n_positive < dim:
        warnings.warn(
            f"only {n_positive} positive eigenvalues; padding {dim - n_positive} "
            "embedding axes with zeros",
            ManifoldWarning,
            stacklevel=2,
        )
    return evecs[:, :dim] * np.sqrt(np.clip(leading, 0.0, None))


def residual_variance(geodesics: np.ndarray, embedding: np.ndarray) -> float:
    """One minus the squared correlation of geodesic vs embedded distances."""
    gmat = np.asarray(geodesics, dtype=float)
    coords = np.asarray(embedding, dtype=float)
    if gmat.shape[0] != coords.shape[0]:
        raise ValueError("geodesic matrix and embedding must cover the same points")
    g = gmat[np.triu_indices(gmat.shape[0], k=1)]
    e = pdist(coords)
    if g.std() == 0.0 or e.std() == 0.0:
        warnings.warn(
            "distance vector has zero variance; residual variance defined as 0",
            ManifoldWarning,
            stacklevel=2,
        )
        return 0.0
    rho = np.corrcoef(g, e)[0, 1]
    return float(np.clip(1.0 - rho * rho, 0.0, 1.0))


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
    non-increasing in the embedding dimension; violations beyond 1e-9 are
    logged (the spectral tail can be degenerate) but are not fatal.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array of row vectors")
    if pts.shape[0] < 3:
        raise ValueError("need at least 3 configurations for isomap")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")

    graph = knn_graph(pts, k)
    geo = geodesic_distances(graph)
    cap = min(d_max, pts.shape[0] - 1)

    evals, evecs = _mds_spectrum(geo)
    full = evecs[:, :cap] * np.sqrt(np.clip(evals[:cap], 0.0, None))
    embeddings = [full[:, :d] for d in range(1, cap + 1)]
    residuals = np.array([residual_variance(geo, emb) for emb in embeddings])

    # the curve should be non-increasing; the degenerate spectral tail can
    # fluctuate, so violations are logged rather than raised
    rises = np.flatnonzero(np.diff(residuals) > 1e-9)
    if rises.size:
        dims = ", ".join(str(int(d) + 2) for d in rises)
        logger.info("residual variance increased at dimension(s) %s", dims)

    return EmbeddingReport(
        geodesics=geo,
        embeddings=embeddings,
        residual_variances=residuals,
        dimension=estimate_dimension(residuals, threshold),
        threshold=threshold,
        k=graph.k,
    )
