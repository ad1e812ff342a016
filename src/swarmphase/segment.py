"""Phase segmentation of the coarse observable and manifold labeling.

The time axis is split into contiguous segments by a deterministic 1-D
two-means classification of the observable values; a run shorter than a
minimum length is absorbed together with its neighboring runs. Segments
whose means agree within a tolerance share a manifold label, and each
labeled segment can be characterized by its own Isomap run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .manifold import EmbeddingReport, isomap


class SegmentationWarning(UserWarning):
    """Raised when a segment is too small to analyze."""


@dataclass
class Segment:
    """Contiguous run of steps, 1-based inclusive bounds."""

    start: int
    end: int
    mean_value: float
    label: int | None = None

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass
class PhaseSegmentation:
    segments: list[Segment]

    @property
    def boundaries(self) -> list[int]:
        """Start step of every segment after the first."""
        return [seg.start for seg in self.segments[1:]]

    @property
    def labels(self) -> list[int | None]:
        return [seg.label for seg in self.segments]

    @property
    def n_labels(self) -> int:
        return len({seg.label for seg in self.segments if seg.label is not None})


def two_means_split(values: np.ndarray) -> np.ndarray:
    """Deterministic 1-D two-means classification.

    Centers start at the minimum and maximum, points go to the closer
    center, and centers are recomputed until stable. Returns the class of
    every value; a constant series is all class 0.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-D array")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        return np.zeros(v.size, dtype=int)
    c0, c1 = lo, hi
    classes = np.zeros(v.size, dtype=int)
    for _ in range(200):
        threshold = 0.5 * (c0 + c1)
        new_classes = (v > threshold).astype(int)
        if not new_classes.any() or new_classes.all():
            break
        if np.array_equal(new_classes, classes):
            classes = new_classes
            break
        classes = new_classes
        c0 = float(v[classes == 0].mean())
        c1 = float(v[classes == 1].mean())
    return classes


def segment_series(values: np.ndarray, min_length: int = 10) -> PhaseSegmentation:
    """Partition a series into contiguous segments of like values.

    The runs of equal two-means class alternate, so both neighbors of a run
    share a class. A run shorter than ``min_length`` (shortest first,
    leftmost on ties) therefore takes that class and joins its neighbors
    (one at either end of the series) into one run. The result tiles the series exactly.
    """
    v = np.asarray(values, dtype=float)
    if min_length < 1:
        raise ValueError("min_length must be at least 1")
    if v.size < 2 * min_length:
        raise ValueError(f"series of length {v.size} is too short for min_length {min_length}")

    classes = two_means_split(v)
    bounds = [0, *(np.flatnonzero(np.diff(classes)) + 1).tolist(), v.size]
    lengths = [end - start for start, end in zip(bounds, bounds[1:])]
    while len(lengths) > 1:
        i = lengths.index(min(lengths))
        if lengths[i] >= min_length:
            break
        lo = max(i - 1, 0)
        lengths[lo : i + 2] = [sum(lengths[lo : i + 2])]

    bounds = [0, *accumulate(lengths)]
    segments = [
        Segment(start=start + 1, end=end, mean_value=float(v[start:end].mean()))
        for start, end in zip(bounds, bounds[1:])
    ]
    return PhaseSegmentation(segments=segments)


def label_manifolds(segmentation: PhaseSegmentation, tolerance: float = 0.1) -> PhaseSegmentation:
    """Assign manifold labels by greedy agglomeration of segment means.

    A segment joins the first existing label whose representative mean is
    within ``tolerance``; otherwise it founds a new label. Labels are
    numbered from 1 in order of first appearance.
    """
    if not tolerance >= 0:
        raise ValueError("tolerance must be non-negative")
    representatives: list[float] = []
    labeled = []
    for seg in segmentation.segments:
        label = None
        for idx, rep in enumerate(representatives):
            if abs(seg.mean_value - rep) <= tolerance:
                label = idx + 1
                break
        if label is None:
            representatives.append(seg.mean_value)
            label = len(representatives)
        labeled.append(replace(seg, label=label))
    return replace(segmentation, segments=labeled)


def per_segment_isomap(
    points: np.ndarray,
    segmentation: PhaseSegmentation,
    k: int = 7,
    d_max: int = 10,
    threshold: float = 0.1,
) -> tuple[list[EmbeddingReport | None], EmbeddingReport]:
    """Isomap report per segment plus one for the whole point set.

    ``points`` holds one configuration per step, aligned with the step
    indices of the segmentation. Segments with fewer than 3 configurations
    are skipped with a warning (``None`` in the returned list).
    """
    pts = np.asarray(points, dtype=float)
    reports: list[EmbeddingReport | None] = []
    for seg in segmentation.segments:
        rows = pts[seg.start - 1 : seg.end]
        if rows.shape[0] < 3:
            warnings.warn(
                f"segment {seg.start}-{seg.end} has fewer than 3 configurations; skipped",
                SegmentationWarning,
                stacklevel=2,
            )
            reports.append(None)
            continue
        reports.append(isomap(rows, k=k, d_max=d_max, threshold=threshold))
    full = isomap(pts, k=k, d_max=d_max, threshold=threshold)
    return reports, full
