import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmphase import manifold, mapping, observables, segment, sim
from swarmphase.manifold import configuration_matrix


class TestSegmentSeries:
    def test_constant_series_is_one_segment(self):
        out = segment.segment_series(np.full(40, 0.5), min_length=10)
        assert len(out.segments) == 1
        assert (out.segments[0].start, out.segments[0].end) == (1, 40)

    def test_three_block_series(self):
        series = np.concatenate([np.zeros(50), np.ones(50), np.zeros(50)])
        out = segment.segment_series(series, min_length=10)
        assert [(s.start, s.end) for s in out.segments] == [(1, 50), (51, 100), (101, 150)]

    def test_short_spike_absorbed(self):
        series = np.zeros(60)
        series[30:33] = 1.0
        out = segment.segment_series(series, min_length=10)
        assert len(out.segments) == 1

    def test_tiling_and_determinism(self):
        rng = np.random.default_rng(0)
        series = np.concatenate([rng.normal(0.2, 0.02, 40), rng.normal(0.8, 0.02, 40)])
        a = segment.segment_series(series, min_length=10)
        b = segment.segment_series(series, min_length=10)
        assert [(s.start, s.end) for s in a.segments] == [(s.start, s.end) for s in b.segments]
        covered = []
        for s in a.segments:
            covered.extend(range(s.start, s.end + 1))
        assert covered == list(range(1, 81))

    def test_minimum_length_respected(self):
        rng = np.random.default_rng(1)
        series = (rng.random(120) > 0.5).astype(float)  # heavily fragmented
        out = segment.segment_series(series, min_length=10)
        if len(out.segments) > 1:
            assert all(s.end - s.start + 1 >= 10 for s in out.segments)

    def test_series_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            segment.segment_series(np.zeros(15), min_length=10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 37, 59])
    def test_non_finite_values_rejected(self, value, at):
        series = np.concatenate([np.full(30, 0.2), np.full(30, 0.8)])
        series[at] = value
        with pytest.raises(ValueError, match="^values must be finite$"):
            segment.segment_series(series, min_length=10)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-5, 5))
    def test_translation_leaves_boundaries(self, shift):
        series = np.concatenate([np.full(30, 0.2), np.full(30, 0.8)])
        base = segment.segment_series(series, min_length=10)
        moved = segment.segment_series(series + shift, min_length=10)
        assert [(s.start, s.end) for s in base.segments] == [
            (s.start, s.end) for s in moved.segments
        ]


class TestLabels:
    def test_outer_segments_share_a_label(self):
        series = np.concatenate([np.full(30, 0.3), np.full(30, 0.8), np.full(30, 0.3)])
        out = segment.label_manifolds(segment.segment_series(series, 10), tolerance=0.1)
        assert out.labels == [1, 2, 1]
        assert out.n_labels == 2

    def test_all_close_means_single_label(self):
        series = np.concatenate([np.full(30, 0.50), np.full(30, 0.55), np.full(30, 0.50)])
        seg3 = segment.PhaseSegmentation(
            segments=[
                segment.Segment(1, 30, 0.50),
                segment.Segment(31, 60, 0.55),
                segment.Segment(61, 90, 0.50),
            ],
        )
        out = segment.label_manifolds(seg3, tolerance=0.1)
        assert out.n_labels == 1

    def test_zero_tolerance_separates_distinct_means(self):
        seg3 = segment.PhaseSegmentation(
            segments=[
                segment.Segment(1, 30, 0.30),
                segment.Segment(31, 60, 0.31),
            ],
        )
        out = segment.label_manifolds(seg3, tolerance=0.0)
        assert out.labels == [1, 2]

    def test_negative_tolerance_rejected(self):
        seg1 = segment.PhaseSegmentation(segments=[segment.Segment(1, 10, 0.5)])
        with pytest.raises(ValueError):
            segment.label_manifolds(seg1, tolerance=-0.5)


    @pytest.mark.parametrize("means", [[0.0, 1.0, 0.0], [0.5]])
    def test_nan_tolerance_rejected(self, means):
        # NaN passes a ``tolerance < 0`` check and then merges no two segments
        seg = segment.PhaseSegmentation(
            segments=[segment.Segment(10 * i + 1, 10 * i + 10, m) for i, m in enumerate(means)]
        )
        with pytest.raises(ValueError, match="^tolerance must be non-negative$"):
            segment.label_manifolds(seg, tolerance=np.nan)


class TestPerSegmentIsomap:
    def test_single_segment_equals_full(self):
        rng = np.random.default_rng(2)
        pts = np.cumsum(rng.normal(size=(30, 6)), axis=0)
        seg1 = segment.PhaseSegmentation(segments=[segment.Segment(1, 30, 0.0)])
        reports, full = segment.per_segment_isomap(pts, seg1, k=5)
        assert reports[0].dimension == full.dimension
        assert np.array_equal(reports[0].residual_variances, full.residual_variances)

    def test_tiny_segment_skipped_with_warning(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 4))
        segs = segment.PhaseSegmentation(
            segments=[segment.Segment(1, 2, 0.0), segment.Segment(3, 20, 1.0)],
        )
        with pytest.warns(segment.SegmentationWarning):
            reports, _ = segment.per_segment_isomap(pts, segs, k=3)
        assert reports[0] is None
        assert reports[1] is not None


def test_isomap_warnings_carry_the_isomap_name_in_order():
    # 20 equal configurations: every Isomap's distances have zero variance
    # at each dimension; the 2-step segment is skipped, unnamed
    pts = np.ones((20, 4))
    segs = segment.PhaseSegmentation(
        segments=[segment.Segment(1, 10, 0.0), segment.Segment(11, 12, 0.0), segment.Segment(13, 20, 0.0)],
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        segment.per_segment_isomap(pts, segs, k=3, d_max=2)
    zero = "distance vector has zero variance; residual variance defined as 0"
    assert [(w.category, str(w.message)) for w in caught] == [
        (manifold.ManifoldWarning, f"segment 1-10: d=1: {zero}"),
        (manifold.ManifoldWarning, f"segment 1-10: d=2: {zero}"),
        (segment.SegmentationWarning, "segment 11-12 has fewer than 3 configurations; skipped"),
        (manifold.ManifoldWarning, f"segment 13-20: d=1: {zero}"),
        (manifold.ManifoldWarning, f"segment 13-20: d=2: {zero}"),
        (manifold.ManifoldWarning, f"full: d=1: {zero}"),
        (manifold.ManifoldWarning, f"full: d=2: {zero}"),
    ]


def test_speed_switch_scenario_structure():
    # end-to-end: default speed-switch run segments into the expected phases
    params = sim.scenario_speed_switch(seed=0)
    ds = sim.simulate(params)
    maps = mapping.velocities(ds)
    series = observables.compute_observables(ds, maps)
    out = segment.label_manifolds(segment.segment_series(series.coarse, 10), 0.1)
    assert len(out.segments) == 3
    assert out.n_labels == 2
    assert out.labels[0] == out.labels[2] != out.labels[1]
    assert abs(out.segments[1].start - 50) <= 5
    assert abs(out.segments[2].start - 100) <= 5
    mid = out.segments[1].mean_value
    assert mid > out.segments[0].mean_value and mid > out.segments[2].mean_value


def runs_of(classes):
    # [start, end, class] with 0-based inclusive bounds
    runs = []
    start = 0
    for i in range(1, classes.size):
        if classes[i] != classes[i - 1]:
            runs.append([start, i - 1, int(classes[i - 1])])
            start = i
    runs.append([start, classes.size - 1, int(classes[-1])])
    return runs


def closer_mean_segmentation(values, min_length):
    """Reference merge: a short run takes the class of the neighbor with the closer mean."""
    v = np.asarray(values, dtype=float)
    classes = segment.two_means_split(v)
    if v.min() == v.max():
        return [(1, v.size, float(v.mean()))]
    runs = runs_of(classes)
    while len(runs) > 1:
        lengths = [end - start + 1 for start, end, _ in runs]
        i = int(np.argmin(lengths))
        if lengths[i] >= min_length:
            break
        start, end, _ = runs[i]
        run_mean = v[start : end + 1].mean()
        choices = []
        if i > 0:
            s, e, c = runs[i - 1]
            choices.append((abs(v[s : e + 1].mean() - run_mean), c))
        if i < len(runs) - 1:
            s, e, c = runs[i + 1]
            choices.append((abs(v[s : e + 1].mean() - run_mean), c))
        classes[start : end + 1] = min(choices, key=lambda c: c[0])[1]
        runs = runs_of(classes)
    return [(s + 1, e + 1, float(v[s : e + 1].mean())) for s, e, _ in runs]


@st.composite
def series_and_min_length(draw):
    """Random, few-level, blocky and constant series with any admissible ``min_length``."""
    size = draw(st.integers(2, 120))
    kind = draw(st.sampled_from(["random", "levels", "blocks", "constant"]))
    level = st.floats(-1e3, 1e3, allow_nan=False)
    if kind == "random":
        values = draw(st.lists(level, min_size=size, max_size=size))
    elif kind == "levels":
        levels = draw(st.lists(level, min_size=1, max_size=3))
        values = draw(st.lists(st.sampled_from(levels), min_size=size, max_size=size))
    elif kind == "blocks":
        values = []
        while len(values) < size:
            values += [draw(level)] * draw(st.integers(1, 30))
        values = values[:size]
    else:
        values = [draw(level)] * size
    return np.array(values), draw(st.integers(1, size // 2))


@settings(max_examples=500, deadline=None)
@given(series_and_min_length())
def test_merge_by_length_matches_closer_mean_reference(case):
    values, min_length = case
    out = segment.segment_series(values, min_length)
    want = closer_mean_segmentation(values, min_length)
    assert [(s.start, s.end) for s in out.segments] == [(s, e) for s, e, _ in want]
    assert [s.mean_value.hex() for s in out.segments] == [m.hex() for _, _, m in want]
