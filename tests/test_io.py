import os
import re
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmphase import io as io_
from swarmphase import observables, sim
from swarmphase.mapping import CorrespondenceMap
from swarmphase.segment import PhaseSegmentation, Segment


class TestTrajectoryCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pos = rng.uniform(-8, 8, size=(5, 7, 2)) * np.exp(rng.normal(size=(5, 7, 2)))
        path = tmp_path / "traj.csv"
        io_.save_trajectory_csv(path, pos)
        loaded = io_.load_trajectory_csv(path)
        assert np.array_equal(loaded.wrapped, pos)

    def test_three_column_form(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,0.0,0.5\n1,1.0,0.5\n2,0.1,0.5\n2,1.1,0.5\n")
        ds = io_.load_trajectory_csv(path)
        assert ds.n_frames == 2 and ds.n_agents == 2
        assert np.allclose(ds.wrapped[1, 1], [1.1, 0.5])

    def test_four_column_orders_by_id(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2,5.0,0.0\n1,1,1.0,0.0\n")
        ds = io_.load_trajectory_csv(path)
        assert np.allclose(ds.wrapped[0], [[1.0, 0.0], [5.0, 0.0]])

    def test_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,id,x,y\n1,1,0.0,0.0\n1,2,1.0,0.0\n")
        ds = io_.load_trajectory_csv(path)
        assert ds.n_agents == 2

    def test_ragged_frame_error_names_frame(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,0.0,0.0\n1,1.0,0.0\n2,0.0,0.0\n2,1.0,0.0\n2,2.0,0.0\n")
        with pytest.raises(ValueError, match="frame 2: expected 2 agents, found 3"):
            io_.load_trajectory_csv(path)

    def test_non_numeric_error_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,0.0,0.0\n1,oops,0.0\n")
        with pytest.raises(ValueError, match="line 2"):
            io_.load_trajectory_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,0.0\n")
        with pytest.raises(ValueError, match="line 1"):
            io_.load_trajectory_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no data rows"):
            io_.load_trajectory_csv(path)

    def test_writer_bytes(self, tmp_path):
        path = tmp_path / "traj.csv"
        io_.save_trajectory_csv(path, np.array([[[0.0, 1.5], [2.0, 3.0]], [[0.1, -2.0], [1e-20, 4.0]]]))
        assert path.read_bytes() == b"1,1,0,1.5\n1,2,2,3\n2,1,0.10000000000000001,-2\n2,2,9.9999999999999995e-21,4\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_line(self, tmp_path, value):
        path = tmp_path / "t.csv"
        path.write_text(f"1,0.0,0.0\n1,{value},0.0\n")
        with pytest.raises(ValueError, match=f"line 2: non-finite field '{value}'"):
            io_.load_trajectory_csv(path)

    def test_fractional_frame_label_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,0.0,0.0\n1,1.0,0.0\n1.5,2.0,0.0\n1.5,3.0,0.0\n")
        with pytest.raises(ValueError, match="line 3: frame label '1.5' is not an integer"):
            io_.load_trajectory_csv(path)

    def test_duplicate_id_in_frame_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,1,0.0,0.0\n1,1,1.0,0.0\n2,1,0.0,0.0\n2,2,1.0,0.0\n")
        with pytest.raises(ValueError, match="line 2: duplicate id '1' in frame 1"):
            io_.load_trajectory_csv(path)


def full_buffer_pgm_pixels(delta):
    """The PGM pixels through one full-size temporary per operation."""
    peak = delta.max()
    scaled = delta / peak if peak > 0 else np.zeros_like(delta)
    return np.rint(255.0 * scaled).clip(0, 255).astype(np.uint8).tobytes()


class TestDistancePgm:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, tmp_path, value):
        # NaN failed ``peak > 0``, so the matrix was written as an all-black image
        delta = np.zeros((3, 3))
        delta[2, 1] = value
        with pytest.raises(ValueError, match="^distance matrix must be finite$"):
            io_.save_distance_pgm(tmp_path / "d.pgm", delta)
        assert not (tmp_path / "d.pgm").exists()

    def test_all_zero_matrix_is_black(self, tmp_path):
        path = tmp_path / "d.pgm"
        io_.save_distance_pgm(path, np.zeros((3, 3)))
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 3\n255\n")
        assert data[len(b"P5\n3 3\n255\n"):] == bytes(9)

    def test_max_entry_is_white(self, tmp_path):
        delta = np.zeros((2, 2))
        delta[0, 1] = delta[1, 0] = 0.5
        path = tmp_path / "d.pgm"
        io_.save_distance_pgm(path, delta)
        pixels = path.read_bytes()[len(b"P5\n2 2\n255\n"):]
        assert list(pixels) == [0, 255, 255, 0]

    def test_symmetric_image(self, tmp_path):
        series = np.random.default_rng(1).random(20)
        delta = observables.distance_matrix(series)
        path = tmp_path / "d.pgm"
        io_.save_distance_pgm(path, delta)
        pixels = np.frombuffer(path.read_bytes()[len(b"P5\n20 20\n255\n"):], dtype=np.uint8)
        img = pixels.reshape(20, 20)
        assert np.array_equal(img, img.T)

    def test_byte_deterministic(self, tmp_path):
        delta = observables.distance_matrix(np.random.default_rng(2).random(9))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        io_.save_distance_pgm(p1, delta)
        io_.save_distance_pgm(p2, delta)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "delta",
        [
            observables.distance_matrix(np.random.default_rng(3).random(40)),
            # 150 rows: bands of 64, 64 and 22 rows
            observables.distance_matrix(np.random.default_rng(6).random(150)),
            np.random.default_rng(4).random((7, 5)),
            np.zeros((6, 6)),
            np.zeros((1, 1)),
            np.array([[0.25]]),
        ],
        ids=["random-series", "random-series-3-bands", "random-rectangle", "all-zero", "1x1-zero", "1x1"],
    )
    def test_pixels_match_the_full_buffer_scaling(self, tmp_path, delta):
        kept = delta.copy()
        path = tmp_path / "d.pgm"
        io_.save_distance_pgm(path, delta)
        header = f"P5\n{delta.shape[1]} {delta.shape[0]}\n255\n".encode("ascii")
        assert path.read_bytes() == header + full_buffer_pgm_pixels(delta)
        assert np.array_equal(delta, kept)

    def test_peak_memory_stays_near_one_matrix(self, tmp_path):
        # a band of rows scaled, rounded and clipped at a time into the uint8
        # image (0.34 matrices: the image and two bands); one full scaled
        # buffer peaked at 1.38 matrices, the chained expression at 3.0
        n = 599
        delta = observables.distance_matrix(np.random.default_rng(5).random(n))
        tracemalloc.start()
        try:
            io_.save_distance_pgm(tmp_path / "d.pgm", delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * n * n * 8


class TestOtherWriters:
    def test_observables_csv(self, tmp_path):
        series = observables.ObservableSeries(
            speed=np.array([0.5, 1.0]),
            polarization=np.array([1.0, 0.25]),
            components=np.array([1, 2]),
            coarse=np.array([0.5, 0.42]),
            epsilon=1.5,
        )
        path = tmp_path / "obs.csv"
        io_.save_observables_csv(path, series)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,speed,P,C,X"
        assert lines[1].startswith("1,0.5,1,1,0.5")

    def test_segments_csv(self, tmp_path):
        seg = PhaseSegmentation(segments=[Segment(1, 49, 0.5, label=1), Segment(50, 99, 0.66, label=2)])
        path = tmp_path / "seg.csv"
        io_.save_segments_csv(path, seg, dimensions=[2, None])
        lines = path.read_text().splitlines()
        assert lines[0] == "start,end,mean_X,label,dstar"
        assert lines[1] == "1,49,0.5,1,2"
        assert lines[2] == f"50,99,{0.66:.17g},2,"

    def test_residual_and_embedding_csv(self, tmp_path):
        io_.save_residual_csv(tmp_path / "r.csv", np.array([0.5, 0.05]))
        assert (tmp_path / "r.csv").read_text().splitlines() == [
            "d,residual_variance",
            "1,0.5",
            f"2,{0.05:.17g}",
        ]
        io_.save_embedding_csv(tmp_path / "e.csv", np.array([[1.0, 2.0]]))
        assert (tmp_path / "e.csv").read_text().splitlines() == ["index,x1,x2", "1,1,2"]

    def test_correspondence_csv(self, tmp_path):
        maps = CorrespondenceMap(
            step=np.array([1]),
            permutation=np.array([[1, 0]]),
            bijective=np.array([[True, False]]),
            velocities=np.array([[[0.1, 0.0], [0.0, -0.2]]]),
        )
        path = tmp_path / "c.csv"
        io_.save_correspondence_csv(path, maps)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,source,target,bijective,vx,vy"
        assert lines[1] == f"1,1,2,1,{0.1:.17g},0"
        assert lines[2] == f"1,2,1,0,0,{-0.2:.17g}"


class TestConfigParsing:
    def test_key_value_with_comments(self):
        text = "# run setup\nscenario = speed-switch\nseed= 7  # fixed\n\nk =9\n"
        assert io_.parse_config_text(text) == {"scenario": "speed-switch", "seed": "7", "k": "9"}

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 2"):
            io_.parse_config_text("a = 1\nnot a pair\n")

    def test_repeated_key_is_rejected_by_line(self):
        with pytest.raises(ValueError, match=r"^config line 3: duplicate key 'k'$"):
            io_.parse_config_text("k = 5\nseed = 1\nk = 9\n")


@st.composite
def trajectories(draw, bound=None):
    """Finite ``(T, N, 2)`` arrays up to ``bound`` in magnitude (any if None), signed zeros and subnormals included."""
    n_frames, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = st.floats(min_value=bound and -bound, max_value=bound, allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(values, min_size=n_frames * n * 2, max_size=n_frames * n * 2))).reshape(n_frames, n, 2)


def saved_rows(tmp_path_factory, positions):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    io_.save_trajectory_csv(path, positions)
    return path, path.read_text().splitlines()


def drop_id(row):
    t, _, x, y = row.split(",")
    return f"{t},{x},{y}"


class TestTrajectoryCsvFuzz:
    @settings(max_examples=100, deadline=None)
    @given(trajectories(io_.MAX_COORDINATE), st.randoms(use_true_random=False))
    def test_round_trip_is_exact_in_both_forms(self, tmp_path_factory, positions, random):
        path, rows = saved_rows(tmp_path_factory, positions)
        # the 4-column form orders by frame label and id, so any row order loads the same
        shuffled = random.sample(rows, len(rows))
        path.write_text("\n".join(shuffled) + "\n")
        assert io_.load_trajectory_csv(path).wrapped.tobytes() == positions.tobytes()
        path.write_text("\n".join(map(drop_id, rows)) + "\n")
        assert io_.load_trajectory_csv(path).wrapped.tobytes() == positions.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(trajectories(io_.MAX_COORDINATE), st.data())
    def test_bad_line_is_rejected_by_number(self, tmp_path_factory, positions, data):
        path, rows = saved_rows(tmp_path_factory, positions)
        kind = data.draw(st.sampled_from(["nan", "huge", "frame", "duplicate", "fields", "underscore"]))
        k = data.draw(st.integers(0, len(rows) - 1))
        fields = rows[k].split(",")
        if kind == "duplicate":
            # a copy of an earlier row of the same file repeats its (frame, id)
            j = data.draw(st.integers(0, k))
            rows.insert(k + 1, rows[j])
            t, agent = rows[j].split(",")[:2]
            message = f"line {k + 2}: duplicate id '{agent}' in frame {t}"
        else:
            if kind == "nan":
                fields[data.draw(st.sampled_from([2, 3]))] = "nan"
                message = f"line {k + 1}: non-finite field 'nan'"
            elif kind == "huge":
                fields[data.draw(st.sampled_from([2, 3]))] = "-1.0000000000000003e+140"
                message = f"line {k + 1}: field '-1.0000000000000003e+140' exceeds 1e140 in magnitude"
            elif kind == "frame":
                fields[0] = "1.5"
                message = f"line {k + 1}: frame label '1.5' is not an integer"
            elif kind == "underscore":
                fields[data.draw(st.sampled_from([0, 2, 3]))] = "1_0"
                message = f"line {k + 1}: non-numeric field '1_0'"
            else:
                count = data.draw(st.sampled_from([1, 2, 5, 6]))
                fields = (fields * 2)[:count]
                message = f"line {k + 1}: expected 3 or 4 fields, found {count}"
            rows[k] = ",".join(fields)
            if data.draw(st.booleans(), label="three-column form"):
                rows = [row if i == k else drop_id(row) for i, row in enumerate(rows)]
                if kind != "fields":
                    rows[k] = drop_id(rows[k])
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            io_.load_trajectory_csv(path)


def per_value_rows(positions):
    """Reference text of ``save_trajectory_csv``: one ``format_float`` per value."""
    return "".join(
        f"{t},{i},{io_.format_float(x)},{io_.format_float(y)}\n"
        for t, frame in enumerate(positions, start=1)
        for i, (x, y) in enumerate(frame, start=1)
    )


class TestFrameAtATimeWriters:
    def test_special_values_print_as_format_float(self, tmp_path):
        pos = np.array([[[-0.0, 5e-324], [1e300, 3.0]], [[2.0**53, -1e-310], [0.1, -2.5]]])
        path = tmp_path / "t.csv"
        io_.save_trajectory_csv(path, pos)
        assert path.read_text() == per_value_rows(pos)
        assert path.read_text().splitlines()[:2] == ["1,1,-0,4.9406564584124654e-324", "1,2,1.0000000000000001e+300,3"]

    @settings(max_examples=100, deadline=None)
    @given(trajectories())
    def test_trajectory_bytes_match_the_per_value_reference(self, tmp_path_factory, positions):
        _, rows = saved_rows(tmp_path_factory, positions)
        assert "\n".join(rows) + "\n" == per_value_rows(positions)

    @settings(max_examples=50, deadline=None)
    @given(trajectories())
    def test_correspondence_bytes_match_the_per_row_reference(self, tmp_path_factory, velocities):
        steps, n = velocities.shape[:2]
        t = np.arange(steps)[:, None]
        maps = CorrespondenceMap(
            step=np.arange(1, steps + 1),
            permutation=(np.arange(n) - t) % n,
            bijective=np.arange(n) % 2 == t % 2,
            velocities=velocities,
        )
        path = tmp_path_factory.mktemp("csv") / "c.csv"
        io_.save_correspondence_csv(path, maps)
        expected = ["t,source,target,bijective,vx,vy"] + [
            f"{m.step},{i + 1},{int(m.permutation[i]) + 1},{int(m.bijective[i])},"
            f"{io_.format_float(m.velocities[i, 0])},{io_.format_float(m.velocities[i, 1])}"
            for m in maps
            for i in range(n)
        ]
        assert path.read_text() == "\n".join(expected) + "\n"


any_floats = st.floats(allow_nan=True, allow_infinity=True)


def observable_series(speed, polarization, components, coarse):
    return observables.ObservableSeries(
        speed=np.array(speed, dtype=float),
        polarization=np.array(polarization, dtype=float),
        components=np.array(components, dtype=int),
        coarse=np.array(coarse, dtype=float),
        epsilon=1.0,
    )


def per_value_observables(series):
    """Reference text of ``save_observables_csv``: one ``format_float`` per value."""
    ff = io_.format_float
    columns = zip(series.speed, series.polarization, series.components, series.coarse)
    rows = enumerate(columns, start=1)
    lines = ["t,speed,P,C,X"] + [f"{t},{ff(s)},{ff(p)},{int(c)},{ff(x)}" for t, (s, p, c, x) in rows]
    return "\n".join(lines) + "\n"


def per_value_residuals(residuals):
    lines = ["d,residual_variance"] + [f"{d},{io_.format_float(r)}" for d, r in enumerate(residuals, start=1)]
    return "\n".join(lines) + "\n"


def per_value_embedding(coords):
    lines = ["index," + ",".join(f"x{i + 1}" for i in range(coords.shape[1]))]
    lines += [f"{idx}," + ",".join(io_.format_float(c) for c in row) for idx, row in enumerate(coords, start=1)]
    return "\n".join(lines) + "\n"


@st.composite
def observable_tables(draw):
    """Series of 0-6 steps; any float in the float columns, NaN and infinities included."""
    n = draw(st.integers(0, 6))
    floats = st.lists(any_floats, min_size=n, max_size=n)
    components = st.lists(st.integers(0, 200), min_size=n, max_size=n)
    return observable_series(draw(floats), draw(floats), draw(components), draw(floats))


@st.composite
def embeddings(draw):
    """``(n, d)`` coordinates with n in 0-5 and d in 0-4, any float included."""
    shape = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    size = shape[0] * shape[1]
    return np.array(draw(st.lists(any_floats, min_size=size, max_size=size)), dtype=float).reshape(shape)


class TestTableWriters:
    def test_special_values_print_as_format_float(self, tmp_path):
        values = [-0.0, 5e-324, 1e300, 2.0**53, float("nan"), float("inf"), -float("inf"), 0.1]
        series = observable_series(values, values[::-1], [0, 1, 2, 7, 60, 150, 2**53, 3], values[3:] + values[:3])
        io_.save_observables_csv(tmp_path / "o.csv", series)
        assert (tmp_path / "o.csv").read_text() == per_value_observables(series)
        assert (tmp_path / "o.csv").read_text().splitlines()[1] == "1,-0,0.10000000000000001,0,9007199254740992"
        io_.save_residual_csv(tmp_path / "r.csv", np.array(values))
        assert (tmp_path / "r.csv").read_text() == per_value_residuals(values)
        coords = np.array(values).reshape(2, 4)
        io_.save_embedding_csv(tmp_path / "e.csv", coords)
        assert (tmp_path / "e.csv").read_text() == per_value_embedding(coords)

    def test_empty_tables(self, tmp_path):
        io_.save_residual_csv(tmp_path / "r.csv", np.array([]))
        assert (tmp_path / "r.csv").read_text() == "d,residual_variance\n"
        io_.save_embedding_csv(tmp_path / "e.csv", np.zeros((3, 0)))
        assert (tmp_path / "e.csv").read_text() == "index,\n1,\n2,\n3,\n" == per_value_embedding(np.zeros((3, 0)))
        io_.save_observables_csv(tmp_path / "o.csv", observable_series([], [], [], []))
        assert (tmp_path / "o.csv").read_text() == "t,speed,P,C,X\n"

    @settings(max_examples=100, deadline=None)
    @given(observable_tables())
    def test_observables_bytes_match_the_per_value_reference(self, tmp_path_factory, series):
        path = tmp_path_factory.mktemp("csv") / "o.csv"
        io_.save_observables_csv(path, series)
        assert path.read_text() == per_value_observables(series)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(any_floats, max_size=12))
    def test_residual_bytes_match_the_per_value_reference(self, tmp_path_factory, residuals):
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        io_.save_residual_csv(path, np.array(residuals, dtype=float))
        assert path.read_text() == per_value_residuals(residuals)

    @settings(max_examples=100, deadline=None)
    @given(embeddings())
    def test_embedding_bytes_match_the_per_value_reference(self, tmp_path_factory, coords):
        path = tmp_path_factory.mktemp("csv") / "e.csv"
        io_.save_embedding_csv(path, coords)
        assert path.read_text() == per_value_embedding(coords)


class TestLoaderErrorPrecedence:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,0,0\n1,oops,0\n1,nan,0\n", "line 2: non-numeric field 'oops'"),
            ("1,0,0\n1,nan,0\n1,oops,0\n", "line 2: non-finite field 'nan'"),
            ("1,0,0\n1.5,0,0\n1,0\n", "line 2: frame label '1.5' is not an integer"),
        ],
        ids=["non-numeric-first", "nan-first", "frame-label-first"],
    )
    def test_first_faulty_line_is_reported(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            io_.load_trajectory_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,0,0\n1,nan,0,0,0\n", "line 2: expected 3 or 4 fields, found 5"),
            ("1,0,0\n1,0,0,0\n", "line 2: expected 3 fields, found 4"),
            ("1,0,0\n1, nan , oops \n", "line 2: non-numeric field 'oops'"),
            ("1,0,0\n1.5,inf,0\n", "line 2: non-finite field 'inf'"),
            ("1,1,0,0\n1,1,nan,0\n", "line 2: non-finite field 'nan'"),
            ("1,1,0,0\n1.5,1,0,0\n", "line 2: frame label '1.5' is not an integer"),
        ],
        ids=["count-before-nan", "form-before-values", "numeric-before-finite", "finite-before-label",
             "finite-before-duplicate", "label-before-duplicate"],
    )
    def test_first_fault_in_check_order_is_reported(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            io_.load_trajectory_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,0,0\n2,0,0\n1_0,0,0\n", "line 3: non-numeric field '1_0'"),
            ("1,1,0,0\n1,1_0,0,0\n", "line 2: non-numeric field '1_0'"),
            ("1,0,0\n1,nan, 2_5.0 \n", "line 2: non-numeric field '2_5.0'"),
        ],
        ids=["frame-label", "id", "underscore-before-nan"],
    )
    def test_digit_grouping_underscores_are_non_numeric(self, tmp_path, text, message):
        # float() reads '1_0' as 10, which would load the last line as frame 10
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            io_.load_trajectory_csv(path)

    def test_early_duplicate_beats_a_later_nan(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,1,0,0\n1, 1.0 ,1,0\n2,1,nan,0\n2,2,0,0\n")
        with pytest.raises(ValueError, match=r"^line 2: duplicate id '1\.0' in frame 1$"):
            io_.load_trajectory_csv(path)

    def test_frame_sizes_are_checked_in_order_of_first_appearance(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("2,0,0\n2,1,0\n3,0,0\n1,0,0\n1,1,0\n1,2,0\n")
        with pytest.raises(ValueError, match="^frame 3: expected 2 agents, found 1$"):
            io_.load_trajectory_csv(path)


def per_line_load(path):
    """The loader with the bulk pass refused: ``_checked_rows`` plus the frame grouping."""
    with mock.patch.object(io_, "_parsed_rows", return_value=None):
        return io_.load_trajectory_csv(path)


def bulk_load(path):
    """The loader with the per-line reader disabled, so a file it would need fails the test."""
    with mock.patch.object(io_, "_checked_rows", side_effect=AssertionError("reached the per-line reader")):
        return io_.load_trajectory_csv(path)


@st.composite
def valid_files(draw, blank_lines=("",)):
    """A valid trajectory file's text and its positions: either form, maybe a header,
    LF or CRLF endings, blank lines, whitespace around fields, rows in any order
    in the 4-column form."""
    positions = draw(trajectories(io_.MAX_COORDINATE))
    four = draw(st.booleans(), label="four columns")
    pad = st.sampled_from(["", " ", "  ", "\t"])
    # 17 significant digits or the shortest repr
    number = st.sampled_from([io_.format_float, lambda v: repr(float(v))])
    rows = [
        [str(t), str(i), draw(number)(x), draw(number)(y)]
        for t, frame in enumerate(positions, start=1)
        for i, (x, y) in enumerate(frame, start=1)
    ]
    rows = draw(st.permutations(rows)) if four else [[row[0], *row[2:]] for row in rows]
    lines = [",".join(draw(pad) + f + draw(pad) for f in row) for row in rows]
    for _ in range(draw(st.integers(0, 3), label="blank lines")):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(blank_lines)))
    if draw(st.booleans(), label="header"):
        lines.insert(0, draw(st.sampled_from(["t,id,x,y", "T, ID ,x,Y"] if four else ["t,x,y", " t,x ,y"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), positions


class TestBulkParse:
    @settings(max_examples=150, deadline=None)
    @given(valid_files(blank_lines=("", " ", "\t")))
    def test_rows_match_the_per_line_reader(self, tmp_path_factory, case):
        text, positions = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode())
        loaded = io_.load_trajectory_csv(path).wrapped.tobytes()
        assert loaded == per_line_load(path).wrapped.tobytes() == positions.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(valid_files())
    def test_valid_file_never_reaches_the_per_line_reader(self, tmp_path_factory, case):
        text, positions = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode())
        assert bulk_load(path).wrapped.tobytes() == positions.tobytes()

    def test_saved_trajectory_takes_the_bulk_pass(self, tmp_path):
        pos = np.random.default_rng(6).uniform(-5, 5, size=(50, 20, 2))
        io_.save_trajectory_csv(tmp_path / "t.csv", pos)
        assert np.array_equal(bulk_load(tmp_path / "t.csv").wrapped, pos)

    @pytest.mark.parametrize(
        "text",
        ["1,0,0\n \n1,1,0\n2,0,0\n2,1,0\n", "1,0,0\n1,\u0661,0\n2,0,0\n2,1,0\n"],
        ids=["whitespace-only-line", "non-ascii-digit"],
    )
    def test_files_numpy_refuses_but_float_reads_still_load(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        assert io_.load_trajectory_csv(path).wrapped.tolist() == [[[0, 0], [1, 0]], [[0, 0], [1, 0]]]
        with pytest.raises(AssertionError, match="per-line reader"):
            bulk_load(path)

    @pytest.mark.parametrize(
        "text",
        ["", "\n", "\n\n\n", "\r\n", " \n\t\n", "t,x,y\n", "t,id,x,y\r\n\r\n"],
        ids=["empty", "newline", "newlines", "crlf", "whitespace", "header", "header-and-blank"],
    )
    def test_no_data_is_reported_without_a_warning(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^trajectory file contains no data rows$"):
                io_.load_trajectory_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,0,0\n1,1,1e+160\n", "line 2: field '1e+160' exceeds 1e140 in magnitude"),
            ("1,1,-2e141,7e200\n", "line 1: field '-2e141' exceeds 1e140 in magnitude"),
            ("1,0,0\n1,1e300,inf\n", "line 2: non-finite field 'inf'"),
            ("1,0,0\n1.5,1e300,0\n", "line 2: field '1e300' exceeds 1e140 in magnitude"),
        ],
        ids=["y", "x-first", "finite-before-magnitude", "magnitude-before-label"],
    )
    def test_huge_coordinate_is_rejected_by_line(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            io_.load_trajectory_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,0,0\ninf,1,0\n", "line 2: non-finite field 'inf'"),
            ("1,1,0,0\n1,nan,1,0\n", "line 2: non-finite field 'nan'"),
            ("1,1,0,0\n1,-inf,1,0\n", "line 2: non-finite field '-inf'"),
        ],
        ids=["frame-label", "id-nan", "id-inf"],
    )
    def test_non_finite_label_or_id_is_rejected_by_line(self, tmp_path, text, message):
        # inf passes the integer-label test, and nan is never a repeated id
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            io_.load_trajectory_csv(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "text, outcome",
        [
            ("t,x,y\n1,0,0\n1,1,0\n2,0,0\n2,1,0\n", [[[0, 0], [1, 0]], [[0, 0], [1, 0]]]),
            ("1,0,0\n \n1,1,0\n", [[[0, 0], [1, 0]]]),
            ("1,0,0\n1,nan,0\n", "line 2: non-finite field 'nan'"),
        ],
        ids=["bulk", "per-line", "faulty"],
    )
    def test_a_pipe_feeds_both_paths(self, tmp_path, text, outcome):
        # a pipe can be read only once, and the per-line reader may need it after numpy
        fifo = tmp_path / "t.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            if isinstance(outcome, str):
                with pytest.raises(ValueError, match=f"^{re.escape(outcome)}$"):
                    io_.load_trajectory_csv(fifo)
            else:
                assert io_.load_trajectory_csv(fifo).wrapped.tolist() == outcome
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_limit_is_inclusive_and_ignores_labels_and_ids(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,1e200,1e140,-1e140\n1,2,0,0\n")
        assert bulk_load(path).wrapped.tolist() == [[[0, 0], [1e140, -1e140]]]
