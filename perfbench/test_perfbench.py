"""Tests of the benchmark's own logic: span arithmetic, metric extraction and
the artifact invariants. Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import pytest

import run
from checks import artifact_digest, check_artifacts
from spans import Span, Tracer, covered, layer_totals, self_times, uncovered

FRAMES, AGENTS = 100, 6


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered([(3.0, 4.0), (0.0, 10.0)]) == pytest.approx(10.0)


def test_self_time_subtracts_only_the_children_union():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 7),
        Span(1, "a", 1.0, 4.0, 0, 7),
        Span(2, "b", 3.0, 5.0, 0, 7),  # overlaps a: the union 1..5 counts once
        Span(3, "leaf", 1.5, 2.0, 1, 7),
        # same ids in another run must not be mixed in
        Span(0, "root", 20.0, 21.0, None, 8),
    ]
    selfs = self_times(spans)
    assert selfs[(7, 0)] == pytest.approx(6.0)
    assert selfs[(7, 1)] == pytest.approx(2.5)
    assert selfs[(7, 2)] == pytest.approx(2.0)
    assert selfs[(7, 3)] == pytest.approx(0.5)
    assert selfs[(8, 0)] == pytest.approx(1.0)
    totals = layer_totals(spans)
    assert totals["root"] == {"total": pytest.approx(11.0), "self": pytest.approx(7.0), "calls": 2}


def test_uncovered_is_the_wall_time_no_span_covers():
    spans = [Span(0, "x", 1.0, 3.0, None, 0), Span(1, "y", 2.0, 6.0, None, 0), Span(2, "z", 9.0, 12.0, None, 0)]
    assert uncovered(spans, 0.0, 10.0) == pytest.approx(4.0)


def test_tracer_records_nesting_and_closes_spans_on_error():
    ticks = iter(range(100))
    tracer = Tracer(run_id=3, clock=lambda: float(next(ticks)))

    def inner():
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: tracer.call("inner", inner))
    with pytest.raises(ValueError):
        outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id is None
    assert {s.run_id for s in tracer.spans} == {3}
    assert by_name["outer"].start < by_name["inner"].start < by_name["inner"].end < by_name["outer"].end


def test_layer_metrics_from_spans_and_counts():
    rows = [
        [0, "cli.import", 10.0, 10.5, None, 1],
        [1, "cli.main", 10.6, 13.6, None, 1],
        [2, "pipeline.run_pipeline", 10.7, 13.5, 1, 1],
        [3, "manifold.isomap", 11.0, 12.0, 2, 1],
        [4, "manifold.geodesic", 11.1, 11.6, 3, 1],
        [5, "manifold.isomap", 12.0, 12.5, 2, 1],
    ]
    child = run.Child(start=9.9, wall=4.0, cpu=4.2, rss_mb=80.0, exit_code=0)
    trace = {"spans": rows, "counts": {"manifold.isomap_calls": 2}, "traced_end": 13.7, "post_end": 13.9, "problems": []}
    metrics = run.layer_metrics(run.Outcome(child, measured=True, trace=trace))
    assert metrics["cli.import_s"] == pytest.approx(0.5)
    assert metrics["manifold.isomap_s"] == pytest.approx(1.5)
    assert metrics["manifold.isomap_self_s"] == pytest.approx(1.0)
    assert metrics["pipeline.self_s"] == pytest.approx(2.8 - 1.5)
    assert metrics["pipeline.build_dataset_s"] == 0.0
    assert metrics["manifold.isomap_calls"] == 2
    # 0.2 s of post-run counting is not traced run time
    assert metrics["trace.wall_s"] == pytest.approx(3.8)
    # 9.9..13.7 minus the two root spans (0.5 + 3.0)
    assert metrics["trace.uncovered_s"] == pytest.approx(0.3)


def _outcome(wall, digest, measured=True, reference=run.REFERENCE_S):
    child = run.Child(start=0.0, wall=wall, cpu=wall + 0.1, rss_mb=90.0 + wall, exit_code=0)
    return run.Outcome(child, measured=measured, digest=digest, reference=reference)


def test_end_to_end_skips_warm_up_and_failures():
    bench = run.Bench("crowd", seed=1, seconds=1.0, trace=False)
    bench.setup_walls = [0.5, 0.4, 0.9]
    bench.outcomes = [_outcome(9.0, "a", measured=False)] + [_outcome(w, "a") for w in (2.0, 3.0, 4.0)]
    bench.outcomes.append(_outcome(1.0, "b"))  # odd digest: fails and is not timed
    assert bench.judge_digests() == "a"
    assert [o.ok for o in bench.outcomes] == [True, True, True, True, False]
    metrics = bench.end_to_end()
    assert metrics["run_s"] == (3.0, "s")
    assert metrics["cpu_s"] == (pytest.approx(3.1), "s")
    assert metrics["peak_rss_mb"] == (93.0, "MB")
    assert metrics["setup_s"] == (pytest.approx(0.6), "s")
    assert run.report(bench, metrics, "a")["failed"] == 1


def test_times_are_scaled_to_the_reference_speed():
    bench = run.Bench("crowd", seed=1, seconds=1.0, trace=False)
    # the machine ran at half the reference speed during the first run (the
    # loop took twice as long), at full speed during the second
    bench.setup_walls = [0.6, 1.0]
    bench.outcomes = [_outcome(3.0, "a", reference=2.0 * run.REFERENCE_S), _outcome(1.0, "a")]
    metrics = bench.end_to_end()
    assert metrics["run_s"] == (pytest.approx(2.0 / 1.5), "s")
    assert metrics["cpu_s"] == (pytest.approx(2.1 / 1.5), "s")
    assert metrics["setup_s"] == (pytest.approx(0.8 / 1.5), "s")
    assert metrics["peak_rss_mb"] == (92.0, "MB")  # not a time


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    from swarmphase.cli import main

    out = tmp_path_factory.mktemp("artifacts")
    args = ["run", "--scenario", "speed-switch", "--n-agents", str(AGENTS), "--n-steps", str(FRAMES), "--seed", "3"]
    assert main(args + ["--out", str(out)]) == 0
    return out


def _copy(src, dst):
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def test_real_artifacts_pass(artifacts):
    assert check_artifacts(artifacts, FRAMES, AGENTS, simulated=True) == []
    # a CSV analysis writes no unwrapped track
    assert any("unexpected" in p for p in check_artifacts(artifacts, FRAMES, AGENTS, simulated=False))


def _tamper_x(d):
    lines = (d / "observables.csv").read_text().splitlines()
    fields = lines[5].split(",")
    fields[4] = "1.5"
    lines[5] = ",".join(fields)
    (d / "observables.csv").write_text("\n".join(lines) + "\n")


def _drop_row(d):
    lines = (d / "observables.csv").read_text().splitlines()
    (d / "observables.csv").write_text("\n".join(lines[:-1]) + "\n")


def _gap_in_segments(d):
    lines = (d / "segments.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = str(int(fields[1]) - 1)
    lines[1] = ",".join(fields)
    (d / "segments.csv").write_text("\n".join(lines) + "\n")


def _residual_above_one(d):
    (d / "residual_full.csv").write_text("d,residual_variance\n1,1.25\n")


def _rewrite_observables(d, edit):
    lines = (d / "observables.csv").read_text().splitlines()
    fields = lines[5].split(",")
    edit(fields)
    lines[5] = ",".join(fields)
    (d / "observables.csv").write_text("\n".join(lines) + "\n")


def _component_count_off_by_one(d):
    # C and X changed together, so only recounting the components catches it
    def edit(fields):
        comps = int(fields[3])
        fields[3] = str(comps + 1)
        fields[4] = repr(float(fields[4]) + (1.0 / 3.0) / AGENTS)

    _rewrite_observables(d, edit)


def _x_not_the_combination(d):
    _rewrite_observables(d, lambda fields: fields.__setitem__(4, repr(float(fields[4]) * 0.5)))


def _epsilon_off(d):
    lines = (d / "summary.txt").read_text().splitlines()
    lines = [f"epsilon: {float(l.split(': ')[1]) * 1.01!r}" if l.startswith("epsilon: ") else l for l in lines]
    (d / "summary.txt").write_text("\n".join(lines) + "\n")


def _missing_file(d):
    (d / "distance.pgm").unlink()


def _truncated_image(d):
    data = (d / "distance.pgm").read_bytes()
    (d / "distance.pgm").write_bytes(data[:-1])


@pytest.mark.parametrize(
    "tamper",
    [
        _tamper_x,
        _drop_row,
        _gap_in_segments,
        _residual_above_one,
        _component_count_off_by_one,
        _x_not_the_combination,
        _epsilon_off,
        _missing_file,
        _truncated_image,
    ],
)
def test_tampered_artifact_fails(artifacts, tmp_path, tamper):
    copy = _copy(artifacts, tmp_path / "copy")
    assert artifact_digest(copy) == artifact_digest(artifacts)
    tamper(copy)
    assert check_artifacts(copy, FRAMES, AGENTS, simulated=True) != []
    assert artifact_digest(copy) != artifact_digest(artifacts)


def test_digest_mismatch_counts_as_failure(artifacts, tmp_path):
    copy = _copy(artifacts, tmp_path / "copy")
    (copy / "summary.txt").write_text((copy / "summary.txt").read_text() + "\n")
    # the extra blank line breaks no invariant, only the digest
    assert check_artifacts(copy, FRAMES, AGENTS, simulated=True) == []
    bench = run.Bench("crowd", seed=3, seconds=1.0, trace=False)
    bench.outcomes = [_outcome(1.0, artifact_digest(artifacts)) for _ in range(2)]
    bench.outcomes.append(_outcome(1.0, artifact_digest(copy)))
    bench.judge_digests()
    assert [o.ok for o in bench.outcomes] == [True, True, False]


def test_reported_names_match_benchmark_json():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    child = run.Child(start=0.0, wall=1.0, cpu=1.0, rss_mb=1.0, exit_code=0)
    bench = run.Bench("crowd", seed=1, seconds=1.0, trace=False)
    bench.setup_walls = [0.1]
    bench.outcomes = [run.Outcome(child, measured=True, digest="a", reference=0.2)]
    assert set(bench.end_to_end()) == {m["name"] for m in spec["end_to_end"]}

    from traced_cli import Capture

    counts = {**Capture().counts(), "mapping.correspond_calls": 0, "manifold.isomap_calls": 0, "trace.overhead_s": 1e-4}
    trace = {"spans": [[0, "cli.main", 0.0, 0.5, None, 0]], "counts": counts, "traced_end": 0.9, "post_end": 0.9, "problems": []}
    bench = run.Bench("crowd", seed=1, seconds=1.0, trace=True)
    bench.outcomes = [run.Outcome(child, measured=True, digest="a", trace=trace)]
    layers = bench.per_layer()
    assert {name: unit for name, (_, unit) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_all_failed_runs_are_still_reported_as_incorrect():
    bench = run.Bench("crowd", seed=1, seconds=1.0, trace=False)
    bench.setup_walls = [0.5]
    bench.outcomes = [_outcome(w, "a") for w in (2.0, 3.0)]
    for o in bench.outcomes:
        o.problems.append("observables.csv: X outside [0, 1]")
    crashed = _outcome(1.0, None)
    crashed.child.exit_code = 1
    crashed.problems.append("exit code 1")
    bench.outcomes.append(crashed)
    metrics = bench.end_to_end()
    assert metrics["run_s"] == (2.5, "s")  # the crashed run is not timed
    result = run.report(bench, metrics, None)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 3)


def test_digest_is_compared_with_the_baseline(monkeypatch, tmp_path):
    import json

    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"workloads": {"crowd": {"artifact_sha256": {"7": "abc"}}}}))
    monkeypatch.setattr(run, "BASELINE", baseline)
    assert run.compare_with_baseline("crowd", 7, "abc").endswith("matches baseline.json")
    assert "differs" in run.compare_with_baseline("crowd", 7, "abd")
    assert "none for seed 8" in run.compare_with_baseline("crowd", 8, "abc")
    assert "none for seed 7" in run.compare_with_baseline("long", 7, "abc")


def test_wrapper_cost_is_positive_and_small():
    from traced_cli import wrapper_cost

    assert 0.0 < wrapper_cost(calls=200, repeats=3) < 1e-3
