"""One swarmphase CLI run in-process, with a span around every layer call.

Usage: python3 traced_cli.py RUN_ID RESULT_JSON CLI_ARG...

Each public function is wrapped under the name its caller looks it up by
(``swarmphase.pipeline.velocities`` is what ``run_pipeline`` calls), so the
program itself is unchanged. Work counts are taken after ``cli.main``
returns, outside every span, from references the wrappers kept. The result
file holds the spans, the counts, the correspondence check, the tracing
overhead and the two clock readings that bracket the benchmark's own post-run
work, so the parent can subtract it from the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import spans

# (module, attribute its caller looks up, span name)
WRAPPED = (
    ("swarmphase.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("swarmphase.pipeline", "build_dataset", "pipeline.build_dataset"),
    ("swarmphase.pipeline", "simulate", "sim.simulate"),
    ("swarmphase.io", "load_trajectory_csv", "io.load"),
    ("swarmphase.pipeline", "velocities", "mapping.velocities"),
    ("swarmphase.mapping", "correspond", "mapping.correspond"),
    ("swarmphase.pipeline", "canonicalize_order", "mapping.canonicalize"),
    ("swarmphase.pipeline", "compute_observables", "observables.compute"),
    ("swarmphase.observables", "interaction_epsilon", "observables.epsilon"),
    ("swarmphase.observables", "component_series", "observables.components"),
    ("swarmphase.pipeline", "distance_matrix", "observables.distance_matrix"),
    ("swarmphase.pipeline", "segment_series", "segment.segment"),
    ("swarmphase.pipeline", "label_manifolds", "segment.segment"),
    ("swarmphase.segment", "isomap", "manifold.isomap"),
    ("swarmphase.manifold", "knn_graph", "manifold.knn_graph"),
    ("swarmphase.manifold", "geodesic_distances", "manifold.geodesic"),
    ("swarmphase.manifold", "residual_variance", "manifold.residual"),
    ("swarmphase.io", "save_trajectory_csv", "io.write"),
    ("swarmphase.io", "save_observables_csv", "io.write"),
    ("swarmphase.io", "save_distance_pgm", "io.write"),
    ("swarmphase.io", "save_segments_csv", "io.write"),
    ("swarmphase.io", "save_residual_csv", "io.write"),
)


class Capture:
    """References kept by the wrappers; counted only after the run."""

    def __init__(self):
        self.epsilon_pairs = 0
        self.sim_params = []
        self.datasets = []
        self.loaded = []
        self.maps = []
        self.components = []
        self.segmentations = []
        self.graphs = []
        self.isomap_points = []
        self.written = []

    def hook(self, name: str, attr: str):
        def on_call(args, kwargs, result):
            if name == "sim.simulate":
                self.sim_params.append(args[0])
                self.datasets.append(result)
            elif name == "io.load":
                self.loaded.append(args[0])
            elif name == "observables.epsilon":
                frames, agents = args[0].shape[:2]
                self.epsilon_pairs += frames * agents * (agents - 1) // 2
            elif name == "mapping.velocities":
                self.maps.extend(result)
            elif name == "observables.components":
                self.components.append(args)
            elif attr == "label_manifolds":
                self.segmentations.append(result)
            elif name == "manifold.knn_graph":
                self.graphs.append((result, args[1] if len(args) > 1 else kwargs["k"]))
            elif name == "manifold.isomap":
                self.isomap_points.append(len(args[0]))
            elif name == "io.write":
                self.written.append(args[0])

        return on_call

    def counts(self) -> dict[str, float]:
        import numpy as np
        from scipy.spatial import cKDTree

        agent_steps = neighbor_pairs = 0
        for params, dataset in zip(self.sim_params, self.datasets):
            box = np.array([2.0 * params.half_width, 2.0 * params.half_height])
            agent_steps += params.n_agents * (params.n_steps - 1)
            for frame in dataset.wrapped[:-1]:
                # the simulator's neighbour relation: periodic minimum image,
                # inclusive radius; pairs i < j
                shifted = np.mod(frame + box / 2.0, box)
                shifted[shifted >= box] = 0.0
                tree = cKDTree(shifted, boxsize=box)
                neighbor_pairs += len(tree.query_pairs(params.interaction_radius, output_type="ndarray"))
        proposals = sum(m.n_agents for m in self.maps)
        accepted = sum(int(m.bijective.sum()) for m in self.maps)
        edges = 0
        for positions, radius in self.components:
            for frame in np.asarray(positions, dtype=float):
                edges += len(cKDTree(frame).query_pairs(radius, output_type="ndarray"))
        k_growth = sum(g.k - min(k, g.n_vertices - 1) for g, k in self.graphs)
        return {
            "sim.agent_steps": agent_steps,
            "sim.neighbor_pairs": neighbor_pairs,
            "mapping.conflict_frac": 1.0 - accepted / proposals if proposals else 0.0,
            "mapping.residual_matches": proposals - accepted,
            "observables.epsilon_pairs": self.epsilon_pairs,
            "observables.component_edges": edges,
            "segment.n_segments": sum(len(s.segments) for s in self.segmentations),
            "manifold.points": sum(self.isomap_points),
            "manifold.graph_edges": sum(sum(len(n) for n in g.neighbors) // 2 for g, _ in self.graphs),
            "manifold.k_growth": k_growth,
            "io.bytes_written": sum(Path(p).stat().st_size for p in self.written),
            "io.bytes_read": sum(Path(p).stat().st_size for p in self.loaded),
        }

    def bijection_problems(self) -> list[str]:
        import numpy as np

        bad = [m.step for m in self.maps if not np.array_equal(np.sort(m.permutation), np.arange(m.n_agents))]
        if not bad:
            return []
        return [f"correspondence is not a bijection at {len(bad)} of {len(self.maps)} steps (first: step {bad[0]})"]


def wrapper_cost(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to the call itself: an empty function
    through ``Tracer.wrap`` with a hook, less the bare call; the least of
    ``repeats`` batches."""
    tracer = spans.Tracer(-1)

    def empty():
        return None

    wrapped = tracer.wrap("empty", empty, lambda args, kwargs, result: None)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        mid = time.perf_counter()
        for _ in range(calls):
            empty()
        best = min(best, ((mid - start) - (time.perf_counter() - mid)) / calls)
    return best


def main(argv: list[str]) -> int:
    run_id, result_path, cli_args = int(argv[0]), Path(argv[1]), argv[2:]
    tracer = spans.Tracer(run_id)
    cli = tracer.call("cli.import", importlib.import_module, "swarmphase.cli")
    capture = Capture()
    for module_name, attr, span_name in WRAPPED:
        module = sys.modules[module_name]
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), capture.hook(span_name, attr)))
    code = tracer.call("cli.main", cli.main, cli_args)
    traced_end = time.perf_counter()

    names = [s.name for s in tracer.spans]
    result = {
        "exit_code": code,
        "spans": [s.as_list() for s in tracer.spans],
        "counts": {
            **capture.counts(),
            "mapping.correspond_calls": names.count("mapping.correspond"),
            "manifold.isomap_calls": names.count("manifold.isomap"),
            "trace.overhead_s": len(tracer.spans) * wrapper_cost(),
        },
        "problems": capture.bijection_problems(),
        "traced_end": traced_end,
    }
    result["post_end"] = time.perf_counter()
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
