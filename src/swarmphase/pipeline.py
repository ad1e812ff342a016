"""End-to-end pipeline: simulate or load, correspond, observe, segment, embed.

All artifacts are deterministic for a fixed configuration and seed: CSVs use
17-significant-digit floats, the distance image is a byte-exact PGM, and the
summary contains no timestamps.
"""

from __future__ import annotations

import os
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import io as io_
from .manifold import configuration_matrix, isomap
from .mapping import canonicalize_order, velocities
from .observables import EPSILON_MODES, compute_observables, distance_matrix
from .segment import label_manifolds, per_segment_isomap, segment_series
from .sim import SCENARIOS, make_scenario, simulate

OUTPUT_DIR_ENV = "SWARMPHASE_OUT"


class ConfigError(ValueError):
    """Invalid pipeline configuration; the message names the offending key."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


def _option(default, help: str | None = None, choices: tuple | None = None):
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class PipelineConfig:
    """Every setting of a run, declared once: ``SETTINGS`` and the CLI derive from it.

    A config-file key is the field name, except for the three in ``KEY_RENAMES``
    (``input``, ``dmax``, ``out``); its flag is ``--`` plus the key with ``_``
    replaced by ``-``. The annotation gives the value type. A bool setting reads
    ``1/true/yes/on`` or ``0/false/no/off`` and has a ``--no-`` flag. Field
    ``metadata`` holds the flag's help text and choices.
    """

    scenario: str | None = _option(None, choices=tuple(SCENARIOS))
    input_path: str | None = _option(None, "trajectory CSV to analyze")
    seed: int | None = None  # None: 0 for a scenario; rejected with an input file
    xi1: float = _option(1.0 / 3.0, "weight of the speed term")
    xi2: float = _option(1.0 / 3.0, "weight of the polarization term")
    epsilon_mode: str = _option("all_pairs", choices=EPSILON_MODES)
    k: int = _option(7, "neighbor count for the isomap graph")
    d_max: int = _option(10, "largest embedding dimension tried")
    threshold: float = _option(0.1, "residual-variance cutoff for the dimension estimate")
    min_len: int = _option(10, "minimum segment length in steps")
    merge_tol: float = _option(0.1, "mean-X tolerance for shared labels")
    out_dir: str | None = _option(None, "output directory (default: $SWARMPHASE_OUT or ./swarmphase-out)")
    n_agents: int | None = None
    n_steps: int | None = None
    half_width: float | None = None
    half_height: float | None = None
    dt: float | None = None
    canonicalize: bool = True
    prefer_unwrapped: bool = True
    periodic_matching: bool = False
    dump_correspondence: bool = False

    def validate(self) -> None:
        if (self.scenario is None) == (self.input_path is None):
            raise ConfigError("exactly one of 'scenario' and 'input' must be set")
        if self.scenario is not None and self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: unknown scenario {self.scenario!r} (known: {', '.join(SCENARIOS)})")
        if self.xi1 < 0:
            raise ConfigError("xi1: must be non-negative")
        if self.xi2 < 0:
            raise ConfigError("xi2: must be non-negative")
        if self.xi1 + self.xi2 > 1.0:
            raise ConfigError("xi1, xi2: weights must sum to at most 1")
        if self.epsilon_mode not in EPSILON_MODES:
            raise ConfigError(f"epsilon_mode: must be {' or '.join(map(repr, EPSILON_MODES))}")
        if self.k < 1:
            raise ConfigError("k: must be at least 1")
        if self.d_max < 1:
            raise ConfigError("dmax: must be at least 1")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError("threshold: must lie in (0, 1)")
        if self.min_len < 1:
            raise ConfigError("min_len: must be at least 1")
        if self.merge_tol < 0:
            raise ConfigError("merge_tol: must be non-negative")
        for key in ("n_agents", "n_steps"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ConfigError(f"{key}: must be at least 1")
        for key in ("half_width", "half_height", "dt"):
            value = getattr(self, key)
            if value is not None and value <= 0:
                raise ConfigError(f"{key}: must be positive")
        if self.input_path is not None:
            for key in ("seed", *_SCENARIO_OVERRIDES, "periodic_matching"):
                value = getattr(self, key)
                # not ``value in (None, False)``: seed 0 == False would pass
                if value is not None and value is not False:
                    raise ConfigError(f"{key}: applies only to a simulated scenario, not to an input file")

    def resolved_seed(self) -> int:
        return 0 if self.seed is None else self.seed

    def resolved_out_dir(self) -> Path:
        if self.out_dir is not None:
            return Path(self.out_dir)
        return Path(os.environ.get(OUTPUT_DIR_ENV, "swarmphase-out"))


# field name -> config key, for the fields whose key differs from their name
KEY_RENAMES = {"input_path": "input", "d_max": "dmax", "out_dir": "out"}
# settings passed to make_scenario when set; rejected with an input file
_SCENARIO_OVERRIDES = ("n_agents", "n_steps", "half_width", "half_height", "dt")

_HINTS = typing.get_type_hints(PipelineConfig)
# config key -> (field, value type), in declaration order; the value type is
# the annotation's first member, so ``int | None`` gives ``int``
SETTINGS = {
    KEY_RENAMES.get(f.name, f.name): (f, (typing.get_args(_HINTS[f.name]) or (_HINTS[f.name],))[0])
    for f in fields(PipelineConfig)
}


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def config_from_sources(
    file_values: dict[str, str] | None = None, overrides: dict | None = None
) -> PipelineConfig:
    """Build a config from file values and explicit overrides.

    Precedence: dataclass defaults < config file < overrides (CLI flags).
    File values are keyed by config key, overrides by field name. Unknown
    keys and unparsable values are rejected by key name.
    """
    config = PipelineConfig()
    for key, raw in (file_values or {}).items():
        if key not in SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        f, value_type = SETTINGS[key]
        if value_type is bool:
            value = _parse_bool(key, raw)
        else:
            try:
                value = value_type(raw)
            except ValueError:
                raise ConfigError(f"{key}: cannot parse value {raw!r}") from None
        setattr(config, f.name, value)
    known = {f.name for f in fields(PipelineConfig)}
    for attr, value in (overrides or {}).items():
        if attr not in known:
            raise ConfigError(f"unknown config key {attr!r}")
        if value is not None:
            setattr(config, attr, value)
    return config


@dataclass
class PipelineResult:
    dataset: object
    maps: list
    series: object
    delta: np.ndarray
    segmentation: object
    segment_reports: list
    full_report: object
    artifacts: dict[str, Path]
    summary: str


def _scenario_overrides(config: PipelineConfig) -> dict:
    overrides = {"seed": config.resolved_seed()}
    for key in _SCENARIO_OVERRIDES:
        value = getattr(config, key)
        if value is not None:
            overrides[key] = value
    return overrides


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"{name}: {exc}") from exc


def build_dataset(config: PipelineConfig):
    if config.scenario is not None:
        params = make_scenario(config.scenario, **_scenario_overrides(config))
        return simulate(params)
    return io_.load_trajectory_csv(config.input_path)


def _summary_lines(config, dataset, series, segmentation, segment_reports, full_report):
    lines = []
    if config.scenario is not None:
        lines.append(f"scenario: {config.scenario}")
        lines.append(f"seed: {config.resolved_seed()}")
    else:
        lines.append(f"input: {config.input_path}")
    lines.append(f"frames: {dataset.n_frames}")
    lines.append(f"agents: {dataset.n_agents}")
    lines.append(f"xi1: {io_.format_float(series.weight_speed)}")
    lines.append(f"xi2: {io_.format_float(series.weight_polarization)}")
    lines.append(f"epsilon_mode: {config.epsilon_mode}")
    lines.append(f"epsilon: {io_.format_float(series.epsilon)}")
    lines.append(f"isomap_k_requested: {config.k}")
    lines.append(f"segments: {len(segmentation.segments)}")
    for seg, report in zip(segmentation.segments, segment_reports):
        dstar = "skipped" if report is None else str(report.dimension)
        k_used = "-" if report is None else str(report.k)
        lines.append(
            f"  steps {seg.start}-{seg.end}: mean_X={io_.format_float(seg.mean_value)} "
            f"label={seg.label} dstar={dstar} k={k_used}"
        )
    lines.append(f"full_dataset: dstar={full_report.dimension} k={full_report.k}")
    lines.append(f"manifold_labels: {segmentation.n_labels}")
    return lines


class _Run:
    """What every command shares: validate the config, build the dataset,
    write each artifact through the ``io`` stage and record it. The output
    directory is made at the first write, so a run that fails before it
    leaves nothing behind."""

    def __init__(self, config: PipelineConfig):
        config.validate()
        self.config = config
        self.out_dir = config.resolved_out_dir()
        self.artifacts: dict[str, Path] = {}

    def load(self):
        dataset = _stage("sim" if self.config.scenario else "load", build_dataset, self.config)
        if dataset.n_frames < 2:
            raise PipelineError("load: need at least 2 frames")
        return dataset

    def write(self, name: str, filename: str, writer, *args) -> None:
        if not self.artifacts:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / filename
        _stage("io", writer, path, *args)
        self.artifacts[name] = path

    def write_trajectories(self, dataset) -> None:
        self.write("trajectory", "trajectory.csv", io_.save_trajectory_csv, dataset.wrapped)
        if dataset.unwrapped is not None:
            self.write("trajectory_unwrapped", "trajectory_unwrapped.csv", io_.save_trajectory_csv, dataset.unwrapped)


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute every stage and write the artifact set to the output directory."""
    run = _Run(config)
    dataset = run.load()

    maps = _stage(
        "mapping",
        velocities,
        dataset,
        prefer_unwrapped=config.prefer_unwrapped,
        periodic_matching=config.periodic_matching,
    )
    series = _stage(
        "observables",
        compute_observables,
        dataset,
        maps,
        weight_speed=config.xi1,
        weight_polarization=config.xi2,
        epsilon_mode=config.epsilon_mode,
        prefer_unwrapped=config.prefer_unwrapped,
    )
    delta = _stage("observables", distance_matrix, series.coarse)

    segmentation = _stage("segment", segment_series, series.coarse, config.min_len)
    segmentation = _stage("segment", label_manifolds, segmentation, config.merge_tol)

    track = dataset.analysis_track(config.prefer_unwrapped)
    if config.canonicalize:
        track = _stage("mapping", canonicalize_order, track, maps)
    points = configuration_matrix(track[:-1])
    segment_reports, full_report = _stage(
        "manifold",
        per_segment_isomap,
        points,
        segmentation,
        k=config.k,
        d_max=config.d_max,
        threshold=config.threshold,
    )

    run.write_trajectories(dataset)
    run.write("observables", "observables.csv", io_.save_observables_csv, series)
    run.write("distance_image", "distance.pgm", io_.save_distance_pgm, delta)
    dims = [None if r is None else r.dimension for r in segment_reports]
    run.write("segments", "segments.csv", io_.save_segments_csv, segmentation, dims)
    run.write("residual_full", "residual_full.csv", io_.save_residual_csv, full_report.residual_variances)
    for idx, report in enumerate(segment_reports, start=1):
        if report is not None:
            name = f"residual_segment_{idx:02d}"
            run.write(name, f"{name}.csv", io_.save_residual_csv, report.residual_variances)
    if config.dump_correspondence:
        run.write("correspondence", "correspondence.csv", io_.save_correspondence_csv, maps)

    summary = "\n".join(
        _summary_lines(config, dataset, series, segmentation, segment_reports, full_report)
    ) + "\n"
    run.write("summary", "summary.txt", Path.write_text, summary)

    return PipelineResult(
        dataset=dataset,
        maps=maps,
        series=series,
        delta=delta,
        segmentation=segmentation,
        segment_reports=segment_reports,
        full_report=full_report,
        artifacts=run.artifacts,
        summary=summary,
    )


def run_simulate(config: PipelineConfig) -> dict[str, Path]:
    """Simulate a scenario and write only the trajectory artifacts."""
    run = _Run(config)
    if config.scenario is None:
        raise ConfigError("scenario: the simulate command needs a scenario name")
    run.write_trajectories(run.load())
    return run.artifacts


def run_isomap(config: PipelineConfig) -> dict[str, Path]:
    """Isomap on a whole trajectory file; writes residual and embedding CSVs."""
    run = _Run(config)
    if config.input_path is None:
        raise ConfigError("input: the isomap command needs a trajectory file")
    dataset = run.load()
    track = dataset.analysis_track(config.prefer_unwrapped)
    if config.canonicalize:
        maps = _stage("mapping", velocities, dataset, prefer_unwrapped=config.prefer_unwrapped)
        track = _stage("mapping", canonicalize_order, track, maps)
    points = configuration_matrix(track)
    report = _stage("manifold", isomap, points, config.k, config.d_max, config.threshold)
    run.write("residual_full", "residual_full.csv", io_.save_residual_csv, report.residual_variances)
    embedding = report.embeddings[report.dimension - 1]
    run.write("embedding_full", "embedding_full.csv", io_.save_embedding_csv, embedding)
    summary = f"dstar: {report.dimension}\nk: {report.k}\n"
    run.write("summary", "isomap_summary.txt", Path.write_text, summary)
    return run.artifacts
