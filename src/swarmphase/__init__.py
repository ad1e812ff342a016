"""Collective-motion simulation and phase/manifold analysis toolkit."""

from .mapping import CorrespondenceMap, canonicalize_order, correspond, velocities
from .manifold import EmbeddingReport, NeighborGraph, classical_mds, estimate_dimension, geodesic_distances, isomap, knn_graph, residual_variance
from .observables import ObservableSeries, compute_observables, distance_matrix, interaction_epsilon, polarization
from .pipeline import PipelineConfig, PipelineResult, run_pipeline
from .segment import PhaseSegmentation, Segment, label_manifolds, per_segment_isomap, segment_series
from .sim import (
    SimParams,
    TrajectoryDataset,
    make_scenario,
    scenario_noise_switch,
    scenario_speed_switch,
    scenario_split_rejoin,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "CorrespondenceMap",
    "EmbeddingReport",
    "NeighborGraph",
    "ObservableSeries",
    "PhaseSegmentation",
    "PipelineConfig",
    "PipelineResult",
    "Segment",
    "SimParams",
    "TrajectoryDataset",
    "canonicalize_order",
    "classical_mds",
    "compute_observables",
    "correspond",
    "distance_matrix",
    "estimate_dimension",
    "geodesic_distances",
    "interaction_epsilon",
    "isomap",
    "knn_graph",
    "label_manifolds",
    "make_scenario",
    "per_segment_isomap",
    "polarization",
    "residual_variance",
    "run_pipeline",
    "scenario_noise_switch",
    "scenario_speed_switch",
    "scenario_split_rejoin",
    "segment_series",
    "simulate",
    "velocities",
]
