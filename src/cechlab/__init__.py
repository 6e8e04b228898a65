"""Simulation laboratory for persistent Betti numbers of random Cech complexes."""

from .errors import AuditError, ConfigurationError
from .experiment import (AuditRow, AuditTable, ExperimentResult, ExperimentSpec,
                         FitSummary, ResultRow, fit_exponent, lower_bound_audit,
                         predicted_exponent, run_experiment, write_manifest)
from .filtration import FilteredComplex, build_cech_filtration
from .geometry import (Ball, GeometricGraph, PointCloud, ball_volume,
                       geometric_graph, miniball)
from .persistence import (GF2, FieldSpec, PersistenceDiagram, betti, compute_persistence,
                          persistent_betti, persistent_bettis)
from .properties import (ContextIndicator, DiagnosticRow, MuEstimate, PalmResult,
                         PropertyDescriptor, SmallGraph, SubsetPropertyDescriptor,
                         comp, component_count, conn, convergence_diagnostic,
                         count_property, estimate_mu, iso_graph, palm_check, sep,
                         spread, subset_count, subset_counts, trivial_context, upsilon,
                         zeta)
from .render import render_balls
from .sampling import Density, sample_binomial, sample_in_ball, sample_poisson, stream
from .witness import (CycleWitness, MBracket, bracket_m, construct_witness,
                      perturb_and_verify, perturbation_radius, search_m)

__version__ = "0.1.0"

__all__ = [
    "AuditError", "AuditRow", "AuditTable", "Ball", "ContextIndicator",
    "ConfigurationError", "CycleWitness", "Density", "DiagnosticRow",
    "ExperimentResult", "ExperimentSpec", "FieldSpec", "FilteredComplex",
    "FitSummary", "GF2", "GeometricGraph", "MBracket", "MuEstimate",
    "PalmResult", "PersistenceDiagram", "PointCloud", "PropertyDescriptor",
    "ResultRow", "SmallGraph", "SubsetPropertyDescriptor", "ball_volume",
    "betti", "bracket_m", "build_cech_filtration", "comp",
    "component_count", "compute_persistence", "conn", "construct_witness",
    "convergence_diagnostic", "count_property", "estimate_mu", "fit_exponent",
    "geometric_graph", "iso_graph", "lower_bound_audit", "miniball",
    "palm_check", "persistent_betti", "persistent_bettis", "perturb_and_verify",
    "perturbation_radius", "predicted_exponent", "render_balls",
    "run_experiment", "sample_binomial", "sample_in_ball", "sample_poisson",
    "search_m", "sep", "spread", "stream", "subset_count", "subset_counts",
    "trivial_context", "upsilon", "write_manifest", "zeta",
]
