"""QAOA core: parameters, circuits, expectation evaluation and the solver."""

from repro.qaoa.parameters import (
    QAOAParameters,
    canonicalize_for_graph,
    interpolate_parameters,
    linear_ramp_parameters,
    parameter_bounds,
    random_parameters,
)
from repro.qaoa.circuit_builder import build_maxcut_qaoa_circuit, build_parametric_qaoa_circuit
from repro.qaoa.fast_backend import FastMaxCutEvaluator
from repro.qaoa.backends import CircuitBackend, FastBackend
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.ensemble import EnsembleEvaluator
from repro.qaoa.result import QAOAResult, RestartRecord
from repro.qaoa.solver import QAOASolver
from repro.qaoa.landscape import depth_one_landscape

__all__ = [
    "QAOAParameters",
    "random_parameters",
    "parameter_bounds",
    "interpolate_parameters",
    "linear_ramp_parameters",
    "canonicalize_for_graph",
    "build_maxcut_qaoa_circuit",
    "build_parametric_qaoa_circuit",
    "FastMaxCutEvaluator",
    "FastBackend",
    "CircuitBackend",
    "ExpectationEvaluator",
    "EnsembleEvaluator",
    "QAOAResult",
    "RestartRecord",
    "QAOASolver",
    "depth_one_landscape",
]
