"""Tests for :mod:`repro.execution`: the context object.

Covers construction-time validation (the single home of the rules formerly
re-implemented at every layer), the two backend names, ``to_dict``/
``from_dict`` round-trips including noise and readout models, and the
informative ``__repr__`` satellite.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.execution import ExecutionContext, as_execution_context
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.solver import QAOASolver
from repro.quantum.noise import (
    AmplitudeDampingChannel,
    DepolarizingChannel,
    NoiseModel,
    PauliChannel,
    PhaseFlip,
    QuantumChannel,
    ReadoutErrorModel,
    channel_from_dict,
)


def _problem(seed: int = 3, nodes: int = 6) -> MaxCutProblem:
    return MaxCutProblem(erdos_renyi_graph(nodes, 0.5, seed=seed))


# ---------------------------------------------------------------------------
# Backend names
# ---------------------------------------------------------------------------

class TestBackendRegistry:
    """The two engines are a closed set of names, checked by the context."""

    def test_backend_name_is_case_insensitive(self):
        assert ExecutionContext(backend="FAST").backend == "fast"
        assert ExecutionContext(backend=" Circuit ").backend == "circuit"
        assert ExecutionContext(backend="FAST") == ExecutionContext()

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ConfigurationError, match="available: circuit, fast"):
            ExecutionContext(backend="gpu")

    def test_unknown_backend_error_points_at_available_backends(self):
        # The message must name the rejected value and enumerate exactly the
        # names the constructor accepts, so a typo is self-diagnosing.
        with pytest.raises(ConfigurationError) as excinfo:
            ExecutionContext(backend="gpu")
        message = str(excinfo.value)
        assert "'gpu'" in message
        listed = message.split("available: ", 1)[1].split(", ")
        assert sorted(listed) == ["circuit", "fast"]
        for name in listed:
            assert ExecutionContext(backend=name).backend == name

    def test_unknown_backend_rejected_at_context_construction(self):
        # The backend-name shorthand and a persisted payload go through the
        # same constructor check.
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            as_execution_context("not-a-backend")
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            ExecutionContext.from_dict({"backend": "not-a-backend"})


# ---------------------------------------------------------------------------
# Context validation
# ---------------------------------------------------------------------------

class TestExecutionContextValidation:
    def test_defaults_are_exact(self):
        context = ExecutionContext()
        assert context.backend == "fast"
        assert context.is_exact and not context.is_stochastic
        assert context.effective_trajectories == 1

    def test_scalar_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionContext(shots=0)
        with pytest.raises(ConfigurationError):
            ExecutionContext(trajectories=0)
        with pytest.raises(ConfigurationError):
            ExecutionContext(backend="nope")
        with pytest.raises(ConfigurationError):
            ExecutionContext(noise_model="depolarizing")
        context = ExecutionContext(shots=np.int64(64), trajectories=np.int32(3))
        assert (context.shots, context.trajectories) == (64, 3)
        assert type(context.shots) is int and type(context.trajectories) is int

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExecutionContext(shots="x"),
            lambda: ExecutionContext(shots=2.5),
            lambda: ExecutionContext(trajectories="x"),
            lambda: ExecutionContext(trajectories=1.5),
            lambda: ExecutionContext.from_dict({"shots": "x"}),
            lambda: ExecutionContext.from_dict([]),
        ],
        ids=[
            "shots-str",
            "shots-float",
            "trajectories-str",
            "trajectories-float",
            "from-dict-shots-str",
            "from-dict-list",
        ],
    )
    def test_bad_input_raises_configuration_error(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_density_requires_capable_backend(self):
        with pytest.raises(ConfigurationError, match="circuit"):
            ExecutionContext(density=True)  # fast backend
        assert ExecutionContext(backend="circuit", density=True).density

    def test_density_rejects_trajectories(self):
        """Satellite bugfix: trajectories were silently discarded before."""
        with pytest.raises(ConfigurationError, match="deterministic"):
            ExecutionContext(backend="circuit", density=True, trajectories=8)

    def test_non_pauli_model_requires_density(self):
        model = NoiseModel().add_channel(AmplitudeDampingChannel(0.1))
        with pytest.raises(ConfigurationError, match="non-Pauli"):
            ExecutionContext(backend="circuit", noise_model=model)
        context = ExecutionContext(backend="circuit", noise_model=model, density=True)
        assert not context.is_stochastic  # exact channels, no shots

    def test_mitigation_requires_readout_model(self):
        with pytest.raises(ConfigurationError, match="readout_error"):
            ExecutionContext(mitigate_readout=True)

    def test_empty_noise_model_normalised_to_none(self):
        context = ExecutionContext(noise_model=NoiseModel())
        assert context.noise_model is None and context.is_exact

    def test_stochasticity_rules(self):
        model = NoiseModel.uniform_depolarizing(0.01)
        assert ExecutionContext(shots=16).is_stochastic
        assert ExecutionContext(noise_model=model).is_stochastic
        assert not ExecutionContext(
            backend="circuit", noise_model=model, density=True
        ).is_stochastic
        assert ExecutionContext(
            backend="circuit", noise_model=model, density=True, shots=16
        ).is_stochastic

    def test_effective_trajectories(self):
        model = NoiseModel.uniform_depolarizing(0.01)
        assert ExecutionContext(trajectories=5).effective_trajectories == 1
        assert ExecutionContext(noise_model=model).effective_trajectories == 8
        assert (
            ExecutionContext(noise_model=model, trajectories=3).effective_trajectories
            == 3
        )

    def test_replace_revalidates(self):
        context = ExecutionContext(backend="circuit")
        assert context.replace(density=True).density
        with pytest.raises(ConfigurationError):
            context.replace(backend="fast", density=True)

    def test_as_execution_context_coercions(self):
        context = ExecutionContext(shots=4)
        assert as_execution_context(None) == ExecutionContext()
        assert as_execution_context("circuit").backend == "circuit"
        assert as_execution_context(context) is context
        with pytest.raises(ConfigurationError):
            as_execution_context(42)

    def test_repr_shows_only_configured_fields(self):
        assert repr(ExecutionContext()) == "ExecutionContext(backend='fast')"
        text = repr(
            ExecutionContext(
                shots=64,
                noise_model=NoiseModel.uniform_depolarizing(0.01),
                readout_error=ReadoutErrorModel(4, p0_to_1=0.1),
                mitigate_readout=True,
                seed=7,
            )
        )
        for fragment in (
            "shots=64",
            "DepolarizingChannel",
            "ReadoutErrorModel",
            "mitigate_readout=True",
            "seed=7",
        ):
            assert fragment in text, text


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_channel_round_trips(self):
        channels = [
            DepolarizingChannel(0.03),
            PhaseFlip(0.01),
            PauliChannel(0.1, 0.0, 0.2, name="custom"),
            AmplitudeDampingChannel(0.2),
            QuantumChannel([np.eye(2)], name="identity"),
        ]
        for channel in channels:
            rebuilt = channel_from_dict(channel.to_dict())
            assert rebuilt == channel
            assert np.allclose(
                np.array(rebuilt.kraus_operators()),
                np.array(channel.kraus_operators()),
            )
        with pytest.raises(ConfigurationError):
            channel_from_dict({"type": "warp"})

    def test_noise_model_round_trip_preserves_sampling(self):
        model = (
            NoiseModel()
            .add_channel(DepolarizingChannel(0.2), arity=2)
            .add_channel(PhaseFlip(0.1), gates=("h",), qubits=(0, 2))
        )
        rebuilt = NoiseModel.from_dict(model.to_dict())
        assert rebuilt == model
        stream = [("h", (0,)), ("cx", (0, 1)), ("h", (2,))]
        original = model.sample_errors(stream, rng=np.random.default_rng(5))
        replayed = rebuilt.sample_errors(stream, rng=np.random.default_rng(5))
        assert original == replayed

    def test_readout_model_round_trip(self):
        readout = ReadoutErrorModel(3, p0_to_1=[0.1, 0.0, 0.2], p1_to_0=0.05)
        rebuilt = ReadoutErrorModel.from_dict(readout.to_dict())
        assert rebuilt == readout
        probabilities = np.full(8, 1 / 8)
        assert np.allclose(rebuilt.apply(probabilities), readout.apply(probabilities))

    def test_context_round_trip_json(self):
        from repro.utils.serialization import dumps_json

        context = ExecutionContext(
            backend="circuit",
            shots=512,
            noise_model=NoiseModel.uniform_depolarizing(0.004),
            trajectories=4,
            readout_error=ReadoutErrorModel(6, p0_to_1=0.02, p1_to_0=0.05),
            mitigate_readout=True,
            seed=11,
        )
        payload = context.to_dict()
        dumps_json(payload)  # must be JSON-serializable as-is
        assert ExecutionContext.from_dict(payload) == context

    def test_generator_seed_serializes_as_none(self):
        context = ExecutionContext(seed=np.random.default_rng(0))
        assert context.to_dict()["seed"] is None

    def test_round_tripped_context_is_bit_identical(self):
        problem = _problem()
        context = ExecutionContext(
            shots=128, noise_model=NoiseModel.uniform_depolarizing(0.01), trajectories=2
        )
        rebuilt = ExecutionContext.from_dict(context.to_dict())
        point = [0.4, 0.3]
        first = ExpectationEvaluator(problem, 1, context=context, rng=7).expectation(point)
        second = ExpectationEvaluator(problem, 1, context=rebuilt, rng=7).expectation(point)
        assert first == second


# ---------------------------------------------------------------------------
# Artifacts record their execution settings
# ---------------------------------------------------------------------------

class TestArtifactRecording:
    def test_solver_result_records_context(self):
        problem = _problem()
        context = ExecutionContext(shots=32)
        result = QAOASolver(context=context, seed=0).solve(problem, 1)
        assert result.context == context
        payload = result.to_dict()
        assert payload["execution"]["shots"] == 32
        assert payload["execution"]["backend"] == "fast"

    def test_exact_result_records_default_context(self):
        result = QAOASolver(seed=0).solve(_problem(), 1)
        assert result.context == ExecutionContext()
        assert result.to_dict()["execution"]["shots"] is None


# ---------------------------------------------------------------------------
# Evaluator / solver integration via context
# ---------------------------------------------------------------------------

class TestContextIntegration:
    def test_evaluator_density_with_trajectories_raises(self):
        """The density-mode trajectories rule holds at the evaluator surface too."""
        problem = _problem()
        with pytest.raises(ConfigurationError, match="deterministic"):
            ExpectationEvaluator(
                problem,
                1,
                context=ExecutionContext(
                    backend="circuit", density=True, trajectories=4
                ),
            )

    def test_context_seed_policy_is_default_rng(self):
        problem = _problem()
        context = ExecutionContext(shots=64, seed=9)
        point = [0.4, 0.3]
        via_policy = ExpectationEvaluator(problem, 1, context=context).expectation(point)
        via_explicit = ExpectationEvaluator(
            problem, 1, context=context.replace(seed=None), rng=9
        ).expectation(point)
        assert via_policy == via_explicit

    def test_solver_uses_context_seed_policy(self):
        problem = _problem()
        context = ExecutionContext(shots=64, seed=13)
        first = QAOASolver(context=context).solve(problem, 1)
        second = QAOASolver(context=context.replace(seed=None), seed=13).solve(problem, 1)
        assert first.optimal_expectation == second.optimal_expectation

    def test_explicit_rng_overrides_context_seed(self):
        problem = _problem()
        context = ExecutionContext(shots=64, seed=1)
        point = [0.4, 0.3]
        override = ExpectationEvaluator(problem, 1, context=context, rng=2).expectation(
            point
        )
        plain = ExpectationEvaluator(
            problem, 1, context=context.replace(seed=None), rng=2
        ).expectation(point)
        assert override == plain

    def test_informative_reprs(self):
        problem = _problem()
        evaluator = ExpectationEvaluator(
            problem, 2, context=ExecutionContext(shots=16), rng=0
        )
        assert "shots=16" in repr(evaluator) and problem.name in repr(evaluator)
        solver = QAOASolver("COBYLA", ExecutionContext(backend="circuit"))
        assert "COBYLA" in repr(solver) and "circuit" in repr(solver)
        model = NoiseModel.uniform_depolarizing(0.01)
        assert "DepolarizingChannel" in repr(model)
        assert repr(NoiseModel()) == "NoiseModel(empty)"
