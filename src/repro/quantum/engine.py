"""Compiled gate-kernel execution engine.

The seed simulator pushed every gate through one generic
``reshape -> moveaxis -> matmul -> ascontiguousarray`` pipeline, copying the
full ``2^n`` state several times per gate.  :class:`CompiledProgram` analyses
a circuit **once** and lowers it to a short list of specialised operations:

* **Fused diagonal segments** — every maximal run of gates that are diagonal
  in the computational basis (RZ/Z/S/T/P/CZ/CRZ/RZZ, plus CX·RZ·CX sandwiches
  recognised by a peephole pass as RZZ) collapses into a *single* element-wise
  phase multiplication.  The phase is stored as an angle decomposition
  ``const + sum_k value_k * coeff_k`` over the circuit's free parameters, so
  re-binding a parametric circuit costs one axpy + cos/sin pass per segment —
  the whole QAOA cost layer is one multiply.
* **Fused single-qubit GEMM blocks** — a maximal run of single-qubit gates on
  distinct qubits is regrouped (the gates commute) into Kronecker-product
  blocks: low qubits become one contiguous right-hand GEMM, high qubits one
  left-hand GEMM, and adjacent middle qubits small batched matmuls.  Each
  block is a single contiguous memory pass into a ping-pong buffer, replacing
  several strided in-place passes per gate.
* **Two-qubit kernels** — CX and SWAP are pure block swaps (no arithmetic);
  dense two-qubit gates (RXX) update strided quarter views in place.
* **Generic fallback** — the seed ``moveaxis`` path, kept only for k-qubit
  gates (k > 2) that no specialised kernel covers.

All operations accept a ``(dim,)`` amplitude vector or a **batch-major**
``(batch, dim)`` matrix of amplitude rows.  Row-major batching keeps each
state contiguous, turns per-row gate matrices into stacked BLAS matmuls, and
is what powers :meth:`~repro.quantum.simulator.StatevectorSimulator.run_batch`.

A program is bound by *value vector*, never by rebuilding circuits: gate
parameters are compiled to affine references ``coeff * values[slot] + const``
into a flat vector ordered like :attr:`QuantumCircuit.parameters`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import CircuitError, ConfigurationError, SimulationError
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.gates import GATE_REGISTRY, diagonal_angles, gate_matrix
from repro.quantum.noise import apply_pauli
from repro.quantum.parameter import Parameter, ParameterExpression

_SQRT1_2 = 1.0 / np.sqrt(2.0)

#: An affine parameter reference ``(slot, coeff, const)``: the bound value is
#: ``const`` when ``slot`` is None, else ``coeff * values[slot] + const``.
ParamRef = Tuple[Optional[int], float, float]

Bindings = Union[dict, Sequence[float], None]

#: Qubits at or below this index are applied through one contiguous
#: right-hand GEMM (``rows @ kron(..m..).T``); qubits within the same margin
#: of the top of the register go through one left-hand GEMM.  Both write into
#: a ping-pong buffer, avoiding the slow small-stride element accesses of an
#: in-place update, and fuse a whole run of single-qubit gates into a single
#: ``<= 32 x 32`` Kronecker-product matrix (one memory pass for the run).
_GEMM_EDGE_QUBITS = 5

#: Maximum bits fused into one batched-matmul block for middle qubits.
_BMM_MAX_BITS = 3

#: Peak complex128 elements evolved per batched sweep (~256 MiB).  Shared by
#: every chunked batch consumer (the simulator's ``expectation_batch`` and
#: the evaluator's probability-row chunks) so their memory policies cannot
#: silently diverge.
BATCH_ELEMENT_BUDGET = 2**24

_EYE2 = np.eye(2, dtype=np.complex128)


def _param_ref(param, slot_of) -> ParamRef:
    """Compile one gate parameter into an affine :data:`ParamRef`."""
    if isinstance(param, Parameter):
        return (slot_of[param], 1.0, 0.0)
    if isinstance(param, ParameterExpression):
        return (slot_of[param.parameter], param.coefficient, param.constant)
    return (None, 0.0, float(param))


def _resolve_ref(ref: ParamRef, values):
    """Evaluate *ref* against a ``(P,)`` vector or ``(B, P)`` matrix."""
    slot, coeff, const = ref
    if slot is None:
        return const
    return coeff * values[..., slot] + const


def _is_static_zero(entry) -> bool:
    """Whether a kernel matrix entry is a compile-time scalar zero."""
    return isinstance(entry, (int, float, complex)) and entry == 0


def _phase_from_angle(angle: np.ndarray) -> np.ndarray:
    """``exp(i * angle)`` via two real transcendental passes.

    ``np.exp`` of a complex array computes ``exp(re)`` as well; writing
    ``cos``/``sin`` straight into the interleaved real/imaginary layout is
    about twice as fast on the hot diagonal-segment path.
    """
    phase = np.empty(angle.shape, dtype=np.complex128)
    parts = phase.view(np.float64).reshape(angle.shape + (2,))
    np.cos(angle, out=parts[..., 0])
    np.sin(angle, out=parts[..., 1])
    return phase


# ---------------------------------------------------------------------------
# Kernel entry builders (vectorised: accept scalars or per-row arrays)
# ---------------------------------------------------------------------------

def _x_entries():
    return ((0.0, 1.0), (1.0, 0.0))


def _y_entries():
    return ((0.0, -1.0j), (1.0j, 0.0))


def _h_entries():
    return ((_SQRT1_2, _SQRT1_2), (_SQRT1_2, -_SQRT1_2))


def _rx_entries(theta):
    half = 0.5 * np.asarray(theta, dtype=float)
    cos = np.cos(half)
    sin = -1.0j * np.sin(half)
    return ((cos, sin), (sin, cos))


def _ry_entries(theta):
    half = 0.5 * np.asarray(theta, dtype=float)
    cos = np.cos(half)
    sin = np.sin(half)
    return ((cos, -sin), (sin, cos))


def _u3_entries(theta, phi, lam):
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    cos = np.cos(0.5 * theta)
    sin = np.sin(0.5 * theta)
    return (
        (cos + 0.0j, -np.exp(1.0j * lam) * sin),
        (np.exp(1.0j * phi) * sin, np.exp(1.0j * (phi + lam)) * cos),
    )


def _rxx_entries(theta):
    half = 0.5 * np.asarray(theta, dtype=float)
    cos = np.cos(half) + 0.0j
    sin = -1.0j * np.sin(half)
    return (
        (cos, 0.0, 0.0, sin),
        (0.0, cos, sin, 0.0),
        (0.0, sin, cos, 0.0),
        (sin, 0.0, 0.0, cos),
    )


_BUILDERS_1Q = {
    "x": _x_entries,
    "y": _y_entries,
    "h": _h_entries,
    "rx": _rx_entries,
    "ry": _ry_entries,
    "u3": _u3_entries,
}

_BUILDERS_2Q = {
    "rxx": _rxx_entries,
}


def _entries_to_matrix(entries, batch: Optional[int]) -> np.ndarray:
    """Nested entry tuples as a ``(k, k)`` or batched ``(batch, k, k)`` array."""
    if batch is None:
        return np.asarray(entries, dtype=np.complex128)
    size = len(entries)
    matrix = np.empty((batch, size, size), dtype=np.complex128)
    for row_index, row in enumerate(entries):
        for col_index, entry in enumerate(row):
            matrix[:, row_index, col_index] = entry
    return matrix


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product on the trailing two axes (fast, batch-aware)."""
    rows_a, cols_a = a.shape[-2:]
    rows_b, cols_b = b.shape[-2:]
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(batch + (rows_a * rows_b, cols_a * cols_b))


# ---------------------------------------------------------------------------
# Strided views
# ---------------------------------------------------------------------------

def _split_views_2q(state: np.ndarray, first: int, second: int):
    """Quarter-register views ordered by the 2-qubit matrix basis.

    *state* has shape ``(dim,)`` or ``(batch, dim)``.  Index ``k`` of the
    result holds the sub-space with ``first`` (the MSB of the matrix basis)
    at bit ``k >> 1`` and ``second`` at bit ``k & 1``; every view keeps the
    leading batch axis.
    """
    dim = state.shape[-1]
    hi, lo = (first, second) if first > second else (second, first)
    shape = state.shape[:-1] + (
        dim >> (hi + 1),
        2,
        1 << (hi - lo - 1),
        2,
        1 << lo,
    )
    view = state.reshape(shape)
    if first == hi:
        return (
            view[..., 0, :, 0, :],
            view[..., 0, :, 1, :],
            view[..., 1, :, 0, :],
            view[..., 1, :, 1, :],
        )
    return (
        view[..., 0, :, 0, :],
        view[..., 1, :, 0, :],
        view[..., 0, :, 1, :],
        view[..., 1, :, 1, :],
    )


# ---------------------------------------------------------------------------
# Compiled operations
# ---------------------------------------------------------------------------

class _DiagonalOp:
    """A fused run of diagonal gates applied as one phase multiplication.

    The combined phase is ``exp(i * (const + values[slots] . coeffs))`` with
    the angle decomposition accumulated at compile time, so the cost per bind
    is independent of how many gates were fused.
    """

    __slots__ = ("const_angle", "slots", "coeffs", "static_phase")

    def __init__(self, const_angle: np.ndarray, slots: np.ndarray, coeffs: np.ndarray):
        self.const_angle = const_angle
        self.slots = slots
        self.coeffs = coeffs  # (num_slots, dim)
        self.static_phase = (
            _phase_from_angle(const_angle) if slots.size == 0 else None
        )

    def apply(self, state: np.ndarray, values, scratch):
        if self.static_phase is not None:
            phase = self.static_phase
        else:
            theta = values[..., self.slots]
            # (B, S) @ (S, dim) -> per-row angles; trailing-axis broadcast
            # handles the scalar (S,) case and batched states alike.
            angle = theta @ self.coeffs + self.const_angle
            phase = _phase_from_angle(angle)
        state *= phase
        return state, scratch


class _FusedKronOp:
    """A run of single-qubit gates on distinct qubits, lowered to one GEMM.

    *bits* are the covered bit positions in descending order; *factors* is
    the aligned list of gates (``None`` marks an identity filler), each a
    ``(qubit, static_entries, builder, refs)`` tuple.  The combined
    ``2^k x 2^k`` matrix is the Kronecker product of the factor matrices —
    stacked per row for batched bindings — and is precomputed when every
    factor is parameter-free.

    Sub-classes choose how the block is contracted against the state; all of
    them write into the ping-pong scratch buffer, which replaces several
    strided in-place passes per gate with a single contiguous memory pass for
    the whole run.
    """

    __slots__ = ("bits", "factors", "static_matrix")

    def __init__(self, bits, factors):
        self.bits = tuple(bits)
        self.factors = list(factors)
        self.static_matrix = None
        if all(factor is None or factor[1] is not None for factor in factors):
            self.static_matrix = self._finalize(self._combine(None, None))

    def _combine(self, values, batch: Optional[int]) -> np.ndarray:
        matrix = np.eye(1, dtype=np.complex128)
        for factor in self.factors:
            if factor is None:
                term = _EYE2
            else:
                term = _entries_to_matrix(_factor_entries(factor, values), batch)
            matrix = _kron2(matrix, term)
        return matrix

    def _finalize(self, matrix: np.ndarray) -> np.ndarray:
        return matrix

    def _matrix(self, values) -> np.ndarray:
        if self.static_matrix is not None:
            return self.static_matrix
        batch = values.shape[0] if values.ndim == 2 else None
        return self._finalize(self._combine(values, batch))


def _factor_entries(factor, values):
    _, entries, builder, refs = factor
    if entries is not None:
        return entries
    return builder(*[_resolve_ref(ref, values) for ref in refs])


class _RightGemmOp(_FusedKronOp):
    """Low-qubit block: one right-hand GEMM over the contiguous low bits."""

    __slots__ = ()

    def _finalize(self, matrix: np.ndarray) -> np.ndarray:
        # Rows of the (.., dim / W, W) view hold the low-qubit blocks, so the
        # block matrix acts from the right (transposed; contiguous when
        # static so repeated binds hit the fast GEMM path).
        transposed = np.swapaxes(matrix, -1, -2)
        return np.ascontiguousarray(transposed) if matrix.ndim == 2 else transposed

    def apply(self, state: np.ndarray, values, scratch):
        width = 1 << len(self.bits)
        view = state.reshape(state.shape[:-1] + (-1, width))
        out = scratch.reshape(view.shape)
        np.matmul(view, self._matrix(values), out=out)
        return scratch, state


class _LeftGemmOp(_FusedKronOp):
    """High-qubit block: one left-hand GEMM over the leading bits."""

    __slots__ = ()

    def apply(self, state: np.ndarray, values, scratch):
        width = 1 << len(self.bits)
        view = state.reshape(state.shape[:-1] + (width, -1))
        out = scratch.reshape(view.shape)
        np.matmul(self._matrix(values), view, out=out)
        return scratch, state


class _BmmOp(_FusedKronOp):
    """Middle-qubit block: batched matmul over adjacent bits."""

    __slots__ = ("low_bit",)

    def __init__(self, bits, factors, low_bit: int):
        super().__init__(bits, factors)
        self.low_bit = low_bit

    def apply(self, state: np.ndarray, values, scratch):
        width = 1 << len(self.bits)
        view = state.reshape(state.shape[:-1] + (-1, width, 1 << self.low_bit))
        out = scratch.reshape(view.shape)
        matrix = self._matrix(values)
        if matrix.ndim == 3:  # per-row matrices broadcast over the view's
            matrix = matrix[:, None]  # outer-block axis
        np.matmul(matrix, view, out=out)
        return scratch, state


class _TwoQubitOp:
    """In-place strided update for one two-qubit gate (dense 4x4 entries)."""

    __slots__ = ("first", "second", "entries", "builder", "refs")

    def __init__(self, first: int, second: int, entries=None, builder=None, refs=()):
        self.first = first
        self.second = second
        self.entries = entries
        self.builder = builder
        self.refs = refs

    def apply(self, state: np.ndarray, values, scratch):
        entries = self.entries
        if entries is None:
            entries = self.builder(*[_resolve_ref(ref, values) for ref in self.refs])
        blocks = _split_views_2q(state, self.first, self.second)
        old = scratch.reshape(-1)[: state.size].reshape((4,) + blocks[0].shape)
        for k in range(4):
            np.copyto(old[k], blocks[k])
        reshape = (
            (lambda e: e if np.ndim(e) == 0 else e.reshape(-1, 1, 1, 1))
            if state.ndim == 2
            else (lambda e: e)
        )
        for k in range(4):
            row = entries[k]
            block = blocks[k]
            np.multiply(old[0], reshape(row[0]), out=block)
            for col in (1, 2, 3):
                if not _is_static_zero(row[col]):
                    block += reshape(row[col]) * old[col]
        return state, scratch


class _CXOp:
    """CNOT as a block swap of the two control=1 quarters (no arithmetic)."""

    __slots__ = ("control", "target")

    def __init__(self, control: int, target: int):
        self.control = control
        self.target = target

    def apply(self, state: np.ndarray, values, scratch):
        blocks = _split_views_2q(state, self.control, self.target)
        b10, b11 = blocks[2], blocks[3]
        tmp = scratch.reshape(-1)[: b10.size].reshape(b10.shape)
        np.copyto(tmp, b10)
        np.copyto(b10, b11)
        np.copyto(b11, tmp)
        return state, scratch


class _SwapOp:
    """SWAP as a block swap of the |01> and |10> quarters."""

    __slots__ = ("first", "second")

    def __init__(self, first: int, second: int):
        self.first = first
        self.second = second

    def apply(self, state: np.ndarray, values, scratch):
        blocks = _split_views_2q(state, self.first, self.second)
        b01, b10 = blocks[1], blocks[2]
        tmp = scratch.reshape(-1)[: b01.size].reshape(b01.shape)
        np.copyto(tmp, b01)
        np.copyto(b01, b10)
        np.copyto(b10, tmp)
        return state, scratch


class _GenericOp:
    """Seed-style dense dispatch, kept for gates with no specialised kernel."""

    __slots__ = ("name", "qubits", "num_qubits", "matrix", "refs")

    def __init__(self, name: str, qubits, num_qubits: int, matrix=None, refs=()):
        self.name = name
        self.qubits = tuple(qubits)
        self.num_qubits = num_qubits
        self.matrix = matrix
        self.refs = refs

    def _apply_matrix(self, state: np.ndarray, matrix: np.ndarray) -> None:
        k = len(self.qubits)
        prefix = state.ndim - 1
        axes = [prefix + self.num_qubits - 1 - q for q in self.qubits]
        tensor = state.reshape(state.shape[:-1] + (2,) * self.num_qubits)
        tensor = np.moveaxis(tensor, axes, range(prefix, prefix + k))
        shape = tensor.shape
        if prefix:
            flat = np.matmul(matrix, tensor.reshape(state.shape[0], 2**k, -1))
        else:
            flat = matrix @ tensor.reshape(2**k, -1)
        tensor = np.moveaxis(flat.reshape(shape), range(prefix, prefix + k), axes)
        np.copyto(state, np.ascontiguousarray(tensor).reshape(state.shape))

    def apply(self, state: np.ndarray, values, scratch):
        if self.matrix is not None:
            self._apply_matrix(state, self.matrix)
            return state, scratch
        resolved = [_resolve_ref(ref, values) for ref in self.refs]
        if state.ndim == 1 or all(np.ndim(p) == 0 for p in resolved):
            self._apply_matrix(state, gate_matrix(self.name, *map(float, resolved)))
            return state, scratch
        # Per-row parameters on a batch: no vectorised builder exists for
        # this gate, so fall back to one dense application per (contiguous)
        # state row.
        for row in range(state.shape[0]):
            params = [float(p) if np.ndim(p) == 0 else float(p[row]) for p in resolved]
            self._apply_matrix(state[row], gate_matrix(self.name, *params))
        return state, scratch


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _expand_sub_index(indices: np.ndarray, qubits: Tuple[int, ...]) -> np.ndarray:
    """Sub-space basis index of every register basis state for *qubits*.

    The first listed qubit is the most-significant bit, matching the gate
    matrix basis of :mod:`repro.quantum.gates`.
    """
    sub = np.zeros(indices.size, dtype=np.intp)
    for qubit in qubits:
        sub = (sub << 1) | ((indices >> qubit) & 1)
    return sub


class CompiledProgram:
    """A circuit lowered to fused diagonal segments and GEMM-block kernels.

    Compile once, then :meth:`apply` many times with fresh parameter values —
    the analysis (peephole fusion, diagonal-angle accumulation, single-qubit
    run regrouping, kernel selection) is never repeated, and binding never
    rebuilds :class:`~repro.quantum.circuit.QuantumCircuit` objects.
    """

    def __init__(self, circuit: QuantumCircuit):
        self._num_qubits = circuit.num_qubits
        self._dim = 1 << circuit.num_qubits
        self._parameters: List[Parameter] = list(circuit.parameters)
        # Original instruction index -> index of the compiled op *after*
        # which a Pauli error attached to that instruction is inserted
        # (-1 = before the first op).  Fusion never reorders across segment
        # boundaries, so this anchor is the tightest noise slot that does not
        # break any fused kernel (see repro.quantum.noise for the semantics).
        self._noise_anchor: dict = {}
        slot_of = {p: slot for slot, p in enumerate(self._parameters)}
        self._ops = self._compile(list(circuit), slot_of)

    # -- introspection ---------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Register size of the compiled circuit."""
        return self._num_qubits

    @property
    def parameters(self) -> List[Parameter]:
        """Free parameters, in :attr:`QuantumCircuit.parameters` order."""
        return list(self._parameters)

    @property
    def num_parameters(self) -> int:
        """Number of free parameters (the length of a value vector)."""
        return len(self._parameters)

    @property
    def num_operations(self) -> int:
        """Number of compiled operations (after fusion)."""
        return len(self._ops)

    def operation_summary(self) -> dict:
        """Compiled-op counts per kind (diagnostic; used by benchmarks)."""
        counts: dict = {}
        for op in self._ops:
            kind = type(op).__name__.lstrip("_")
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    # -- compilation -----------------------------------------------------
    def _compile(self, instructions, slot_of) -> list:
        # Pass 1: peephole-rewrite CX(a,b) RZ(t, b) CX(a,b) sandwiches (the
        # textbook RZZ decomposition emitted by the QAOA circuit builder)
        # into diagonal RZZ items, and tag every diagonal gate.  Each item
        # carries the original instruction indices it covers so noise
        # insertions can be anchored after the compiled op that absorbs it.
        items = []  # ("diag", qubits, const, coeff, ref, indices) | ("gate", inst, index)
        index = 0
        while index < len(instructions):
            inst = instructions[index]
            if inst.name == "cx" and index + 2 < len(instructions):
                middle = instructions[index + 1]
                closing = instructions[index + 2]
                if (
                    middle.name == "rz"
                    and middle.qubits[0] == inst.qubits[1]
                    and closing.name == "cx"
                    and closing.qubits == inst.qubits
                ):
                    const, coeff = diagonal_angles("rzz")
                    ref = _param_ref(middle.params[0], slot_of)
                    items.append(
                        ("diag", inst.qubits, const, coeff, ref,
                         (index, index + 1, index + 2))
                    )
                    index += 3
                    continue
            definition = GATE_REGISTRY[inst.name]
            if definition.diagonal:
                const, coeff = diagonal_angles(inst.name)
                ref = (
                    _param_ref(inst.params[0], slot_of)
                    if definition.num_params
                    else None
                )
                items.append(("diag", inst.qubits, const, coeff, ref, (index,)))
            else:
                items.append(("gate", inst, index))
            index += 1

        # Pass 2: fuse maximal diagonal runs and maximal runs of single-qubit
        # gates on distinct qubits; lower everything else to kernels.  A
        # diagonal item flushes the pending single-qubit run (and vice versa)
        # because the two kinds need not commute on shared qubits.
        ops: list = []
        diag_run: list = []
        oneq_run: list = []  # (factor, instruction_index) pairs

        def flush_diag() -> None:
            self._flush_diagonal_run(ops, diag_run)
            # Whether or not the run emitted an op (a run of identities
            # compiles to nothing), errors attached inside it belong at this
            # point of the stream: after the op just emitted, or after the
            # previous op when the run vanished.
            anchor = len(ops) - 1
            for item in diag_run:
                for covered in item[5]:
                    self._noise_anchor[covered] = anchor
            diag_run.clear()

        def flush_oneq() -> None:
            if not oneq_run:
                return
            produced = self._lower_single_qubit_run([f for f, _ in oneq_run])
            base = len(ops)
            ops.extend(produced)
            qubit_anchor = {}
            for offset, op in enumerate(produced):
                for bit, factor in zip(op.bits, op.factors):
                    if factor is not None:
                        qubit_anchor[bit] = base + offset
            for factor, covered in oneq_run:
                self._noise_anchor[covered] = qubit_anchor[factor[0]]
            oneq_run.clear()

        for item in items:
            if item[0] == "diag":
                flush_oneq()
                diag_run.append(item)
                continue
            inst, inst_index = item[1], item[2]
            flush_diag()
            factor = self._single_qubit_factor(inst, slot_of)
            if factor is not None:
                if any(f[0] == factor[0] for f, _ in oneq_run):
                    flush_oneq()
                oneq_run.append((factor, inst_index))
            else:
                flush_oneq()
                ops.append(self._build_kernel(inst, slot_of))
                self._noise_anchor[inst_index] = len(ops) - 1
        flush_diag()
        flush_oneq()
        return ops

    def _single_qubit_factor(self, inst, slot_of):
        """The gate as a fusable ``(qubit, entries, builder, refs)`` factor."""
        definition = GATE_REGISTRY[inst.name]
        if definition.num_qubits != 1 or inst.name not in _BUILDERS_1Q:
            return None
        builder = _BUILDERS_1Q[inst.name]
        refs = tuple(_param_ref(p, slot_of) for p in inst.params)
        if all(ref[0] is None for ref in refs):
            return (inst.qubits[0], builder(*(ref[2] for ref in refs)), None, ())
        return (inst.qubits[0], None, builder, refs)

    def _lower_single_qubit_run(self, run) -> list:
        """Partition a distinct-qubit run into fused GEMM blocks.

        Low qubits merge into one right-hand GEMM and high qubits into one
        left-hand GEMM (identity fillers bridge gaps); middle qubits are
        chunked greedily into batched matmuls over adjacent bits.  Gates on
        distinct qubits commute, so the regrouping is exact.
        """
        n = self._num_qubits
        by_qubit = {factor[0]: factor for factor in run}
        low_cut = min(_GEMM_EDGE_QUBITS - 1, n - 1)
        ops: list = []
        low = [q for q in by_qubit if q <= low_cut]
        if low:
            bits = range(max(low), -1, -1)
            ops.append(_RightGemmOp(bits, [by_qubit.get(b) for b in bits]))
        high_floor = max(n - _GEMM_EDGE_QUBITS, low_cut + 1)
        high = [q for q in by_qubit if q >= high_floor]
        if high:
            bits = range(n - 1, min(high) - 1, -1)
            ops.append(_LeftGemmOp(bits, [by_qubit.get(b) for b in bits]))
        middle = sorted((q for q in by_qubit if low_cut < q < high_floor), reverse=True)
        index = 0
        while index < len(middle):
            chunk = [middle[index]]
            index += 1
            while (
                index < len(middle)
                and len(chunk) < _BMM_MAX_BITS
                and middle[index] == chunk[-1] - 1
            ):
                chunk.append(middle[index])
                index += 1
            ops.append(_BmmOp(chunk, [by_qubit[b] for b in chunk], chunk[-1]))
        return ops

    def _flush_diagonal_run(self, ops: list, run: list) -> None:
        if not run:
            return
        indices = np.arange(self._dim)
        const_angle = np.zeros(self._dim, dtype=float)
        coeff_by_slot: dict = {}
        for _, qubits, const, coeff, ref, _indices in run:
            sub = _expand_sub_index(indices, qubits)
            const_angle += const[sub]
            if coeff is None or ref is None:
                continue
            slot, ref_coeff, ref_const = ref
            coeff_full = coeff[sub]
            if ref_const != 0.0:
                const_angle += ref_const * coeff_full
            if slot is not None and ref_coeff != 0.0:
                accum = coeff_by_slot.get(slot)
                if accum is None:
                    accum = coeff_by_slot.setdefault(slot, np.zeros(self._dim))
                accum += ref_coeff * coeff_full
        slots = np.array(sorted(coeff_by_slot), dtype=np.intp)
        coeffs = (
            np.stack([coeff_by_slot[s] for s in slots])
            if slots.size
            else np.zeros((0, self._dim))
        )
        if slots.size == 0 and not const_angle.any():
            return  # a run of identities — compiles to nothing
        ops.append(_DiagonalOp(const_angle, slots, coeffs))

    def _build_kernel(self, inst, slot_of):
        if inst.name == "cx":
            return _CXOp(inst.qubits[0], inst.qubits[1])
        if inst.name == "swap":
            return _SwapOp(inst.qubits[0], inst.qubits[1])
        definition = GATE_REGISTRY[inst.name]
        refs = tuple(_param_ref(p, slot_of) for p in inst.params)
        static = all(ref[0] is None for ref in refs)
        if definition.num_qubits == 2 and inst.name in _BUILDERS_2Q:
            builder = _BUILDERS_2Q[inst.name]
            if static:
                return _TwoQubitOp(
                    inst.qubits[0], inst.qubits[1],
                    entries=builder(*(ref[2] for ref in refs)),
                )
            return _TwoQubitOp(inst.qubits[0], inst.qubits[1], builder=builder, refs=refs)
        matrix = (
            gate_matrix(inst.name, *(ref[2] for ref in refs)) if static else None
        )
        return _GenericOp(inst.name, inst.qubits, self._num_qubits, matrix=matrix, refs=refs)

    # -- binding ---------------------------------------------------------
    def resolve_bindings(self, parameter_values: Bindings) -> Optional[np.ndarray]:
        """Normalise bindings to a flat ``(P,)`` value vector.

        Accepts a ``{Parameter: value}`` mapping or a flat sequence in
        :attr:`parameters` order, mirroring :meth:`QuantumCircuit.bind`
        (including its error behaviour); returns ``None`` for a circuit with
        no free parameters.
        """
        if not self._parameters:
            return None
        if parameter_values is None:
            raise CircuitError(
                f"missing bindings for parameters {[p.name for p in self._parameters]}"
            )
        if isinstance(parameter_values, dict):
            missing = [p.name for p in self._parameters if p not in parameter_values]
            if missing:
                raise CircuitError(f"missing bindings for parameters {missing}")
            return np.array(
                [float(parameter_values[p]) for p in self._parameters], dtype=float
            )
        values = np.asarray(parameter_values, dtype=float).reshape(-1)
        if values.size != len(self._parameters):
            raise CircuitError(
                f"expected {len(self._parameters)} parameter values, got {values.size}"
            )
        return values

    def resolve_bindings_batch(self, parameter_values_batch) -> np.ndarray:
        """Normalise a batch of bindings to a ``(batch, P)`` float matrix."""
        return normalize_bindings_batch(len(self._parameters), parameter_values_batch)

    # -- noise -----------------------------------------------------------
    def noise_anchor(self, instruction_index: int) -> int:
        """The op index after which errors of *instruction_index* insert.

        ``-1`` means before the first compiled op.  Raises
        :class:`SimulationError` for indices outside the compiled circuit.
        """
        try:
            return self._noise_anchor[instruction_index]
        except KeyError:
            raise SimulationError(
                f"instruction index {instruction_index} is not part of the "
                f"compiled circuit"
            ) from None

    def _group_errors(self, errors) -> dict:
        """Group sampled ``(index, qubit, pauli)`` errors by anchor op."""
        boundary: dict = {}
        for instruction_index, qubit, pauli in errors:
            anchor = self.noise_anchor(instruction_index)
            boundary.setdefault(anchor, []).append((qubit, pauli))
        return boundary

    # -- execution -------------------------------------------------------
    def apply(
        self,
        state: np.ndarray,
        values: Optional[np.ndarray] = None,
        *,
        errors=None,
    ) -> np.ndarray:
        """Run the program on *state* and return the final amplitude array.

        *state* is a C-contiguous ``complex128`` array of shape ``(dim,)`` or
        batch-major ``(batch, dim)`` (one state per row).  *values* is
        ``None`` (no free parameters), a ``(P,)`` vector applied to every
        row, or a ``(batch, P)`` matrix of per-row values.

        *errors* is an optional sampled Pauli error pattern (a sequence of
        ``(instruction_index, qubit, pauli)`` triples, see
        :meth:`~repro.quantum.noise.NoiseModel.sample_errors`); each error is
        inserted at the boundary of the fused op containing its instruction,
        leaving the compiled program — and therefore the simulator's program
        cache — untouched.  With a batched *state*, every row receives the
        same error pattern (one trajectory fanned over many bindings).

        The kernels ping-pong between *state* and an internal scratch buffer
        of the same shape, so the returned array is not always the object
        passed in — callers must use the return value (the input buffer may
        hold intermediate garbage afterwards).
        """
        if state.shape[-1] != self._dim:
            raise SimulationError(
                f"state dimension {state.shape[-1]} does not match the "
                f"{self._num_qubits}-qubit program"
            )
        if self._parameters and values is None:
            raise CircuitError(
                f"missing bindings for parameters {[p.name for p in self._parameters]}"
            )
        if (
            values is not None
            and values.ndim == 2
            and (state.ndim != 2 or values.shape[0] != state.shape[0])
        ):
            raise SimulationError(
                f"batched values for {values.shape[0]} rows do not match "
                f"state shape {state.shape}"
            )
        scratch = np.empty_like(state)
        if not errors:
            for op in self._ops:
                state, scratch = op.apply(state, values, scratch)
            return state
        boundary = self._group_errors(errors)
        for qubit, pauli in boundary.get(-1, ()):
            apply_pauli(state, qubit, pauli)
        for op_index, op in enumerate(self._ops):
            state, scratch = op.apply(state, values, scratch)
            for qubit, pauli in boundary.get(op_index, ()):
                apply_pauli(state, qubit, pauli)
        return state


def normalize_bindings_batch(num_parameters: int, parameter_values_batch) -> np.ndarray:
    """Normalise a batch of bindings to a ``(batch, P)`` float matrix.

    Shared by :class:`CompiledProgram` and callers that need batch-binding
    validation without compiling anything (the simulator's seed-oracle mode).
    """
    matrix = np.asarray(parameter_values_batch, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.ndim != 2 or matrix.shape[1] != num_parameters:
        raise CircuitError(
            f"expected a (batch, {num_parameters}) parameter matrix, "
            f"got shape {matrix.shape}"
        )
    return matrix


def compile_circuit(circuit: QuantumCircuit) -> CompiledProgram:
    """Compile *circuit* into a reusable :class:`CompiledProgram`."""
    return CompiledProgram(circuit)


# ---------------------------------------------------------------------------
# PTM / superoperator compilation (exact noisy execution on vec(rho))
# ---------------------------------------------------------------------------
#
# The density matrix of an n-qubit register, flattened row-major, is a 4^n
# vector — formally a statevector on a *doubled* register of 2n qubits whose
# high n bits index rows of rho and whose low n bits index columns.  Unitary
# evolution becomes ``vec(U rho U^dag) = (U ⊗ conj(U)) vec(rho)``: the gate
# applied to the row qubits and its complex conjugate to the column qubits.
# That observation lets the *existing* statevector compiler do almost all of
# the work: every noise-free stretch of a circuit is re-emitted on the
# doubled register (gates on row qubits first, conjugate gates on column
# qubits — the two halves act on disjoint qubits, so the grouping is exact
# and keeps the diagonal/GEMM fusion passes effective) and lowered through
# CompiledProgram unchanged.  Each *noisy* instruction becomes one _SuperOp:
# the channel superoperators ``sum_k K ⊗ conj(K)`` (rule-major, matching the
# per-instruction Kraus oracle) composed with the instruction's own
# ``U ⊗ conj(U)``, applied as a single dense contraction over the
# instruction's row+column qubits.  Placement is exactly per-instruction, so
# the compiled path agrees with the oracle to machine precision while
# touching the full 4^n vector ~3 times per noisy instruction instead of
# once per Kraus term per channel.

#: Gates whose matrix is real: the conjugate instruction is the gate itself.
_REAL_GATES = frozenset({"id", "x", "z", "h", "ry", "cx", "cz", "swap"})

#: Gates whose conjugate is the same gate at negated parameters.
_NEGATED_GATES = frozenset({"rx", "rz", "p", "crz", "rzz", "rxx"})

#: Static gates whose conjugate is a different registry gate.
_CONJUGATE_NAMES = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}


def _negate_param(param):
    """``-param`` for numbers, Parameters and ParameterExpressions alike."""
    if isinstance(param, (Parameter, ParameterExpression)):
        return -param
    return -float(param)


def _conjugate_instruction(inst: Instruction, offset: int) -> Instruction:
    """The instruction applying ``conj(U)`` on the qubits shifted by *offset*.

    Used to build the column half of a doubled-register segment.  ``y`` is
    rewritten as ``u3(pi, -pi/2, -pi/2)`` (exactly ``[[0, i], [-i, 0]]``)
    rather than ``y`` up to a global phase: on the doubled register a
    "global" phase of the column half is a *relative* phase against the row
    half and would flip the sign of rho.
    """
    qubits = tuple(q + offset for q in inst.qubits)
    if inst.name in _REAL_GATES:
        return Instruction(inst.name, qubits, inst.params)
    if inst.name in _NEGATED_GATES:
        return Instruction(
            inst.name, qubits, tuple(_negate_param(p) for p in inst.params)
        )
    if inst.name in _CONJUGATE_NAMES:
        return Instruction(_CONJUGATE_NAMES[inst.name], qubits)
    if inst.name == "y":
        return Instruction("u3", qubits, (np.pi, -np.pi / 2.0, -np.pi / 2.0))
    if inst.name == "u3":
        theta, phi, lam = inst.params
        return Instruction(
            "u3", qubits, (theta, _negate_param(phi), _negate_param(lam))
        )
    raise SimulationError(
        f"gate {inst.name!r} has no conjugation rule for the doubled-register "
        f"(PTM) compiler"
    )


def _embed_operator(operator: np.ndarray, positions, width: int) -> np.ndarray:
    """Embed a k-qubit operator acting on *positions* of a *width*-qubit frame.

    Frame position 0 is the most-significant bit of the frame basis (the
    gate-registry convention); *positions* lists the operator's qubits from
    its own most-significant bit downwards.  Frames here are instruction
    operand lists, so ``width <= 2`` and the dense loop is at most 16x16.
    """
    if positions == list(range(width)):
        return np.asarray(operator, dtype=np.complex128)
    dim = 1 << width
    target_bits = [width - 1 - p for p in positions]
    rest_bits = [b for b in range(width) if b not in target_bits]
    embedded = np.zeros((dim, dim), dtype=np.complex128)
    for row in range(dim):
        row_sub = 0
        for bit in target_bits:
            row_sub = (row_sub << 1) | ((row >> bit) & 1)
        row_rest = [(row >> bit) & 1 for bit in rest_bits]
        for col in range(dim):
            if [(col >> bit) & 1 for bit in rest_bits] != row_rest:
                continue
            col_sub = 0
            for bit in target_bits:
                col_sub = (col_sub << 1) | ((col >> bit) & 1)
            embedded[row, col] = operator[row_sub, col_sub]
    return embedded


def _frame_channel_superoperator(channel, targets, frame) -> np.ndarray:
    """A channel's superoperator embedded into an instruction's operand frame.

    *targets* is the operand tuple the channel fires on (a subset of
    *frame*, the instruction's qubits); the result acts on
    ``vec(rho_frame)`` in the ``(row sub-space) ⊗ (column sub-space)``
    basis used by :class:`_SuperOp`.
    """
    frame = tuple(frame)
    positions = []
    for qubit in targets:
        if qubit not in frame:
            raise ConfigurationError(
                f"channel {channel.name!r} targets qubit {qubit}, which is "
                f"not an operand of the instruction it is attached to "
                f"(operands {frame})"
            )
        positions.append(frame.index(qubit))
    width = len(frame)
    if positions == list(range(width)):
        return np.asarray(channel.superoperator(), dtype=np.complex128)
    sub_dim = 1 << width
    matrix = np.zeros((sub_dim * sub_dim,) * 2, dtype=np.complex128)
    for kraus in channel.kraus_operators():
        embedded = _embed_operator(kraus, positions, width)
        matrix += np.kron(embedded, embedded.conj())
    return matrix


class _SuperOp(_GenericOp):
    """One noisy instruction as a single superoperator kernel on vec(rho).

    *qubits* lists the instruction's row (shifted) qubits first, then its
    column qubits, so the kernel's matrix basis is
    ``(row sub-space) ⊗ (column sub-space)`` — the ordering of both
    ``kron(U, conj(U))`` and the embedded channel superoperators.  Static
    instructions precompute the full ``channel_super @ (U ⊗ conj(U))``
    matrix; parametric ones rebuild only the unitary factor per bind.
    """

    __slots__ = ("channel_super",)

    def __init__(self, name, qubits, num_qubits, channel_super, matrix=None, refs=()):
        super().__init__(name, qubits, num_qubits, matrix=matrix, refs=refs)
        self.channel_super = channel_super

    def apply(self, state, values, scratch):
        if self.matrix is not None:
            self._apply_matrix(state, self.matrix)
            return state, scratch
        resolved = [float(_resolve_ref(ref, values)) for ref in self.refs]
        unitary = gate_matrix(self.name, *resolved)
        self._apply_matrix(
            state, self.channel_super @ np.kron(unitary, unitary.conj())
        )
        return state, scratch


class _SegmentOp:
    """A noise-free stretch of the doubled register, as a compiled program.

    Wraps the stretch's :class:`CompiledProgram` plus the index array
    mapping the enclosing program's master value vector onto the stretch's
    own parameter order.
    """

    __slots__ = ("program", "slots")

    def __init__(self, program: CompiledProgram, slots: Optional[np.ndarray]):
        self.program = program
        self.slots = slots

    def apply(self, state, values, scratch):
        sub_values = None
        if self.slots is not None:
            sub_values = values[self.slots]
        return self.program.apply(state, sub_values), scratch


class NoisyCompiledProgram:
    """A ``(circuit, noise model)`` pair lowered to kernels on ``vec(rho)``.

    Compile once per pair, then :meth:`apply` many times with fresh
    parameter values — mirroring :class:`CompiledProgram` for statevectors.
    Noise-free stretches run through the standard fused kernels on the
    doubled ``2n``-qubit register; each noisy instruction is one
    :class:`_SuperOp` contraction carrying its attached channels at exactly
    the per-instruction anchor the Kraus oracle uses (see the section
    comment above for the vectorisation convention).
    """

    def __init__(self, circuit: QuantumCircuit, noise_model=None):
        n = circuit.num_qubits
        self._num_qubits = n
        self._dim = 1 << (2 * n)
        self._parameters: List[Parameter] = list(circuit.parameters)
        slot_of = {p: slot for slot, p in enumerate(self._parameters)}
        self._ops: list = []
        self._num_superops = 0
        pending: List[Instruction] = []

        def flush_segment() -> None:
            if not pending:
                return
            doubled = QuantumCircuit(2 * n)
            for inst in pending:
                doubled.append(
                    Instruction(
                        inst.name, tuple(q + n for q in inst.qubits), inst.params
                    )
                )
            for inst in pending:
                doubled.append(_conjugate_instruction(inst, 0))
            program = CompiledProgram(doubled)
            slots = np.array(
                [slot_of[p] for p in program.parameters], dtype=np.intp
            )
            self._ops.append(_SegmentOp(program, slots if slots.size else None))
            pending.clear()

        for inst in circuit:
            attached = (
                list(noise_model.exact_channels_for(inst.name, inst.qubits))
                if noise_model is not None
                else []
            )
            if not attached:
                pending.append(inst)
                continue
            flush_segment()
            self._ops.append(self._build_superop(inst, attached, slot_of, n))
            self._num_superops += 1
        flush_segment()

    def _build_superop(self, inst, attached, slot_of, n) -> _SuperOp:
        frame = tuple(inst.qubits)
        sub_dim = 1 << len(frame)
        channel_super = np.eye(sub_dim * sub_dim, dtype=np.complex128)
        # Channels fire after the gate, in rule-major order: each later
        # channel multiplies from the left of the accumulated map.
        for channel, targets in attached:
            channel_super = (
                _frame_channel_superoperator(channel, targets, frame)
                @ channel_super
            )
        doubled_qubits = tuple(q + n for q in frame) + frame
        refs = tuple(_param_ref(p, slot_of) for p in inst.params)
        if all(ref[0] is None for ref in refs):
            unitary = gate_matrix(inst.name, *(ref[2] for ref in refs))
            matrix = channel_super @ np.kron(unitary, unitary.conj())
            return _SuperOp(
                inst.name, doubled_qubits, 2 * n, channel_super, matrix=matrix
            )
        return _SuperOp(inst.name, doubled_qubits, 2 * n, channel_super, refs=refs)

    # -- introspection ---------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Register size of the source circuit (``vec(rho)`` has ``4^n``)."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Length of the flattened density matrix (``4^n``)."""
        return self._dim

    @property
    def parameters(self) -> List[Parameter]:
        """Free parameters, in :attr:`QuantumCircuit.parameters` order."""
        return list(self._parameters)

    @property
    def num_parameters(self) -> int:
        """Number of free parameters (the length of a value vector)."""
        return len(self._parameters)

    @property
    def num_operations(self) -> int:
        """Top-level operation count (segments + superoperator kernels)."""
        return len(self._ops)

    @property
    def num_superops(self) -> int:
        """Number of noisy instructions lowered to superoperator kernels."""
        return self._num_superops

    def operation_summary(self) -> dict:
        """Compiled-op counts per kind, segments flattened (diagnostic)."""
        counts: dict = {}
        for op in self._ops:
            if isinstance(op, _SegmentOp):
                for kind, count in op.program.operation_summary().items():
                    counts[kind] = counts.get(kind, 0) + count
            else:
                counts["SuperOp"] = counts.get("SuperOp", 0) + 1
        return counts

    # -- binding ---------------------------------------------------------
    resolve_bindings = CompiledProgram.resolve_bindings

    # -- execution -------------------------------------------------------
    def apply(
        self, state: np.ndarray, values: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Run the program on a flattened density matrix.

        *state* is a C-contiguous ``complex128`` vector of length ``4^n`` —
        the row-major flattening of rho.  *values* is ``None`` (no free
        parameters) or a ``(P,)`` vector; batched bindings are not supported
        on the density path.  As with :meth:`CompiledProgram.apply`, the
        kernels ping-pong through scratch buffers, so callers must use the
        returned array.
        """
        if state.shape != (self._dim,):
            raise SimulationError(
                f"state shape {state.shape} does not match the flattened "
                f"{self._num_qubits}-qubit density matrix ({self._dim},)"
            )
        if self._parameters and values is None:
            raise CircuitError(
                f"missing bindings for parameters "
                f"{[p.name for p in self._parameters]}"
            )
        if values is not None and np.ndim(values) == 2:
            raise SimulationError(
                "batched parameter values are not supported on the "
                "PTM-compiled density path; bind one value vector at a time"
            )
        scratch = np.empty_like(state)
        for op in self._ops:
            state, scratch = op.apply(state, values, scratch)
        return state


def compile_noisy_circuit(
    circuit: QuantumCircuit, noise_model=None
) -> NoisyCompiledProgram:
    """Compile a ``(circuit, noise model)`` pair for exact noisy execution."""
    return NoisyCompiledProgram(circuit, noise_model)
