"""Two-qubit density operators, structural maps, and random-state ensembles.

Conventions (fixed once, used everywhere):
  * every state is a two-qubit (C^2 ⊗ C^2) density matrix of side D = 4,
  * dense row-major complex storage,
  * product basis |i_A j_B> with j_B varying fastest,
  * column-stacking vectorization lives in ``dynamics``.

Only ``new_state`` and ``dynamics.make_generator`` take dimensions, and
both accept (2, 2) alone.

Randomness uses the counter-based Philox generator; per-sample streams
are derived by spawn-key splitting so ensembles are reproducible and
independent of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotAState, UnsupportedDimension, UnsupportedEnsemble

D = 4  # side of every density matrix: two qubits
VALIDATION_TOL = 1e-10

ENSEMBLE_KINDS = ("hilbert_schmidt_mixed", "haar_pure", "fixed_concurrence_pure")


@dataclass(frozen=True)
class QState:
    """A validated two-qubit density operator: a read-only 4x4 matrix."""

    matrix: np.ndarray = field(repr=False)


def check_dims(dims) -> None:
    """The one dimension check: entfate is two-qubit only."""
    if tuple(dims) != (2, 2):
        raise UnsupportedDimension(f"two qubits only: dims must be (2, 2), got {tuple(dims)}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Which random-state ensemble to draw from, and with which seed."""

    kind: str
    seed: int
    target_concurrence: float = 0.0

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise UnsupportedEnsemble(f"unknown ensemble kind {self.kind!r}")
        if not 0.0 <= self.target_concurrence <= 1.0:
            raise ValueError(
                f"target_concurrence must lie in [0, 1], got {self.target_concurrence}"
            )


def new_state(matrix, dim_a: int = 2, dim_b: int = 2, tol: float = VALIDATION_TOL) -> QState:
    """Validate a matrix as a two-qubit density operator and wrap it as a QState.

    The matrix is symmetrized to (M + M†)/2 before the trace and PSD
    checks; a non-finite entry, then a Hermiticity deviation beyond
    ``tol``, is rejected first.
    """
    check_dims((dim_a, dim_b))
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (D, D):
        raise DimensionMismatch(f"matrix shape {m.shape}, expected {(D, D)}")
    if not np.isfinite(m).all():
        raise NotAState("matrix has a non-finite entry")
    herm_dev = np.max(np.abs(m - m.conj().T))
    if herm_dev > tol:
        raise NotAState(f"not Hermitian: max |M - M†| = {herm_dev:.3e} > {tol:.1e}")
    m = 0.5 * (m + m.conj().T)
    trace_dev = abs(np.trace(m).real - 1.0)
    if trace_dev > tol:
        raise NotAState(f"trace deviates from 1 by {trace_dev:.3e} > {tol:.1e}")
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -tol:
        raise NotAState(f"not PSD: min eigenvalue {min_eig:.3e} < -{tol:.1e}")
    m.setflags(write=False)
    return QState(m)


def transpose_b(m: np.ndarray) -> np.ndarray:
    """Partial transpose on B of a two-qubit operator (not necessarily a
    state), or of every matrix of an (N, 4, 4) stack."""
    return m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(m.shape)


def partial_transpose(s: QState, subsystem: str = "B") -> np.ndarray:
    """Transpose the indices of one tensor factor.

    Returns a Hermitian, unit-trace matrix (not necessarily PSD).
    Applying it twice is the identity.
    """
    if subsystem == "B":
        return transpose_b(s.matrix)
    if subsystem == "A":
        return np.ascontiguousarray(transpose_b(s.matrix).T)  # T_A = T ∘ T_B
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def partial_trace(s: QState, keep: str = "A") -> np.ndarray:
    """Reduced 2x2 density matrix of the kept qubit, read-only."""
    r = s.matrix.reshape(2, 2, 2, 2)
    if keep == "A":
        red = np.einsum("ijkj->ik", r)
    elif keep == "B":
        red = np.einsum("ijil->jl", r)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    red.setflags(write=False)
    return red


def trace_distance(a: QState, b: QState) -> float:
    """Half the trace norm of a - b."""
    eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.sum(np.abs(eigs)))


def split_seed(seed: int, index: int) -> int:
    """Derive a 64-bit child seed for sample ``index`` of a base seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def hilbert_schmidt_state(rng: np.random.Generator) -> QState:
    """A Hilbert-Schmidt random state GG†/tr(GG†), G complex Ginibre, drawn from rng."""
    g = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    m = g @ g.conj().T
    return new_state(m / np.trace(m).real)


def sample(spec: EnsembleSpec) -> QState:
    """Draw one state from the ensemble. Pure function of spec."""
    rng = _rng(spec.seed)
    if spec.kind == "hilbert_schmidt_mixed":
        return hilbert_schmidt_state(rng)
    if spec.kind == "haar_pure":
        v = rng.normal(size=D) + 1j * rng.normal(size=D)
        v /= np.linalg.norm(v)
        return new_state(np.outer(v, v.conj()))
    if spec.kind == "fixed_concurrence_pure":
        # Schmidt form cos(t)|00> + sin(t)|11>, concurrence sin(2t),
        # then independent Haar-random local unitaries on each side.
        theta = 0.5 * np.arcsin(spec.target_concurrence)
        psi = np.zeros(D, dtype=complex)
        psi[0] = np.cos(theta)
        psi[3] = np.sin(theta)
        u = np.kron(_haar_unitary(rng, 2), _haar_unitary(rng, 2))
        v = u @ psi
        return new_state(np.outer(v, v.conj()))
    raise UnsupportedEnsemble(spec.kind)


def max_entangled() -> QState:
    """Projector onto the Bell state (|00> + |11>)/sqrt(2)."""
    v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
    return new_state(np.outer(v, v.conj()))


def basis_state(i: int, j: int) -> QState:
    """Computational-basis product projector |i j><i j|."""
    v = np.zeros(D, dtype=complex)
    v[2 * i + j] = 1.0
    return new_state(np.outer(v, v.conj()))
