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
independent of worker count.  A child seed is numpy's SeedSequence
spawn-key hash, computed in Python ints from a memoized pool of the base
seed, and is bit-identical to ``SeedSequence(entropy=seed,
spawn_key=(index,))``.  Each thread keeps one Philox bit generator and
re-keys it for every sample rather than building a new one; the streams
are exactly those of a fresh ``Philox(key=seed)``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NotAState, UnsupportedDimension, UnsupportedEnsemble

D = 4  # side of every density matrix: two qubits
VALIDATION_TOL = 1e-10

ENSEMBLE_KINDS = ("hilbert_schmidt_mixed", "haar_pure", "fixed_concurrence_pure")
SEED_MAX = 2**64 - 1  # a sample's seed is its Philox key word
_REAL = (float, int, np.floating, np.integer)


@dataclass(frozen=True, eq=False)
class QState:
    """A validated two-qubit density operator: a read-only 4x4 matrix.
    States, like generators, compare and hash by identity."""

    matrix: np.ndarray = field(repr=False)


def check_positive(name: str, value: float) -> None:
    """The one rule of a tolerance, horizon or time scale: a Python or numpy
    real number (a bool is not one), positive and finite (NaN is neither)."""
    if not isinstance(value, _REAL) or isinstance(value, bool) or not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_whole(name: str, value, least: int = 0, most: int | None = None) -> int:
    """The one rule of a count, index or seed: a Python or numpy integer (a
    bool is not one) in [least, most], returned as an int."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        n = int(value)
        if least <= n and (most is None or n <= most):
            return n
    rule = (f"an integer >= {least}" + ("" if most is None else f" and <= {most}")
            if least or most is not None else "a non-negative integer")
    raise ValueError(f"{name} must be {rule}, got {value!r}")


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
        check_whole("seed", self.seed, 0, SEED_MAX)
        c = self.target_concurrence
        if not isinstance(c, _REAL) or isinstance(c, bool) or not 0.0 <= c <= 1.0:
            raise ValueError(f"target_concurrence must lie in [0, 1] as a real number, got {c!r}")


@np.errstate(invalid="ignore")  # inf - inf is NaN, which fails the Hermiticity check
def new_state(matrix, dim_a: int = 2, dim_b: int = 2, tol: float = VALIDATION_TOL) -> QState:
    """Validate a matrix as a two-qubit density operator and wrap it as a QState.

    The matrix is symmetrized to (M + M†)/2 before the trace and PSD
    checks; a non-finite entry, then a Hermiticity deviation beyond
    ``tol``, is rejected first.  ``tol`` must be positive and finite.
    """
    check_dims((dim_a, dim_b))
    check_positive("tol", tol)
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (D, D):
        raise DimensionMismatch(f"matrix shape {m.shape}, expected {(D, D)}")
    h = m.conj().T
    herm_dev = np.abs(m - h).max()
    if not herm_dev <= tol:
        if not np.isfinite(m).all():
            raise NotAState("matrix has a non-finite entry")
        raise NotAState(f"not Hermitian: max |M - M†| = {herm_dev:.3e} > {tol:.1e}")
    m = 0.5 * (m + h)
    trace_dev = abs(m.trace().real - 1.0)
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


def trace_distance(a: QState, b: QState) -> float:
    """Half the trace norm of a - b."""
    eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.sum(np.abs(eigs)))


# numpy's SeedSequence hash (bit_generator.pyx), on 32-bit words.
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list:
    """The little-endian 32-bit words of n >= 0; [0] for 0."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _hashmix(value: int, h: int, mult: int = _MULT_A) -> tuple:
    """numpy's hashmix: the hashed value and the next hash constant."""
    value ^= h
    h = h * mult & _M32
    value = value * h & _M32
    return value ^ value >> 16, h


def _mix_in(pool: list, word: int, h: int, skip: int = -1) -> int:
    """Each pool word x but ``pool[skip]`` becomes mix(x, hashmix(word)),
    in place.  Returns the next hash constant."""
    for d in range(_POOL_SIZE):
        if d != skip:
            v, h = _hashmix(word, h)
            r = (_MIX_MULT_L * pool[d] - _MIX_MULT_R * v) & _M32
            pool[d] = r ^ r >> 16
    return h


@lru_cache(maxsize=32)
def _seed_pool(seed: int) -> tuple:
    """SeedSequence's pool after the base seed's words, and the hash
    constant that the spawn key's words continue from.  A spawn key pads
    the seed's words with zeros to the pool size."""
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    pool, h = [], _INIT_A
    for w in words[:_POOL_SIZE]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(_POOL_SIZE):  # cross-mix, so late words reach early slots
        h = _mix_in(pool, pool[src], h, skip=src)
    for w in words[_POOL_SIZE:]:
        h = _mix_in(pool, w, h)
    return tuple(pool), h


def split_seed(seed: int, index: int) -> int:
    """Derive a 64-bit child seed for sample ``index`` of a base seed.

    It is numpy's SeedSequence spawn-key hash, computed in Python ints
    from a memoized pool of the base seed, and bit-identical to
    ``SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1,
    np.uint64)[0]``.  Seed and index are non-negative Python or numpy
    integers (``ValueError`` otherwise).
    """
    pool, h = _seed_pool(check_whole("seed", seed))
    pool = list(pool)
    for w in _words(check_whole("index", index)):
        h = _mix_in(pool, w, h)
    lo, h = _hashmix(pool[0], _INIT_B, _MULT_B)  # generate_state's two words
    hi, _ = _hashmix(pool[1], h, _MULT_B)
    return lo | hi << 32


_thread = threading.local()


def _rng(seed: int) -> np.random.Generator:
    """A generator with the stream of a fresh ``Generator(Philox(key=seed))``.

    Each thread keeps one Philox and re-keys it: key [seed, 0], counter 0,
    empty buffers.  The returned generator is re-keyed by the next call on
    the same thread, so it must not be held across one.
    """
    try:
        bitgen, rng, state = _thread.philox
    except AttributeError:
        bitgen = np.random.Philox(key=0)
        rng = np.random.Generator(bitgen)
        state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": np.zeros(2, np.uint64)},
            "buffer": np.zeros(4, np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        _thread.philox = bitgen, rng, state
    state["state"]["key"][0] = seed
    bitgen.state = state
    return rng


def _ginibre(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """A complex Gaussian array, real parts then imaginary parts in one draw."""
    z = rng.normal(size=(2, *shape))
    return z[0] + 1j * z[1]


def hilbert_schmidt_state(rng: np.random.Generator) -> QState:
    """A Hilbert-Schmidt random state GG†/tr(GG†), G complex Ginibre, drawn from rng."""
    g = _ginibre(rng, D, D)
    m = g @ g.conj().T
    return new_state(m / m.trace().real)


def _checked_states(ms: np.ndarray, tol: float = VALIDATION_TOL) -> np.ndarray:
    """``new_state``'s checks on every matrix of an (N, 4, 4) complex stack,
    at once: the read-only stack of their symmetrized matrices.  The first
    matrix that fails a check goes through ``new_state``, which raises its
    own error."""
    h = ms.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore", over="ignore"):  # the failures new_state reports
        ok = np.abs(ms - h).max(axis=(-2, -1)) <= tol  # NaN fails too
        sym = 0.5 * (ms + h)
        ok &= np.abs(np.trace(sym, axis1=-2, axis2=-1).real - 1.0) <= tol
    rest = np.flatnonzero(ok)  # finite, Hermitian, unit trace: only these reach eigvalsh
    ok[rest] = np.linalg.eigvalsh(sym[rest])[:, 0] >= -tol
    if not ok.all():
        new_state(ms[np.argmin(ok)], tol=tol)
    sym.setflags(write=False)
    return sym


def hilbert_schmidt_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """The matrices of n successive ``hilbert_schmidt_state(rng)`` draws, bit
    for bit, as one read-only (n, 4, 4) stack: one draw, one stacked product
    and one stacked check.  rng is left where those n draws leave it."""
    z = rng.normal(size=(n, 2, D, D))  # each state's real parts, then imaginary
    g = z[:, 0] + 1j * z[:, 1]
    m = g @ g.conj().swapaxes(-1, -2)
    return _checked_states(m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None])


def sample(spec: EnsembleSpec) -> QState:
    """Draw one state from the ensemble. Pure function of spec."""
    rng = _rng(spec.seed)
    if spec.kind == "hilbert_schmidt_mixed":
        return hilbert_schmidt_state(rng)
    if spec.kind == "haar_pure":
        v = _ginibre(rng, D)
        v /= np.linalg.norm(v)
        return new_state(np.outer(v, v.conj()))
    if spec.kind == "fixed_concurrence_pure":
        # Schmidt form cos(t)|00> + sin(t)|11>, concurrence sin(2t),
        # then independent Haar-random local unitaries on each side.
        # in float64 whatever the concurrence's type: a float32 or int8 one
        # would give a state whose trace is off by up to 5e-4
        theta = 0.5 * np.arcsin(float(spec.target_concurrence))
        psi = np.zeros(D, dtype=complex)
        psi[0] = np.cos(theta)
        psi[3] = np.sin(theta)
        # Both 2x2 Ginibre matrices in one draw (each real parts, then
        # imaginary), one stacked QR with its phase fix, then their
        # Kronecker product by broadcasting.
        z = rng.normal(size=(2, 2, 2, 2))
        q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
        diag = np.diagonal(r, axis1=1, axis2=2)
        a, b = q * (diag / np.abs(diag))[:, None, :]
        v = (a[:, None, :, None] * b[None, :, None, :]).reshape(D, D) @ psi
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
