"""Time-dependent Lindblad generators and their one propagation path.

Vectorization is column-stacking: vec(rho) = rho.flatten(order='F'),
so vec(A rho B) = (B^T ⊗ A) vec(rho).  The Liouvillian matrix is

    L(t) = -i (I⊗H - H^T⊗I)
           + sum_k g_k(t) [ conj(L_k)⊗L_k - 1/2 I⊗(L_k†L_k) - 1/2 (L_k†L_k)^T⊗I ]

and vec(I) is a left null vector (trace preservation).

A ``Generator`` is compiled once, when it is built, into

    L(t) = L_H(t) + sum_r r(t) D_r

with L_H = -i (I⊗H - H^T⊗I) precomputed when H is a constant matrix
(and rebuilt at t only when H is callable), and one dissipator D_r per
distinct rate r: the sum, in channel order, of the brackets above of
every channel with that rate.  Two rates are the same rate when they
are one object, or equal ``ConstantRate``s or ``ExponentialRate``s; any
other callable is its own rate.  Every channel's bracket comes from one
broadcast product over the (K, 4, 4) stack of jump operators, entry by
entry the Kronecker products above (so does L_H), and each rate's rows are
added in channel order by one reduction.  ``liouvillian_matrix`` then only scales
and adds these read-only 16 x 16 pieces, one per rate, which gives the
formula above at t bit for bit per group: the channels of a rate are
summed before they are scaled, so L moves in its last bits from the
channel-by-channel sum only where channels share a nonzero rate.
``make_generator`` spot-checks each distinct rate once.

Every state, trajectory and propagator comes from one flow, ``_flow``,
the one place that picks how to carry a vectorized operator, or a block
of them as columns, from the first of a list of times to each later one:
exp(L dt) steps (scaling and squaring) for an autonomous generator, one
per run of steps equal to within round-off (``_exp_steps``), else one
adaptive Runge-Kutta solve of order 5 with an order-4 error estimate
(Dormand-Prince), sampled at the times.  The solve runs in the orthonormal
Pauli basis B = [vec(P_k)/2], where every Lindblad superoperator is a real
16 x 16 matrix: it carries the real B^H Phi B (a state as B^H vec rho)
under B^H L(t) B, whose constant pieces are conjugated once per flow and
whose Hamiltonian part, when H is callable, is summed from H(t)'s 16 Pauli
coefficients; its grid values and step interpolants are turned back into
column-stacking maps and states where the flow returns them.
``propagator_matrices`` flows the identity to give the maps Phi(t) at
every time of a grid, and ``evolve_state`` flows one state between two
times.

An autonomous generator's ``spectrum`` is the one eigendecomposition of
its constant L, from one ``scipy.linalg.eig`` on first use: eigenvalues
Lambda, left and right eigenvectors W and V, and V^-1 unless cond(V)
exceeds SPECTRAL_COND_MAX.  Off-grid maps and the stationary set of
``asymptotics`` both read it.

``propagate`` maps a state through the maps of a ``PropagatorSource``:
one per generator, grid and options, kept for the next ``propagate``
with the same three (a one-entry memo, so every sample of an ensemble
run shares one source).  A source flows the identity once over its grid
and gives Phi(t) between grid times too: from the RK45 step
interpolants, or as V e^{Lambda t} V^-1 straight from t = 0, or, when
V^-1 is None (L near defective), as exp(L (t - t_i)) Phi(t_i) from the
nearest earlier grid time t_i.  Only sources keep interpolants.

A trajectory is one read-only (T, 4, 4) stack of density matrices with the
source that made it; ``state_at`` gives its state at any time of its span
through that source.  ``vec``/``unvec`` act on whole stacks.  Every
propagated or mapped state passes through ``_repair_states`` (a stack of
one from ``evolve_state`` and ``state_at``, of images from
``apply_map``), which decides positivity per state by the certificate of
``states``: a state with a finite Cholesky factor is a density matrix to
working precision, so one stacked factorization certifies a whole stack
without an eigensolve; a stack that fails it is eigendecomposed, and
only its states that fail the factorization alone are clipped.  QStates
are built on request.

scipy is imported on first use, and only the part a call needs:
``solve_ivp`` (``scipy.integrate``) on the first non-autonomous flow and
``expm`` (``scipy.linalg``) on the first exponential step, so sampling,
geometry and the catalog never load scipy, and an autonomous flow never
loads ``scipy.integrate``.  Both stay attributes of this module that are
scipy's own functions: the module ``__getattr__`` imports one on its
first lookup and binds it into the module, and every call reads it
through the module, so a tracer or test that rebinds
``dynamics.solve_ivp`` or ``dynamics.expm`` sees every call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import PositivityLost, StepFailure
from .geometry import min_pt_eigenvalues
from .operators import broadcast_kron, two_qubit_paulis
from .states import D, QState, _factorizes, check_dims, check_positive

_SPOT_CHECK_TIMES = (0.0, 1.0, 10.0)
PSD_REPAIR = 1e-9  # eigenvalues in [-PSD_REPAIR, 0) of a propagated state are clipped
STEP_RTOL = 1e-13  # grid steps this close, relative to the step, share one exp(L dt)
# off-grid maps V e^{Lambda t} V^-1 are used while cond(V) stays below this, so their
# error, about cond(V) times the unit round-off, stays far below PSD_REPAIR
SPECTRAL_COND_MAX = 1e4

_module = sys.modules[__name__]


def __getattr__(name: str):
    """``solve_ivp`` and ``expm``, imported from scipy on first lookup and
    bound into the module."""
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp as value
    elif name == "expm":
        from scipy.linalg import expm as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _read_only(m):
    """m, made read-only; None passes through."""
    if m is not None:
        m.setflags(write=False)
    return m


@dataclass(frozen=True)
class ConstantRate:
    value: float

    def __call__(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class ExponentialRate:
    """Rate amplitude * exp(-t / tau)."""

    amplitude: float
    tau: float = 1.0

    def __post_init__(self):
        check_positive("tau", self.tau)

    def __call__(self, t: float) -> float:
        return self.amplitude * math.exp(-t / self.tau)


@dataclass(frozen=True, eq=False)
class JumpChannel:
    operator: np.ndarray = field(repr=False)
    rate: object  # callable t -> nonnegative float


@dataclass(frozen=True, eq=False)
class Generator:
    """Lindblad data: Hamiltonian, jump channels, autonomy flag.

    ``hamiltonian`` is either a constant matrix or a callable t -> matrix.
    Building a Generator precomputes its read-only superoperator pieces:
    ``hamiltonian_part`` = -i (I⊗H - H^T⊗I) (None when H is callable)
    and ``dissipators``, one D_r per distinct rate (see ``_same_rate``),
    summed over that rate's channels in channel order, with the rates in
    ``rates``, in order of first appearance.  Generators, like their
    channels, compare and hash by identity.
    """

    hamiltonian: object = field(repr=False)
    jumps: tuple[JumpChannel, ...] = ()
    autonomous: bool = True
    hamiltonian_part: np.ndarray | None = field(init=False, repr=False)
    rates: tuple[object, ...] = field(init=False, repr=False)
    dissipators: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        h = self.hamiltonian
        lh = None if callable(h) else _hamiltonian_superop(h)
        # the distinct rates, and each one's channel indices, by a linear scan:
        # few channels, and a rate need not hash
        rates, groups = [], []
        for k, ch in enumerate(self.jumps):
            i = next((i for i, r in enumerate(rates) if _same_rate(r, ch.rate)), None)
            if i is None:
                rates.append(ch.rate)
                groups.append([k])
            else:
                groups[i].append(k)
        ds = _dissipators(np.array([ch.operator for ch in self.jumps]).reshape(-1, D, D))
        # a reduction over the leading axis adds rows one after another, in
        # channel order: bit for bit a running sum of the group's rows
        ds = [np.add.reduce(ds[group], axis=0) for group in groups]
        object.__setattr__(self, "hamiltonian_part", _read_only(lh))
        object.__setattr__(self, "rates", tuple(rates))
        object.__setattr__(self, "dissipators", tuple(map(_read_only, ds)))

    def __reduce__(self):
        # pickle the Lindblad data only; unpickling compiles it again
        return (Generator, (self.hamiltonian, self.jumps, self.autonomous))

    def ham(self, t: float) -> np.ndarray:
        h = self.hamiltonian
        return h(t) if callable(h) else h

    @cached_property
    def spectrum(self) -> tuple:
        """The one eigendecomposition of an autonomous generator's constant L,
        made on first use: read-only (Lambda, W, V, V^-1) with L V = V diag(Lambda)
        and W^H L = diag(Lambda) W^H; V^-1 is None when cond(V) exceeds
        SPECTRAL_COND_MAX (or is NaN)."""
        if not self.autonomous:
            raise ValueError("generator is not autonomous")
        import scipy.linalg  # on first use: only an autonomous spectrum needs it

        values, left, right = scipy.linalg.eig(liouvillian_matrix(self), left=True, right=True)
        inverse = np.linalg.inv(right) if np.linalg.cond(right) <= SPECTRAL_COND_MAX else None
        return tuple(map(_read_only, (values, left, right, inverse)))


def _same_rate(a, b) -> bool:
    """Whether two channel rates are one rate: the same object, or equal
    values of one of the frozen rate classes."""
    return a is b or (type(a) is type(b) and type(a) in (ConstantRate, ExponentialRate) and a == b)


_EYE = np.eye(D)


def _hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """-i (I⊗H - H^T⊗I)."""
    return -1j * (broadcast_kron(_EYE, h) - broadcast_kron(h.T, _EYE))


def _dissipators(ls: np.ndarray) -> np.ndarray:
    """conj(L)⊗L - 1/2 I⊗(L†L) - 1/2 (L†L)^T⊗I of every operator of a
    (K, 4, 4) stack, as a (K, 16, 16) stack."""
    lklk = ls.conj().swapaxes(-1, -2) @ ls
    return (
        broadcast_kron(ls.conj(), ls)
        - 0.5 * broadcast_kron(_EYE, lklk)
        - 0.5 * broadcast_kron(lklk.swapaxes(-1, -2), _EYE)
    )


def make_generator(dims=(2, 2), hamiltonian=None, jumps=(), autonomous=None) -> Generator:
    """Validate and build a two-qubit Generator.

    Autonomy is auto-detected when not given: a constant-matrix
    Hamiltonian plus only ConstantRate channels.  Jump operators must be
    finite; H(t) must be finite and Hermitian, and every rate finite and
    nonnegative, at the spot-check times t in {0, 1, 10}.
    """
    check_dims(dims)
    if hamiltonian is None:
        hamiltonian = np.zeros((D, D), dtype=complex)
    if not callable(hamiltonian):
        hamiltonian = np.asarray(hamiltonian, dtype=complex)
        if hamiltonian.shape != (D, D):
            raise ValueError(f"hamiltonian shape {hamiltonian.shape}, expected {(D, D)}")
        hamiltonian.setflags(write=False)
    channels = []
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        if op.shape != (D, D):
            raise ValueError(f"jump operator shape {op.shape}, expected {(D, D)}")
        if not np.isfinite(op).all():
            raise ValueError("jump operator has a non-finite entry")
        op.setflags(write=False)
        if not callable(rate):
            rate = ConstantRate(float(rate))
        channels.append(JumpChannel(operator=op, rate=rate))
    if autonomous is None:
        autonomous = not callable(hamiltonian) and all(
            isinstance(ch.rate, ConstantRate) for ch in channels
        )
    g = Generator(
        hamiltonian=hamiltonian,
        jumps=tuple(channels),
        autonomous=bool(autonomous),
    )
    # each distinct rate once: a rate group's channels share one object or
    # equal frozen values, so they share every value checked here
    for t in _SPOT_CHECK_TIMES:
        h = g.ham(t)
        if not np.isfinite(h).all():
            raise ValueError(f"hamiltonian has a non-finite entry at t={t}")
        if np.max(np.abs(h - h.conj().T)) > 1e-12:
            raise ValueError(f"hamiltonian not Hermitian at t={t}")
        for rate in g.rates:
            if not np.isfinite(rate(t)):
                raise ValueError(f"non-finite rate {rate(t)} at t={t}")
            if rate(t) < 0.0:
                raise ValueError(f"negative rate {rate(t)} at t={t}")
    if g.autonomous:
        h0 = g.ham(0.0)
        for t in _SPOT_CHECK_TIMES[1:]:
            if np.max(np.abs(g.ham(t) - h0)) > 1e-12 or any(
                abs(rate(t) - rate(0.0)) > 1e-12 for rate in g.rates
            ):
                raise ValueError("autonomous flag set but generator varies with t")
    return g


def vec(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2).reshape(*np.shape(m)[:-2], D * D)


def unvec(v: np.ndarray) -> np.ndarray:
    return np.reshape(v, (*np.shape(v)[:-1], D, D)).swapaxes(-1, -2)


@cache
def _pauli_basis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orthonormal Pauli basis B, whose column k is vec(P_k)/2 with P_k =
    I⊗I and then the 15 products of ``two_qubit_paulis``, with B^H and
    [Re B; Im B], read-only and built on first use, so that importing the
    module builds nothing.  In B a superoperator that maps Hermitian
    operators to Hermitian ones, as every Lindbladian does, is the real
    16 x 16 matrix B^H M B, and a Hermitian operator A is the real vector
    B^H vec(A); the first row of B^H L B is the trace functional applied to
    L, so it is zero."""
    paulis = np.concatenate([np.eye(D, dtype=complex)[None], two_qubit_paulis()])
    b = np.ascontiguousarray(vec(paulis).T / 2)
    return tuple(map(_read_only, (b, b.conj().T.copy(), np.concatenate([b.real, b.imag]))))


def _to_pauli(y: np.ndarray, maps: bool) -> np.ndarray:
    """y in the Pauli basis: B^H y B of a 16 x 16 map or a stack of them if
    ``maps``, else B^H y of a vector or a stack of them; complex, with an
    imaginary part of round-off size when y maps Hermitian operators to
    Hermitian ones or is the vec of a Hermitian operator."""
    b, bh, _ = _pauli_basis()
    return bh @ y @ b if maps else y @ b.conj()


def _from_pauli(z: np.ndarray, maps: bool) -> np.ndarray:
    """The inverse of ``_to_pauli`` on real data: B z B^H of a map or a stack
    of them if ``maps``, else B z of a vector or a stack of them.  A map
    takes two real products: m = [Re B; Im B] z [Re B; Im B]^T holds
    Re B z Re B^T, Re B z Im B^T, Im B z Re B^T and Im B z Im B^T as its
    16 x 16 blocks."""
    b, _, parts = _pauli_basis()
    if not maps:
        return z @ b.T
    n = D * D
    m = parts @ z @ parts.T
    phi = np.empty(z.shape, dtype=complex)
    phi.real = m[..., :n, :n] + m[..., n:, n:]
    phi.imag = m[..., n:, :n] - m[..., :n, n:]
    return phi


@cache
def _pauli_hamiltonians() -> np.ndarray:
    """B^H (-i [P_k/2, .]) B for every k, real, flattened to rows and built
    on first use: a Hermitian H = sum_k c_k P_k/2 with c = B^H vec(H), which
    is real, has B^H L_H B = c @ _pauli_hamiltonians(), reshaped."""
    halves = unvec(_pauli_basis()[0].T)  # P_k/2
    return _read_only(
        np.array([_to_pauli(_hamiltonian_superop(p), True).real.ravel() for p in halves])
    )


def _pauli_hamiltonian(h: np.ndarray) -> np.ndarray:
    """B^H (-i (I⊗H - H^T⊗I)) B of the Hermitian part of H, a fresh real
    16 x 16 matrix assembled from H's 16 Pauli coefficients."""
    c = (_pauli_basis()[1] @ vec(h)).real
    return (c @ _pauli_hamiltonians()).reshape(D * D, D * D)


def _pauli_liouvillian(g: Generator):
    """t -> B^H L(t) B, a real 16 x 16 matrix summed like ``liouvillian_matrix``:
    L_H(t) plus r(t) D_r for each distinct rate r that is nonzero at t.  A
    constant L_H and every D_r are conjugated once, here, and a zero L_H is
    left out; a callable H(t) is assembled by ``_pauli_hamiltonian``."""
    lh = g.hamiltonian_part
    driven = lh is None
    lh = None if driven or not lh.any() else _to_pauli(lh, True).real
    pieces = [(rate, _to_pauli(dr, True).real) for rate, dr in zip(g.rates, g.dissipators)]

    def at(t: float) -> np.ndarray:
        lmat = _pauli_hamiltonian(g.ham(t)) if driven else lh
        for rate, dr in pieces:
            gam = rate(t)
            if gam != 0.0:
                lmat = gam * dr if lmat is None else lmat + gam * dr
        return np.zeros((D * D, D * D)) if lmat is None else lmat

    return at


def liouvillian_matrix(g: Generator, t: float = 0.0) -> np.ndarray:
    """Column-stacking superoperator matrix of the generator at time t,
    a fresh writable array summed from the generator's compiled pieces:
    L_H(t) plus r(t) D_r for each distinct rate r that is nonzero at t."""
    if g.hamiltonian_part is None:
        lmat = _hamiltonian_superop(g.ham(t))
    else:
        lmat = g.hamiltonian_part.copy()
    for rate, dr in zip(g.rates, g.dissipators):
        gam = rate(t)
        if gam == 0.0:
            continue
        lmat += gam * dr
    return lmat


@dataclass(frozen=True)
class SolverOptions:
    """An RK45 solve's relative and absolute tolerances, each positive and finite."""

    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        check_positive("rtol", self.rtol)
        check_positive("atol", self.atol)


DEFAULT_OPTS = SolverOptions()


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A state propagated over a time grid through ``source``.

    ``matrices`` is a read-only (T, 4, 4) array whose entry k is the
    density matrix at ``times[k]``; entry 0 is that of ``initial``, the
    state the trajectory started from.  ``generator`` and ``opts`` are
    those of the source.  Built once on first use, ``states`` wraps the
    stack as QStates, with ``states[0] is initial``, and ``margins`` is
    their read-only array of PT margins, from one stacked eigensolve, which
    ``fate.margin_curve`` and ``entfate simulate`` read.  The fate scan
    does not: it eigensolves only the grid states that a bound cannot
    place (``fate.fate_of_trajectory``).
    """

    times: tuple[float, ...]
    matrices: np.ndarray = field(repr=False)
    initial: QState
    source: PropagatorSource = field(repr=False)

    @property
    def generator(self) -> Generator:
        return self.source.generator

    @property
    def opts(self) -> SolverOptions:
        return self.source.opts

    def state(self, k: int) -> QState:
        """The grid state at ``times[k]``, without building ``states``."""
        if k == 0:
            return self.initial
        return QState(self.matrices[k])

    def state_at(self, t: float) -> QState:
        """The state at any time t in [0, times[-1]]: ``initial`` mapped
        through the source's Phi(t) and repaired like the grid states."""
        y = self.source.at(t) @ vec(self.initial.matrix)
        return QState(_repair_states(unvec(y)[None])[0])

    @cached_property
    def states(self) -> tuple[QState, ...]:
        return tuple(self.state(k) for k in range(len(self.times)))

    @cached_property
    def margins(self) -> np.ndarray:
        return _read_only(min_pt_eigenvalues(self.matrices))


def _repair_states(ms: np.ndarray) -> np.ndarray:
    """Re-Hermitize, renormalize the trace and clip round-off negativity of
    every matrix of an (N, 4, 4) stack; return the repaired stack, read-only.

    Positivity is decided per state, so a state's repair does not depend
    on its stack-mates.  A state whose Cholesky factor exists and is finite
    is a density matrix to working precision and is returned Hermitized and
    normalized; a stack that factorizes needs no eigensolve.  A stack that
    does not is eigendecomposed, and those of its states that fail the
    factorization alone and have a negative eigenvalue are clipped to their
    PSD part.

    The first matrix, in stack order, that fails a check raises: a
    non-finite entry or a trace off 1 by more than 1e-9 gives StepFailure,
    an eigenvalue below -PSD_REPAIR of a state that fails the factorization
    gives PositivityLost.  No factorization sees a non-finite matrix.  The
    repaired matrices are density matrices, so callers wrap them as QStates
    without re-validation."""
    n_finite = total = len(ms)
    if not np.isfinite(ms).all():
        n_finite = int(np.isfinite(ms).all(axis=(1, 2)).argmin())
    ms = ms[:n_finite]
    ms = 0.5 * (ms + ms.conj().transpose(0, 2, 1))
    tr = np.trace(ms, axis1=1, axis2=2).real
    drifted = np.abs(tr - 1.0) > 1e-9
    n = int(drifted.argmax()) if drifted.any() else n_finite  # states before the first failure
    ms = ms[:n] / tr[:n, None, None]
    if n and not _factorizes(ms):
        w, v = np.linalg.eigh(ms)
        clip = [k for k in np.flatnonzero(w[:, 0] < 0.0) if not _factorizes(ms[k])]
        if clip:
            negative = [k for k in clip if w[k, 0] < -PSD_REPAIR]
            if negative:
                raise PositivityLost(
                    f"min eigenvalue {w[negative[0], 0]:.3e} below repair threshold "
                    f"-{PSD_REPAIR:.1e}"
                )
            v = v[clip]
            m = (v * np.clip(w[clip], 0.0, None)[:, None, :]) @ v.conj().transpose(0, 2, 1)
            ms[clip] = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
    if n < n_finite:
        raise StepFailure(f"trace drifted to {tr[n]!r}; tolerances too loose")
    if n_finite < total:
        raise StepFailure("propagated state has a non-finite entry")
    return _read_only(ms)


def _check_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or t[0] != 0.0:
        raise ValueError("t_grid must be a 1-d grid starting at 0")
    if not np.isfinite(t).all():
        raise ValueError("t_grid times must be finite")
    if t.size > 1 and np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    return t


def _flow(g: Generator, y0: np.ndarray, times: np.ndarray, opts: SolverOptions,
          dense: bool = False):
    """Carry y0 -- the vec of one Hermitian operator, or a map that keeps
    Hermitian operators Hermitian, such as the identity -- from times[0] to
    every time in ``times``, by exp steps if g is autonomous, else by one
    RK45 solve: the (len(times), *y0.shape) stack whose entry k is
    y(times[k]), and the solve's step interpolants (t -> y(t)) if
    ``dense``, else None.

    The RK45 solve runs in the Pauli basis, on real data: it carries
    ``_to_pauli(y0)`` under B^H L(t) B (``_pauli_liouvillian``), and the
    grid values and interpolants are brought back by ``_from_pauli``."""
    if times.size == 1 or g.autonomous:
        return _exp_steps(liouvillian_matrix(g), y0, times), None
    lmat = _pauli_liouvillian(g)
    maps = y0.ndim == 2
    z0 = _to_pauli(y0, maps).real
    sol = _module.solve_ivp(
        lambda t, z: (lmat(t) @ z.reshape(z0.shape)).ravel(),
        (times[0], times[-1]),
        z0.ravel(),
        method="RK45",
        t_eval=times,
        dense_output=dense,
        rtol=opts.rtol,
        atol=opts.atol,
    )
    if not sol.success:
        raise StepFailure(sol.message)
    ys = _from_pauli(np.moveaxis(sol.y.reshape(*z0.shape, -1), -1, 0), maps)
    if not dense:
        return ys, None
    interpolant = sol.sol
    return ys, lambda t: _from_pauli(interpolant(t).reshape(z0.shape), maps)


def _exp_steps(lmat: np.ndarray, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Carry y0 from times[0] over ``times`` by exp(L dt) steps; a step equal
    to the previous one within STEP_RTOL reuses its exponential."""
    ys = np.empty((times.size, *y0.shape), dtype=complex)
    ys[0] = y0
    step, dt_step = None, 0.0
    for k, dt in enumerate(np.diff(times), start=1):
        if step is None or abs(dt - dt_step) > STEP_RTOL * dt_step:
            step, dt_step = _module.expm(lmat * dt), dt
        np.matmul(step, ys[k - 1], out=ys[k])
    return ys


def _trace_preserving(phis: np.ndarray) -> np.ndarray:
    """The stack of maps, read-only, once every one preserves the trace."""
    tr_vec = vec(np.eye(D)).conj()
    residual = np.max(np.abs(tr_vec @ phis - tr_vec))
    if not residual <= 1e-8:  # a NaN residual fails too
        raise StepFailure(f"trace-preservation residual {residual:.3e} > 1e-8")
    return _read_only(phis)


class PropagatorSource:
    """The maps Phi(t) of one generator over one grid with one set of
    solver options, from one flow of the identity.

    ``maps`` is the read-only (T, 16, 16) stack of Phi at the grid times
    ``times``; ``at(t)`` gives Phi at any t in [0, times[-1]].  Between
    grid times a non-autonomous source evaluates the step interpolants of
    the RK45 solve that gave ``maps``, and an autonomous one returns
    V e^{Lambda t} V^-1 from its generator's ``spectrum``, or, when V^-1
    is None, exp(L (t - t_i)) Phi(t_i) from the nearest earlier grid time
    t_i.  The grid maps themselves always come from the flow.
    """

    def __init__(self, g: Generator, times: np.ndarray, opts: SolverOptions):
        self.generator = g
        self.times = times = _read_only(np.array(times))
        self.opts = opts
        maps, self._dense = _flow(g, np.eye(D * D, dtype=complex), times, opts, dense=True)
        self.maps = _trace_preserving(maps)

    def at(self, t: float) -> np.ndarray:
        """Phi(t) for t in [0, times[-1]]; the grid map itself at a grid time."""
        times = self.times
        if not 0.0 <= t <= times[-1]:
            raise ValueError(f"t={t!r} outside the source's span [0, {times[-1]!r}]")
        i = int(np.searchsorted(times, t, side="right")) - 1
        if t == times[i]:
            return self.maps[i]
        if self._dense is not None:
            return self._dense(t)
        values, _, right, inverse = self.generator.spectrum
        if inverse is not None:
            return (right * np.exp(values * t)) @ inverse
        return _module.expm(liouvillian_matrix(self.generator) * (t - times[i])) @ self.maps[i]


# Not kept on the Generator: an RK45 solve puts it in a reference cycle, so a dead
# generator would hold its source until a cyclic GC.
@lru_cache(maxsize=1)
def _grid_source(g: Generator, grid_bytes: bytes, opts: SolverOptions) -> PropagatorSource:
    """``PropagatorSource`` of g over the grid with these float64 bytes, reused
    while g (by identity), the grid and opts (by value) repeat."""
    return PropagatorSource(g, np.frombuffer(grid_bytes), opts)


def propagate(
    g: Generator, rho0: QState, t_grid, opts: SolverOptions = DEFAULT_OPTS
) -> Trajectory:
    """Map rho0 through the grid's propagators Phi(t_k) in one stacked
    product; every propagated state is repaired and validated, all in one
    stacked call.  The trajectory keeps the grid's ``PropagatorSource``."""
    t = _check_grid(t_grid)
    source = _grid_source(g, t.tobytes(), opts)
    ys = source.maps[1:] @ vec(rho0.matrix)
    ms = _read_only(np.concatenate([rho0.matrix[None], _repair_states(unvec(ys))]))
    return Trajectory(times=tuple(t.tolist()), matrices=ms, initial=rho0, source=source)


def evolve_state(
    g: Generator,
    rho: QState,
    t_from: float,
    t_to: float,
    opts: SolverOptions = DEFAULT_OPTS,
) -> QState:
    """Integrate a single state from t_from to t_to in a flow of its own."""
    if not (math.isfinite(t_from) and math.isfinite(t_to)):
        raise ValueError("t_from and t_to must be finite")
    if t_to < t_from:
        raise ValueError("t_to must be >= t_from")
    if t_to == t_from:
        return rho
    y = _flow(g, vec(rho.matrix), np.array([t_from, t_to]), opts)[0][-1]
    return QState(_repair_states(unvec(y)[None])[0])


def propagator_matrices(
    g: Generator, t_grid, opts: SolverOptions = DEFAULT_OPTS
) -> np.ndarray:
    """The linear maps Phi(t) on vectorized operators at every time of a
    grid starting at 0, as one read-only (T, 16, 16) stack from one flow of
    the identity."""
    return _trace_preserving(_flow(g, np.eye(D * D, dtype=complex), _check_grid(t_grid), opts)[0])


def propagator_matrix(
    g: Generator, t: float, opts: SolverOptions = DEFAULT_OPTS
) -> np.ndarray:
    """The linear map Phi(t) on vectorized operators."""
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be nonnegative and finite")
    return propagator_matrices(g, [0.0, t] if t > 0.0 else [0.0], opts)[-1]


def map_operators(phi: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Map every operator of a (..., 4, 4) stack in one product, bit for bit
    phi @ vec(ms[k]) each; the images are not repaired."""
    return unvec((phi @ vec(ms)[..., None])[..., 0])


def apply_map(phi: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Map every state of an (N, 4, 4) stack by ``map_operators`` and repair
    the images in one stacked call."""
    return _repair_states(map_operators(phi, ms))
