"""Time-dependent Lindblad generators and their one propagation path.

Vectorization is column-stacking: vec(rho) = rho.flatten(order='F'),
so vec(A rho B) = (B^T ⊗ A) vec(rho).  The Liouvillian matrix is

    L(t) = -i (I⊗H - H^T⊗I)
           + sum_k g_k(t) [ conj(L_k)⊗L_k - 1/2 I⊗(L_k†L_k) - 1/2 (L_k†L_k)^T⊗I ]

and vec(I) is a left null vector (trace preservation).

A ``Generator`` is compiled once, when it is built, into

    L(t) = L_H(t) + sum_k g_k(t) D_k

with L_H = -i (I⊗H - H^T⊗I) precomputed when H is a constant matrix
(and rebuilt at t only when H is callable), and one dissipator D_k per
jump channel, the bracket above.  ``liouvillian_matrix`` then only
scales and adds these read-only d^2 x d^2 pieces, channel by channel,
which gives the formula above at t bit for bit.

Every state, trajectory and propagator comes from one flow, ``_flow``,
which carries a vectorized operator, or a block of them as columns, from
the first of a list of times to each later one.  Autonomous generators
step by cached matrix exponentials exp(L dt) (scaling and squaring);
non-autonomous ones take one adaptive embedded Runge-Kutta solve of
order 5 with an order-4 error estimate (Dormand-Prince), sampled at the
times.  ``propagate`` flows one state over a grid, ``evolve_state`` flows
it between two times, and ``propagator_matrices`` flows the identity to
give the maps Phi(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import PositivityLost, StepFailure
from .states import QState, new_state

_SPOT_CHECK_TIMES = (0.0, 1.0, 10.0)
PSD_REPAIR = 1e-9  # eigenvalues in [-PSD_REPAIR, 0) of a propagated state are clipped


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
    and ``dissipators``, one D_k per jump channel, in channel order.
    Generators, like their channels, compare and hash by identity.
    """

    dims: tuple[int, int]
    hamiltonian: object = field(repr=False)
    jumps: tuple[JumpChannel, ...] = ()
    autonomous: bool = True
    hamiltonian_part: np.ndarray | None = field(init=False, repr=False)
    dissipators: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        h = self.hamiltonian
        lh = None if callable(h) else _hamiltonian_superop(h, self.dim)
        ds = tuple(_dissipator(ch.operator, self.dim) for ch in self.jumps)
        for m in (lh, *ds):
            if m is not None:
                m.setflags(write=False)
        object.__setattr__(self, "hamiltonian_part", lh)
        object.__setattr__(self, "dissipators", ds)

    def __reduce__(self):
        # pickle the Lindblad data only; unpickling compiles it again
        return (Generator, (self.dims, self.hamiltonian, self.jumps, self.autonomous))

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def ham(self, t: float) -> np.ndarray:
        h = self.hamiltonian
        return h(t) if callable(h) else h


def _hamiltonian_superop(h: np.ndarray, d: int) -> np.ndarray:
    """-i (I⊗H - H^T⊗I)."""
    eye = np.eye(d)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def _dissipator(lk: np.ndarray, d: int) -> np.ndarray:
    """conj(L)⊗L - 1/2 I⊗(L†L) - 1/2 (L†L)^T⊗I."""
    eye = np.eye(d)
    lklk = lk.conj().T @ lk
    return np.kron(lk.conj(), lk) - 0.5 * np.kron(eye, lklk) - 0.5 * np.kron(lklk.T, eye)


def make_generator(dims, hamiltonian=None, jumps=(), autonomous=None) -> Generator:
    """Validate and build a Generator.

    Autonomy is auto-detected when not given: a constant-matrix
    Hamiltonian plus only ConstantRate channels.  Hermiticity of H(t)
    and nonnegativity of all rates are spot-checked at t in {0, 1, 10}.
    """
    d = dims[0] * dims[1]
    if hamiltonian is None:
        hamiltonian = np.zeros((d, d), dtype=complex)
    if not callable(hamiltonian):
        hamiltonian = np.asarray(hamiltonian, dtype=complex)
        if hamiltonian.shape != (d, d):
            raise ValueError(f"hamiltonian shape {hamiltonian.shape}, expected {(d, d)}")
        hamiltonian.setflags(write=False)
    channels = []
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        if op.shape != (d, d):
            raise ValueError(f"jump operator shape {op.shape}, expected {(d, d)}")
        op.setflags(write=False)
        if not callable(rate):
            rate = ConstantRate(float(rate))
        channels.append(JumpChannel(operator=op, rate=rate))
    if autonomous is None:
        autonomous = not callable(hamiltonian) and all(
            isinstance(ch.rate, ConstantRate) for ch in channels
        )
    g = Generator(
        dims=(int(dims[0]), int(dims[1])),
        hamiltonian=hamiltonian,
        jumps=tuple(channels),
        autonomous=bool(autonomous),
    )
    for t in _SPOT_CHECK_TIMES:
        h = g.ham(t)
        if np.max(np.abs(h - h.conj().T)) > 1e-12:
            raise ValueError(f"hamiltonian not Hermitian at t={t}")
        for ch in g.jumps:
            if ch.rate(t) < 0.0:
                raise ValueError(f"negative rate {ch.rate(t)} at t={t}")
    if g.autonomous:
        h0 = g.ham(0.0)
        for t in _SPOT_CHECK_TIMES[1:]:
            if np.max(np.abs(g.ham(t) - h0)) > 1e-12 or any(
                abs(ch.rate(t) - ch.rate(0.0)) > 1e-12 for ch in g.jumps
            ):
                raise ValueError("autonomous flag set but generator varies with t")
    return g


def vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).flatten(order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


def liouvillian_matrix(g: Generator, t: float = 0.0) -> np.ndarray:
    """Column-stacking superoperator matrix of the generator at time t,
    a fresh writable array summed from the generator's compiled pieces."""
    if g.hamiltonian_part is None:
        lmat = _hamiltonian_superop(g.ham(t), g.dim)
    else:
        lmat = g.hamiltonian_part.copy()
    for ch, dk in zip(g.jumps, g.dissipators):
        gam = ch.rate(t)
        if gam == 0.0:
            continue
        lmat += gam * dk
    return lmat


@dataclass(frozen=True)
class SolverOptions:
    rtol: float = 1e-9
    atol: float = 1e-12


DEFAULT_OPTS = SolverOptions()


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[QState, ...]


def _repair_state(m: np.ndarray, dims) -> QState:
    """Re-Hermitize; clip round-off negativity; renormalize the trace."""
    m = 0.5 * (m + m.conj().T)
    tr = np.trace(m).real
    if abs(tr - 1.0) > 1e-9:
        raise StepFailure(f"trace drifted to {tr!r}; tolerances too loose")
    m = m / tr
    w, v = np.linalg.eigh(m)
    if w[0] < -PSD_REPAIR:
        raise PositivityLost(
            f"min eigenvalue {w[0]:.3e} below repair threshold -{PSD_REPAIR:.1e}"
        )
    if w[0] < 0.0:
        w = np.clip(w, 0.0, None)
        m = (v * w) @ v.conj().T
        m /= np.trace(m).real
    # invariants are established above; skip new_state's re-validation
    m.setflags(write=False)
    return QState(dim_a=dims[0], dim_b=dims[1], matrix=m)


def _check_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or t[0] != 0.0:
        raise ValueError("t_grid must be a 1-d grid starting at 0")
    if t.size > 1 and np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    return t


def _flow(g: Generator, y0: np.ndarray, times: np.ndarray, opts: SolverOptions) -> list:
    """Carry y0 -- one vectorized operator, or a block of them as columns --
    from times[0] to every time in ``times``; entry k is y(times[k])."""
    ys = [y0]
    if times.size == 1:
        return ys
    if g.autonomous:
        lmat = liouvillian_matrix(g, 0.0)
        cache: dict[float, np.ndarray] = {}
        for dt in np.diff(times):
            key = round(float(dt), 15)
            if key not in cache:
                cache[key] = expm(lmat * dt)
            ys.append(cache[key] @ ys[-1])
        return ys
    shape = y0.shape
    sol = solve_ivp(
        lambda t, y: (liouvillian_matrix(g, t) @ y.reshape(shape)).ravel(),
        (times[0], times[-1]),
        y0.ravel(),
        method="RK45",
        t_eval=times,
        rtol=opts.rtol,
        atol=opts.atol,
    )
    if not sol.success:
        raise StepFailure(sol.message)
    return ys + [sol.y[:, k].reshape(shape) for k in range(1, len(times))]


def propagate(
    g: Generator, rho0: QState, t_grid, opts: SolverOptions = DEFAULT_OPTS
) -> Trajectory:
    """Propagate rho0 over the grid; every emitted state is validated."""
    t = _check_grid(t_grid)
    d = g.dim
    if rho0.dim != d:
        raise ValueError(f"initial state dim {rho0.dim} vs generator dim {d}")
    ys = _flow(g, vec(rho0.matrix), t, opts)
    states = [rho0] + [_repair_state(unvec(y, d), g.dims) for y in ys[1:]]
    return Trajectory(times=tuple(t.tolist()), states=tuple(states))


def evolve_state(
    g: Generator,
    rho: QState,
    t_from: float,
    t_to: float,
    opts: SolverOptions = DEFAULT_OPTS,
) -> QState:
    """Dense output: re-integrate a single state from t_from to t_to."""
    if t_to < t_from:
        raise ValueError("t_to must be >= t_from")
    if t_to == t_from:
        return rho
    y = _flow(g, vec(rho.matrix), np.array([t_from, t_to]), opts)[-1]
    return _repair_state(unvec(y, g.dim), g.dims)


def propagator_matrices(
    g: Generator, t_grid, opts: SolverOptions = DEFAULT_OPTS
) -> list[np.ndarray]:
    """The linear maps Phi(t) on vectorized operators at every time of a
    grid starting at 0, all from one flow of the identity."""
    d = g.dim
    phis = _flow(g, np.eye(d * d, dtype=complex), _check_grid(t_grid), opts)
    tr_vec = vec(np.eye(d)).conj()
    residual = max(np.max(np.abs(tr_vec @ phi - tr_vec)) for phi in phis)
    if residual > 1e-8:
        raise StepFailure(f"trace-preservation residual {residual:.3e} > 1e-8")
    return phis


def propagator_matrix(
    g: Generator, t: float, opts: SolverOptions = DEFAULT_OPTS
) -> np.ndarray:
    """The linear map Phi(t) on vectorized operators."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    return propagator_matrices(g, [0.0, t] if t > 0.0 else [0.0], opts)[-1]


def apply_map(phi: np.ndarray, s: QState) -> QState:
    """Apply a vectorized-operator map to a state and revalidate."""
    d = s.dim
    return _repair_state(unvec(phi @ vec(s.matrix), d), s.dims)
