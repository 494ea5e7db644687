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
scales and adds these read-only 16 x 16 pieces, channel by channel,
which gives the formula above at t bit for bit.

Every state, trajectory and propagator comes from one flow, which
carries a vectorized operator, or a block of them as columns, from the
first of a list of times to each later one.  Autonomous generators step
by matrix exponentials exp(L dt) (scaling and squaring), one per run of
steps equal to within round-off (``_exp_steps``); non-autonomous ones
take one adaptive embedded Runge-Kutta solve of order 5 with an order-4
error estimate (Dormand-Prince), sampled at the times (``_rk45``).
``_flow`` picks one: ``propagator_matrices`` flows the identity to give
the maps Phi(t) at every time of a grid, and ``evolve_state`` flows one
state between two times.

``propagate`` maps a state through the maps of a ``PropagatorSource``:
one per generator, grid and options, kept for the next ``propagate``
with the same three (a one-entry memo, so every sample of an ensemble
run shares one source).  A source flows the identity once over its grid
and also gives Phi(t) between grid times: from the RK45 solve's step
interpolants (the solve that gave the grid maps), or as
exp(L (t - t_i)) Phi(t_i) from the nearest earlier grid time t_i for an
autonomous generator.  Only sources keep interpolants; the other flows
drop them.

A trajectory is one read-only (T, 4, 4) stack of density matrices with the
source that made it; ``state_at`` gives its state at any time of its span
through that source.  ``vec``/``unvec`` act on whole stacks.  Every
propagated or mapped state passes through ``_repair_states``, which
repairs a stack with one stacked eigensolve (a stack of one from
``evolve_state`` and ``state_at``, of images from ``apply_map``); QStates
are built on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import PositivityLost, StepFailure
from .geometry import min_pt_eigenvalues
from .states import D, QState, check_dims

_SPOT_CHECK_TIMES = (0.0, 1.0, 10.0)
PSD_REPAIR = 1e-9  # eigenvalues in [-PSD_REPAIR, 0) of a propagated state are clipped
STEP_RTOL = 1e-13  # grid steps this close, relative to the step, share one exp(L dt)


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
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")

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

    hamiltonian: object = field(repr=False)
    jumps: tuple[JumpChannel, ...] = ()
    autonomous: bool = True
    hamiltonian_part: np.ndarray | None = field(init=False, repr=False)
    dissipators: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        h = self.hamiltonian
        lh = None if callable(h) else _hamiltonian_superop(h)
        ds = tuple(_dissipator(ch.operator) for ch in self.jumps)
        for m in (lh, *ds):
            if m is not None:
                m.setflags(write=False)
        object.__setattr__(self, "hamiltonian_part", lh)
        object.__setattr__(self, "dissipators", ds)

    def __reduce__(self):
        # pickle the Lindblad data only; unpickling compiles it again
        return (Generator, (self.hamiltonian, self.jumps, self.autonomous))

    def ham(self, t: float) -> np.ndarray:
        h = self.hamiltonian
        return h(t) if callable(h) else h


def _hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """-i (I⊗H - H^T⊗I)."""
    eye = np.eye(D)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def _dissipator(lk: np.ndarray) -> np.ndarray:
    """conj(L)⊗L - 1/2 I⊗(L†L) - 1/2 (L†L)^T⊗I."""
    eye = np.eye(D)
    lklk = lk.conj().T @ lk
    return np.kron(lk.conj(), lk) - 0.5 * np.kron(eye, lklk) - 0.5 * np.kron(lklk.T, eye)


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
    for t in _SPOT_CHECK_TIMES:
        h = g.ham(t)
        if not np.isfinite(h).all():
            raise ValueError(f"hamiltonian has a non-finite entry at t={t}")
        if np.max(np.abs(h - h.conj().T)) > 1e-12:
            raise ValueError(f"hamiltonian not Hermitian at t={t}")
        for ch in g.jumps:
            if not np.isfinite(ch.rate(t)):
                raise ValueError(f"non-finite rate {ch.rate(t)} at t={t}")
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
    return np.swapaxes(m, -1, -2).reshape(*np.shape(m)[:-2], D * D)


def unvec(v: np.ndarray) -> np.ndarray:
    return np.reshape(v, (*np.shape(v)[:-1], D, D)).swapaxes(-1, -2)


def liouvillian_matrix(g: Generator, t: float = 0.0) -> np.ndarray:
    """Column-stacking superoperator matrix of the generator at time t,
    a fresh writable array summed from the generator's compiled pieces."""
    if g.hamiltonian_part is None:
        lmat = _hamiltonian_superop(g.ham(t))
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A state propagated over a time grid through ``source``.

    ``matrices`` is a read-only (T, 4, 4) array whose entry k is the
    density matrix at ``times[k]``; entry 0 is that of ``initial``, the
    state the trajectory started from.  ``generator`` and ``opts`` are
    those of the source.  Built once on first use, ``states`` wraps the
    stack as QStates, with ``states[0] is initial``, and ``margins`` is
    their read-only array of PT margins.
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
        margins = min_pt_eigenvalues(self.matrices)
        margins.setflags(write=False)
        return margins


def _repair_states(ms: np.ndarray) -> np.ndarray:
    """Re-Hermitize, clip round-off negativity and renormalize the trace of
    every matrix of an (N, 4, 4) stack; return the repaired stack, read-only.

    The first matrix, in stack order, that fails a check raises: a trace
    off 1 by more than 1e-9 gives StepFailure, an eigenvalue below
    -PSD_REPAIR gives PositivityLost.  The repaired matrices are density
    matrices, so callers wrap them as QStates without re-validation."""
    ms = 0.5 * (ms + ms.conj().transpose(0, 2, 1))
    tr = np.trace(ms, axis1=1, axis2=2).real
    drifted = np.abs(tr - 1.0) > 1e-9
    n = int(drifted.argmax()) if drifted.any() else len(ms)  # states before the first drift
    ms = ms[:n] / tr[:n, None, None]
    w, v = np.linalg.eigh(ms)
    if n and w[:, 0].min() < 0.0:
        negative = np.flatnonzero(w[:, 0] < -PSD_REPAIR)
        if negative.size:
            raise PositivityLost(
                f"min eigenvalue {w[negative[0], 0]:.3e} below repair threshold -{PSD_REPAIR:.1e}"
            )
        clip = np.flatnonzero(w[:, 0] < 0.0)
        v = v[clip]
        m = (v * np.clip(w[clip], 0.0, None)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        ms[clip] = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
    if n < len(tr):
        raise StepFailure(f"trace drifted to {tr[n]!r}; tolerances too loose")
    ms.setflags(write=False)
    return ms


def _check_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or t[0] != 0.0:
        raise ValueError("t_grid must be a 1-d grid starting at 0")
    if not np.isfinite(t).all():
        raise ValueError("t_grid times must be finite")
    if t.size > 1 and np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    return t


def _rk45(g: Generator, y0: np.ndarray, times: np.ndarray, opts: SolverOptions,
          dense: bool = False):
    """One RK45 solve carrying y0 from times[0] over ``times``: the
    (len(times), *y0.shape) stack of y(times[k]), and the solve's step
    interpolants (t -> flat y(t)) when ``dense``, else None."""
    sol = solve_ivp(
        lambda t, y: (liouvillian_matrix(g, t) @ y.reshape(y0.shape)).ravel(),
        (times[0], times[-1]),
        y0.ravel(),
        method="RK45",
        t_eval=times,
        dense_output=dense,
        rtol=opts.rtol,
        atol=opts.atol,
    )
    if not sol.success:
        raise StepFailure(sol.message)
    return np.ascontiguousarray(np.moveaxis(sol.y.reshape(*y0.shape, -1), -1, 0)), sol.sol


def _exp_steps(lmat: np.ndarray | None, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Carry y0 from times[0] over ``times`` by exp(L dt) steps; a step equal
    to the previous one within STEP_RTOL reuses its exponential."""
    ys = np.empty((times.size, *y0.shape), dtype=complex)
    ys[0] = y0
    step, dt_step = None, 0.0
    for k, dt in enumerate(np.diff(times), start=1):
        if step is None or abs(dt - dt_step) > STEP_RTOL * dt_step:
            step, dt_step = expm(lmat * dt), dt
        np.matmul(step, ys[k - 1], out=ys[k])
    return ys


def _flow(g: Generator, y0: np.ndarray, times: np.ndarray, opts: SolverOptions) -> np.ndarray:
    """Carry y0 -- one vectorized operator, or a block of them as columns --
    from times[0] to every time in ``times``; entry k of the returned
    (len(times), *y0.shape) stack is y(times[k])."""
    if times.size > 1 and not g.autonomous:
        return _rk45(g, y0, times, opts)[0]
    return _exp_steps(liouvillian_matrix(g, 0.0) if times.size > 1 else None, y0, times)


def _trace_preserving(phis: np.ndarray) -> np.ndarray:
    """The stack of maps, read-only, once every one preserves the trace."""
    tr_vec = vec(np.eye(D)).conj()
    residual = np.max(np.abs(tr_vec @ phis - tr_vec))
    if residual > 1e-8:
        raise StepFailure(f"trace-preservation residual {residual:.3e} > 1e-8")
    phis.setflags(write=False)
    return phis


class PropagatorSource:
    """The maps Phi(t) of one generator over one grid with one set of
    solver options, from one flow of the identity.

    ``maps`` is the read-only (T, 16, 16) stack of Phi at the grid times
    ``times``; ``at(t)`` gives Phi at any t in [0, times[-1]].  Between
    grid times a non-autonomous source evaluates the step interpolants of
    the RK45 solve that gave ``maps``, and an autonomous one computes
    exp(L (t - t_i)) Phi(t_i) from the nearest earlier grid time t_i, with
    L assembled once.
    """

    def __init__(self, g: Generator, times: np.ndarray, opts: SolverOptions):
        self.generator = g
        self.times = times = np.array(times)
        times.setflags(write=False)
        self.opts = opts
        eye = np.eye(D * D, dtype=complex)
        self._dense = self._lmat = None
        if times.size > 1 and not g.autonomous:
            maps, self._dense = _rk45(g, eye, times, opts, dense=True)
        else:
            self._lmat = liouvillian_matrix(g, 0.0) if times.size > 1 else None
            maps = _exp_steps(self._lmat, eye, times)
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
            return self._dense(t).reshape(D * D, D * D)
        return expm(self._lmat * (t - times[i])) @ self.maps[i]


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
    ms = np.concatenate([rho0.matrix[None], _repair_states(unvec(ys))])
    ms.setflags(write=False)
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
    y = _flow(g, vec(rho.matrix), np.array([t_from, t_to]), opts)[-1]
    return QState(_repair_states(unvec(y)[None])[0])


def propagator_matrices(
    g: Generator, t_grid, opts: SolverOptions = DEFAULT_OPTS
) -> np.ndarray:
    """The linear maps Phi(t) on vectorized operators at every time of a
    grid starting at 0, as one read-only (T, 16, 16) stack from one flow of
    the identity."""
    return _trace_preserving(_flow(g, np.eye(D * D, dtype=complex), _check_grid(t_grid), opts))


def propagator_matrix(
    g: Generator, t: float, opts: SolverOptions = DEFAULT_OPTS
) -> np.ndarray:
    """The linear map Phi(t) on vectorized operators."""
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be nonnegative and finite")
    return propagator_matrices(g, [0.0, t] if t > 0.0 else [0.0], opts)[-1]


def apply_map(phi: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Map every state of an (N, 4, 4) stack in one product, bit for bit
    phi @ vec(ms[k]) each, and repair the images in one stacked call."""
    return _repair_states(unvec((phi @ vec(ms)[..., None])[..., 0]))
