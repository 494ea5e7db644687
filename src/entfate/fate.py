"""Entanglement fates of single trajectories and ensemble proportions.

The PT margin m(t) is read off a propagated trajectory.  One numpy scan
subdivides its near-tangential grid intervals, and another records its
definite sign events (from below -tol to above +tol or back), which
alternate in direction.  Both scans read a grid margin only for its band
(below -tol, above +tol, or within 10 tol of zero).  So a grid state is
not eigensolved when Weyl's inequality places it: the partial transpose
keeps the Frobenius norm, so |m_k - m∞| <= ||rho_k - rho∞||_F for the
trajectory's limit rho∞ = P∞ρ₀ and its margin m∞, and a state this places
beyond 10 tol on m∞'s side, with both its neighbors placed so too, enters
the scans as that bound, in the same band and with the same slope signs.
The margins read as values, the ends of refined brackets, are exact by
construction: each end has an undecided or opposite-side neighbor, so it
is not a bound.
Three times are read from the events, each refined by ITP bracketing
(regula falsi steps held within bisection's worst case plus one step) from
the known margins at the bracket's ends, on the trajectory's off-grid
states, which its propagator source gives without a new solve
(``Trajectory.state_at``):

  * birth   -- the first entry into entanglement, from a separable or an
               undecided start (None when m starts below -tol),
  * death   -- the last exit from entanglement, with no re-entry after it,
  * revival -- each re-entry into entanglement after a death.

A trajectory is tagged by its final behavior:

  * never_entangled          -- m stayed >= -tol throughout,
  * sudden_death             -- m crossed to definitely positive and
                                stayed >= -tol until the horizon,
  * asymptotic_death         -- m < 0 but its limit margin m∞ is 0 (within 10 tol),
  * asymptotically_entangled -- m converged to m∞, strictly negative,
  * revival                  -- ended entangled after at least one
                                death/rebirth cycle.

The limit of every trajectory is P∞ρ₀, its start mapped by the asymptotic
set of its generator (``asymptotics.asymptotic_set`` at the library
defaults, kept, or its error kept, for the last generator, so an ensemble
run builds one); m∞ is its margin, read for every trajectory before any
grid state is eigensolved, so a generator with no asymptotic set fails
every trajectory with that set's own error.  The run raises
HorizonTooShort rather than guessing when the final margin m_T and m∞
disagree: m_T entangled but more than 0.1 |m∞| from m∞, or m∞ separable;
or m_T at or above -tol while m∞ lies below -10 tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import asymptotics
from .dynamics import DEFAULT_OPTS, Generator, SolverOptions, Trajectory, map_operators, propagate
from .errors import EntfateError, HorizonTooShort
from .geometry import concurrence, min_pt_eigenvalue, min_pt_eigenvalues
from .states import EnsembleSpec, QState, check_positive, check_whole, sample, split_seed

DEFAULT_FATE_TOL = 1e-7
DEFAULT_GRID_POINTS = 400
DEFAULT_REFINE_TOL = 1e-6
# slack of a Weyl certificate for the round-off of one 4x4 eigvalsh and one
# Frobenius norm, each about 1e-15 on a density matrix
_WEYL_GUARD = 1e-12

FATE_TAGS = (
    "sudden_death",
    "asymptotic_death",
    "never_entangled",
    "asymptotically_entangled",
    "revival",
)


@dataclass(frozen=True)
class FateRecord:
    initial_concurrence: float
    death_time: float | None
    birth_time: float | None
    revival_times: tuple[float, ...]
    final_margin: float
    fate_tag: str


@dataclass(frozen=True)
class FateStats:
    ensemble: EnsembleSpec
    horizon: float
    n: int
    counts: dict
    fractions: dict
    intervals: dict  # tag -> (lo, hi) Wilson 95%
    failures: int
    failure_reasons: dict  # exception type name -> count
    exemplars: dict  # tag -> first seed index attaining it


def _margin_at(traj, t):
    """Margin at an off-grid time, from the trajectory's propagator source."""
    return min_pt_eigenvalue(traj.state_at(t))


def _itp(traj, t_lo, m_lo, t_hi, m_hi, level, on_lo_side, refine_tol):
    """The time where the margin crosses ``level`` in (t_lo, t_hi), by the
    ITP method (Oliveira & Takahashi, ACM TOMS 47(1), 2020) with eps =
    refine_tol / 2, n0 = 1, kappa1 = 0.2 / (t_hi - t_lo) and kappa2 = 2:
    a regula falsi step, truncated toward the midpoint and projected into
    the ball around it that keeps bisection's worst case plus one step.
    m_lo and m_hi are the known margins at the ends; t_lo stays where the
    margin is ``on_lo_side`` and t_hi where it is not.  Returns the midpoint
    of the final bracket, once it is no wider than refine_tol or no float
    lies strictly inside it, or after bisection's step count plus one."""
    width = t_hi - t_lo
    kappa1 = 0.2 / width
    # bisection's step count, the least n with width 2^-n <= refine_tol, plus n0
    (mw, ew), (mr, er) = math.frexp(width), math.frexp(refine_tol)
    n_max = ew - er + (mw > mr) + 1
    for j in range(n_max):
        t_half = 0.5 * (t_lo + t_hi)
        if not (t_hi - t_lo > refine_tol and t_lo < t_half < t_hi):
            break
        r = math.ldexp(refine_tol, n_max - j - 1) - 0.5 * (t_hi - t_lo)
        delta = kappa1 * (t_hi - t_lo) ** 2
        t_f = t_lo + (level - m_lo) / (m_hi - m_lo) * (t_hi - t_lo)
        sigma = math.copysign(1.0, t_half - t_f)
        t_x = t_f + sigma * delta if delta <= abs(t_half - t_f) else t_half
        if not abs(t_x - t_half) <= r:
            t_x = t_half - sigma * r
        if not t_lo < t_x < t_hi:
            t_x = t_half
        m = _margin_at(traj, t_x)
        if on_lo_side(m):
            t_lo, m_lo = t_x, m
        else:
            t_hi, m_hi = t_x, m
    return 0.5 * (t_lo + t_hi)


def _near_tangential(margins, tol, floor):
    """Indices i of the grid intervals (i - 1, i) to subdivide: both end
    margins lie in (floor, 10 tol) in size, and either their signs differ
    or the neighboring slopes flip (an interior extremum may hide a
    crossing)."""
    if margins.size < 2:
        return np.zeros(0, dtype=int)
    size = np.abs(margins)
    small = (floor < size) & (size < 10.0 * tol)
    slope = np.diff(margins)
    slope_in = np.concatenate([[0.0], slope[:-1]])
    slope_out = np.concatenate([slope[1:], [0.0]])
    flips = (slope_in * slope_out < 0.0) | (np.sign(margins[:-1]) != np.sign(margins[1:]))
    return np.flatnonzero(small[:-1] & small[1:] & flips) + 1


def _sign_events(margins, tol):
    """The definite sign events of a margin sequence, below -tol to above
    +tol or back, as (direction, lo, hi) index pairs with direction +1
    upward (they alternate in direction), and the index of the first
    margin below -tol (None if there is none)."""
    state = np.where(margins < -tol, -1, np.where(margins > tol, 1, 0))
    definite = np.flatnonzero(state)
    sides = state[definite]
    flips = np.flatnonzero(sides[1:] != sides[:-1])
    events = [(int(sides[k + 1]), int(definite[k]), int(definite[k + 1])) for k in flips]
    entangled = np.flatnonzero(state < 0)
    return events, (int(entangled[0]) if entangled.size else None)


@lru_cache(maxsize=1)
def _limit_set(g):
    """``asymptotics.asymptotic_set(g)`` at the library defaults, or its
    error, kept for the last generator: an ensemble run builds one set."""
    try:
        return asymptotics.asymptotic_set(g)
    except EntfateError as exc:
        return exc


def _limit_margin(traj):
    """The trajectory's limit rho∞ = P∞ρ₀, a (4, 4) matrix, and its margin m∞;
    its generator's asymptotic set raises its own error when it has none."""
    aset = _limit_set(traj.generator)
    if isinstance(aset, EntfateError):
        raise aset.with_traceback(None)  # this raise's frames only, not earlier samples'
    limit = map_operators(aset.map_matrix, traj.initial.matrix[None])
    return limit[0], float(min_pt_eigenvalues(limit)[0])


def detect_fate(
    g: Generator,
    rho0: QState,
    horizon: float,
    grid_points: int = DEFAULT_GRID_POINTS,
    refine_tol: float = DEFAULT_REFINE_TOL,
    tol: float = DEFAULT_FATE_TOL,
    opts: SolverOptions = DEFAULT_OPTS,
) -> FateRecord:
    """Propagate rho0 over ``fate_grid(horizon, grid_points)`` and tag its fate."""
    return fate_of_trajectory(propagate(g, rho0, fate_grid(horizon, grid_points), opts),
                              refine_tol, tol)


def fate_grid(horizon: float, grid_points: int) -> np.ndarray:
    """grid_points equal steps from 0 to the horizon; grid_points is an
    integer >= 2."""
    check_positive("horizon", horizon)
    return np.linspace(0.0, horizon, check_whole("grid_points", grid_points, 2) + 1)


def _grid_margins(traj, tol, limit, m_limit):
    """The grid margins that the scans read, anchored at the limit rho∞, m∞.

    A state k with ||rho_k - rho∞||_F < |m∞| - 10 tol - _WEYL_GUARD is
    placed: its margin lies beyond 10 tol on m∞'s side (Weyl's inequality
    holds for any Hermitian anchor; the partial transpose keeps the
    Frobenius norm).  A placed state whose two neighbors are placed too is
    not eigensolved, and its margin is the bound m∞ -+ ||rho_k - rho∞||_F,
    in the same band; rho_0 and rho_T have one neighbor, so they are never
    bounded.  So a state next to one that is not placed is eigensolved, as
    every end of a sign change is: its neighbor inside the change is
    undecided or on the other side.  Every other state is eigensolved, in
    one stack; when |m∞| <= 10 tol + _WEYL_GUARD that is every state."""
    ms = traj.matrices
    margins = np.empty(len(ms))
    bounded = np.zeros(len(ms), dtype=bool)
    reach = abs(m_limit) - 10.0 * tol - _WEYL_GUARD
    if reach > 0.0:
        dist = np.linalg.norm(ms - limit, axis=(1, 2))
        placed = dist < reach
        bounded[1:-1] = placed[:-2] & placed[1:-1] & placed[2:]
        margins[bounded] = m_limit - np.copysign(dist[bounded], m_limit)
    exact = np.flatnonzero(~bounded)
    margins[exact] = min_pt_eigenvalues(ms[exact])
    return margins


def fate_of_trajectory(
    traj: Trajectory, refine_tol: float = DEFAULT_REFINE_TOL, tol: float = DEFAULT_FATE_TOL
) -> FateRecord:
    """Tag the fate of a trajectory from its PT margins, with its birth
    time (first entry into entanglement, from a separable or an undecided
    start), death time (last exit, with no re-entry after it) and revival
    times (each re-entry after a death), against the margin m∞ of its limit
    P∞ρ₀, which anchors the grid margins.  Crossings are refined by ITP
    from the known margins at the ends of their grid intervals, on its
    states between grid times, which its propagator source gives
    (``Trajectory.state_at``)."""
    check_positive("refine_tol", refine_tol)
    check_positive("tol", tol)
    times = np.asarray(traj.times)
    limit, m_limit = _limit_margin(traj)
    margins = _grid_margins(traj, tol, limit, m_limit)

    # one subdivision pass through near-tangential intervals, ignoring
    # integrator noise around zero
    split = _near_tangential(margins, tol, 100.0 * traj.opts.atol)
    if split.size:
        mids = 0.5 * (times[split - 1] + times[split])
        times = np.insert(times, split, mids)
        margins = np.insert(margins, split, [_margin_at(traj, t) for t in mids.tolist()])
    events, first_ent = _sign_events(margins, tol)
    times, margins = times.tolist(), margins.tolist()
    final_margin = margins[-1]

    def crossing(lo, hi, level, on_lo_side):
        return _itp(traj, times[lo], margins[lo], times[hi], margins[hi], level, on_lo_side,
                    refine_tol)

    # the margin at an event's lo end has the sign opposite to its direction
    refine = lambda e: crossing(e[1], e[2], 0.0, lambda m: e[0] * m < 0.0)
    birth_time = death_time = None
    if events and events[0][0] < 0:
        birth_time = refine(events[0])
    elif first_ent:
        # entangled straight from an undecided start (e.g. a boundary
        # initial state): refine the -tol threshold crossing directly
        birth_time = crossing(first_ent - 1, first_ent, -tol, lambda m: not m < -tol)
    if events and events[-1][0] > 0:
        death_time = refine(events[-1])
    revival_times = tuple(refine(e) for e in events[1:] if e[0] < 0)

    if final_margin < -tol:
        if abs(m_limit) <= 10.0 * tol:
            tag = "asymptotic_death"
        elif m_limit < -tol and abs(m_limit - final_margin) <= 0.1 * abs(m_limit):
            tag = "revival" if revival_times else "asymptotically_entangled"
        else:
            raise HorizonTooShort(
                f"margin {final_margin:.3e} still trending at horizon "
                f"(limit margin {m_limit:.3e})"
            )
    elif m_limit < -10.0 * tol:
        raise HorizonTooShort(
            f"margin {final_margin:.3e} not entangled at horizon "
            f"(limit margin {m_limit:.3e})"
        )
    elif first_ent is not None:
        tag = "sudden_death" if death_time is not None else "asymptotic_death"
    else:
        tag = "never_entangled"

    return FateRecord(
        initial_concurrence=concurrence(traj.initial),
        death_time=death_time,
        birth_time=birth_time,
        revival_times=revival_times,
        final_margin=final_margin,
        fate_tag=tag,
    )


def margin_curve(traj: Trajectory) -> list[tuple[float, float, float]]:
    """(time, PT margin, concurrence) per grid point, ready for CSV."""
    return [
        (t, m, concurrence(s))
        for t, m, s in zip(traj.times, traj.margins.tolist(), traj.states)
    ]


def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial fraction."""
    if n == 0:
        return (0.0, 1.0)
    if k == 0 or k == n:  # exact endpoints, avoiding float round-off
        width = (z * z / n) / (1.0 + z * z / n)
        return (0.0, width) if k == 0 else (1.0 - width, 1.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def _fate_task(g, spec, horizon, grid_points, refine_tol, tol, opts, index):
    """Ensemble sample ``index``, drawn at ``split_seed(spec.seed, index)``;
    module-level so worker processes can pickle it."""
    spec_i = replace(spec, seed=split_seed(spec.seed, index))
    rho0 = sample(spec_i)
    try:
        return detect_fate(g, rho0, horizon, grid_points, refine_tol, tol, opts)
    except EntfateError as exc:
        return exc.with_traceback(None)  # its frames hold the sample's trajectory


def fate_statistics(
    g: Generator,
    spec: EnsembleSpec,
    n: int,
    horizon: float,
    grid_points: int = DEFAULT_GRID_POINTS,
    refine_tol: float = DEFAULT_REFINE_TOL,
    tol: float = DEFAULT_FATE_TOL,
    opts: SolverOptions = DEFAULT_OPTS,
    workers: int = 1,
) -> tuple[FateStats, list]:
    """n independent fate runs; deterministic given ``spec`` (sample i is
    drawn at ``split_seed(spec.seed, i)``) and independent of the worker count.

    Returns (stats, records) where records[i] is the FateRecord for
    sample i, or the error string if that sample failed.  Failures are
    counted in ``failure_reasons`` by exception type name.  ``n`` and
    ``workers`` are integers >= 1; they, the grid and both tolerances are
    checked before any sample is drawn or any worker started.
    """
    n = check_whole("n", n, 1)
    workers = check_whole("workers", workers, 1)
    fate_grid(horizon, grid_points)
    check_positive("refine_tol", refine_tol)
    check_positive("tol", tol)
    task = partial(_fate_task, g, spec, horizon, grid_points, refine_tol, tol, opts)
    if workers == 1:
        results = list(map(task, range(n)))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled run needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, range(n), chunksize=max(1, n // (4 * workers))))
    records: list = []
    counts: dict[str, int] = {tag: 0 for tag in FATE_TAGS}
    failure_reasons: dict[str, int] = {}
    exemplars: dict[str, int] = {}
    failures = 0
    for i, res in enumerate(results):
        if isinstance(res, FateRecord):
            records.append(res)
            counts[res.fate_tag] += 1
            exemplars.setdefault(res.fate_tag, i)
        else:
            reason = type(res).__name__
            records.append(f"{reason}: {res}")
            failures += 1
            failure_reasons[reason] = failure_reasons.get(reason, 0) + 1
    n_ok = n - failures
    fractions = {tag: (counts[tag] / n_ok if n_ok else 0.0) for tag in FATE_TAGS}
    intervals = {tag: wilson_interval(counts[tag], n_ok) for tag in FATE_TAGS}
    stats = FateStats(
        ensemble=spec,
        horizon=horizon,
        n=n,
        counts=counts,
        fractions=fractions,
        intervals=intervals,
        failures=failures,
        failure_reasons=failure_reasons,
        exemplars=exemplars,
    )
    return stats, records
