"""Entanglement fates of single trajectories and ensemble proportions.

The PT margin m(t) is read off a propagated trajectory.  One scan of the
margins records its definite sign events (from below -tol to above +tol
or back), which alternate in direction.  Three times are read from the
events, each refined by bisection on the trajectory's off-grid states,
which its propagator source gives without a new solve
(``Trajectory.state_at``):

  * birth   -- the first entry into entanglement, from a separable or an
               undecided start (None when m starts below -tol),
  * death   -- the last exit from entanglement, with no re-entry after it,
  * revival -- each re-entry into entanglement after a death.

A trajectory is tagged by its final behavior:

  * never_entangled          -- m stayed >= -tol throughout,
  * sudden_death             -- m crossed to definitely positive and
                                stayed >= -tol until the horizon,
  * asymptotic_death         -- m < 0 but its extrapolated limit is 0,
  * asymptotically_entangled -- m converged to a strictly negative value,
  * revival                  -- ended entangled after at least one
                                death/rebirth cycle.

If the margin is still trending at the horizon the run raises
HorizonTooShort rather than guessing.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DEFAULT_OPTS, Generator, SolverOptions, Trajectory, propagate
from .errors import EntfateError, HorizonTooShort
from .geometry import concurrence, min_pt_eigenvalue
from .states import EnsembleSpec, QState, check_positive, sample, split_seed

DEFAULT_FATE_TOL = 1e-7
DEFAULT_GRID_POINTS = 400
DEFAULT_REFINE_TOL = 1e-6

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


def _bisect(traj, t_lo, t_hi, on_lo_side, refine_tol):
    """Halve (t_lo, t_hi) down to refine_tol, keeping t_lo where the margin
    is ``on_lo_side`` and t_hi where it is not; return the midpoint.  Stops
    early once no float lies strictly inside the interval."""
    while t_hi - t_lo > refine_tol:
        t_mid = 0.5 * (t_lo + t_hi)
        if not t_lo < t_mid < t_hi:
            break
        if on_lo_side(_margin_at(traj, t_mid)):
            t_lo = t_mid
        else:
            t_hi = t_mid
    return 0.5 * (t_lo + t_hi)


def _aitken_limit(values):
    """Extrapolated limit of a (near-geometric) tail of margin samples."""
    m0, m1, m2 = values[-3], values[-2], values[-1]
    denom = (m2 - m1) - (m1 - m0)
    if abs(denom) < 1e-300:
        return m2
    est = m2 - (m2 - m1) ** 2 / denom
    # reject wild extrapolations from non-geometric tails
    if not np.isfinite(est) or abs(est - m2) > 10.0 * (abs(m2) + abs(m1 - m2)):
        return m2
    return est


def detect_fate(
    g: Generator,
    rho0: QState,
    horizon: float,
    grid_points: int = DEFAULT_GRID_POINTS,
    refine_tol: float = DEFAULT_REFINE_TOL,
    tol: float = DEFAULT_FATE_TOL,
    opts: SolverOptions = DEFAULT_OPTS,
) -> FateRecord:
    """Propagate rho0 over grid_points steps to the horizon and tag its fate."""
    check_positive("horizon", horizon)
    grid = np.linspace(0.0, horizon, grid_points + 1)
    return fate_of_trajectory(propagate(g, rho0, grid, opts), refine_tol, tol)


def fate_of_trajectory(
    traj: Trajectory, refine_tol: float = DEFAULT_REFINE_TOL, tol: float = DEFAULT_FATE_TOL
) -> FateRecord:
    """Tag the fate of a trajectory from its PT margins, with its birth
    time (first entry into entanglement, from a separable or an undecided
    start), death time (last exit, with no re-entry after it) and revival
    times (each re-entry after a death).  Crossings are refined by
    bisection on its states between grid times, which its propagator
    source gives (``Trajectory.state_at``)."""
    check_positive("refine_tol", refine_tol)
    check_positive("tol", tol)
    times = list(traj.times)
    margins = traj.margins.tolist()

    # one subdivision pass through near-tangential intervals: both ends
    # near zero and the neighboring slopes flip (interior extremum risk)
    floor = 100.0 * traj.opts.atol  # ignore integrator noise around zero
    refined_t, refined_m = [times[0]], [margins[0]]
    for i in range(1, len(times)):
        near = (
            floor < abs(margins[i - 1]) < 10.0 * tol
            and floor < abs(margins[i]) < 10.0 * tol
        )
        if near:
            slope_in = margins[i - 1] - margins[i - 2] if i >= 2 else 0.0
            slope_out = margins[i + 1] - margins[i] if i + 1 < len(margins) else 0.0
            extremum_risk = slope_in * slope_out < 0.0
            if extremum_risk or np.sign(margins[i - 1]) != np.sign(margins[i]):
                t_mid = 0.5 * (times[i - 1] + times[i])
                refined_t.append(t_mid)
                refined_m.append(_margin_at(traj, t_mid))
        refined_t.append(times[i])
        refined_m.append(margins[i])
    times, margins = refined_t, refined_m

    # definite sign events, below -tol <-> above +tol, as (direction, t_lo,
    # t_hi) with direction +1 = upward; they alternate in direction
    events = []
    first_ent = None  # index of the first margin below -tol
    state = 0  # -1 entangled, +1 separable, 0 undecided
    last_idx = 0
    for i, m in enumerate(margins):
        cur = -1 if m < -tol else (+1 if m > tol else 0)
        if cur != 0:
            if state != 0 and cur != state:
                events.append((cur, times[last_idx], times[i]))
            if cur < 0 and first_ent is None:
                first_ent = i
            state = cur
            last_idx = i
    final_margin = margins[-1]

    # the margin at an event's t_lo has the sign opposite to its direction
    refine = lambda e: _bisect(traj, e[1], e[2], lambda m: e[0] * m < 0.0, refine_tol)
    birth_time = death_time = None
    if events and events[0][0] < 0:
        birth_time = refine(events[0])
    elif first_ent:
        # entangled straight from an undecided start (e.g. a boundary
        # initial state): refine the -tol threshold crossing directly
        t_lo, t_hi = times[first_ent - 1], times[first_ent]
        birth_time = _bisect(traj, t_lo, t_hi, lambda m: not m < -tol, refine_tol)
    if events and events[-1][0] > 0:
        death_time = refine(events[-1])
    revival_times = tuple(refine(e) for e in events[1:] if e[0] < 0)

    limit = _aitken_limit(margins) if len(margins) >= 3 else final_margin

    if final_margin < -tol:
        if abs(limit) <= 10.0 * tol:
            tag = "asymptotic_death"
        elif limit < -tol and abs(limit - final_margin) <= 0.1 * abs(limit):
            tag = "revival" if revival_times else "asymptotically_entangled"
        else:
            raise HorizonTooShort(
                f"margin {final_margin:.3e} still trending at horizon "
                f"(extrapolated limit {limit:.3e})"
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


def _fate_task(args):
    """One ensemble sample; module-level so worker processes can pickle it."""
    g, spec, base_seed, index, horizon, grid_points, refine_tol, tol, opts = args
    spec_i = replace(spec, seed=split_seed(base_seed, index))
    rho0 = sample(spec_i)
    try:
        return detect_fate(g, rho0, horizon, grid_points, refine_tol, tol, opts)
    except EntfateError as exc:
        return exc


def fate_statistics(
    g: Generator,
    spec: EnsembleSpec,
    n: int,
    horizon: float,
    seed: int | None = None,
    grid_points: int = DEFAULT_GRID_POINTS,
    refine_tol: float = DEFAULT_REFINE_TOL,
    tol: float = DEFAULT_FATE_TOL,
    opts: SolverOptions = DEFAULT_OPTS,
    workers: int = 1,
) -> tuple[FateStats, list]:
    """n independent fate runs; deterministic given the seed and
    independent of the worker count.

    Returns (stats, records) where records[i] is the FateRecord for
    sample i, or the error string if that sample failed.  Failures are
    counted in ``failure_reasons`` by exception type name.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base_seed = spec.seed if seed is None else int(seed)
    args = [
        (g, spec, base_seed, i, horizon, grid_points, refine_tol, tol, opts)
        for i in range(n)
    ]
    if workers <= 1:
        results = [_fate_task(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fate_task, args, chunksize=max(1, n // (4 * workers))))
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
