import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entfate as ef
from entfate.errors import HorizonTooShort
from entfate.fate import DEFAULT_FATE_TOL, DEFAULT_REFINE_TOL, wilson_interval

GAMMA = 1.0


def pure_two_qubit(weights):
    v = np.asarray(weights, dtype=complex)
    v /= np.linalg.norm(v)
    return ef.new_state(np.outer(v, v.conj()), 2, 2)


def damped_margin_oracle(rho0, t, gamma=GAMMA):
    """PT margin of the closed-form amplitude-damped state."""
    p = 1.0 - np.exp(-gamma * t)
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for ka in (e0, e1):
        for kb in (e0, e1):
            k = np.kron(ka, kb)
            out += k @ rho0 @ k.conj().T
    return ef.min_pt_eigenvalue(ef.new_state(out, 2, 2))


class TestDetectFate:
    def test_separable_product_never_entangled(self):
        # local dynamics cannot create entanglement
        g = ef.catalog_generator(2)
        rec = ef.detect_fate(g, ef.basis_state(1, 1), horizon=30.0)
        assert rec.fate_tag == "never_entangled"
        assert rec.death_time is None and rec.birth_time is None

    def test_sudden_death_branch(self):
        g = ef.catalog_generator(2)
        rho0 = pure_two_qubit([np.sqrt(0.1), 0, 0, np.sqrt(0.9)])
        rec = ef.detect_fate(g, rho0, horizon=30.0)
        assert rec.fate_tag == "sudden_death"
        assert rec.death_time is not None
        # oracle: the closed-form margin changes sign across the death time
        assert damped_margin_oracle(rho0.matrix, rec.death_time - 0.01) < 0
        assert damped_margin_oracle(rho0.matrix, rec.death_time + 0.01) > 0

    def test_asymptotic_death_branch(self):
        g = ef.catalog_generator(2)
        rho0 = pure_two_qubit([np.sqrt(0.9), 0, 0, np.sqrt(0.1)])
        rec = ef.detect_fate(g, rho0, horizon=30.0)
        assert rec.fate_tag == "asymptotic_death"
        assert rec.death_time is None
        # oracle: margin negative at every probed finite time
        for t in np.linspace(0.1, 20.0, 40):
            assert damped_margin_oracle(rho0.matrix, t) < 0

    def test_depolarizing_death_at_log3(self):
        # Werner margin (1 - 3 e^-t)/4 crosses zero at t = ln 3
        g = ef.catalog_generator(1)
        rec = ef.detect_fate(g, ef.max_entangled(), horizon=20.0)
        assert rec.fate_tag == "sudden_death"
        assert abs(rec.death_time - np.log(3.0)) < 1e-5

    def test_sudden_birth_toward_entangled_attractor(self):
        g = ef.catalog_generator(3)
        rec = ef.detect_fate(g, ef.basis_state(0, 1), horizon=30.0)
        assert rec.fate_tag == "asymptotically_entangled"
        assert rec.birth_time is not None
        assert rec.final_margin < -0.4

    def test_horizon_too_short(self):
        g = ef.catalog_generator(3)
        with pytest.raises(HorizonTooShort):
            ef.detect_fate(g, ef.basis_state(0, 1), horizon=0.5)

    def test_bad_horizon(self):
        g = ef.catalog_generator(1)
        with pytest.raises(ValueError):
            ef.detect_fate(g, ef.max_entangled(), horizon=0.0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        g = ef.catalog_generator(1)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            ef.detect_fate(g, ef.max_entangled(), horizon=horizon)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["refine_tol", "tol"])
    def test_bad_tolerances(self, name, bad):
        # refine_tol = -1 used to bisect forever
        g = ef.catalog_generator(1)
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            ef.detect_fate(g, ef.max_entangled(), horizon=10.0, **{name: bad})
        traj = ef.propagate(g, ef.max_entangled(), np.linspace(0.0, 10.0, 41))
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            ef.fate_of_trajectory(traj, **{name: bad})

    def test_refine_tol_below_float_spacing_terminates(self):
        # the bisection stops once no float lies strictly inside its interval
        rec = ef.detect_fate(
            ef.catalog_generator(1), ef.max_entangled(), 10.0, grid_points=40, refine_tol=1e-300
        )
        assert rec.death_time == pytest.approx(np.log(3.0), abs=1e-9)


class TestMarginCurve:
    def test_constant_zero_generator(self):
        from entfate.dynamics import make_generator

        g = make_generator((2, 2))
        traj = ef.propagate(g, ef.basis_state(0, 0), np.linspace(0.0, 1.0, 5))
        curve = ef.margin_curve(traj)
        margins = [m for _, m, _ in curve]
        assert max(margins) - min(margins) < 1e-12

    def test_depolarizing_single_crossing(self):
        g = ef.catalog_generator(1)
        traj = ef.propagate(g, ef.max_entangled(), np.linspace(0.0, 10.0, 201))
        curve = ef.margin_curve(traj)
        margins = np.array([m for _, m, _ in curve])
        signs = np.sign(margins[np.abs(margins) > 1e-9])
        flips = np.sum(np.diff(signs) != 0)
        assert flips == 1
        # Werner-line closed form: margin(t) = (1 - 3 e^-t)/4
        for t, m, _ in curve:
            assert abs(m - (1 - 3 * np.exp(-t)) / 4) < 1e-8

    def test_concurrence_zero_where_ppt(self):
        g = ef.catalog_generator(1)
        traj = ef.propagate(g, ef.max_entangled(), np.linspace(0.0, 10.0, 101))
        for _, m, c in ef.margin_curve(traj):
            if m >= 0.0:
                assert c < 1e-7


class TestFateStatistics:
    def test_class2_dichotomy_at_equal_concurrence(self):
        g = ef.catalog_generator(2)
        spec = ef.EnsembleSpec("fixed_concurrence_pure", seed=7, target_concurrence=0.6)
        stats, records = ef.fate_statistics(g, spec, n=60, horizon=30.0, seed=7)
        assert stats.failures == 0
        assert stats.counts["sudden_death"] > 0
        assert stats.counts["asymptotic_death"] > 0
        assert abs(sum(stats.fractions.values()) - 1.0) < 1e-12

    def test_class1_no_surviving_entanglement(self):
        g = ef.catalog_generator(1)
        spec = ef.EnsembleSpec("haar_pure", seed=11)
        stats, records = ef.fate_statistics(g, spec, n=50, horizon=20.0, seed=11)
        assert stats.counts["asymptotically_entangled"] == 0
        assert stats.counts["revival"] == 0
        for rec in records:
            if rec.initial_concurrence > 1e-8:
                assert rec.fate_tag == "sudden_death"
                assert rec.death_time < 20.0

    def test_single_sample_degenerate(self):
        g = ef.catalog_generator(1)
        spec = ef.EnsembleSpec("haar_pure", seed=3)
        stats, _ = ef.fate_statistics(g, spec, n=1, horizon=20.0)
        for tag, frac in stats.fractions.items():
            assert frac in (0.0, 1.0)
            lo, hi = stats.intervals[tag]
            assert lo <= frac <= hi

    def test_reproducible_and_worker_invariant(self):
        g = ef.catalog_generator(2)
        spec = ef.EnsembleSpec("hilbert_schmidt_mixed", seed=21)
        _, r1 = ef.fate_statistics(g, spec, n=16, horizon=25.0, seed=21, workers=1)
        _, r1b = ef.fate_statistics(g, spec, n=16, horizon=25.0, seed=21, workers=1)
        _, r2 = ef.fate_statistics(g, spec, n=16, horizon=25.0, seed=21, workers=2)
        assert r1 == r1b
        assert r1 == r2

    def test_never_entangled_matches_ppt_fraction(self):
        # local (entanglement-non-creating) dynamics: the never_entangled
        # fraction equals the ensemble's PPT fraction
        g = ef.catalog_generator(2)
        spec = ef.EnsembleSpec("hilbert_schmidt_mixed", seed=33)
        n = 200
        stats, _ = ef.fate_statistics(g, spec, n=n, horizon=25.0, seed=33)
        ppt = sum(
            1
            for i in range(n)
            if ef.min_pt_eigenvalue(
                ef.sample(
                    ef.EnsembleSpec("hilbert_schmidt_mixed", seed=ef.split_seed(33, i))
                )
            )
            > 1e-7
        )
        lo, hi = stats.intervals["never_entangled"]
        assert lo - 0.05 <= ppt / n <= hi + 0.05

    def test_failure_reasons_keyed_by_exception_type(self):
        # a horizon this short leaves some margins still trending
        g = ef.catalog_generator(3)
        spec = ef.EnsembleSpec("haar_pure", seed=1)
        stats, records = ef.fate_statistics(g, spec, n=10, horizon=0.5, grid_points=50)
        assert stats.failures > 0
        assert stats.failure_reasons == {"HorizonTooShort": stats.failures}
        errors = [r for r in records if isinstance(r, str)]
        assert len(errors) == stats.failures
        assert all(r.startswith("HorizonTooShort: ") for r in errors)

    def test_run_computes_one_propagator_stack(self, monkeypatch):
        from entfate import dynamics
        from test_dynamics import count_propagator_stacks

        calls = count_propagator_stacks(monkeypatch)
        solves = []
        solve_ivp = dynamics.solve_ivp

        def counting(*args, **kwargs):
            solves.append(args)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", counting)
        g = ef.catalog_generator(6)
        spec = ef.EnsembleSpec("hilbert_schmidt_mixed", seed=5)
        opts = ef.SolverOptions(rtol=1e-7, atol=1e-10)
        stats, records = ef.fate_statistics(g, spec, n=12, horizon=12.0, grid_points=200, opts=opts)
        assert stats.failures == 0
        assert len(calls) == 1 and calls[0][0] is g
        # the births are bisected on the source's interpolants, with no solve of their own
        assert any(rec.birth_time is not None for rec in records)
        assert len(solves) == 1

    def test_tolerances_that_fail_the_identity_flow_fail_every_sample(self, monkeypatch):
        from test_dynamics import count_propagator_stacks

        calls = count_propagator_stacks(monkeypatch)
        # the stiff quench blows up under these tolerances without overflowing
        g = ef.catalog_generator(6, c=100.0)
        spec = ef.EnsembleSpec("hilbert_schmidt_mixed", seed=5)
        opts = ef.SolverOptions(rtol=1.0, atol=1.0)
        stats, records = ef.fate_statistics(g, spec, n=4, horizon=12.0, grid_points=200, opts=opts)
        assert stats.failure_reasons == {"StepFailure": 4}
        assert all(r.startswith("StepFailure: trace-preservation residual") for r in records)
        assert len(calls) == 4  # a failed flow is not kept

    def test_n_must_be_positive(self):
        g = ef.catalog_generator(1)
        spec = ef.EnsembleSpec("haar_pure", seed=0)
        with pytest.raises(ValueError):
            ef.fate_statistics(g, spec, n=0, horizon=1.0)


class TestWilsonInterval:
    def test_contains_fraction(self):
        for k, n in ((0, 10), (5, 10), (10, 10), (37, 100)):
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_shrinks_with_n(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1


class TestFateOfTrajectory:
    @pytest.mark.parametrize(
        "class_id, rho0, horizon, opts",
        [
            (1, ef.max_entangled(), 20.0, ef.SolverOptions()),
            (3, ef.basis_state(0, 1), 30.0, ef.SolverOptions()),
            # a separable sample that is born entangled near t = 0.037
            (6, ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=13)), 12.0,
             ef.SolverOptions(rtol=1e-7, atol=1e-10)),
        ],
        ids=["class1-bell-death", "class3-sudden-birth", "class6-sudden-birth"],
    )
    def test_equals_detect_fate(self, class_id, rho0, horizon, opts):
        g = ef.catalog_generator(class_id)
        grid = np.linspace(0.0, horizon, 201)
        traj = ef.propagate(g, rho0, grid, opts)
        rec = ef.fate_of_trajectory(traj)
        assert rec == ef.detect_fate(g, rho0, horizon, grid_points=200, opts=opts)
        assert rec.death_time is not None or rec.birth_time is not None

    def test_one_point_trajectory(self):
        g = ef.catalog_generator(1)
        for rho0, tag in ((ef.max_entangled(), "asymptotically_entangled"),
                          (ef.basis_state(0, 1), "never_entangled")):
            rec = ef.fate_of_trajectory(ef.propagate(g, rho0, [0.0]))
            assert rec.fate_tag == tag
            assert rec.birth_time is None and rec.death_time is None and not rec.revival_times


def werner_of_margin(m):
    """The Werner state w |Bell><Bell| + (1 - w) I/4, whose PT margin
    (1 - 3w)/4 is m, for m in [-1/2, 1/4]."""
    w = (1.0 - 4.0 * m) / 3.0
    return ef.new_state(w * ef.max_entangled().matrix + (1.0 - w) * np.eye(4) / 4.0)


class MarginTrajectory:
    """A duck-typed trajectory whose PT margin follows m(t): its grid
    margins are m at the grid times and ``state_at(t)`` is the Werner
    state of margin m(t)."""

    opts = ef.SolverOptions()

    def __init__(self, m, times):
        self.m = m
        self.times = tuple(times)
        self.margins = np.array([m(t) for t in self.times])
        self.initial = werner_of_margin(self.margins[0])

    def state_at(self, t):
        return werner_of_margin(self.m(t))


def undecided_then_reborn(t):
    """Starts at margin 0, entangled on (0, 2), separable on (2, 4),
    entangled again after 4."""
    if t <= 2.0:
        return -0.1 * np.sin(np.pi * t / 2.0)
    if t <= 4.0:
        return 0.1 * np.sin(np.pi * (t - 2.0) / 2.0)
    return -0.1 * np.sin(np.pi * (min(t, 5.0) - 4.0) / 2.0)


class TestSignEvents:
    """Birth, death and revival times read off the alternating sign events."""

    def test_birth_from_an_undecided_start_is_the_first_entry(self):
        tol, refine_tol = DEFAULT_FATE_TOL, DEFAULT_REFINE_TOL
        traj = MarginTrajectory(undecided_then_reborn, np.linspace(0.0, 10.0, 201))
        rec = ef.fate_of_trajectory(traj, refine_tol, tol)
        first_crossing = 2.0 / np.pi * np.arcsin(tol / 0.1)  # -0.1 sin(pi t / 2) = -tol
        assert abs(rec.birth_time - first_crossing) <= refine_tol
        assert rec.birth_time < rec.revival_times[0]
        assert rec.revival_times == (pytest.approx(4.0, abs=refine_tol),)
        assert rec.death_time is None and rec.fate_tag == "revival"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(nodes=st.lists(st.integers(-20, 10), min_size=1, max_size=8))
    def test_times_follow_the_sign_changes(self, nodes):
        # node values are multiples of 0.025 in [-0.5, 0.25], one time unit
        # apart, with a flat final unit so the tail has converged; no two
        # neighboring grid margins then lie near zero, so no subdivision
        node_m = [0.025 * k for k in nodes + nodes[-1:]]
        node_t = np.arange(len(node_m), dtype=float)
        times = np.linspace(0.0, node_t[-1], 10 * len(nodes) + 1)
        traj = MarginTrajectory(lambda t: float(np.interp(t, node_t, node_m)), times)
        tol = DEFAULT_FATE_TOL
        rec = ef.fate_of_trajectory(traj, tol=tol)
        m = traj.margins
        entangled = m < -tol
        definite = m[np.abs(m) > tol]
        assert (rec.birth_time is None) == (entangled[0] or not entangled.any())
        # an exit: a grid time with m > tol after one with m < -tol
        exits = [times[j] for j in range(len(m)) if m[j] > tol and entangled[:j].any()]
        for r in rec.revival_times:
            assert rec.birth_time is None or r > rec.birth_time
            assert any(t < r for t in exits)
        last_exit = definite.size > 0 and definite[-1] > tol and entangled.any()
        assert (rec.death_time is not None) == last_exit
        assert (rec.fate_tag == "revival") == (len(rec.revival_times) > 0 and m[-1] < -tol)
