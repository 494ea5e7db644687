import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entfate as ef
import test_dynamics
from entfate import fate
from entfate.errors import HorizonTooShort
from entfate.fate import DEFAULT_FATE_TOL, DEFAULT_REFINE_TOL, wilson_interval
from entfate.geometry import min_pt_eigenvalue, min_pt_eigenvalues
from entfate.operators import EYE2, SMINUS, SX, SZ

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

    def test_entangled_at_the_horizon_with_a_separable_limit_is_horizon_too_short(self):
        # the paper makes sudden death necessary here (the set is the interior
        # point I/4, margin 1/4), and this state dies after horizon 30
        g = ef.catalog_generator(1, gamma=0.02)
        rho0 = ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=ef.split_seed(5, 26)))
        with pytest.raises(HorizonTooShort, match=r"\(limit margin 2\.500e-01\)"):
            ef.detect_fate(g, rho0, horizon=30.0)
        rec = ef.detect_fate(g, rho0, horizon=40.0)
        assert rec.fate_tag == "sudden_death"
        assert rec.death_time == pytest.approx(33.249, abs=1e-3)

    def test_two_margins_before_a_death_are_horizon_too_short(self):
        # class 1 makes death necessary, and this state dies at ln 3, after
        # the horizon; its limit I/4 is separable
        g = ef.catalog_generator(1)
        traj = ef.propagate(g, ef.max_entangled(), [0.0, 0.5])
        with pytest.raises(HorizonTooShort, match=r"\(limit margin 2\.500e-01\)"):
            ef.fate_of_trajectory(traj)

    @pytest.mark.parametrize(
        "horizon, message",
        [
            (0.05, "margin 2.134e-01 not entangled at horizon (limit margin -5.000e-01)"),
            (0.2, "margin 1.140e-01 not entangled at horizon (limit margin -5.000e-01)"),
            (0.5, "margin -4.510e-02 still trending at horizon (limit margin -5.000e-01)"),
        ],
    )
    def test_separable_at_the_horizon_with_an_entangled_limit_is_horizon_too_short(
        self, horizon, message
    ):
        # class 3 drives every state to Phi+, margin -1/2; from I/4 the margin
        # falls from 1/4, so a horizon before the birth was tagged never_entangled
        g = ef.catalog_generator(3)
        with pytest.raises(HorizonTooShort) as got:
            ef.detect_fate(g, ef.new_state(np.eye(4) / 4.0), horizon=horizon)
        assert str(got.value) == message

    @pytest.mark.parametrize("grid_points", [2.5, 1, 0, -3, True, float("nan"), "40", None])
    def test_grid_points_must_be_a_whole_number_of_at_least_two(self, grid_points):
        g = ef.catalog_generator(1)
        with pytest.raises(ValueError, match="grid_points must be an integer >= 2"):
            ef.detect_fate(g, ef.max_entangled(), 10.0, grid_points=grid_points)

    def test_fate_grid(self):
        grid = fate.fate_grid(10.0, 40)
        assert np.array_equal(grid, np.linspace(0.0, 10.0, 41))
        with pytest.raises(ValueError, match="grid_points must be an integer >= 2, got 40.0"):
            fate.fate_grid(10.0, 40.0)
        assert np.array_equal(fate.fate_grid(10.0, np.int64(40)), grid)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            fate.fate_grid(0.0, 40)

    def test_bad_horizon(self):
        g = ef.catalog_generator(1)
        with pytest.raises(ValueError):
            ef.detect_fate(g, ef.max_entangled(), horizon=0.0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf"),
                                         pytest.param(10**400, id="10**400")])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        g = ef.catalog_generator(1)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            ef.detect_fate(g, ef.max_entangled(), horizon=horizon, grid_points=4)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            fate.fate_grid(horizon, 4)

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
        # the refinement stops once no float lies strictly inside its bracket
        rec = ef.detect_fate(
            ef.catalog_generator(1), ef.max_entangled(), 10.0, grid_points=40, refine_tol=1e-300
        )
        assert rec.death_time == pytest.approx(np.log(3.0), abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 9: the scan misses a separable stretch inside one grid step",
    )
    @pytest.mark.parametrize(
        "index, revival", [(3015, 0.191332058), (3258, 0.134961499), (3288, 0.132927198)]
    )
    def test_class3_revival_inside_one_grid_step(self, index, revival):
        # det(T_B rho) has two roots inside one grid step of 0.075: the margin
        # rises above zero, by at most +9.3e-4, and falls back, so the sample
        # revives; at 400 points it is tagged asymptotically_entangled, and a
        # 6,000-point grid tags it revival
        rho0 = ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", ef.split_seed(3, index)))
        rec = ef.detect_fate(ef.catalog_generator(3), rho0, horizon=30.0)
        assert rec.fate_tag == "revival"
        assert len(rec.revival_times) == 1
        assert abs(rec.revival_times[0] - revival) <= DEFAULT_REFINE_TOL

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 9: the scan misses a separable stretch inside one grid step",
    )
    def test_random_generator_revival_inside_one_grid_step(self):
        # ROADMAP item 14's grid-independence case, criterion 6's generator
        # with its jumps scaled by 0.25: at 400 points the state dies once,
        # at 0.4330692; a 6,400-point grid also finds it separable for a
        # moment inside one grid step and entangled again from 0.2465112
        g = test_dynamics.random_generator(11, scale=0.25)
        rho0 = ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", ef.split_seed(11, 3)))
        rec = ef.detect_fate(g, rho0, horizon=20.0, grid_points=400)
        assert rec.fate_tag == "sudden_death"
        assert abs(rec.death_time - 0.4330696) <= DEFAULT_REFINE_TOL
        assert len(rec.revival_times) == 1
        assert abs(rec.revival_times[0] - 0.2465112) <= DEFAULT_REFINE_TOL


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
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n": True}, "n must be an integer >= 1, got True"),
            ({"n": 2.5}, "n must be an integer >= 1, got 2.5"),
            ({"n": 0}, "n must be an integer >= 1, got 0"),
            ({"workers": 0}, "workers must be an integer >= 1, got 0"),
            ({"workers": 2.5}, "workers must be an integer >= 1, got 2.5"),
            ({"workers": True}, "workers must be an integer >= 1, got True"),
        ],
        ids=["n-bool", "n-float", "n-zero", "workers-zero", "workers-float", "workers-bool"],
    )
    def test_counts_are_checked_before_sampling(self, monkeypatch, kwargs, message):
        # n=True used to run one sample and report n: True; workers=0 ran serially
        from entfate import dynamics

        def no_work(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(fate, "sample", no_work)
        monkeypatch.setattr(dynamics, "_flow", no_work)
        spec = ef.EnsembleSpec("haar_pure", seed=3)
        with pytest.raises(ValueError) as got:
            ef.fate_statistics(ef.catalog_generator(2), spec, horizon=5.0, **{"n": 3, **kwargs})
        assert str(got.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"horizon": -1.0}, "horizon must be positive and finite, got -1.0"),
            ({"grid_points": 1}, "grid_points must be an integer >= 2, got 1"),
            ({"refine_tol": np.nan}, "refine_tol must be positive and finite, got nan"),
            ({"tol": 0.0}, "tol must be positive and finite, got 0.0"),
        ],
        ids=["horizon", "grid_points", "refine_tol", "tol"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_and_tolerances_are_checked_before_any_work(
        self, monkeypatch, kwargs, message, workers
    ):
        # each used to be checked only inside a sample's detect_fate: a sample
        # was drawn first, and with workers > 1 a process pool was started
        import concurrent.futures

        def no_work(*args, **kwargs):
            raise AssertionError("a sample was drawn or a pool started")

        monkeypatch.setattr(fate, "sample", no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        spec = ef.EnsembleSpec("haar_pure", seed=3)
        run = {"n": 5, "horizon": 10.0, "workers": workers, **kwargs}
        with pytest.raises(ValueError) as got:
            ef.fate_statistics(ef.catalog_generator(2), spec, **run)
        assert str(got.value) == message

    def test_numpy_counts(self):
        g = ef.catalog_generator(2)
        spec = ef.EnsembleSpec("haar_pure", seed=3)
        want = ef.fate_statistics(g, spec, n=2, horizon=10.0, grid_points=50)
        got = ef.fate_statistics(g, spec, n=np.int64(2), horizon=10.0, grid_points=np.int32(50),
                                 workers=np.int8(1))
        assert got == want
        assert type(got[0].n) is int

    def test_nan_atol_fails_fast_on_a_nonautonomous_generator(self):
        # the RK45 solve with atol = nan never returned (killed after 25 s); a
        # child process turns a regression into a failure instead of a hung suite
        src = str(Path(ef.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import entfate as ef\n"
            "try:\n"
            "    ef.detect_fate(ef.catalog_generator(6), ef.max_entangled(), 5.0,\n"
            "                   opts=ef.SolverOptions(atol=float('nan')))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "atol must be positive and finite, got nan\n"

    def test_class2_dichotomy_at_equal_concurrence(self):
        g = ef.catalog_generator(2)
        spec = ef.EnsembleSpec("fixed_concurrence_pure", seed=7, target_concurrence=0.6)
        stats, records = ef.fate_statistics(g, spec, n=60, horizon=30.0)
        assert stats.failures == 0
        assert stats.counts["sudden_death"] > 0
        assert stats.counts["asymptotic_death"] > 0
        assert abs(sum(stats.fractions.values()) - 1.0) < 1e-12

    def test_class1_no_surviving_entanglement(self):
        g = ef.catalog_generator(1)
        spec = ef.EnsembleSpec("haar_pure", seed=11)
        stats, records = ef.fate_statistics(g, spec, n=50, horizon=20.0)
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
        _, r1 = ef.fate_statistics(g, spec, n=16, horizon=25.0, workers=1)
        _, r1b = ef.fate_statistics(g, spec, n=16, horizon=25.0, workers=1)
        _, r2 = ef.fate_statistics(g, spec, n=16, horizon=25.0, workers=2)
        assert r1 == r1b
        assert r1 == r2

    def test_samples_are_drawn_from_the_spec_seed(self):
        # the spec is the one seed: FateStats.ensemble is the spec that drew
        # the samples, and sample i is drawn at split_seed(spec.seed, i)
        g = ef.catalog_generator(2)
        spec = ef.EnsembleSpec("haar_pure", seed=7)
        stats, records = ef.fate_statistics(g, spec, n=3, horizon=10.0, grid_points=50)
        assert stats.ensemble == spec
        for i, rec in enumerate(records):
            rho0 = ef.sample(ef.EnsembleSpec("haar_pure", seed=ef.split_seed(7, i)))
            assert rec == ef.detect_fate(g, rho0, 10.0, grid_points=50)
        with pytest.raises(TypeError):
            ef.fate_statistics(g, ef.EnsembleSpec("haar_pure", seed=0), n=1, horizon=1.0, seed=7)

    def test_never_entangled_matches_ppt_fraction(self):
        # local (entanglement-non-creating) dynamics: the never_entangled
        # fraction equals the ensemble's PPT fraction
        g = ef.catalog_generator(2)
        spec = ef.EnsembleSpec("hilbert_schmidt_mixed", seed=33)
        n = 200
        stats, _ = ef.fate_statistics(g, spec, n=n, horizon=25.0)
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

    def test_run_builds_one_asymptotic_set(self, monkeypatch):
        from entfate import asymptotics

        builds = []
        build = asymptotics._quench_limit_set

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "_quench_limit_set", counting)
        g = ef.catalog_generator(6)
        spec = ef.EnsembleSpec("hilbert_schmidt_mixed", seed=5)
        opts = ef.SolverOptions(rtol=1e-7, atol=1e-10)
        stats, records = ef.fate_statistics(g, spec, n=12, horizon=12.0, grid_points=200, opts=opts)
        # every sample reads its limit, from the one set
        assert stats.failures == 0
        assert len(builds) == 1 and builds[0][0] is g

    def test_samples_without_a_limit_fail_typed(self):
        # a Hamiltonian flow's margin oscillates forever: its Liouvillian has
        # peripheral eigenvalues, so no asymptotic set and no limit to tag a
        # sample by.  The 4 samples separable at the horizon were tagged
        # sudden_death from the scan, yet each is entangled again after it,
        # first at t = 10.08, 10.16, 10.25 and 12.53
        g = ef.make_generator(hamiltonian=np.kron(SX, SX) + 0.3 * np.kron(SZ, EYE2))
        spec = ef.EnsembleSpec("hilbert_schmidt_mixed", seed=1)
        stats, records = ef.fate_statistics(g, spec, n=20, horizon=10.0)
        assert stats.failure_reasons == {"OscillatoryAsymptotics": 20}
        assert sum(stats.counts.values()) == 0
        assert all(r.startswith("OscillatoryAsymptotics: non-kernel peripheral") for r in records)
        separable = []
        for i in range(20):
            rho0 = ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=ef.split_seed(1, i)))
            traj = ef.propagate(g, rho0, fate.fate_grid(10.0, fate.DEFAULT_GRID_POINTS))
            if traj.margins[-1] >= -TOL:
                separable.append(i)
                later = ef.propagate(g, rho0, fate.fate_grid(13.0, 1300))
                assert later.margins[1001:].min() < -TOL
        assert len(separable) == 4

    def test_a_generator_without_a_set_fails_before_any_grid_eigensolve(self, monkeypatch):
        g = ef.make_generator(hamiltonian=np.kron(SX, SX) + 0.3 * np.kron(SZ, EYE2))
        traj = ef.propagate(g, ef.max_entangled(), fate.fate_grid(10.0, 40))
        sizes = count_eigensolved(monkeypatch)
        with pytest.raises(ef.OscillatoryAsymptotics):
            ef.fate_of_trajectory(traj)
        assert sizes == []

    def test_a_missing_set_fails_once_per_run(self, monkeypatch):
        # dephasing quenched at two rates is not a single-rate quench, and its
        # propagator has not converged by asymptotic_set's horizon of 60
        from entfate import asymptotics

        builds = []
        build = asymptotics.asymptotic_set_nonautonomous

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "asymptotic_set_nonautonomous", counting)
        fate._limit_set.cache_clear()
        g = ef.make_generator(jumps=[
            (np.kron(SZ, EYE2), ef.ExponentialRate(0.02, tau=200.0)),
            (np.kron(EYE2, SZ), ef.ExponentialRate(0.02, tau=300.0)),
        ])
        spec = ef.EnsembleSpec("haar_pure", seed=4)
        stats, records = ef.fate_statistics(g, spec, n=6, horizon=10.0)
        assert stats.failure_reasons == {"NotConverged": 6}
        assert len(builds) == 1  # one build for the six samples, each reading the limit
        # each raise of the kept error carries its own frames, not the build's
        # nor an earlier sample's
        traj = ef.propagate(g, ef.basis_state(0, 0), fate.fate_grid(1.0, 4))
        for _ in range(2):
            with pytest.raises(ef.NotConverged) as info:
                fate._limit_margin(traj)
            assert info.traceback[-1].name == "_limit_margin"
            assert len(info.traceback) == 2
        assert len(builds) == 1

    def test_failed_samples_keep_no_frames(self):
        # a kept traceback holds the failed sample's frames and its trajectory:
        # with them, a run of 300 samples at this horizon (288 HorizonTooShort)
        # had a tracemalloc peak of 60 MB, against 17.5 MB without them
        g = ef.catalog_generator(1)
        spec = ef.EnsembleSpec("haar_pure", seed=1)
        exc = fate._fate_task(g, spec, 0.3, 400, DEFAULT_REFINE_TOL, DEFAULT_FATE_TOL,
                              ef.SolverOptions(), 0)
        assert isinstance(exc, HorizonTooShort) and exc.__traceback__ is None

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

    def test_non_finite_maps_fail_every_sample_typed(self):
        # this L overflows, so its maps are NaN; such a run ended in numpy's LinAlgError
        g = ef.make_generator(jumps=[(10.0 * np.kron(SMINUS, EYE2), 1e308)])
        spec = ef.EnsembleSpec("haar_pure", seed=0)
        stats, records = ef.fate_statistics(g, spec, n=3, horizon=5.0, grid_points=21)
        assert stats.failure_reasons == {"StepFailure": 3}
        assert all(r.startswith("StepFailure: trace-preservation residual nan") for r in records)
        # at rate 1e305, whose maps overflowed under the expm they replaced, each
        # state reaches |0><0| ⊗ tr_1 rho0 in one step, on the separable boundary
        g = ef.make_generator(jumps=[(np.kron(SMINUS, EYE2), 1e305)])
        stats, records = ef.fate_statistics(g, spec, n=3, horizon=5.0, grid_points=21)
        assert stats.failure_reasons == {}
        assert [r.fate_tag for r in records] == ["asymptotic_death"] * 3
        assert all(abs(r.final_margin) <= 1e-12 for r in records)

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
        rec = ef.fate_of_trajectory(ef.propagate(g, ef.basis_state(0, 1), [0.0]))
        assert rec.fate_tag == "never_entangled"
        assert rec.birth_time is None and rec.death_time is None and not rec.revival_times
        # an entangled start whose limit, I/4, is separable
        with pytest.raises(HorizonTooShort, match=r"-5\.000e-01 .*\(limit margin 2\.500e-01\)"):
            ef.fate_of_trajectory(ef.propagate(g, ef.max_entangled(), [0.0]))


def werner_of_margin(m):
    """The Werner state w |Bell><Bell| + (1 - w) I/4, whose PT margin
    (1 - 3w)/4 is m, for m in [-1/2, 1/4]."""
    w = (1.0 - 4.0 * m) / 3.0
    return ef.new_state(w * ef.max_entangled().matrix + (1.0 - w) * np.eye(4) / 4.0)


def reset_generator(sigma):
    """The generator L(rho) = tr(rho) sigma - rho, from the jumps
    sqrt(p_i) |v_i><v_j| of sigma's eigenbasis; its asymptotic set is sigma."""
    p, v = np.linalg.eigh(sigma.matrix)
    p = np.clip(p, 0.0, None)
    jumps = [np.sqrt(p[i]) * np.outer(v[:, i], v[:, j].conj()) for i in range(4) for j in range(4)]
    return ef.make_generator(jumps=[(op, 1.0) for op in jumps])


class MarginTrajectory:
    """A duck-typed trajectory whose PT margin follows m(t): its grid
    margins are m at the grid times, ``matrices`` is the stack of their
    Werner states, ``state_at(t)`` is the Werner state of margin m(t), and
    its ``generator`` resets every state to the Werner state of the final
    margin, its limit."""

    opts = ef.SolverOptions()

    def __init__(self, m, times):
        self.m = m
        self.times = tuple(times)
        self.margins = np.array([m(t) for t in self.times])
        self.matrices = np.array([werner_of_margin(v).matrix for v in self.margins])
        self.initial = werner_of_margin(self.margins[0])
        self.generator = reset_generator(werner_of_margin(self.margins[-1]))

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


def scan_oracle(margins, tol, floor):
    """The per-index loops that the numpy scans replaced: the intervals
    (i - 1, i) of one subdivision pass, then the definite sign events of
    the margins, as (direction, lo, hi) index pairs, and the first index
    below -tol."""
    split = []
    for i in range(1, len(margins)):
        near = (
            floor < abs(margins[i - 1]) < 10.0 * tol
            and floor < abs(margins[i]) < 10.0 * tol
        )
        if near:
            slope_in = margins[i - 1] - margins[i - 2] if i >= 2 else 0.0
            slope_out = margins[i + 1] - margins[i] if i + 1 < len(margins) else 0.0
            extremum_risk = slope_in * slope_out < 0.0
            if extremum_risk or np.sign(margins[i - 1]) != np.sign(margins[i]):
                split.append(i)
    events = []
    first_ent = None
    state = 0
    last_idx = 0
    for i, m in enumerate(margins):
        cur = -1 if m < -tol else (+1 if m > tol else 0)
        if cur != 0:
            if state != 0 and cur != state:
                events.append((cur, last_idx, i))
            if cur < 0 and first_ent is None:
                first_ent = i
            state = cur
            last_idx = i
    return split, events, first_ent


def bisect_oracle(traj, t_lo, t_hi, on_lo_side, refine_tol):
    """The bisection that ITP replaced."""
    while t_hi - t_lo > refine_tol:
        t_mid = 0.5 * (t_lo + t_hi)
        if not t_lo < t_mid < t_hi:
            break
        if on_lo_side(min_pt_eigenvalue(traj.state_at(t_mid))):
            t_lo = t_mid
        else:
            t_hi = t_mid
    return 0.5 * (t_lo + t_hi)


class CountingTrajectory(MarginTrajectory):
    """A MarginTrajectory that counts its off-grid evaluations."""

    def __init__(self, m, times):
        super().__init__(m, times)
        self.evaluations = 0

    def state_at(self, t):
        self.evaluations += 1
        return super().state_at(t)


TOL = DEFAULT_FATE_TOL
# margins near +-tol, +-10 tol and the noise floor, where the scans branch
NEAR_ZERO = st.sampled_from(
    [0.0, 1e-12, -1e-12, 1e-9, -1e-9, TOL, -TOL, 2 * TOL, -2 * TOL, 5 * TOL, -5 * TOL,
     9.99 * TOL, -9.99 * TOL, 10 * TOL, -10 * TOL, 20 * TOL, -20 * TOL, np.nan]
)


class TestRefinement:
    """The numpy scans and the ITP refinement."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        margins=st.lists(
            st.one_of(NEAR_ZERO, st.floats(-0.5, 0.25), st.floats(-20 * TOL, 20 * TOL)),
            min_size=1, max_size=40,
        ),
        floor=st.sampled_from([0.0, 1e-10, 1e-8]),
    )
    def test_numpy_scans_match_the_per_index_loops(self, margins, floor):
        split, events, first_ent = scan_oracle(margins, TOL, floor)
        got_split = fate._near_tangential(np.array(margins), TOL, floor)
        assert got_split.tolist() == split
        assert fate._sign_events(np.array(margins), TOL) == (events, first_ent)

    def test_scans_see_near_tangential_sequences(self):
        # a dip to just below -tol and back, grazing zero between grid times
        margins = np.array([3e-7, 1.5e-7, -1.2e-7, -1.1e-7, 1.4e-7, 3e-7])
        split, events, first_ent = scan_oracle(margins.tolist(), TOL, 1e-10)
        assert split == [2, 3, 4] and first_ent == 2
        assert fate._near_tangential(margins, TOL, 1e-10).tolist() == split
        assert fate._sign_events(margins, TOL) == (events, first_ent)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        root=st.floats(0.001, 0.999),
        power=st.floats(0.2, 5.0),
        direction=st.sampled_from([1.0, -1.0]),
        refine_tol=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
    )
    def test_itp_takes_at_most_one_evaluation_more_than_bisection(
        self, root, power, direction, refine_tol
    ):
        # a margin crossing zero once in (0, 1), as |t - root|^power
        def m(t):
            u = t - root
            return direction * 0.2 * np.sign(u) * abs(u) ** power

        on_lo_side = lambda v: direction * v < 0.0
        itp, bisect = CountingTrajectory(m, [0.0, 1.0]), CountingTrajectory(m, [0.0, 1.0])
        m_lo, m_hi = itp.margins
        t_itp = fate._itp(itp, 0.0, m_lo, 1.0, m_hi, 0.0, on_lo_side, refine_tol)
        t_bisect = bisect_oracle(bisect, 0.0, 1.0, on_lo_side, refine_tol)
        assert itp.evaluations <= bisect.evaluations + 1
        # both brackets hold the crossing up to the margins' round-off
        slack = refine_tol / 2 + (1e-15 / 0.2) ** (1 / power)
        assert abs(t_itp - root) <= slack and abs(t_bisect - root) <= slack

    def test_fate_refines_a_death_in_fewer_evaluations(self):
        # the Werner margin (1 - 3 e^-t)/4 of a depolarized Bell state, dead at ln 3
        werner = lambda t: (1.0 - 3.0 * np.exp(-t)) / 4.0
        traj = CountingTrajectory(werner, np.linspace(0.0, 10.0, 41))
        rec = ef.fate_of_trajectory(traj)
        lo = int(np.log(3.0) / 0.25)
        bisect = CountingTrajectory(werner, traj.times)
        bisect_oracle(bisect, traj.times[lo], traj.times[lo + 1],
                      lambda v: v < 0.0, DEFAULT_REFINE_TOL)
        assert abs(rec.death_time - np.log(3.0)) <= DEFAULT_REFINE_TOL
        assert 2 * traj.evaluations < bisect.evaluations == 18


def oracle_fate(traj, refine_tol=DEFAULT_REFINE_TOL, tol=DEFAULT_FATE_TOL):
    """The scan that eigensolved every grid state: ``fate_of_trajectory``
    reading ``traj.margins``."""
    _, limit = fate._limit_margin(traj)
    times = np.asarray(traj.times)
    margins = np.asarray(traj.margins)
    split = fate._near_tangential(margins, tol, 100.0 * traj.opts.atol)
    if split.size:
        mids = 0.5 * (times[split - 1] + times[split])
        times = np.insert(times, split, mids)
        margins = np.insert(margins, split, [fate._margin_at(traj, t) for t in mids.tolist()])
    events, first_ent = fate._sign_events(margins, tol)
    times, margins = times.tolist(), margins.tolist()
    final_margin = margins[-1]

    def crossing(lo, hi, level, on_lo_side):
        return fate._itp(traj, times[lo], margins[lo], times[hi], margins[hi], level,
                         on_lo_side, refine_tol)

    refine = lambda e: crossing(e[1], e[2], 0.0, lambda m: e[0] * m < 0.0)
    birth_time = death_time = None
    if events and events[0][0] < 0:
        birth_time = refine(events[0])
    elif first_ent:
        birth_time = crossing(first_ent - 1, first_ent, -tol, lambda m: not m < -tol)
    if events and events[-1][0] > 0:
        death_time = refine(events[-1])
    revival_times = tuple(refine(e) for e in events[1:] if e[0] < 0)
    if final_margin < -tol:
        if abs(limit) <= 10.0 * tol:
            tag = "asymptotic_death"
        elif limit < -tol and abs(limit - final_margin) <= 0.1 * abs(limit):
            tag = "revival" if revival_times else "asymptotically_entangled"
        else:
            raise HorizonTooShort(
                f"margin {final_margin:.3e} still trending at horizon "
                f"(limit margin {limit:.3e})"
            )
    elif limit < -10.0 * tol:
        raise HorizonTooShort(
            f"margin {final_margin:.3e} not entangled at horizon (limit margin {limit:.3e})"
        )
    elif first_ent is not None:
        tag = "sudden_death" if death_time is not None else "asymptotic_death"
    else:
        tag = "never_entangled"
    return fate.FateRecord(ef.concurrence(traj.initial), death_time, birth_time,
                           revival_times, final_margin, tag)


def outcome(scan, traj):
    """A scan's FateRecord, or its error's type and message."""
    try:
        return scan(traj)
    except HorizonTooShort as exc:
        return type(exc), str(exc)


# the fates workloads' grids and solver options: (horizon, grid points, opts)
WORKLOAD_GRIDS = {
    "damping": (30.0, 400, ef.SolverOptions()),
    "quench": (12.0, 200, ef.SolverOptions(rtol=1e-7, atol=1e-10)),
}


@pytest.fixture(scope="module")
def workload_trajectories():
    """50 samples of each catalog class on each fates workload's grid:
    class 2 from pure states with C = 0.6, as the damping workload draws
    them, and every other class from Hilbert-Schmidt states."""
    trajs = []
    for class_id in range(1, 7):
        g = ef.catalog_generator(class_id)
        for name, (horizon, points, opts) in WORKLOAD_GRIDS.items():
            for i in range(50):
                seed = ef.split_seed(100 + class_id, i)
                spec = (ef.EnsembleSpec("fixed_concurrence_pure", seed, 0.6) if class_id == 2
                        else ef.EnsembleSpec("hilbert_schmidt_mixed", seed=seed))
                traj = ef.propagate(g, ef.sample(spec), fate.fate_grid(horizon, points), opts)
                trajs.append((class_id, name, traj))
    return trajs


class WernerTrajectory(MarginTrajectory):
    """A MarginTrajectory whose grid margins are eigensolved from its Werner
    stack, as a propagated trajectory's are."""

    def __init__(self, m, times):
        super().__init__(m, times)
        self.margins = min_pt_eigenvalues(self.matrices)


def flat_after(m_start, m_final, t_flat=5.0):
    """A margin moving linearly from m_start to m_final by t_flat, then flat."""
    return lambda t: m_start + (m_final - m_start) * min(t / t_flat, 1.0)


def count_eigensolved(monkeypatch):
    """Rebind ``fate.min_pt_eigenvalues`` to record the size of each stack
    it receives; the list of sizes."""
    sizes = []
    solve = fate.min_pt_eigenvalues

    def counting(matrices):
        sizes.append(len(matrices))
        return solve(matrices)

    monkeypatch.setattr(fate, "min_pt_eigenvalues", counting)
    return sizes


def bound_mask(monkeypatch, traj):
    """The grid states that ``_grid_margins`` gives a bound rather than an
    eigenvalue: it runs, at the trajectory's limit, with every eigensolved
    stack read as NaN.  (A bound may equal the state's eigenvalue to the
    last bit, as on class 5's dephased tail, so comparing values would miss
    it.)"""
    anchor = fate._limit_margin(traj)
    with monkeypatch.context() as patch:
        patch.setattr(fate, "min_pt_eigenvalues", lambda ms: np.full(len(ms), np.nan))
        return ~np.isnan(fate._grid_margins(traj, TOL, *anchor))


class TestCertifiedMargins:
    """Grid states that Weyl's bound places beyond 10 tol skip the eigensolve."""

    def test_certified_states_lie_beyond_ten_tol_on_the_limits_side(self, monkeypatch,
                                                                    workload_trajectories):
        covered = {}
        for class_id, _, traj in workload_trajectories:
            anchor = fate._limit_margin(traj)
            margins, exact = fate._grid_margins(traj, TOL, *anchor), traj.margins
            bounded = bound_mask(monkeypatch, traj)
            side = np.sign(anchor[1])
            assert np.all(side * exact[bounded] > 10.0 * TOL)
            # a stand-in is the Weyl bound, between m∞'s side of 10 tol and the margin
            assert np.all(side * margins[bounded] > 10.0 * TOL)
            assert np.all(side * margins[bounded] <= side * exact[bounded] + 1e-15)
            assert np.array_equal(margins[~bounded], exact[~bounded])
            covered.setdefault(class_id, []).append(bounded.mean())
        # class 2's limit lies on the boundary of S, where nothing is certified
        assert max(covered[2]) == 0.0
        assert all(np.mean(covered[k]) > 0.9 for k in (1, 3, 4, 5, 6))

    def test_every_bound_lies_between_two_states_beyond_ten_tol(self, monkeypatch,
                                                                  workload_trajectories):
        # so no bound is next to an undecided or opposite-side state, as
        # every bracket end is: the ends of a sign change are eigensolved
        for _, _, traj in workload_trajectories:
            bounded, exact = bound_mask(monkeypatch, traj), traj.margins
            assert not bounded[0] and not bounded[-1]
            inner, side = np.flatnonzero(bounded), np.sign(fate._limit_margin(traj)[1])
            for k in (inner - 1, inner, inner + 1):
                assert np.all(side * exact[k] > 10.0 * TOL)

    def test_sign_changes_next_to_placed_states_read_exact_ends(self, monkeypatch):
        # margin 0.2 but for a dip to -0.2 at t = 5, and its limit is its last
        # state: the Weyl bound places the states of margin above about 0.027,
        # so those at t = 4.4 and 5.6, which end the birth's and the death's
        # brackets beside the undecided states at t = 4.5 and 5.5, are placed
        # with a placed state on one side only
        traj = WernerTrajectory(lambda t: 0.2 - 0.4 * max(0.0, 1.0 - abs(t - 5.0)),
                                np.linspace(0.0, 10.0, 101))
        bounded = bound_mask(monkeypatch, traj)
        assert bounded[1:44].all() and bounded[57:-1].all()
        assert not bounded[44:57].any()
        got = ef.fate_of_trajectory(traj)
        assert got == oracle_fate(traj) and got.fate_tag == "sudden_death"

    def test_records_equal_the_full_eigensolve_scan(self, workload_trajectories):
        for _, _, traj in workload_trajectories:
            assert outcome(ef.fate_of_trajectory, traj) == outcome(oracle_fate, traj)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["separable", "entangled"])
    @pytest.mark.parametrize("guards, certified", [(0.5, False), (2.0, True)],
                             ids=["inside", "just-outside"])
    def test_final_margin_at_the_band_edge(self, monkeypatch, sign, guards, certified):
        m_final = sign * (10.0 * TOL + guards * fate._WEYL_GUARD)
        traj = WernerTrajectory(flat_after(-sign * 0.2, m_final), np.linspace(0.0, 10.0, 101))
        sizes = count_eigensolved(monkeypatch)
        got = ef.fate_of_trajectory(traj)
        assert got == oracle_fate(traj)
        assert got.fate_tag == ("sudden_death" if sign > 0 else "asymptotically_entangled")
        # the limit, its last state, then one stack: the flat tail, t >= 5, is
        # certified only outside the band, but for its first and final states
        assert sizes[:2] == ([1, 52] if certified else [1, 101])

    @pytest.mark.parametrize(
        "class_id, rho0, horizon, tag",
        [
            (3, ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=0)), 30.0, "revival"),
            # |01> is on the boundary of S: born entangled from an undecided start
            (3, ef.basis_state(0, 1), 30.0, "asymptotically_entangled"),
        ],
        ids=["class3-revival", "class3-undecided-birth"],
    )
    def test_planted_fates(self, class_id, rho0, horizon, tag):
        traj = ef.propagate(ef.catalog_generator(class_id), rho0, fate.fate_grid(horizon, 400))
        got = ef.fate_of_trajectory(traj)
        assert got == oracle_fate(traj) and got.fate_tag == tag
        assert got.revival_times if tag == "revival" else got.birth_time is not None

    @pytest.mark.parametrize(
        "class_id, params, rho0, horizon, message",
        [
            (3, {}, ef.basis_state(0, 1), 0.5, "still trending at horizon"),
            # entangled at the horizon, its tail far from geometric; its limit I/4 is separable
            (1, {"gamma": 0.02},
             ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=ef.split_seed(5, 26))),
             30.0, "(limit margin 2.500e-01)"),
        ],
        ids=["trending", "wild"],
    )
    def test_horizon_too_short_tails(self, class_id, params, rho0, horizon, message):
        g = ef.catalog_generator(class_id, **params)
        traj = ef.propagate(g, rho0, fate.fate_grid(horizon, 400))
        got = outcome(ef.fate_of_trajectory, traj)
        assert got == outcome(oracle_fate, traj)
        assert got[0] is HorizonTooShort and message in got[1]

    def test_quench_chunk_eigensolves_the_limit_and_four_grid_states(self, monkeypatch):
        # fates_quench chunk 0 at seed 3: the limit P∞ρ₀, then one stack of
        # the two states nearest t = 0 that the bound does not place, the
        # state next to them, which it places with one neighbor it does not,
        # and the final state, which is never bounded
        horizon, points, opts = WORKLOAD_GRIDS["quench"]
        g = ef.catalog_generator(6)
        sizes = count_eigensolved(monkeypatch)
        chunk_seed, per_trajectory = ef.split_seed(3, 0), []
        for i in range(8):
            spec = ef.EnsembleSpec("hilbert_schmidt_mixed", seed=ef.split_seed(chunk_seed, i))
            sizes.clear()
            ef.detect_fate(g, ef.sample(spec), horizon, points, opts=opts)
            per_trajectory.append(list(sizes))
        assert per_trajectory == [[1, 4]] * 8

    def test_damping_trajectory_eigensolves_every_grid_state(self, monkeypatch):
        horizon, points, opts = WORKLOAD_GRIDS["damping"]
        spec = ef.EnsembleSpec("fixed_concurrence_pure", ef.split_seed(ef.split_seed(3, 0), 0), 0.6)
        sizes = count_eigensolved(monkeypatch)
        rec = ef.detect_fate(ef.catalog_generator(2), ef.sample(spec), horizon, points, opts=opts)
        # the limit, on the boundary of S, places nothing: one stack of every grid state
        assert sizes == [1, points + 1]
        assert abs(rec.final_margin) <= 10.0 * TOL + fate._WEYL_GUARD


HS_STARTS = [ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=ef.split_seed(26, i)))
             for i in range(5)]


class TestLimitMargin:
    """m∞, the margin of the limit P∞ρ₀, against its closed form on each
    catalog class."""

    @pytest.mark.parametrize(
        "class_id, starts, limit",
        [
            (1, [ef.max_entangled(), *HS_STARTS], lambda rho: 0.25),  # I/4
            (2, [ef.max_entangled(), *HS_STARTS], lambda rho: 0.0),  # |00>
            (3, [ef.max_entangled(), *HS_STARTS], lambda rho: -0.5),  # Phi+
            # c = 2: the Werner state of weight e^-2
            (4, [ef.max_entangled()], lambda rho: (1.0 - 3.0 * np.exp(-2.0)) / 4.0),
            # the diagonal of rho0, which is its own partial transpose
            (5, HS_STARTS, lambda rho: np.diagonal(rho.matrix).real.min()),
            (6, [ef.max_entangled()], lambda rho: -0.5),  # Phi+ is fixed
        ],
        ids=["class1", "class2", "class3", "class4", "class5", "class6"],
    )
    def test_closed_forms(self, class_id, starts, limit):
        g = ef.catalog_generator(class_id)
        for rho0 in starts:
            anchor, got = fate._limit_margin(ef.propagate(g, rho0, [0.0]))
            assert abs(got - limit(rho0)) <= 1e-12
            # the anchor is Hermitian to round-off, far inside the Weyl guard
            assert np.max(np.abs(anchor - anchor.conj().T)) <= 1e-15

    def test_every_tag_lies_in_the_band_its_limit_allows(self, workload_trajectories):
        # a tag that ends entangled needs m∞ below -10 tol, and every other
        # tag needs m∞ at or above it; an entangled end tagged asymptotic_death
        # needs m∞ within 10 tol of zero
        tags = set()
        for _, _, traj in workload_trajectories:
            m_limit = fate._limit_margin(traj)[1]
            rec = ef.fate_of_trajectory(traj)
            tags.add(rec.fate_tag)
            entangled = rec.fate_tag in ("asymptotically_entangled", "revival")
            assert entangled == (m_limit < -10.0 * TOL)
            if rec.fate_tag == "asymptotic_death" and rec.final_margin < -TOL:
                assert abs(m_limit) <= 10.0 * TOL
        assert tags == set(fate.FATE_TAGS)
