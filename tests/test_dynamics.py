import os
import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import entfate as ef
from entfate.dynamics import (
    PSD_REPAIR,
    ConstantRate,
    ExponentialRate,
    _repair_states,
    apply_map,
    liouvillian_matrix,
    make_generator,
    unvec,
    vec,
)
from entfate.errors import PositivityLost, StepFailure
from entfate.operators import EYE2, SMINUS, SX

GAMMA = 1.0


def random_generator(seed, n_jumps=2):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (z + z.conj().T)
    jumps = []
    for _ in range(n_jumps):
        l = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        jumps.append((0.5 * l, ConstantRate(rng.uniform(0.2, 1.0))))
    return make_generator((2, 2), hamiltonian=h, jumps=jumps)


def reference_liouvillian(g, t):
    """The Liouvillian assembled from Kronecker products at every call."""
    eye = np.eye(4)
    h = g.ham(t)
    lmat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for ch in g.jumps:
        gam = ch.rate(t)
        if gam == 0.0:
            continue
        lk = ch.operator
        lklk = lk.conj().T @ lk
        lmat += gam * (
            np.kron(lk.conj(), lk)
            - 0.5 * np.kron(eye, lklk)
            - 0.5 * np.kron(lklk.T, eye)
        )
    return lmat


def reference_repair_state(m):
    """The per-state repair that the stacked one replaced (returning the
    matrix, where it returned a QState)."""
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
    return m


def reference_margins(ms):
    """The per-state PT margin loop that the stacked margins replaced."""
    out = []
    for m in ms:
        pt = np.ascontiguousarray(m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4))
        out.append(float(np.linalg.eigvalsh(pt)[0]))
    return out


def propagated_like(rng, kind):
    """A 4x4 matrix as a propagator leaves it: a density matrix that is
    Hermitian, of trace 1 and PSD only up to round-off.  ``pure`` states
    have three eigenvalues at round-off level; ``clipped`` ones have their
    lowest eigenvalue in [-1e-9, 0), so the repair clips them."""
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    if kind == "pure":
        m = np.outer(z[:, 0], z[:, 0].conj())
    else:
        m = z @ z.conj().T
    m /= np.trace(m).real
    if kind == "clipped":
        w, v = np.linalg.eigh(m)
        w[0] = -rng.uniform(1e-12, 0.9e-9)
        w[1:] *= (1.0 - w[0]) / w[1:].sum()
        m = (v * w) @ v.conj().T
    m = m + 1e-14 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    m *= 1.0 + 1e-11 * rng.normal()
    if kind == "clipped":
        assert np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] < 0.0
    return m


def random_state(seed):
    return ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=seed))


def amplitude_damp_kraus(p):
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return [e0, e1]


def damped_two_qubit(rho, t, gamma=GAMMA):
    """Closed-form Kraus composition of independent amplitude damping."""
    p = 1.0 - np.exp(-gamma * t)
    out = np.zeros_like(rho)
    for ka in amplitude_damp_kraus(p):
        for kb in amplitude_damp_kraus(p):
            k = np.kron(ka, kb)
            out += k @ rho @ k.conj().T
    return out


class TestMakeGenerator:
    def test_rejects_nonhermitian_hamiltonian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            make_generator((2, 2), hamiltonian=m)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="negative rate"):
            make_generator((2, 2), jumps=[(np.kron(SMINUS, EYE2), ConstantRate(-1.0))])

    def test_rejects_inconsistent_autonomy(self):
        with pytest.raises(ValueError, match="autonomous"):
            make_generator(
                (2, 2),
                jumps=[(np.kron(SMINUS, EYE2), ExponentialRate(1.0))],
                autonomous=True,
            )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"hamiltonian": np.diag([0.0, np.nan, 0.0, 0.0])}, "hamiltonian has a non-finite"),
            ({"hamiltonian": lambda t: np.diag([0.0, 0.0, np.inf if t > 5 else 1.0, 0.0])},
             "hamiltonian has a non-finite entry at t=10"),
            ({"jumps": [(np.diag([np.inf, 0.0, 0.0, 0.0]), 1.0)]}, "jump operator has a non-finite"),
            ({"jumps": [(np.kron(SMINUS, EYE2), np.nan)]}, "non-finite rate"),
            ({"jumps": [(np.kron(SMINUS, EYE2), ExponentialRate(np.inf))]}, "non-finite rate"),
            ({"jumps": [(np.kron(SMINUS, EYE2), lambda t: np.nan if t == 1.0 else 1.0)]},
             "non-finite rate nan at t=1"),
        ],
        ids=["nan-hamiltonian", "inf-hamiltonian-at-t", "inf-operator", "nan-rate",
             "inf-amplitude", "nan-rate-at-t"],
    )
    def test_rejects_non_finite_input(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            make_generator((2, 2), **kwargs)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan])
    def test_exponential_rate_needs_positive_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be positive"):
            ExponentialRate(1.0, tau)

    def test_autonomy_autodetected(self):
        g = make_generator((2, 2), jumps=[(np.kron(SMINUS, EYE2), ConstantRate(1.0))])
        assert g.autonomous
        g = make_generator((2, 2), jumps=[(np.kron(SMINUS, EYE2), ExponentialRate(1.0))])
        assert not g.autonomous

    def test_equality_is_identity_and_hashable(self):
        g, h = ef.catalog_generator(2), ef.catalog_generator(2)
        assert g == g and g != h
        assert {g: 1, h: 2}[g] == 1
        assert g.jumps[0] == g.jumps[0] and g.jumps[0] != h.jumps[0]
        assert len({*g.jumps, *h.jumps}) == 4


class TestLiouvillianMatrix:
    def test_trivial_generator_is_zero(self):
        g = make_generator((2, 2))
        assert np.allclose(liouvillian_matrix(g, 0.0), 0.0)

    def test_trace_preservation_left_null_vector(self):
        for seed in range(10):
            g = random_generator(seed)
            lmat = liouvillian_matrix(g, 0.0)
            tr = vec(np.eye(4))
            assert np.max(np.abs(tr @ lmat)) < 1e-12

    def test_single_qubit_decay_populations(self):
        # d/dt of |10><10| under L=sigma-⊗I, gamma=1: +1 on |00><00|, -1 on |10><10|
        g = make_generator((2, 2), jumps=[(np.kron(SMINUS, EYE2), ConstantRate(1.0))])
        lmat = liouvillian_matrix(g, 0.0)
        rho10 = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        drho = unvec(lmat @ vec(rho10))
        assert abs(drho[0, 0] - 1.0) < 1e-14
        assert abs(drho[2, 2] + 1.0) < 1e-14
        assert np.max(np.abs(drho - np.diag([1.0, 0.0, -1.0, 0.0]))) < 1e-14


class TestCompiledGenerator:
    """liouvillian_matrix sums pieces compiled once per Generator."""

    TIMES = (0.0, 0.7, 5.0, 13.2, 1000.0)  # exp(-1000) rates are exactly 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["constant", "exponential", "zero"]), min_size=1, max_size=4),
        time_dependent_h=st.booleans(),
    )
    def test_matches_reference_formula(self, seed, kinds, time_dependent_h):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h0 = 0.5 * (z + z.conj().T)
        if time_dependent_h:
            h = lambda t: np.cos(t) * np.kron(SX, EYE2) + np.sin(t) * h0
        else:
            h = h0
        rates = {
            "constant": lambda: ConstantRate(rng.uniform(0.2, 1.0)),
            "exponential": lambda: ExponentialRate(rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0)),
            "zero": lambda: ConstantRate(0.0),
        }
        jumps = [
            (0.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))), rates[k]())
            for k in kinds
        ]
        g = make_generator((2, 2), hamiltonian=h, jumps=jumps)
        assert (g.hamiltonian_part is None) == time_dependent_h
        assert len(g.dissipators) == len(kinds)
        tr = vec(np.eye(4)).conj()
        for t in self.TIMES:
            lmat = liouvillian_matrix(g, t)
            assert np.array_equal(lmat, reference_liouvillian(g, t))
            assert np.max(np.abs(tr @ lmat)) < 1e-12

    @pytest.mark.parametrize(
        "g",
        [make_generator((2, 2), hamiltonian=np.kron(SX, EYE2)), ef.catalog_generator(6)],
        ids=["hamiltonian_only", "class6"],
    )
    def test_result_is_fresh_and_pieces_read_only(self, g):
        pieces = [p for p in (g.hamiltonian_part, *g.dissipators) if p is not None]
        assert pieces
        for p in pieces:
            assert not p.flags.writeable
            with pytest.raises(ValueError):
                p[0, 0] = 1.0
        first = liouvillian_matrix(g, 0.7)
        assert first.flags.writeable
        first[:] = 7.0
        assert np.array_equal(liouvillian_matrix(g, 0.7), reference_liouvillian(g, 0.7))

    def test_unpickled_generator_is_compiled_again(self):
        g = ef.catalog_generator(4)
        g2 = pickle.loads(pickle.dumps(g))
        for p in (g2.hamiltonian_part, *g2.dissipators):
            assert not p.flags.writeable
        for t in self.TIMES:
            assert np.array_equal(liouvillian_matrix(g2, t), liouvillian_matrix(g, t))

    def test_propagation_builds_no_kronecker_products(self, monkeypatch):
        g = ef.catalog_generator(6)
        calls = []
        kron = np.kron

        def counting(*args, **kwargs):
            calls.append(args)
            return kron(*args, **kwargs)

        monkeypatch.setattr(np, "kron", counting)
        traj = ef.propagate(g, random_state(3), np.linspace(0.0, 12.0, 200))
        assert len(traj.states) == 200
        assert calls == []


class TestPropagate:
    def test_single_point_grid(self):
        g = random_generator(0)
        s = random_state(0)
        traj = ef.propagate(g, s, [0.0])
        assert traj.times == (0.0,)
        assert traj.states[0] is s

    def test_grid_must_start_at_zero(self):
        g = random_generator(0)
        with pytest.raises(ValueError):
            ef.propagate(g, random_state(0), [1.0, 2.0])

    def test_amplitude_damping_kraus_oracle(self):
        g = ef.catalog_generator(2, gamma=GAMMA)
        s0 = ef.max_entangled()
        grid = np.linspace(0.0, 5.0, 26)
        traj = ef.propagate(g, s0, grid)
        for t, st in zip(traj.times, traj.states):
            expected = damped_two_qubit(s0.matrix, t)
            assert np.max(np.abs(st.matrix - expected)) < 1e-9

    def test_damping_reaches_ground_state(self):
        g = ef.catalog_generator(2)
        traj = ef.propagate(g, ef.max_entangled(), np.linspace(0.0, 40.0, 41))
        assert ef.trace_distance(traj.states[-1], ef.basis_state(0, 0)) < 1e-6

    def test_adaptive_matches_exponential(self):
        grid = np.linspace(0.0, 3.0, 13)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ga = random_generator(seed)
            gn = make_generator(
                (2, 2),
                hamiltonian=ga.ham(0.0),
                jumps=[(ch.operator, ch.rate) for ch in ga.jumps],
                autonomous=False,
            )
            s = random_state(seed + 1000)
            ta = ef.propagate(ga, s, grid)
            tn = ef.propagate(gn, s, grid)
            for a, b in zip(ta.states, tn.states):
                assert ef.trace_distance(a, b) < 1e-6

    def test_trace_stays_one(self):
        g = random_generator(5)
        traj = ef.propagate(g, random_state(5), np.linspace(0.0, 10.0, 51))
        for st in traj.states:
            assert abs(np.trace(st.matrix).real - 1.0) < 1e-9

    def test_linearity(self):
        g = random_generator(9)
        a, b = random_state(10), random_state(11)
        alpha = 0.3
        mixed = ef.new_state(alpha * a.matrix + (1 - alpha) * b.matrix, 2, 2)
        grid = np.linspace(0.0, 4.0, 9)
        ta = ef.propagate(g, a, grid)
        tb = ef.propagate(g, b, grid)
        tm = ef.propagate(g, mixed, grid)
        for sa, sb, sm in zip(ta.states, tb.states, tm.states):
            combo = ef.new_state(alpha * sa.matrix + (1 - alpha) * sb.matrix, 2, 2)
            assert ef.trace_distance(sm, combo) < 1e-8

    def test_tolerance_consistency(self):
        g = make_generator(
            (2, 2),
            jumps=[(np.kron(SMINUS, EYE2), ExponentialRate(2.0))],
        )
        s = ef.max_entangled()
        coarse = ef.propagate(g, s, [0.0, 5.0], ef.SolverOptions(rtol=1e-6, atol=1e-9))
        fine = ef.propagate(g, s, [0.0, 5.0], ef.SolverOptions(rtol=5e-7, atol=1e-9))
        exact = ef.propagate(g, s, [0.0, 5.0], ef.SolverOptions(rtol=1e-12, atol=1e-14))
        err_coarse = ef.trace_distance(coarse.states[-1], exact.states[-1])
        err_fine = ef.trace_distance(fine.states[-1], exact.states[-1])
        assert err_fine <= max(err_coarse, 1e-12)


class TestPropagatorMatrix:
    def test_time_zero_identity(self):
        g = random_generator(1)
        assert np.array_equal(ef.propagator_matrix(g, 0.0), np.eye(16))

    def test_autonomous_is_exponential(self):
        g = random_generator(2)
        t = 1.7
        phi = ef.propagator_matrix(g, t)
        assert np.max(np.abs(phi - expm(liouvillian_matrix(g, 0.0) * t))) < 1e-10

    def test_consistent_with_propagate(self):
        g = make_generator(
            (2, 2),
            jumps=[(np.kron(SX, EYE2), ExponentialRate(1.5))],
        )
        t = 2.0
        phi = ef.propagator_matrix(g, t)
        for seed in range(5):
            s = random_state(seed)
            via_map = unvec(phi @ vec(s.matrix))
            traj = ef.propagate(g, s, [0.0, t])
            assert (
                0.5 * np.sum(np.abs(np.linalg.eigvalsh(via_map - traj.states[-1].matrix)))
                < 1e-8
            )

    def test_semigroup_property(self):
        for seed in range(5):
            g = random_generator(seed + 30)
            for s_t, t_t in ((0.1, 0.1), (0.1, 1.0), (1.0, 1.0)):
                lhs = ef.propagator_matrix(g, s_t + t_t)
                rhs = ef.propagator_matrix(g, s_t) @ ef.propagator_matrix(g, t_t)
                assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ef.propagator_matrix(random_generator(0), -1.0)
        # NaN fails both t < 0 and t > 0, and used to give the identity
        for t in (np.nan, np.inf):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                ef.propagator_matrix(ef.catalog_generator(2), t)


class TestOneFlow:
    """propagate, evolve_state and the propagator maps share one flow."""

    TIMES = (0.0, 0.5, 1.3, 2.0)

    def test_propagator_matrix_matches_multi_time_call_autonomous(self):
        g = random_generator(3)
        phis = ef.propagator_matrices(g, self.TIMES)
        assert len(phis) == len(self.TIMES)
        for t, phi in zip(self.TIMES, phis):
            assert np.max(np.abs(ef.propagator_matrix(g, t) - phi)) < 1e-12

    def test_propagator_matrix_matches_multi_time_call_nonautonomous(self):
        g = ef.catalog_generator(6)
        phis = ef.propagator_matrices(g, self.TIMES)
        assert np.array_equal(phis[0], np.eye(16))
        # the solve to the last time takes the very same steps
        assert np.max(np.abs(ef.propagator_matrix(g, self.TIMES[-1]) - phis[-1])) < 1e-12
        # earlier times end other step sequences: equal to the solver tolerance
        for t, phi in zip(self.TIMES[1:-1], phis[1:-1]):
            assert np.max(np.abs(ef.propagator_matrix(g, t) - phi)) < 1e-7

    def test_steps_equal_to_round_off_share_one_exponential(self, monkeypatch):
        from entfate import dynamics

        calls = []
        expm_ = dynamics.expm

        def counting(m):
            calls.append(m)
            return expm_(m)

        monkeypatch.setattr(dynamics, "expm", counting)
        g = ef.catalog_generator(2)
        lmat = liouvillian_matrix(g, 0.0)
        # the steps of these grids differ in their last bits
        for grid in (np.linspace(0.0, 30.0, 401), np.linspace(0.0, 12.0, 201)):
            assert len(set(np.diff(grid).tolist())) > 1
            before = len(calls)
            phis = ef.propagator_matrices(g, grid)
            assert len(calls) == before + 1
            for t, phi in zip(grid[::50], phis[::50]):
                assert np.max(np.abs(phi - expm_(lmat * t))) < 1e-10
        before = len(calls)
        ef.propagator_matrices(g, [0.0, 1.0, 2.0, 2.5, 3.0])
        assert len(calls) == before + 2

    def test_propagator_matrices_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            ef.propagator_matrices(random_generator(0), [0.5, 1.0])
        with pytest.raises(ValueError):
            ef.propagator_matrices(random_generator(0), [0.0, 1.0, 1.0])
        # np.diff(t) <= 0 is False for NaN; these grids ended in LinAlgError
        g = ef.catalog_generator(2)
        for grid in ([0.0, np.nan], [0.0, 1.0, np.inf]):
            with pytest.raises(ValueError, match="must be finite"):
                ef.propagator_matrices(g, grid)
            with pytest.raises(ValueError, match="must be finite"):
                ef.propagate(g, ef.max_entangled(), grid)

    def test_evolve_state_rejects_non_finite_times(self):
        g = ef.catalog_generator(2)
        for t_from, t_to in ((0.0, np.nan), (0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="must be finite"):
                ef.evolve_state(g, ef.max_entangled(), t_from, t_to)

    def test_nan_grid_fails_fast_on_a_nonautonomous_generator(self):
        # the RK45 solve over [0, nan] never returned; a child process
        # turns a regression into a failure instead of a hung suite
        src = str(Path(ef.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import entfate as ef\n"
            "try:\n"
            "    ef.propagate(ef.catalog_generator(6), ef.max_entangled(), [0.0, float('nan')])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "t_grid times must be finite" in proc.stdout

    @pytest.mark.parametrize("g", [random_generator(3), ef.catalog_generator(6)],
                             ids=["autonomous", "nonautonomous"])
    def test_evolve_state_restarts_a_trajectory(self, g):
        traj = ef.propagate(g, random_state(1), np.linspace(0.0, 2.0, 9))
        for i, j in ((0, 8), (2, 5), (3, 4), (7, 8)):
            st = ef.evolve_state(g, traj.states[i], traj.times[i], traj.times[j])
            assert np.max(np.abs(st.matrix - traj.states[j].matrix)) < 1e-9

    @pytest.mark.parametrize("g", [random_generator(3), ef.catalog_generator(6)],
                             ids=["autonomous", "nonautonomous"])
    def test_early_returns_are_exact(self, g):
        s = random_state(2)
        assert np.array_equal(ef.propagator_matrix(g, 0.0), np.eye(16))
        assert ef.evolve_state(g, s, 1.5, 1.5) is s
        traj = ef.propagate(g, s, [0.0])
        assert traj.times == (0.0,) and traj.states[0] is s


def count_propagator_stacks(monkeypatch):
    """Record every ``PropagatorSource`` that ``propagate`` builds, starting
    from an empty memo."""
    from entfate import dynamics

    calls = []
    original = dynamics.PropagatorSource

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dynamics, "PropagatorSource", counting)
    dynamics._grid_source.cache_clear()
    return calls


class TestGridPropagators:
    """propagate maps its state through the grid's propagator stack, which
    is computed once per generator, grid and options."""

    GRID = np.linspace(0.0, 3.0, 31)
    OPTS = ef.SolverOptions(rtol=1e-8, atol=1e-11)

    @pytest.mark.parametrize("g", [random_generator(3), ef.catalog_generator(6)],
                             ids=["autonomous", "nonautonomous"])
    def test_trajectory_is_the_repaired_stacked_product(self, g):
        s = random_state(6)
        traj = ef.propagate(g, s, self.GRID, self.OPTS)
        phis = ef.propagator_matrices(g, self.GRID, self.OPTS)
        assert phis.shape == (31, 16, 16) and not phis.flags.writeable
        raw = np.stack([phis[k] @ vec(s.matrix) for k in range(1, len(self.GRID))])
        assert np.array_equal(traj.matrices[0], s.matrix)
        assert np.array_equal(traj.matrices[1:], _repair_states(unvec(raw)))

    def test_stack_is_recomputed_only_when_its_key_changes(self, monkeypatch):
        from entfate import dynamics

        calls = count_propagator_stacks(monkeypatch)
        g, h = ef.catalog_generator(6), ef.catalog_generator(6)
        s = random_state(7)
        ef.propagate(g, s, self.GRID, self.OPTS)
        # an equal grid and equal options, as other objects, share the stack
        ef.propagate(g, random_state(8), list(self.GRID), ef.SolverOptions(rtol=1e-8, atol=1e-11))
        assert len(calls) == 1

        def cold(*args):
            dynamics._grid_source.cache_clear()
            return ef.propagate(*args).matrices

        loose = ef.SolverOptions(rtol=1e-7, atol=1e-10)
        coarse = np.linspace(0.0, 3.0, 21)
        for args in ((g, s, self.GRID, loose), (g, s, coarse, loose), (h, s, coarse, loose),
                     (g, s, self.GRID, self.OPTS)):
            before = len(calls)
            warm = ef.propagate(*args).matrices
            assert len(calls) == before + 1 and calls[-1][0] is args[0]
            assert np.array_equal(warm, cold(*args))

    def test_threads_alternating_generators_match_a_serial_run(self):
        # a reader that paired one generator with the other's maps would
        # return that generator's trajectory
        gens = (random_generator(3), ef.catalog_generator(6))
        states = [random_state(k) for k in range(6)]

        def run(first):
            out = []
            for _ in range(2):
                for k, s in enumerate(states):
                    traj = ef.propagate(gens[(first + k) % 2], s, self.GRID, self.OPTS)
                    out.append(traj.matrices)
                    out += [traj.state_at(t).matrix for t in (0.05, 1.37, 2.99)]
            return out

        serial = [run(0), run(1)]
        firsts = (0, 1, 0, 1)  # more threads than the two cores of a small host
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(firsts)) as pool:
                threaded = list(pool.map(run, firsts, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for first, got in zip(firsts, threaded):
            assert all(np.array_equal(a, b) for a, b in zip(serial[first], got, strict=True))


class TestPropagatorSource:
    """A trajectory's source gives its state at any time of its span: the
    grid state at a grid time, and between grid times the state that a
    flow restarted from the nearest earlier grid state reaches."""

    GRID = np.linspace(0.0, 3.0, 13)
    OFF_GRID = (0.01, 0.4, 1.3, 2.2, 2.999)

    @pytest.mark.parametrize("g", [random_generator(3), ef.catalog_generator(6)],
                             ids=["autonomous", "nonautonomous"])
    def test_state_at_a_grid_time_is_the_grid_state(self, g):
        traj = ef.propagate(g, random_state(1), self.GRID)
        for k, t in enumerate(traj.times):
            assert np.max(np.abs(traj.state_at(t).matrix - traj.matrices[k])) < 1e-12

    @pytest.mark.parametrize("g", [random_generator(3), ef.catalog_generator(6)],
                             ids=["autonomous", "nonautonomous"])
    def test_state_at_matches_a_restarted_flow(self, g):
        traj = ef.propagate(g, random_state(1), self.GRID)
        for t in self.OFF_GRID:
            i = int(np.searchsorted(self.GRID, t, side="right")) - 1
            restarted = ef.evolve_state(g, traj.state(i), traj.times[i], t)
            assert np.max(np.abs(traj.state_at(t).matrix - restarted.matrix)) < 1e-9

    @pytest.mark.parametrize("g", [random_generator(3), ef.catalog_generator(6)],
                             ids=["autonomous", "nonautonomous"])
    @pytest.mark.parametrize("t", [-1e-12, 3.0 + 1e-9, np.nan])
    def test_state_at_outside_the_span_raises(self, g, t):
        traj = ef.propagate(g, random_state(1), self.GRID)
        with pytest.raises(ValueError, match="outside the source's span"):
            traj.state_at(t)

    def test_only_grid_sources_keep_interpolants(self, monkeypatch):
        from entfate import dynamics

        dense = []
        solve_ivp = dynamics.solve_ivp

        def recording(*args, **kwargs):
            dense.append(kwargs.get("dense_output", False))
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", recording)
        dynamics._grid_source.cache_clear()
        g = ef.catalog_generator(6)
        ef.asymptotic_set(g)
        ef.asymptotic_set(ef.catalog_generator(4))
        ef.propagator_matrix(g, 2.0)
        ef.propagator_matrices(g, self.GRID)
        ef.evolve_state(g, random_state(1), 0.5, 2.0)
        assert len(dense) == 5 and not any(dense)
        ef.propagate(g, random_state(1), self.GRID)
        assert dense[5:] == [True]


class TestStackedTrajectory:
    """A trajectory is one read-only stack, repaired and measured in one
    stacked call each, with the outputs of the per-state loops."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["mixed", "pure", "clipped"]), min_size=1, max_size=50),
    )
    def test_stacked_repair_and_margins_match_per_state_loops(self, seed, kinds):
        rng = np.random.default_rng(seed)
        ms = np.stack([propagated_like(rng, k) for k in kinds])
        repaired = _repair_states(ms)
        assert not repaired.flags.writeable
        expected = np.stack([reference_repair_state(m) for m in ms])
        assert np.array_equal(repaired, expected)
        margins = ef.min_pt_eigenvalues(repaired)
        assert np.array_equal(margins, reference_margins(expected))

    @staticmethod
    def failing_stack(positivity_at, drift_at):
        rng = np.random.default_rng(5)
        ms = np.stack([propagated_like(rng, "mixed") for _ in range(8)])
        w, v = np.linalg.eigh(ms[positivity_at])
        w[0], w[1:] = -1e-6, w[1:] * (1.0 + 1e-6) / w[1:].sum()
        ms[positivity_at] = (v * w) @ v.conj().T
        ms[drift_at] *= 1.0 + 1e-6
        return ms

    @pytest.mark.parametrize(
        "positivity_at, drift_at, error",
        [(2, 5, PositivityLost), (5, 2, StepFailure)],
        ids=["positivity-first", "drift-first"],
    )
    def test_first_failure_in_grid_order_raises(self, positivity_at, drift_at, error):
        ms = self.failing_stack(positivity_at, drift_at)
        with pytest.raises(error) as got:
            _repair_states(ms)
        first = min(positivity_at, drift_at)
        with pytest.raises(error) as want:
            for m in ms[: first + 1]:
                reference_repair_state(m)
        assert str(got.value) == str(want.value)

    def test_propagate_makes_one_eigensolve(self, monkeypatch):
        from entfate import dynamics

        g = ef.catalog_generator(2)
        rho0 = ef.max_entangled()
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(args)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(dynamics.np.linalg, "eigh", counting)
        traj = ef.propagate(g, rho0, np.linspace(0.0, 30.0, 400))
        assert len(calls) == 1
        assert calls[0][0].shape == (399, 4, 4)
        assert traj.matrices.shape == (400, 4, 4)

    def test_stack_is_read_only_and_states_are_views(self, monkeypatch):
        from entfate import dynamics

        g = ef.catalog_generator(2)
        rho0 = random_state(4)
        opts = ef.SolverOptions(rtol=1e-8, atol=1e-11)
        traj = ef.propagate(g, rho0, np.linspace(0.0, 5.0, 21), opts)
        assert traj.generator is g and traj.opts is opts
        assert not traj.matrices.flags.writeable
        assert np.array_equal(traj.matrices[0], rho0.matrix)
        states = traj.states
        assert traj.states is states and states[0] is rho0 and len(states) == 21
        for k, s in enumerate(states):
            assert s.matrix.shape == (4, 4) and not s.matrix.flags.writeable
            assert np.array_equal(s.matrix, traj.matrices[k])
            assert np.array_equal(traj.state(k).matrix, s.matrix)
        assert traj.state(0) is rho0
        # the margins come from one stacked call, made on first use only
        calls = []

        def counting(ms):
            calls.append(ms)
            return ef.min_pt_eigenvalues(ms)

        monkeypatch.setattr(dynamics, "min_pt_eigenvalues", counting)
        margins = traj.margins
        assert traj.margins is margins and len(calls) == 1 and calls[0] is traj.matrices
        assert not margins.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            margins[0] = 0.0
        assert np.array_equal(margins, ef.min_pt_eigenvalues(traj.matrices))


class TestApplyMap:
    """A map is applied to a whole stack of states in one product and one
    stacked repair, with the outputs of the per-state application."""

    def test_vec_and_unvec_act_on_stacks(self):
        rng = np.random.default_rng(3)
        ms = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        vs = vec(ms)
        assert vs.shape == (5, 16)
        for m, v in zip(ms, vs):
            assert np.array_equal(v, m.flatten(order="F"))
            assert np.array_equal(vec(m), v)
            assert np.array_equal(unvec(v), m)
        assert np.array_equal(unvec(vs), ms)
        assert vec(ms[:0]).shape == (0, 16) and unvec(vs[:0]).shape == (0, 4, 4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["mixed", "pure", "clipped"]), min_size=1, max_size=30),
    )
    def test_stack_matches_per_state_application(self, seed, kinds):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = np.linalg.qr(z)[0]
        phi = np.kron(u.conj(), u)  # vec(U rho U†): keeps each spectrum, so clipped stays clipped
        ms = np.stack([propagated_like(rng, k) for k in kinds])
        images = apply_map(phi, ms)
        assert images.shape == ms.shape and not images.flags.writeable
        for m, img, kind in zip(ms, images, kinds):
            raw = (phi @ m.flatten(order="F")).reshape((4, 4), order="F")
            assert np.array_equal(img, reference_repair_state(raw))
            if kind == "clipped":
                assert np.linalg.eigvalsh(0.5 * (raw + raw.conj().T))[0] < 0.0

    def test_first_failure_in_stack_order_raises(self):
        ms = TestStackedTrajectory.failing_stack(positivity_at=2, drift_at=5)
        with pytest.raises(PositivityLost) as got:
            apply_map(np.eye(16), ms)
        with pytest.raises(PositivityLost) as want:
            for m in ms[:3]:
                reference_repair_state(m)
        assert str(got.value) == str(want.value)

