import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entfate as ef
from entfate.asymptotics import (
    CATALOG,
    CLASS4_MIN_C,
    CLASS6_MIN_C,
    QUENCH_LIMIT_F1,
    _pt_adjoint,
    _pure_probes,
    _seesaw_min,
)
from entfate.dynamics import (
    ConstantRate,
    ExponentialRate,
    _repair_states,
    apply_map,
    liouvillian_matrix,
    make_generator,
    unvec,
    vec,
)
from entfate.errors import (
    BadParams,
    Inconclusive,
    NoTraceOneElement,
    NotConverged,
    OscillatoryAsymptotics,
    StepFailure,
)
from entfate.operators import (
    EYE2,
    SMINUS,
    SZ,
    bell_vectors,
    single_qubit_probe_vectors,
    two_qubit_paulis,
)
from entfate.states import hilbert_schmidt_state, transpose_b
import test_dynamics


def random_state(seed):
    return ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=seed))


def draw_member(aset, rng):
    """A random member of the set: a singleton's state, else the image of one
    Hilbert-Schmidt draw from rng, repaired as ``apply_map`` repairs it."""
    if aset.state is not None:
        return aset.state
    return ef.QState(apply_map(aset.map_matrix, hilbert_schmidt_state(rng).matrix[None])[0])


class TestStationarySetAutonomous:
    def test_tol_is_checked_before_the_spectrum(self):
        g = ef.catalog_generator(2)
        with pytest.raises(ValueError) as got:
            ef.stationary_set_autonomous(g, tol=np.nan)
        assert str(got.value) == "tol must be positive and finite, got nan"
        assert "spectrum" not in vars(g)  # no eigendecomposition was made

    @pytest.mark.parametrize("make", [
        *(lambda c=c: ef.catalog_generator(c) for c in (1, 2, 3, 5)),
        *(lambda seed=seed: test_dynamics.random_generator(seed) for seed in (0, 3, 11, 17)),
        test_dynamics.TestSpectralMaps.exceptional_point,
    ], ids=["class1", "class2", "class3", "class5", "random0", "random3", "random11",
            "random17", "exceptional-point"])
    def test_projector_matches_scipys_left_vectors(self, make):
        # the reference biorthogonalizes the kernels of one scipy eig with left vectors
        g = make()
        w, vl, vr = scipy.linalg.eig(liouvillian_matrix(g), left=True, right=True)
        kernel = np.abs(w) <= 1e-9
        vk, wk = vr[:, kernel], vl[:, kernel]
        want = vk @ np.linalg.inv(wk.conj().T @ vk) @ wk.conj().T
        aset = ef.stationary_set_autonomous(g)
        assert aset.diagnostics["kernel_dim"] == int(kernel.sum())
        assert np.max(np.abs(aset.map_matrix - want)) <= 1e-14

    def test_unequal_left_and_right_kernels_are_no_trace_one_element(self, monkeypatch):
        g = ef.catalog_generator(5)  # a kernel of dimension 4
        g.spectrum  # so the one eig below is that of L^H
        numpy_eig = np.linalg.eig

        def one_left_vector_short(m):
            values, vectors = numpy_eig(m)
            values[np.flatnonzero(np.abs(values) <= 1e-9)[0]] = -1.0
            return values, vectors

        monkeypatch.setattr(np.linalg, "eig", one_left_vector_short)
        with pytest.raises(NoTraceOneElement, match="left kernel of dimension 3, right "
                                                    "kernel of dimension 4"):
            ef.stationary_set_autonomous(g)

    def test_depolarizing_unique_maximally_mixed(self):
        aset = ef.stationary_set_autonomous(ef.catalog_generator(1))
        assert aset.cardinality == "one"
        assert aset.diagnostics["kernel_dim"] == 1
        assert sorted(aset.diagnostics) == ["kernel_dim", "spectral_gap"]
        assert ef.trace_distance(aset.state, ef.new_state(np.eye(4) / 4, 2, 2)) < 1e-10
        # uniqueness cross-check: propagate random states to a long horizon
        g = ef.catalog_generator(1)
        for seed in range(10):
            traj = ef.propagate(g, random_state(seed), [0.0, 50.0])
            assert ef.trace_distance(traj.states[-1], aset.state) < 1e-8

    def test_damping_unique_ground_state(self):
        aset = ef.stationary_set_autonomous(ef.catalog_generator(2))
        assert aset.cardinality == "one"
        assert ef.trace_distance(aset.state, ef.basis_state(0, 0)) < 1e-10

    def test_bell_pumping_unique_entangled(self):
        aset = ef.stationary_set_autonomous(ef.catalog_generator(3))
        assert aset.cardinality == "one"
        assert ef.trace_distance(aset.state, ef.max_entangled()) < 1e-10

    def test_dephasing_affine_diagonal_family(self):
        aset = ef.stationary_set_autonomous(ef.catalog_generator(5))
        assert aset.cardinality == "many"
        assert aset.state is None
        assert aset.diagnostics["kernel_dim"] == 4
        p = aset.map_matrix
        assert np.linalg.matrix_rank(p, tol=1e-8) == 4
        # the reference plus 3 traceless directions
        tr_vec = vec(np.eye(4))
        traceless = np.eye(16) - np.outer(vec(np.eye(4) / 4), tr_vec.conj())
        assert np.linalg.matrix_rank(p @ traceless, tol=1e-8) == 3
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(tr_vec.conj() @ p - tr_vec.conj())) < 1e-10
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            px = unvec(p @ vec(x))
            px_dag = unvec(p @ vec(x.conj().T))
            assert np.max(np.abs(px_dag - px.conj().T)) < 1e-10
        # every diagonal state is a fixed point, hence a member
        for _ in range(10):
            q = rng.dirichlet(np.ones(4))
            diag = ef.new_state(np.diag(q.astype(complex)), 2, 2)
            assert np.max(np.abs(p @ vec(diag.matrix) - vec(diag.matrix))) < 1e-10
            assert ef.membership_residual(aset, diag) < 1e-8

    def test_oscillatory_rejected(self):
        g = make_generator((2, 2), hamiltonian=np.kron(SZ, EYE2))
        with pytest.raises(OscillatoryAsymptotics):
            ef.stationary_set_autonomous(g)


def random_generator(seed, n_jumps, diagonal):
    """A random autonomous two-qubit generator; diagonal ones have a
    degenerate kernel (every diagonal state is stationary)."""
    rng = np.random.default_rng(seed)

    def draw():
        if diagonal:
            return np.diag(rng.normal(size=4) + 1j * rng.normal(size=4))
        return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

    h = draw()
    h = 0.5 * (h + h.conj().T)
    jumps = [(draw(), float(rng.uniform(0.1, 1.0))) for _ in range(n_jumps)]
    return make_generator((2, 2), hamiltonian=h, jumps=jumps)


class TestKernelProjector:
    @pytest.mark.parametrize("class_id", [1, 2, 3, 5])
    def test_projector_is_long_time_propagator(self, class_id):
        g = ef.catalog_generator(class_id)
        aset = ef.stationary_set_autonomous(g)
        assert np.max(np.abs(aset.map_matrix - ef.propagator_matrix(g, 60.0))) < 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_jumps=st.integers(1, 3),
        diagonal=st.booleans(),
    )
    def test_random_generator_projector(self, seed, n_jumps, diagonal):
        g = random_generator(seed, n_jumps, diagonal)
        try:
            aset = ef.stationary_set_autonomous(g)
        except OscillatoryAsymptotics:
            assume(False)
        gap = aset.diagnostics["spectral_gap"]
        assume(gap > 0.05)
        p = aset.map_matrix
        tr_vec = vec(np.eye(4)).conj()
        assert np.max(np.abs(p @ p - p)) < 1e-8
        assert np.max(np.abs(tr_vec @ p - tr_vec)) < 1e-8
        phi = scipy.linalg.expm(liouvillian_matrix(g) * (40.0 / gap))
        assert np.max(np.abs(p - phi)) < 1e-8


class TestAsymptoticSetNonautonomous:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"convergence_tol": np.nan, "horizon": 2.0},
             "tol must be positive and finite, got nan"),
            ({"convergence_tol": np.nan, "horizon": -5.0},
             "horizon must be positive and finite, got -5.0"),
            ({"horizon": -5.0}, "horizon must be positive and finite, got -5.0"),
        ],
        ids=["nan-tol", "nan-tol-negative-horizon", "negative-horizon"],
    )
    def test_horizon_and_tol_are_checked_before_the_flow(self, monkeypatch, kwargs, message):
        # a NaN tolerance used to pass an unconverged propagator (residual
        # 1.5e-2 at horizon 2) as a "many" set
        from entfate import dynamics

        def no_work(*args):
            raise AssertionError("a flow started")

        monkeypatch.setattr(dynamics, "_flow", no_work)
        with pytest.raises(ValueError) as got:
            ef.asymptotic_set(ef.catalog_generator(6), **kwargs)
        assert str(got.value) == message

    def test_quenched_depolarizing_closed_form(self):
        # scalar ODE for the depolarizing weight: w(inf) = exp(-c)
        c = 2.0
        aset = ef.asymptotic_set_nonautonomous(ef.catalog_generator(4, c=c))
        expected = np.exp(-c) * np.eye(16) + (1 - np.exp(-c)) * np.outer(
            vec(np.eye(4) / 4), vec(np.eye(4))
        )
        assert np.max(np.abs(aset.map_matrix - expected)) < 1e-6
        assert aset.cardinality == "many"

    @pytest.mark.parametrize(
        "c, tol", [(2.0, 1e-8), (18.1, 1e-8), (19.0, 1e-8), (18.1, 2e-8)]
    )
    def test_quenched_depolarizing_singleton_rule(self, c, tol):
        # P∞ = e^-c I + (1 - e^-c) R with R(X) = tr(X) I/4 leaves the traceless
        # part e^-c (I - R): one state exactly when e^-c is within tol
        aset = ef.asymptotic_set_nonautonomous(ef.catalog_generator(4, c=c), tol=tol)
        assert aset.diagnostics["traceless_residual"] == pytest.approx(np.exp(-c), rel=1e-3)
        assert aset.cardinality == ("one" if np.exp(-c) <= tol else "many")
        if aset.cardinality == "one":
            assert ef.trace_distance(aset.state, ef.new_state(np.eye(4) / 4, 2, 2)) < 1e-8

    @pytest.mark.parametrize("c", [18.1, 18.15, 18.2])
    def test_verdict_is_seed_free(self, c):
        g = ef.catalog_generator(4, c=c)
        ids = {ef.classify_generator(g, seed=seed)[1].class_id for seed in range(20)}
        assert ids == {4}

    def test_decided_from_the_map_alone(self, monkeypatch):
        import entfate.asymptotics

        def refuse(*args, **kwargs):
            raise AssertionError("the builder compares or draws states")

        monkeypatch.setattr(entfate.asymptotics, "trace_distance", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        aset = ef.asymptotic_set_nonautonomous(ef.catalog_generator(4))
        assert aset.cardinality == "many"

    def test_one_propagator_solve(self, monkeypatch):
        # Phi(h/2) and Phi(h) come from a single flow of the identity
        import entfate.dynamics

        calls = []
        solve_ivp = entfate.dynamics.solve_ivp

        def counting(*args, **kwargs):
            calls.append(kwargs.get("t_eval"))
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(entfate.dynamics, "solve_ivp", counting)
        ef.asymptotic_set_nonautonomous(ef.catalog_generator(4))
        assert len(calls) == 1
        assert list(calls[0]) == [0.0, 30.0, 60.0]

    def test_forced_flag_on_autonomous_dynamics(self):
        # cross-module oracle: image map must land on the spectral A
        g2 = ef.catalog_generator(2)
        forced = make_generator(
            (2, 2),
            jumps=[(ch.operator, ch.rate) for ch in g2.jumps],
            autonomous=False,
        )
        aset = ef.asymptotic_set_nonautonomous(forced, horizon=80.0, tol=1e-6)
        ground = ef.basis_state(0, 0)
        rng = np.random.default_rng(1)
        for seed in range(5):
            img = draw_member(aset, rng)
            assert ef.trace_distance(img, ground) < 1e-6

    def test_no_evolution_identity_map(self):
        g = make_generator(
            (2, 2),
            jumps=[(two_qubit_paulis()[0], ExponentialRate(0.0))],
            autonomous=False,
        )
        aset = ef.asymptotic_set_nonautonomous(g, horizon=10.0)
        assert np.max(np.abs(aset.map_matrix - np.eye(16))) < 1e-8
        assert aset.cardinality == "many"

    def test_not_converged_reported(self):
        with pytest.raises(NotConverged):
            ef.asymptotic_set_nonautonomous(ef.catalog_generator(6), horizon=4.0)


def depolarizing_limit(c):
    """e^-c I + (1 - e^-c) R on vectorized operators, R(X) = tr(X) I/4."""
    return np.exp(-c) * np.eye(16) + (1.0 - np.exp(-c)) * np.outer(
        vec(np.eye(4) / 4), vec(np.eye(4))
    )


def bell_pumping_limit(f):
    """Pumping into Phi+ at integrated rate F, on vectorized operators: in
    the Bell basis, entry (j, k) scaled by e^{-F (d_j + d_k)/2} with
    d = (0, 1, 1, 1), and the trace lost added to (Phi+, Phi+)."""
    b = np.stack(bell_vectors(), axis=1)
    d = np.array([0.0, 1.0, 1.0, 1.0])
    scale = np.exp(-f * (d[:, None] + d[None, :]) / 2)
    columns = []
    for x in unvec(np.eye(16)):
        r = b.conj().T @ x @ b
        out = r * scale
        out[0, 0] += np.trace(r) - np.trace(out)
        columns.append(vec(b @ out @ b.conj().T))
    return np.stack(columns, axis=1)


def count_solves(monkeypatch):
    """Rebind ``dynamics.solve_ivp`` to count its calls; the list of calls."""
    from entfate import dynamics

    calls = []
    solve_ivp = dynamics.solve_ivp

    def counting(*args, **kwargs):
        calls.append(kwargs.get("t_eval"))
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counting)
    return calls


def no_flow(monkeypatch):
    from entfate import dynamics

    def refuse(*args, **kwargs):
        raise AssertionError("a flow started")

    monkeypatch.setattr(dynamics, "_flow", refuse)


def quench_two_rate_dephasing(second_rate):
    """Dephasing on qubit A at rate e^-t and on qubit B at ``second_rate``."""
    return make_generator(
        jumps=[(np.kron(SZ, EYE2), ExponentialRate(1.0)), (np.kron(EYE2, SZ), second_rate)]
    )


class TestQuenchLimit:
    """A quench L(t) = a e^{-t/tau} D, with no Hamiltonian, has the exact
    limit exp(a tau D): no flow, no horizon, no NotConverged."""

    @pytest.mark.parametrize("c", ["least", 2.0, 10.0, 18.1, 19.0])
    @pytest.mark.parametrize(
        "class_id, least, closed_form",
        [(4, CLASS4_MIN_C, depolarizing_limit), (6, CLASS6_MIN_C, bell_pumping_limit)],
        ids=["class4", "class6"],
    )
    def test_closed_forms(self, monkeypatch, class_id, least, closed_form, c):
        c = least if c == "least" else c
        g = ef.catalog_generator(class_id, c=c)
        no_flow(monkeypatch)
        aset = ef.asymptotic_set(g)
        want = closed_form(c)
        assert np.max(np.abs(aset.map_matrix - want)) < 1e-13
        (rate,) = g.rates
        assert sorted(aset.diagnostics) == ["rate_integral", "traceless_residual"]
        assert aset.diagnostics["rate_integral"] == rate.amplitude * rate.tau
        # one state iff P∞ = vec(P∞(I/4)) vec(I)† to the convergence tolerance
        eye = vec(np.eye(4))
        traceless = np.max(np.abs(want - np.outer(want @ eye / 4, eye)))
        assert aset.diagnostics["traceless_residual"] == pytest.approx(traceless, abs=1e-13)
        assert aset.cardinality == ("one" if traceless <= 1e-8 else "many")
        if class_id == 4 and c == 19.0:
            assert ef.trace_distance(aset.state, ef.new_state(np.eye(4) / 4)) < 1e-13

    @pytest.mark.parametrize(
        "make, horizon",
        [
            (lambda: ef.catalog_generator(4, c=2.0), 60.0),
            (lambda: ef.catalog_generator(4, c=19.0), 60.0),
            (lambda: ef.catalog_generator(6, c=CLASS6_MIN_C), 60.0),
            (lambda: ef.catalog_generator(6), 60.0),
            # equal rates of two channels, as separate objects, are one rate
            (lambda: quench_two_rate_dephasing(ExponentialRate(1.0)), 60.0),
            # tau != 1 on random jumps
            (lambda: make_generator(jumps=[
                (ch.operator, ExponentialRate(0.8, tau=2.5))
                for ch in random_generator(4, 3, False).jumps
            ]), 200.0),
        ],
        ids=["class4", "class4-one", "class6-least", "class6", "shared-rate", "tau"],
    )
    def test_agrees_with_the_propagator(self, monkeypatch, make, horizon):
        g = make()
        want = ef.asymptotic_set_nonautonomous(g, horizon=horizon)
        calls = count_solves(monkeypatch)
        got = ef.asymptotic_set(g)
        assert calls == []
        assert np.max(np.abs(got.map_matrix - want.map_matrix)) < 1e-8
        assert got.cardinality == want.cardinality

    def test_no_horizon_needed(self, monkeypatch):
        # the propagator at horizon 4 has not converged; the exact limit needs none
        with pytest.raises(NotConverged):
            ef.asymptotic_set_nonautonomous(ef.catalog_generator(6), horizon=4.0)
        no_flow(monkeypatch)
        aset = ef.asymptotic_set(ef.catalog_generator(6), horizon=4.0)
        assert aset.cardinality == "many"
        assert ef.classify_theorem_class(aset).class_id == 6

    @pytest.mark.parametrize(
        "make, converges",
        [
            (lambda: quench_two_rate_dephasing(ExponentialRate(1.0, tau=0.5)), True),
            (lambda: quench_two_rate_dephasing(ConstantRate(2.0)), True),
            (lambda: quench_two_rate_dephasing(lambda t: np.exp(-t)), True),
            # the Hamiltonian keeps rotating the coherences the quench leaves
            (lambda: make_generator(hamiltonian=np.kron(SZ, SZ),
                                    jumps=[(np.kron(SMINUS, EYE2), ExponentialRate(1.0))]),
             False),
        ],
        ids=["two-exponential-rates", "constant-rate", "callable-rate", "hamiltonian"],
    )
    def test_other_generators_keep_one_propagator_solve(self, monkeypatch, make, converges):
        g = make()
        calls = count_solves(monkeypatch)
        if converges:
            assert ef.asymptotic_set(g).diagnostics["convergence_residual"] <= 1e-8
        else:
            with pytest.raises(NotConverged):
                ef.asymptotic_set(g)
        assert len(calls) == 1
        assert list(calls[0]) == [0.0, 30.0, 60.0]

    @pytest.mark.parametrize("class_id, want", [(6, 3), (4, 1)])
    def test_large_quench_is_a_singleton_without_a_flow(self, monkeypatch, class_id, want):
        # at c = 1e6 the RK45 propagator took 48 s on a 2-vCPU host
        no_flow(monkeypatch)
        aset = ef.asymptotic_set(ef.catalog_generator(class_id, c=1e6))
        assert aset.cardinality == "one"
        assert ef.classify_theorem_class(aset).class_id == want

    def test_overflowing_limit_is_a_step_failure(self, monkeypatch):
        # amplitude damping at rate 1/400 decays too slowly for exp(F1 D) to be
        # its limit (D exp(F1 D) is 1.8e-3), so exp(a tau D) is taken; it
        # overflowed under the expm it replaced, and now reaches the closed form
        no_flow(monkeypatch)
        g = make_generator(jumps=[(0.05 * np.kron(SMINUS, EYE2), ExponentialRate(1e300))])
        aset = ef.asymptotic_set(g)
        assert aset.cardinality == "many"
        assert np.max(np.abs(aset.map_matrix - test_dynamics.first_qubit_reset_map())) <= 1e-15
        # a Liouvillian that itself overflows is the failure, with no warning
        g = make_generator(jumps=[(10.0 * np.kron(SMINUS, EYE2), 1e308)])
        with pytest.raises(StepFailure, match="Liouvillian has a non-finite entry"):
            ef.asymptotic_set(g)

    def test_infinite_rate_integral_is_a_step_failure_without_a_warning(self, monkeypatch):
        # a·τ = 1e308·1e10 is inf, and inf·D has NaN entries: once a
        # RuntimeWarning ("invalid value encountered in multiply"), which the
        # suite's warnings-as-errors turned into the failure
        no_flow(monkeypatch)
        rate = ExponentialRate(1e308, tau=1e10)
        g = make_generator(jumps=[(0.05 * np.kron(SMINUS, EYE2), rate)])
        with pytest.raises(StepFailure, match="trace-preservation residual nan"):
            ef.asymptotic_set(g)

    @pytest.mark.parametrize("c", [1e9, 1e10, 1e12, 1e300])
    @pytest.mark.parametrize("class_id", [4, 6])
    def test_large_quench_limits_are_the_closed_forms(self, monkeypatch, class_id, c):
        # exp(a tau D) lost trace in proportion to a tau: c >= 1e9 ended in
        # StepFailure ("trace-preservation residual 3.9e-08 > 1e-8"), and
        # c = 1e300 overflowed; the limits are I/4 (class 4) and Phi+ (class 6)
        no_flow(monkeypatch)
        aset = ef.asymptotic_set(ef.catalog_generator(class_id, c=c))
        phi_plus = bell_vectors()[0]
        want = np.eye(4) / 4 if class_id == 4 else np.outer(phi_plus, phi_plus.conj())
        assert aset.cardinality == "one"
        assert np.max(np.abs(aset.state.matrix - want)) < 1e-12
        assert np.max(np.abs(aset.map_matrix - np.outer(vec(want), vec(np.eye(4))))) < 1e-12
        assert aset.diagnostics["rate_integral"] == (c / 16 if class_id == 4 else c)

    @pytest.mark.parametrize("class_id", [4, 6])
    def test_limit_is_read_at_f1_only_past_it(self, class_id):
        from entfate import dynamics

        for integral, at in ((QUENCH_LIMIT_F1, QUENCH_LIMIT_F1), (1e4, QUENCH_LIMIT_F1)):
            g = ef.catalog_generator(class_id, c=integral * (16 if class_id == 4 else 1))
            (dissipator,) = g.dissipators
            want = dynamics.expm(at * dissipator)
            assert np.array_equal(ef.asymptotic_set(g).map_matrix, want)


class TestClassifyTheoremClass:
    def test_unique_cases(self):
        for class_id in (1, 2, 3):
            aset = ef.stationary_set_autonomous(ef.catalog_generator(class_id))
            cls = ef.classify_theorem_class(aset)
            assert cls.class_id == class_id
            assert cls.cardinality == "one"

    def test_boundary_margin_exact(self):
        aset = ef.stationary_set_autonomous(ef.catalog_generator(2))
        cls = ef.classify_theorem_class(aset)
        assert cls.class_id == 2
        assert abs(cls.min_margin) < 1e-8

    def test_quenched_depolarizing_worst_probe_is_bell(self):
        aset = ef.asymptotic_set_nonautonomous(ef.catalog_generator(4, c=2.0))
        cls = ef.classify_theorem_class(aset)
        assert cls.class_id == 4
        assert "Bell" in cls.min_probe
        assert abs(cls.min_margin - (1 - 3 * np.exp(-2.0)) / 4) < 1e-6


def ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


U_A, U_B = ry(0.3), ry(1.1)


def rotated_ket(i, j):
    """|u_i v_j> in a product basis that no fixed probe state is aligned with."""
    return np.kron(U_A[:, i], U_B[:, j])


def rotated_dephasing():
    """A is the diagonal states in the basis |u_i v_j>; its margin is
    min p_ij, zero at the member |u_0 v_0>."""
    return make_generator(
        (2, 2),
        jumps=[
            (np.kron(U_A @ SZ @ U_A.conj().T, EYE2), 1.0),
            (np.kron(EYE2, U_B @ SZ @ U_B.conj().T), 1.0),
        ],
    )


def rotated_subspace():
    """Pumping |u_0 v_1> -> |u_0 v_0> and |u_1 v_0> -> |u_1 v_1>: A is every
    state on span{|u_0 v_0>, |u_1 v_1>}, margins in [-1/2, 0]."""
    a, b = rotated_ket(0, 0), rotated_ket(1, 1)
    return make_generator(
        (2, 2),
        jumps=[
            (np.outer(a, rotated_ket(0, 1).conj()), 1.0),
            (np.outer(b, rotated_ket(1, 0).conj()), 1.0),
        ],
    )


def coherent_pumping():
    """As ``rotated_subspace``, but the pumped coherence keeps every probe
    image NPT while the member |u_0 v_0> is separable."""
    a, b = rotated_ket(0, 0), rotated_ket(1, 1)
    return make_generator(
        (2, 2),
        jumps=[
            (np.outer((a + b) / np.sqrt(2), rotated_ket(0, 1).conj()), 1.0),
            (np.outer(a, rotated_ket(1, 0).conj()), 0.5),
        ],
    )


class TestRotatedBoundary:
    def test_rotated_dephasing_is_class5(self):
        aset, cls = ef.classify_generator(rotated_dephasing())
        assert aset.diagnostics["kernel_dim"] == 4
        assert cls.class_id == 5
        assert abs(cls.min_margin) <= cls.tol
        assert cls.max_margin > 0.2

    def test_rotated_subspace_is_class5(self):
        _, cls = ef.classify_generator(rotated_subspace())
        assert cls.class_id == 5
        assert cls.min_margin == pytest.approx(-0.5, abs=1e-9)
        assert abs(cls.max_margin) <= cls.tol

    def test_class6_needs_a_bound_on_all_members(self):
        # every probe image is NPT, but a member is separable: not class 6
        with pytest.raises(Inconclusive):
            ef.classify_generator(coherent_pumping())


def kron_pure_probes():
    """The labelled pure probes built one np.kron at a time: the oracle of
    the broadcast ``_pure_probes``."""
    singles = list(zip(["0", "1", "+", "+i"], single_qubit_probe_vectors()))
    probes = [(f"product |{la}{lb}>", np.kron(va, vb)) for la, va in singles for lb, vb in singles]
    bells = zip(["Phi+", "Phi-", "Psi+", "Psi-"], bell_vectors())
    return probes + [(f"Bell {name}", b) for name, b in bells]


def scalar_pt_adjoint(a, y):
    """P∞†(T_B |y><y|) of one ket, the product the stacked one replaced."""
    return unvec(a.map_matrix.conj().T @ vec(transpose_b(np.outer(y, y.conj()))))


def scalar_seesaw_min(a, x, max_iter=100):
    """The seesaw from one start, on its own: the loop the stacked
    ``_seesaw_min`` replaced, which it must equal start by start."""
    best = np.inf
    for _ in range(max_iter):
        w, v = np.linalg.eigh(transpose_b(unvec(a.map_matrix @ vec(np.outer(x, x.conj())))))
        if w[0] >= best - 1e-10:
            break
        best = w[0]
        x = np.linalg.eigh(scalar_pt_adjoint(a, v[:, 0]))[1][:, 0]
    return x


def per_probe_classification(a, tol=ef.asymptotics.DEFAULT_CLASS_TOL, n_probes=50, seed=0):
    """The per-probe loop that the probe stack replaced: every probe is
    built as a QState, then mapped, repaired and measured on its own."""

    def image(m):
        raw = (a.map_matrix @ m.flatten(order="F")).reshape((4, 4), order="F")
        return ef.QState(_repair_states(raw[None])[0])

    pure = kron_pure_probes()
    probes = [(f"image({label})", ef.new_state(np.outer(v, v.conj()))) for label, v in pure]
    rng = np.random.default_rng(seed)
    probes += [(f"image(random #{i})", hilbert_schmidt_state(rng)) for i in range(n_probes)]
    states = [(label, image(s.matrix)) for label, s in probes]
    for label, v in pure:
        x = scalar_seesaw_min(a, v)
        states.append((f"seesaw from {label}", image(ef.new_state(np.outer(x, x.conj())).matrix)))
    margins = [(label, ef.min_pt_eigenvalue(s)) for label, s in states]
    bound = np.inf
    top = states[int(np.argmax([m for _, m in margins]))][1]
    if ef.min_pt_eigenvalue(top) < -tol:
        y = np.linalg.eigh(transpose_b(top.matrix))[1][:, 0]
        bound = float(np.linalg.eigvalsh(scalar_pt_adjoint(a, y))[-1])
        if bound >= -tol:
            margins.append(("image(I/4)", ef.min_pt_eigenvalue(image(np.eye(4) / 4))))
    values = np.array([m for _, m in margins])
    i_min = int(np.flatnonzero(values <= values.min() + 1e-12)[0])
    i_max = int(np.flatnonzero(values >= values.max() - 1e-12)[0])
    mn, mx = float(values[i_min]), float(values[i_max])
    if mn > tol:
        class_id = 4
    elif mx < -tol:
        if bound >= -tol:
            raise Inconclusive(
                f"every probe is NPT (max margin {mx:.3e}) but the bound on all "
                f"members is {bound:.3e}, not below -{tol:.1e}"
            )
        class_id = 6
    elif np.any(np.abs(values) <= tol) or (mn < -tol and mx > tol):
        class_id = 5
    else:
        raise AssertionError("no margin within ±tol, and not both signs")
    return ef.TheoremClass(
        class_id, "many", mn, mx, margins[i_min][0], margins[i_max][0], tol, tuple(margins)
    )


MANY_STATE_GENERATORS = {
    "class4": lambda: ef.catalog_generator(4),
    "class5": lambda: ef.catalog_generator(5),
    "class6": lambda: ef.catalog_generator(6),
    "rotated-dephasing": rotated_dephasing,
    "rotated-subspace": rotated_subspace,
    "coherent-pumping": coherent_pumping,
}


class TestProbeStack:
    """A many-state set is probed as one stack: one map application, one
    repair and one eigensolve, with the per-probe loop's outputs."""

    @pytest.mark.parametrize("seed", [0, 3, 7919])
    @pytest.mark.parametrize("name", list(MANY_STATE_GENERATORS))
    def test_equals_per_probe_loop(self, name, seed):
        aset = ef.asymptotic_set(MANY_STATE_GENERATORS[name]())
        assert aset.cardinality == "many"
        try:
            want = per_probe_classification(aset, seed=seed)
        except Inconclusive as exc:
            with pytest.raises(Inconclusive) as got:
                ef.classify_theorem_class(aset, seed=seed)
            assert str(got.value) == str(exc)
            return
        got = ef.classify_theorem_class(aset, seed=seed)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("class_id", [4, 5, 6])
    def test_one_map_application_and_one_eigensolve(self, monkeypatch, class_id):
        from entfate import asymptotics

        aset = ef.asymptotic_set(ef.catalog_generator(class_id))
        calls = {"apply_map": [], "min_pt_eigenvalues": [], "min_pt_eigenvalue": []}
        for name, log in calls.items():
            def counting(*args, _fn=getattr(asymptotics, name), _log=log):
                _log.append(args)
                return _fn(*args)

            monkeypatch.setattr(asymptotics, name, counting)
        cls = ef.classify_theorem_class(aset, n_probes=7)
        assert cls.class_id == class_id
        assert {name: len(log) for name, log in calls.items()} == {
            "apply_map": 1, "min_pt_eigenvalues": 1, "min_pt_eigenvalue": 0
        }
        assert calls["apply_map"][0][1].shape == (20 + 7 + 20, 4, 4)
        assert len(cls.probes) == 47

    @pytest.mark.parametrize("name", list(MANY_STATE_GENERATORS))
    def test_stacked_seesaw_equals_each_start_alone(self, name):
        aset = ef.asymptotic_set(MANY_STATE_GENERATORS[name]())
        rng = np.random.default_rng(11)
        # the product and Bell starts, then the leading eigenvectors of
        # Hilbert-Schmidt draws
        kets = [v for _, v in kron_pure_probes()]
        kets += [np.linalg.eigh(hilbert_schmidt_state(rng).matrix)[1][:, -1] for _ in range(10)]
        got = _seesaw_min(aset, np.stack(kets))
        assert got.shape == (30, 4)
        for x, start in zip(got, kets):
            assert np.array_equal(x, scalar_seesaw_min(aset, start))
        assert np.array_equal(_seesaw_min(aset, np.stack(kets[:1])), got[:1])
        for x in got:  # the stacked adjoint is the scalar one, ket by ket
            assert np.array_equal(_pt_adjoint(aset, x), scalar_pt_adjoint(aset, x))
        assert all(
            np.array_equal(p, scalar_pt_adjoint(aset, x)) for p, x in zip(_pt_adjoint(aset, got), got)
        )

    def test_seesaw_eigensolves_are_those_of_its_slowest_start(self, monkeypatch):
        aset = ef.asymptotic_set(ef.catalog_generator(6))
        kets = [v for _, v in kron_pure_probes()]
        calls = []
        eigh = np.linalg.eigh

        def counting(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        alone = []
        for v in kets:
            calls.clear()
            scalar_seesaw_min(aset, v)
            alone.append(len(calls))
        calls.clear()
        _seesaw_min(aset, np.stack(kets))
        # 37 rounds from the slowest start: 37 forward eigensolves, 36 adjoint ones
        assert len(calls) == max(alone) == 73
        assert sum(alone) == 778
        assert calls[0] == (20, 4, 4)

    def test_pure_probes_are_the_kron_products(self):
        labels, kets = _pure_probes()
        want = kron_pure_probes()
        assert labels == [label for label, _ in want]
        assert kets.shape == (20, 4)
        assert kets.tobytes() == np.stack([v for _, v in want]).tobytes()

    @pytest.mark.parametrize("class_id", [4, 5, 6])
    def test_random_probes_come_from_one_draw(self, monkeypatch, class_id):
        from entfate import asymptotics, states

        aset = ef.asymptotic_set(ef.catalog_generator(class_id))
        want = per_probe_classification(aset, seed=3)  # its own scalar draws

        def no_scalar_draws(rng):
            raise AssertionError("a scalar Hilbert-Schmidt draw")

        monkeypatch.setattr(states, "hilbert_schmidt_state", no_scalar_draws)
        assert not hasattr(asymptotics, "hilbert_schmidt_state")  # nor a name to call
        got = ef.classify_theorem_class(aset, seed=3)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_probes", -3),
            ("n_probes", True),
            ("n_probes", 2.5),
            ("n_probes", "7"),
            ("n_probes", None),
            ("n_probes", np.float64(7.0)),
            ("seed", 2.5),
            ("seed", True),
            ("seed", -1),
            ("seed", "0"),
            ("seed", None),
            ("seed", np.bool_(True)),
        ],
    )
    def test_probe_count_and_seed_must_be_whole(self, monkeypatch, name, value):
        from entfate import asymptotics

        aset = ef.asymptotic_set(ef.catalog_generator(5))

        def no_work(*args):
            raise AssertionError("probing started")

        monkeypatch.setattr(asymptotics, "_seesaw_min", no_work)
        monkeypatch.setattr(asymptotics, "asymptotic_set", no_work)
        message = f"{name} must be a non-negative integer, got {value!r}"
        with pytest.raises(ValueError) as got:
            ef.classify_theorem_class(aset, **{name: value})
        assert str(got.value) == message
        with pytest.raises(ValueError) as got:
            ef.classify_generator(ef.catalog_generator(5), **{name: value})
        assert str(got.value) == message

    def test_numpy_integers_count_and_seed(self):
        aset = ef.asymptotic_set(ef.catalog_generator(5))
        want = ef.classify_theorem_class(aset, n_probes=7, seed=3)
        assert ef.classify_theorem_class(aset, n_probes=np.int8(7), seed=np.uint64(3)) == want

    def test_no_random_probes(self):
        aset = ef.asymptotic_set(ef.catalog_generator(5))
        cls = ef.classify_theorem_class(aset, n_probes=0)
        assert cls == per_probe_classification(aset, n_probes=0)
        assert not any("random" in label for label, _ in cls.probes)

    @pytest.mark.parametrize("tol", [0.0, -0.1, float("nan"), float("inf")])
    @pytest.mark.parametrize("class_id", [2, 5])
    def test_tol_must_be_positive_and_finite(self, class_id, tol):
        aset = ef.asymptotic_set(ef.catalog_generator(class_id))
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ef.classify_theorem_class(aset, tol=tol)

    def test_sets_compare_by_identity(self):
        a, b = (ef.classify_generator(ef.catalog_generator(5))[0] for _ in range(2))
        assert a == a and a != b
        assert {a: 1, b: 2}[a] == 1


class TestCatalog:
    @pytest.mark.parametrize("class_id", [1, 2, 3, 4, 5, 6])
    def test_round_trip(self, class_id):
        g = ef.catalog_generator(class_id)
        _, cls = ef.classify_generator(g)
        assert cls.class_id == class_id

    def test_bad_params(self):
        with pytest.raises(BadParams):
            ef.catalog_generator(4, c=1.0)
        with pytest.raises(BadParams):
            ef.catalog_generator(6, c=0.6)
        with pytest.raises(BadParams):
            ef.catalog_generator(7)
        with pytest.raises(BadParams):
            ef.catalog_generator(True)  # == 1, but not a class id
        with pytest.raises(BadParams):
            ef.catalog_generator(1, gamma=-1.0)
        tol = ef.asymptotics.DEFAULT_CLASS_TOL
        assert CLASS4_MIN_C == pytest.approx(np.log(3.0) - np.log(1.0 - 40.0 * tol), abs=1e-15)
        assert CLASS6_MIN_C == pytest.approx(-np.log(0.5 - 10.0 * tol), abs=1e-15)
        for class_id, c, law in ((4, CLASS4_MIN_C, "ln 3"), (6, CLASS6_MIN_C, "ln 2")):
            assert law in CATALOG[class_id][0]
            with pytest.raises(BadParams, match=f"just past {law}"):
                ef.catalog_generator(class_id, c=np.nextafter(c, 0.0))
            ef.catalog_generator(class_id, c=c)

    def test_class4_at_its_least_c(self):
        # the least image margin (1 - 3 e^-c)/4 is 10 tol at CLASS4_MIN_C
        _, cls = ef.classify_generator(ef.catalog_generator(4, c=CLASS4_MIN_C))
        assert cls.class_id == 4
        assert cls.min_margin == pytest.approx(10 * cls.tol, abs=1e-8)

    def test_class6_at_its_least_c(self):
        # the greatest image margin e^-c - 1/2 is -10 tol at CLASS6_MIN_C
        _, cls = ef.classify_generator(ef.catalog_generator(6, c=CLASS6_MIN_C))
        assert cls.class_id == 6
        assert cls.max_margin == pytest.approx(-10 * cls.tol, abs=1e-8)

    @pytest.mark.parametrize("class_id, c, want", [
        (4, np.log(3.0) + 1e-3, 4),
        (4, np.log(3.0) - 1e-3, 5),
        (6, np.log(2.0) + 1e-3, 6),
    ])
    def test_quench_verdicts_around_the_true_threshold(self, class_id, c, want):
        # the catalog's channels at rate c e^-t, built past the catalog's checks
        share = 16.0 if class_id == 4 else 1.0
        g = make_generator(jumps=[
            (ch.operator, ExponentialRate(c / share)) for ch in ef.catalog_generator(class_id).jumps
        ])
        _, cls = ef.classify_generator(g)
        assert cls.class_id == want

    @pytest.mark.parametrize("class_id", [0, 7, True, 1.0, np.float64(6.0), "1", None], ids=repr)
    def test_class_id_must_be_an_integer_in_the_table(self, class_id):
        # 1.0 and np.float64(6.0) used to pass as ids 1 and 6
        with pytest.raises(BadParams) as got:
            ef.catalog_generator(class_id)
        assert str(got.value) == f"class_id must be an integer >= 1 and <= 6, got {class_id!r}"
        assert ef.catalog_generator(np.int64(6)).jumps

    @pytest.mark.parametrize("class_id, name", [(1, "gamma"), (5, "gamma"), (4, "c"), (6, "c")])
    @pytest.mark.parametrize("value", ["2", np.nan, np.inf, True, 0.0], ids=repr)
    def test_param_must_be_positive_and_finite(self, class_id, name, value):
        # nan used to fail later as make_generator's ValueError, and "2" as a TypeError
        with pytest.raises(BadParams) as got:
            ef.catalog_generator(class_id, **{name: value})
        assert str(got.value) == f"{name} must be positive and finite, got {value!r}"

    @pytest.mark.parametrize("class_id, params, reads", [
        (4, {"gamma": -1.0}, "c"),  # refused for gamma, not for being negative
        (2, {"c": 3.0}, "gamma"),
        (6, {"c": 10.0, "gamma": 1.0}, "c"),
        (1, {"rate": 1.0}, "gamma"),
    ])
    def test_param_the_class_does_not_read_is_refused(self, class_id, params, reads):
        with pytest.raises(BadParams, match=f"class {class_id} takes only the parameter {reads}, got "):
            ef.catalog_generator(class_id, **params)

    @pytest.mark.parametrize("class_id", [1, 2, 3, 4, 5, 6])
    def test_defaults_come_from_the_table(self, class_id):
        default = ef.catalog_generator(class_id)
        explicit = ef.catalog_generator(class_id, **CATALOG[class_id][1])
        for t in (0.0, 1.0, 10.0):
            np.testing.assert_array_equal(
                liouvillian_matrix(default, t), liouvillian_matrix(explicit, t)
            )

    def test_class6_all_probes_entangled(self):
        g = ef.catalog_generator(6, c=10.0)
        _, cls = ef.classify_generator(g)
        assert cls.class_id == 6
        assert cls.max_margin < -1e-7

    @pytest.mark.parametrize("class_id", [1, 2, 3, 4, 5, 6])
    def test_mutual_exclusivity_margin_gap(self, class_id):
        _, cls = ef.classify_generator(ef.catalog_generator(class_id))
        tol = cls.tol
        if class_id in (1, 2, 3):
            # singleton: the other singleton classes need a different region
            gap = abs(cls.min_margin)
            if class_id == 2:
                assert gap <= tol
            else:
                assert gap > 2 * tol
        elif class_id == 4:
            assert cls.min_margin > 2 * tol
        elif class_id == 6:
            assert cls.max_margin < -2 * tol
        else:
            assert cls.min_margin <= tol
            assert cls.max_margin > 2 * tol


class TestSetProperties:
    @pytest.mark.parametrize("class_id", [1, 2, 3, 4, 5, 6])
    def test_convexity_midpoints(self, class_id):
        g = ef.catalog_generator(class_id)
        if g.autonomous:
            aset = ef.stationary_set_autonomous(g)
        else:
            aset = ef.asymptotic_set_nonautonomous(g)
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = draw_member(aset, rng)
            b = draw_member(aset, rng)
            mid = ef.new_state(0.5 * (a.matrix + b.matrix), 2, 2)
            assert ef.membership_residual(aset, mid) < 1e-8

    @pytest.mark.parametrize("class_id", [1, 2, 3, 5])
    def test_forward_invariance_autonomous(self, class_id):
        g = ef.catalog_generator(class_id)
        aset = ef.stationary_set_autonomous(g)
        rng = np.random.default_rng(5)
        for _ in range(3):
            m = draw_member(aset, rng)
            traj = ef.propagate(g, m, [0.0, 3.0])
            assert ef.trace_distance(traj.states[-1], m) < 1e-6

    @pytest.mark.parametrize("class_id", [1, 2, 3, 5])
    def test_attraction_autonomous(self, class_id):
        g = ef.catalog_generator(class_id)
        aset = ef.stationary_set_autonomous(g)
        for seed in range(20):
            traj = ef.propagate(g, random_state(seed), [0.0, 60.0])
            assert ef.membership_residual(aset, traj.states[-1]) < 1e-4

    @pytest.mark.parametrize("class_id", [4, 6])
    def test_attraction_nonautonomous(self, class_id):
        g = ef.catalog_generator(class_id)
        aset = ef.asymptotic_set_nonautonomous(g)
        residual = aset.diagnostics["convergence_residual"]
        for seed in range(20):
            traj = ef.propagate(g, random_state(seed), [0.0, 60.0])
            # distance to the state's own image under the converged map
            own_image = ef.new_state(
                (aset.map_matrix @ vec(random_state(seed).matrix)).reshape(4, 4, order="F"),
                2,
                2,
            )
            assert ef.trace_distance(traj.states[-1], own_image) < max(1e-4, 10 * residual)
