import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entfate as ef
from entfate.asymptotics import CLASS4_MIN_C, _pt_adjoint, _pure_probes, _seesaw_min
from entfate.dynamics import (
    ExponentialRate,
    _repair_states,
    liouvillian_matrix,
    make_generator,
    unvec,
    vec,
)
from entfate.errors import BadParams, Inconclusive, NotConverged, OscillatoryAsymptotics
from entfate.operators import EYE2, SZ, two_qubit_paulis
from entfate.states import hilbert_schmidt_state, transpose_b


def random_state(seed):
    return ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=seed))


class TestStationarySetAutonomous:
    def test_depolarizing_unique_maximally_mixed(self):
        aset = ef.stationary_set_autonomous(ef.catalog_generator(1))
        assert aset.cardinality == "one"
        assert aset.diagnostics["kernel_dim"] == 1
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
            img = ef.sample_member(aset, rng)
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


def asymptotic_set(g):
    if g.autonomous:
        return ef.stationary_set_autonomous(g)
    return ef.asymptotic_set_nonautonomous(g)


def per_probe_classification(a, tol=ef.asymptotics.DEFAULT_CLASS_TOL, n_probes=50, seed=0):
    """The per-probe loop that the probe stack replaced: every probe is
    built as a QState, then mapped, repaired and measured on its own."""

    def image(m):
        raw = (a.map_matrix @ m.flatten(order="F")).reshape((4, 4), order="F")
        return ef.QState(_repair_states(raw[None])[0])

    pure = _pure_probes()
    probes = [(f"image({label})", ef.new_state(np.outer(v, v.conj()))) for label, v in pure]
    rng = np.random.default_rng(seed)
    probes += [(f"image(random #{i})", hilbert_schmidt_state(rng)) for i in range(n_probes)]
    states = [(label, image(s.matrix)) for label, s in probes]
    for label, v in pure:
        x = _seesaw_min(a, v)
        states.append((f"seesaw from {label}", image(ef.new_state(np.outer(x, x.conj())).matrix)))
    margins = [(label, ef.min_pt_eigenvalue(s)) for label, s in states]
    bound = np.inf
    top = states[int(np.argmax([m for _, m in margins]))][1]
    if ef.min_pt_eigenvalue(top) < -tol:
        y = np.linalg.eigh(transpose_b(top.matrix))[1][:, 0]
        bound = float(np.linalg.eigvalsh(_pt_adjoint(a, y))[-1])
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
        aset = asymptotic_set(MANY_STATE_GENERATORS[name]())
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

        aset = asymptotic_set(ef.catalog_generator(class_id))
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

    def test_no_random_probes(self):
        aset = asymptotic_set(ef.catalog_generator(5))
        cls = ef.classify_theorem_class(aset, n_probes=0)
        assert cls == per_probe_classification(aset, n_probes=0)
        assert not any("random" in label for label, _ in cls.probes)

    @pytest.mark.parametrize("tol", [0.0, -0.1, float("nan"), float("inf")])
    @pytest.mark.parametrize("class_id", [2, 5])
    def test_tol_must_be_positive_and_finite(self, class_id, tol):
        aset = asymptotic_set(ef.catalog_generator(class_id))
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
            ef.catalog_generator(6, c=1.0)
        with pytest.raises(BadParams):
            ef.catalog_generator(7)
        with pytest.raises(BadParams):
            ef.catalog_generator(1, gamma=-1.0)
        assert CLASS4_MIN_C == pytest.approx(np.log(3.0) + 0.5)

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
            a = ef.sample_member(aset, rng)
            b = ef.sample_member(aset, rng)
            mid = ef.new_state(0.5 * (a.matrix + b.matrix), 2, 2)
            assert ef.membership_residual(aset, mid) < 1e-8

    @pytest.mark.parametrize("class_id", [1, 2, 3, 5])
    def test_forward_invariance_autonomous(self, class_id):
        g = ef.catalog_generator(class_id)
        aset = ef.stationary_set_autonomous(g)
        rng = np.random.default_rng(5)
        for _ in range(3):
            m = ef.sample_member(aset, rng)
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
