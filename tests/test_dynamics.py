import math
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
import scipy.linalg
from scipy.linalg import expm

import entfate as ef
from entfate.dynamics import (
    DEFAULT_OPTS,
    PSD_REPAIR,
    SPECTRAL_COND_MAX,
    ConstantRate,
    ExponentialRate,
    PropagatorSource,
    _SPOT_CHECK_TIMES,
    _dissipators,
    _factorizes,
    _from_pauli,
    _hamiltonian_superop,
    _pauli_basis,
    _pauli_hamiltonian,
    _pauli_liouvillian,
    _repair_states,
    _to_pauli,
    apply_map,
    liouvillian_matrix,
    make_generator,
    unvec,
    vec,
)
from entfate.errors import PositivityLost, StepFailure
from entfate.operators import EYE2, SMINUS, SX, SY, SZ, two_qubit_paulis

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


def kron_dissipator(lk):
    eye = np.eye(4)
    lklk = lk.conj().T @ lk
    return np.kron(lk.conj(), lk) - 0.5 * np.kron(eye, lklk) - 0.5 * np.kron(lklk.T, eye)


def kron_hamiltonian_part(h):
    eye = np.eye(4)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def reference_liouvillian(g, t):
    """The Liouvillian assembled from Kronecker products at every call, one
    scaled sum per rate group: channels whose rates are one object, or equal
    ConstantRates or ExponentialRates, are summed in channel order first."""
    groups = []  # [rate, summed dissipator]
    for ch in g.jumps:
        for group in groups:
            r = group[0]
            if r is ch.rate or (
                type(r) is type(ch.rate) in (ConstantRate, ExponentialRate) and r == ch.rate
            ):
                group[1] = group[1] + kron_dissipator(ch.operator)
                break
        else:
            groups.append([ch.rate, kron_dissipator(ch.operator)])
    lmat = kron_hamiltonian_part(g.ham(t))
    for rate, dr in groups:
        gam = rate(t)
        if gam == 0.0:
            continue
        lmat += gam * dr
    return lmat


def channel_liouvillian(g, t):
    """The Liouvillian summed channel by channel, each scaled on its own."""
    lmat = kron_hamiltonian_part(g.ham(t))
    for ch in g.jumps:
        gam = ch.rate(t)
        if gam == 0.0:
            continue
        lmat += gam * kron_dissipator(ch.operator)
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


def matches_eigensolve_oracle(m, repaired):
    """Whether ``repaired`` is ``reference_repair_state(m)`` bit for bit.  It
    may differ only where m, Hermitized and normalized, factorizes although
    its eigh minimum is negative: the repair then leaves it unclipped,
    within 1e-15 of the clipped oracle."""
    want = reference_repair_state(m)
    if np.array_equal(repaired, want):
        return True
    h = 0.5 * (m + m.conj().T)
    h = h / np.trace(h).real
    assert np.linalg.eigh(h)[0][0] < 0.0
    assert np.isfinite(np.linalg.cholesky(h)).all()
    assert np.array_equal(repaired, h)
    assert np.max(np.abs(repaired - want)) <= 1e-15
    return False


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
    lowest eigenvalue in [-1e-9, 0), so the repair clips them; ``faint``
    ones have it at +-10^u, u in [-18, -12], where a Cholesky factorization
    and an eigensolve may disagree on the sign, and only 1e-16 noise or
    none."""
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    if kind == "pure":
        m = np.outer(z[:, 0], z[:, 0].conj())
    else:
        m = z @ z.conj().T
    m /= np.trace(m).real
    if kind == "faint":
        w, v = np.linalg.eigh(m)
        w[0] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-18.0, -12.0)
        w[1:] *= (1.0 - w[0]) / w[1:].sum()
        m = (v * w) @ v.conj().T
        if rng.random() < 0.5:
            m = m + 1e-16 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        return m * (1.0 + 1e-11 * rng.normal())
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

    def test_rejects_a_one_qubit_jump_operator(self):
        with pytest.raises(ValueError) as got:
            make_generator(jumps=[(np.eye(2), 1.0)])
        assert str(got.value) == "jump operator shape (2, 2), expected (4, 4)"

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

    @pytest.mark.parametrize("tau", [np.inf, True, "1", pytest.param(10**400, id="10**400")],
                             ids=repr)
    def test_exponential_rate_needs_finite_real_tau(self, tau):
        # inf used to give a constant rate that claimed to decay
        with pytest.raises(ValueError) as got:
            ExponentialRate(1.0, tau)
        assert str(got.value) == f"tau must be positive and finite, got {tau!r}"

    def test_autonomy_autodetected(self):
        g = make_generator((2, 2), jumps=[(np.kron(SMINUS, EYE2), ConstantRate(1.0))])
        assert g.autonomous
        g = make_generator((2, 2), jumps=[(np.kron(SMINUS, EYE2), ExponentialRate(1.0))])
        assert not g.autonomous

    @pytest.mark.parametrize(
        "make_rate, shared, message",
        [
            (lambda: ConstantRate(-0.1), True, "negative rate -0.1 at t=0.0"),
            (lambda: ConstantRate(-0.1), False, "negative rate -0.1 at t=0.0"),
            (lambda: ConstantRate(np.nan), True, "non-finite rate nan at t=0.0"),
            (lambda: ConstantRate(np.nan), False, "non-finite rate nan at t=0.0"),
            (lambda: ExponentialRate(-2.0), False, "negative rate -2.0 at t=0.0"),
            (lambda: lambda t: np.inf if t > 5 else 1.0, True, "non-finite rate inf at t=10.0"),
            (lambda: lambda t: -1.0 if t == 1.0 else 1.0, True, "negative rate -1.0 at t=1.0"),
        ],
        ids=["negative", "negative-equal", "nan", "nan-separate", "negative-exponential-equal",
             "inf-at-t", "negative-at-t"],
    )
    def test_bad_rate_of_fifteen_channels(self, make_rate, shared, message):
        # one rate object on all 15 channels, or 15 separately built ones:
        # the error is that of a single channel with the rate
        rates = [make_rate()] * 15 if shared else [make_rate() for _ in range(15)]
        with pytest.raises(ValueError) as alone:
            make_generator((2, 2), jumps=[(two_qubit_paulis()[0], rates[0])])
        with pytest.raises(ValueError) as got:
            make_generator((2, 2), jumps=list(zip(two_qubit_paulis(), rates)))
        assert str(got.value) == str(alone.value) == message

    @pytest.mark.parametrize("autonomous", [None, True])
    def test_each_distinct_rate_is_spot_checked_once(self, autonomous):
        calls = []

        def rate(t):
            calls.append(t)
            return 0.5

        seen = []
        for n in (1, 15):
            calls.clear()
            jumps = [(p, rate) for p in two_qubit_paulis()[:n]]
            make_generator((2, 2), jumps=jumps, autonomous=autonomous)
            seen.append(list(calls))
        assert seen[0] == seen[1]
        assert set(seen[1]) == set(_SPOT_CHECK_TIMES)

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


class TestBroadcastProducts:
    """The superoperator pieces and the Paulis are broadcast products, bit
    for bit the np.kron forms kept here as oracles."""

    @pytest.mark.parametrize("seed", range(6))
    def test_hamiltonian_part(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for h in (0.5 * (z + z.conj().T), z, z.real, -z, np.zeros((4, 4))):
            got = _hamiltonian_superop(h)
            assert got.shape == (16, 16)
            assert got.tobytes() == kron_hamiltonian_part(h).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_dissipators(self, seed):
        rng = np.random.default_rng(seed)
        ls = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
        ls[3] = np.kron(SMINUS, EYE2)
        got = _dissipators(ls)
        assert got.shape == (7, 16, 16)
        assert [d.tobytes() for d in got] == [kron_dissipator(lk).tobytes() for lk in ls]

    def test_two_qubit_paulis(self):
        singles = [EYE2, SX, SY, SZ]
        want = [np.kron(a, b) for a in singles for b in singles][1:]
        got = two_qubit_paulis()
        assert got.shape == (15, 4, 4)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


class TestCompiledGenerator:
    """liouvillian_matrix sums pieces compiled once per Generator."""

    TIMES = (0.0, 0.7, 5.0, 13.2, 1000.0)  # exp(-1000) rates are exactly 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(
            st.sampled_from(["constant", "exponential", "zero", "shared", "equal"]),
            min_size=1,
            max_size=4,
        ),
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
        shared = ExponentialRate(rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0))
        rates = {
            "constant": lambda: ConstantRate(rng.uniform(0.2, 1.0)),
            "exponential": lambda: ExponentialRate(rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0)),
            "zero": lambda: ConstantRate(0.0),
            "shared": lambda: shared,  # one object on every channel of this kind
            "equal": lambda: ConstantRate(0.75),  # separate objects, equal by value
        }
        jumps = [
            (0.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))), rates[k]())
            for k in kinds
        ]
        g = make_generator((2, 2), hamiltonian=h, jumps=jumps)
        assert (g.hamiltonian_part is None) == time_dependent_h
        distinct = sum(kinds.count(k) for k in ("constant", "exponential")) + sum(
            k in kinds for k in ("zero", "shared", "equal")
        )
        assert len(g.dissipators) == len(g.rates) == distinct
        tr = vec(np.eye(4)).conj()
        for t in self.TIMES:
            lmat = liouvillian_matrix(g, t)
            assert np.array_equal(lmat, reference_liouvillian(g, t))
            # summing a group before scaling reorders the rounding: a few ulps of
            # the largest channel term (entries here reach about 6, an ulp 9e-16)
            scale = max(abs(ch.rate(t)) * np.max(np.abs(kron_dissipator(ch.operator)))
                        for ch in g.jumps)
            bound = 8 * np.finfo(float).eps * max(scale, 1.0)
            assert np.max(np.abs(lmat - channel_liouvillian(g, t))) <= bound
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
        assert len(g2.jumps) == 15 and len(g2.dissipators) == len(g2.rates) == 1
        for p in (g2.hamiltonian_part, *g2.dissipators):
            assert not p.flags.writeable
        for t in self.TIMES:
            assert np.array_equal(liouvillian_matrix(g2, t), liouvillian_matrix(g, t))

    @pytest.mark.parametrize("class_id, channels", [(1, 15), (2, 2), (3, 3), (4, 15), (5, 2), (6, 3)])
    def test_catalog_compiles_one_dissipator(self, class_id, channels):
        g = ef.catalog_generator(class_id)
        assert len(g.jumps) == channels
        assert len(g.dissipators) == 1 and g.rates == (g.jumps[0].rate,)
        for t in self.TIMES:
            assert np.array_equal(liouvillian_matrix(g, t), reference_liouvillian(g, t))
            assert np.max(np.abs(liouvillian_matrix(g, t) - channel_liouvillian(g, t))) <= 1e-15

    def test_rates_equal_by_value_group_from_a_config(self):
        from entfate.cli import build_generator

        ops = [np.kron(SMINUS, EYE2), np.kron(EYE2, SMINUS)]
        jumps = [
            {"operator": [[[z.real, z.imag] for z in row] for row in op],
             "rate": {"kind": "constant", "value": 0.5}}
            for op in ops
        ]
        g = build_generator({"generator": {"explicit": {"jumps": jumps}}})
        assert g.jumps[0].rate is not g.jumps[1].rate
        assert len(g.dissipators) == 1 and g.rates == (ConstantRate(0.5),)
        assert np.array_equal(liouvillian_matrix(g), reference_liouvillian(g, 0.0))

    def test_other_callables_group_by_identity(self):
        ops = [np.kron(SMINUS, EYE2), np.kron(EYE2, SMINUS)]
        first, second = (lambda t: 0.5 * math.exp(-t)), (lambda t: 0.5 * math.exp(-t))
        apart = make_generator((2, 2), jumps=[(ops[0], first), (ops[1], second)])
        assert len(apart.dissipators) == 2 and apart.rates == (first, second)
        shared = make_generator((2, 2), jumps=[(ops[0], first), (ops[1], first)])
        assert len(shared.dissipators) == 1 and shared.rates == (first,)
        for t in self.TIMES:
            assert np.array_equal(liouvillian_matrix(apart, t), channel_liouvillian(apart, t))
            assert np.array_equal(liouvillian_matrix(shared, t), reference_liouvillian(shared, t))

    def test_unhashable_rates_compile(self):
        class Unhashable:
            __hash__ = None

            def __call__(self, t):
                return 0.25

        op = np.kron(SMINUS, EYE2)
        g = make_generator((2, 2), jumps=[(op, Unhashable()), (op.T, Unhashable())])
        assert len(g.dissipators) == 2
        assert np.array_equal(liouvillian_matrix(g), channel_liouvillian(g, 0.0))

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


class TestSolverOptions:
    @pytest.mark.parametrize(
        "bad", [np.nan, 0.0, -1.0, True, "1e-9", pytest.param(10**400, id="10**400")], ids=repr
    )
    @pytest.mark.parametrize("name", ["rtol", "atol"])
    def test_tolerances_must_be_positive_and_finite(self, monkeypatch, name, bad):
        # atol = nan used to make a non-autonomous solve run until killed
        from entfate import dynamics

        def no_work(*args):
            raise AssertionError("a flow started")

        monkeypatch.setattr(dynamics, "_flow", no_work)
        with pytest.raises(ValueError) as got:
            ef.propagate(ef.catalog_generator(6), ef.max_entangled(), [0.0, 1.0],
                         ef.SolverOptions(**{name: bad}))
        assert str(got.value) == f"{name} must be positive and finite, got {bad!r}"


def bell_basis():
    """Columns Phi+, Phi-, Psi+, Psi- in the product basis."""
    s = 1.0 / np.sqrt(2.0)
    return s * np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex)


def depolarized(rho, f):
    """e^-F rho + (1 - e^-F) tr(rho) I/4."""
    return np.exp(-f) * rho + (1.0 - np.exp(-f)) * np.trace(rho) * np.eye(4) / 4


def pumped_into_phi_plus(rho, f):
    """In the Bell basis, entry (j, k) scaled by e^{-F (d_j + d_k)/2} with
    d = (0, 1, 1, 1), and the weight lost added to (Phi+, Phi+)."""
    b = bell_basis()
    r = b.conj().T @ rho @ b
    d = np.array([0.0, 1.0, 1.0, 1.0])
    out = r * np.exp(-f * (d[:, None] + d[None, :]) / 2)
    out[0, 0] += np.trace(r) - np.trace(out)
    return b @ out @ b.conj().T


def dephased(rho, gamma_t):
    """Entry (ij, kl) scaled by e^{-2 gamma t ([i != k] + [j != l])}."""
    bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    flips = (bits[:, None, :] != bits[None, :, :]).sum(axis=-1)
    return rho * np.exp(-2.0 * gamma_t * flips)


class TestCatalogClosedForms:
    """The propagator of every catalog class against its closed-form map
    (class 2 has its amplitude-damping Kraus oracle above).  F is the
    integrated rate: gamma t for a constant rate, c (1 - e^-t) for a quench."""

    @pytest.mark.parametrize(
        "class_id, params, oracle, integrated, bound",
        [
            (1, {"gamma": 0.7}, depolarized, lambda t: 0.7 * t, 1e-12),
            (4, {"c": 2.0}, depolarized, lambda t: 2.0 * (1.0 - np.exp(-t)), 1e-9),
            (3, {"gamma": 0.9}, pumped_into_phi_plus, lambda t: 0.9 * t, 1e-12),
            (6, {"c": 10.0}, pumped_into_phi_plus, lambda t: 10.0 * (1.0 - np.exp(-t)), 1e-9),
            (5, {"gamma": 0.4}, dephased, lambda t: 0.4 * t, 1e-12),
        ],
        ids=["class1", "class4", "class3", "class6", "class5"],
    )
    def test_propagator_matches_closed_form(self, class_id, params, oracle, integrated, bound):
        g = ef.catalog_generator(class_id, **params)
        for t in (0.3, 0.7, 2.0):
            phi = ef.propagator_matrix(g, t)
            for seed in range(3):
                rho = random_state(seed).matrix
                got = unvec(phi @ vec(rho))
                assert np.max(np.abs(got - oracle(rho, integrated(t)))) < bound


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

    def test_non_finite_maps_raise(self):
        # maps this large overflow to NaN, and a NaN residual used to pass the check
        g = make_generator(jumps=[(np.kron(SMINUS, EYE2), 1e305)])
        with pytest.raises(StepFailure, match="residual nan"):
            ef.propagator_matrices(g, np.linspace(0.0, 5.0, 21))

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

    def test_evolve_state_rejects_a_backward_step(self):
        with pytest.raises(ValueError) as got:
            ef.evolve_state(ef.catalog_generator(2), ef.max_entangled(), 2.0, 1.0)
        assert str(got.value) == "t_to must be >= t_from"

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
        ef.asymptotic_set_nonautonomous(g)
        ef.asymptotic_set_nonautonomous(ef.catalog_generator(4))
        ef.propagator_matrix(g, 2.0)
        ef.propagator_matrices(g, self.GRID)
        ef.evolve_state(g, random_state(1), 0.5, 2.0)
        assert len(dense) == 5 and not any(dense)
        ef.propagate(g, random_state(1), self.GRID)
        assert dense[5:] == [True]


def driven_generator():
    """H(t) = 1/2 cos t X⊗X + 0.3 Z⊗I with decay of each qubit, one at a
    constant rate and one at an exponentially falling one."""
    xx, zi = np.kron(SX, SX), np.kron(SZ, EYE2)
    return make_generator(
        hamiltonian=lambda t: 0.5 * np.cos(t) * xx + 0.3 * zi,
        jumps=[(np.kron(SMINUS, EYE2), 0.4), (np.kron(EYE2, SMINUS), ExponentialRate(1.0, 2.0))],
    )


def random_hermitian(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return z + z.conj().T


def record_solve_starts(monkeypatch):
    """Record the start vector of every ``solve_ivp`` call."""
    from entfate import dynamics

    starts = []
    solve_ivp = dynamics.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        starts.append(y0)
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", recording)
    dynamics._grid_source.cache_clear()
    return starts


class TestPauliFlow:
    """A non-autonomous flow runs in the orthonormal Pauli basis B, whose
    column k is vec(P_k)/2, on real data, and hands back column-stacking
    maps and states."""

    GENERATORS = [ef.catalog_generator(c) for c in range(1, 7)] + [
        random_generator(seed, n_jumps=3) for seed in range(4)
    ]

    def test_basis_is_orthonormal(self):
        b, bh, parts = _pauli_basis()
        assert np.array_equal(bh, b.conj().T) and np.array_equal(bh @ b, np.eye(16))
        assert np.array_equal(b[:, 0], vec(np.eye(4)) / 2)
        assert np.array_equal(unvec(b.T)[1:] * 2, two_qubit_paulis())
        assert np.array_equal(parts, np.concatenate([b.real, b.imag]))

    def test_flows_start_from_real_data(self, monkeypatch):
        starts = record_solve_starts(monkeypatch)
        g = ef.catalog_generator(6)
        grid = np.linspace(0.0, 2.0, 9)
        ef.propagate(g, random_state(1), grid)
        ef.propagate(driven_generator(), random_state(1), grid)
        ef.propagator_matrices(g, grid)
        ef.propagator_matrix(driven_generator(), 1.0)
        assert len(starts) == 4
        for y0 in starts:
            assert y0.dtype == np.float64 and y0.shape == (256,)
            # the identity map is the identity in every orthonormal basis
            assert np.array_equal(y0, np.eye(16).ravel())
        rho = random_state(2)
        ef.evolve_state(g, rho, 0.5, 1.0)
        y0 = starts[-1]
        assert y0.dtype == np.float64 and y0.shape == (16,)
        assert np.max(np.abs(y0 - _pauli_basis()[1] @ vec(rho.matrix))) <= 1e-15

    @pytest.mark.parametrize("g", GENERATORS, ids=[f"class{c}" for c in range(1, 7)]
                             + [f"random{seed}" for seed in range(4)])
    def test_pieces_are_real_with_a_zero_first_row(self, g):
        for piece in (g.hamiltonian_part, *g.dissipators):
            z = _to_pauli(piece, True)
            assert np.max(np.abs(z.imag)) <= 1e-15
            # row 0 is vec(I)^H L / 2: the trace functional, which L annihilates
            assert np.max(np.abs(z[0])) <= 1e-15
        for t in (0.0, 0.7, 3.0):
            lmat = _pauli_liouvillian(g)(t)
            assert lmat.dtype == np.float64
            assert np.max(np.abs(lmat - _to_pauli(liouvillian_matrix(g, t), True))) <= 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trips(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(3, 16, 16))
        assert np.max(np.abs(_to_pauli(_from_pauli(z[0], True), True) - z[0])) <= 1e-15
        phis = _from_pauli(z, True)
        for zk, phi in zip(z, phis):
            assert np.max(np.abs(phi - _pauli_basis()[0] @ zk @ _pauli_basis()[1])) <= 1e-15
        g = random_generator(seed)
        for m in (liouvillian_matrix(g), ef.propagator_matrix(g, 0.8)):
            back = _from_pauli(_to_pauli(m, True).real, True)
            assert np.max(np.abs(back - m)) <= 1e-14 * max(1.0, np.max(np.abs(m)))
        hs = np.array([random_hermitian(rng) for _ in range(4)])
        c = _to_pauli(vec(hs), False)
        assert c.shape == (4, 16) and np.max(np.abs(c.imag)) <= 1e-15
        assert np.max(np.abs(_from_pauli(c.real, False) - vec(hs))) <= 1e-15
        assert np.max(np.abs(_from_pauli(c[0].real, False) - vec(hs[0]))) <= 1e-15

    @pytest.mark.parametrize("seed", range(8))
    def test_coefficient_assembly_matches_the_conjugated_superoperator(self, seed):
        h = random_hermitian(np.random.default_rng(seed))
        got = _pauli_hamiltonian(h)
        assert got.dtype == np.float64 and got.shape == (16, 16)
        assert np.max(np.abs(got - _to_pauli(_hamiltonian_superop(h), True))) <= 1e-15

    def test_flow_builds_no_liouvillian_matrix(self, monkeypatch):
        from entfate import dynamics

        calls = []
        original = dynamics.liouvillian_matrix

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dynamics, "liouvillian_matrix", counting)
        dynamics._grid_source.cache_clear()
        for g in (ef.catalog_generator(6), driven_generator()):
            ef.propagate(g, random_state(1), np.linspace(0.0, 3.0, 13))
        assert calls == []

    def test_driven_generator_matches_a_column_stacking_solve(self):
        from scipy.integrate import solve_ivp

        g = driven_generator()
        grid = np.linspace(0.0, 5.0, 21)
        opts = ef.SolverOptions(rtol=1e-10, atol=1e-12)
        oracle = solve_ivp(
            lambda t, y: (reference_liouvillian(g, t) @ y.reshape(16, 16)).ravel(),
            (0.0, grid[-1]), np.eye(16, dtype=complex).ravel(), method="RK45",
            t_eval=grid, dense_output=True, rtol=opts.rtol, atol=opts.atol,
        )
        assert oracle.success
        want = np.moveaxis(oracle.y.reshape(16, 16, -1), -1, 0)
        got = ef.propagator_matrices(g, grid, opts)
        assert np.max(np.abs(got - want)) <= 1e-8
        traj = ef.propagate(g, random_state(4), grid, opts)
        for t in (0.01, 1.37, 2.6, 4.99):
            want_t = oracle.sol(t).reshape(16, 16)
            assert np.max(np.abs(traj.source.at(t) - want_t)) <= 1e-8
            rho = unvec(want_t @ vec(traj.initial.matrix))
            assert np.max(np.abs(traj.state_at(t).matrix - rho)) <= 1e-8
        st = ef.evolve_state(g, traj.initial, 0.0, 3.0, opts)
        rho = unvec(oracle.sol(3.0).reshape(16, 16) @ vec(traj.initial.matrix))
        assert np.max(np.abs(st.matrix - rho)) <= 1e-8


class TestSpectralMaps:
    """An autonomous source gives Phi(t) off its grid as V e^{Lambda t} V^-1,
    from its generator's one eigendecomposition of L, and as
    exp(L (t - t_i)) Phi(t_i) when L is near defective."""

    GRID = np.linspace(0.0, 30.0, 41)

    @staticmethod
    def exceptional_point():
        # a decaying qubit driven at its exceptional point, where L has a Jordan block
        return make_generator(hamiltonian=np.kron(SX, EYE2) / 8.0,
                              jumps=[(np.kron(SMINUS, EYE2), 1.0)])

    @pytest.mark.parametrize("class_id, cond", [(1, 1.86), (2, 5.83), (3, 5.04), (5, 1.00)])
    def test_off_grid_maps_match_expm(self, monkeypatch, class_id, cond):
        from entfate import dynamics

        g = ef.catalog_generator(class_id)
        source = PropagatorSource(g, self.GRID, DEFAULT_OPTS)
        calls = []
        monkeypatch.setattr(dynamics, "expm", lambda m: calls.append(m) or expm(m))
        lmat = liouvillian_matrix(g, 0.0)
        for t in np.random.default_rng(class_id).uniform(0.0, 30.0, 25):
            assert np.max(np.abs(source.at(t) - expm(lmat * t))) <= 1e-13
        assert calls == []
        _, _, v, v_inv = g.spectrum
        assert v_inv is not None and np.linalg.cond(v) == pytest.approx(cond, abs=0.01)

    def test_near_defective_generator_falls_back_to_expm(self, monkeypatch):
        from entfate import dynamics

        g = self.exceptional_point()
        source = PropagatorSource(g, self.GRID, DEFAULT_OPTS)
        calls = []
        monkeypatch.setattr(dynamics, "expm", lambda m: calls.append(m) or expm(m))
        lmat = liouvillian_matrix(g, 0.0)
        ts = np.random.default_rng(0).uniform(0.0, 30.0, 25)
        for t in ts:
            assert np.max(np.abs(source.at(t) - expm(lmat * t))) <= 1e-13
        assert g.spectrum[3] is None and len(calls) == len(ts)  # no V^-1
        assert np.linalg.cond(scipy.linalg.eig(lmat)[1]) > SPECTRAL_COND_MAX

    def test_stationary_set_of_a_near_defective_generator_is_the_long_time_map(self):
        # P∞ from the left eigenvectors; one built from V^-1's kernel rows misses by 1.7e-8
        g = self.exceptional_point()
        p_inf = ef.stationary_set_autonomous(g).map_matrix
        assert np.max(np.abs(p_inf - expm(liouvillian_matrix(g, 0.0) * 400.0))) <= 1e-12

    def test_one_eig_serves_the_stationary_set_and_the_off_grid_maps(self, monkeypatch):
        calls = []
        scipy_eig, numpy_eig = scipy.linalg.eig, np.linalg.eig
        monkeypatch.setattr(scipy.linalg, "eig",
                            lambda *a, **k: calls.append("scipy") or scipy_eig(*a, **k))
        monkeypatch.setattr(np.linalg, "eig",
                            lambda *a, **k: calls.append("numpy") or numpy_eig(*a, **k))
        g = random_generator(11)
        ef.stationary_set_autonomous(g)
        source = PropagatorSource(g, self.GRID, DEFAULT_OPTS)
        for t in (0.3, 7.7, 29.9):
            source.at(t)
        ef.stationary_set_autonomous(g)
        assert calls == ["scipy"]

    def test_spectrum_is_read_only_and_autonomous_only(self):
        spectrum = ef.catalog_generator(2).spectrum
        assert not any(m.flags.writeable for m in spectrum)
        with pytest.raises(ValueError, match="not autonomous"):
            ef.catalog_generator(6).spectrum


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["mixed", "pure", "clipped", "faint"]),
                       min_size=1, max_size=50),
    )
    def test_repair_is_per_state_at_the_factorization_border(self, seed, kinds):
        rng = np.random.default_rng(seed)
        ms = np.stack([propagated_like(rng, k) for k in kinds])
        repaired = _repair_states(ms)
        for m, got in zip(ms, repaired):
            assert np.array_equal(got, _repair_states(m[None])[0])
            matches_eigensolve_oracle(m, got)

    def test_faint_states_reach_the_border(self):
        # the exception to the oracle's bits is taken, and only within its bound
        rng = np.random.default_rng(11)
        ms = np.stack([propagated_like(rng, "faint") for _ in range(2000)])
        repaired = _repair_states(ms)
        border = sum(not matches_eigensolve_oracle(m, got) for m, got in zip(ms, repaired))
        assert 0 < border < len(ms) // 4

    @staticmethod
    def count_factorizations(monkeypatch):
        """Record the argument of every ``cholesky`` and ``eigh`` call."""
        from entfate import dynamics

        calls = {"cholesky": [], "eigh": []}
        for name, original in (("cholesky", np.linalg.cholesky), ("eigh", np.linalg.eigh)):
            def counting(a, *args, _calls=calls[name], _original=original, **kwargs):
                _calls.append(np.array(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(dynamics.np.linalg, name, counting)
        return calls

    def test_propagate_makes_one_stacked_factorization(self, monkeypatch):
        rho0 = ef.max_entangled()
        calls = self.count_factorizations(monkeypatch)
        traj = ef.propagate(ef.catalog_generator(2), rho0, np.linspace(0.0, 30.0, 400))
        assert [a.shape for a in calls["cholesky"]] == [(399, 4, 4)]
        assert calls["eigh"] == []
        assert traj.matrices.shape == (400, 4, 4)

    def test_a_stack_that_fails_the_factorization_makes_one_eigensolve(self, monkeypatch):
        # |00> is an exactly pure fixed point of amplitude damping
        g, rho0, grid = ef.catalog_generator(2), ef.basis_state(0, 0), np.linspace(0.0, 30.0, 400)
        calls = self.count_factorizations(monkeypatch)
        traj = ef.propagate(g, rho0, grid)
        assert [a.shape for a in calls["eigh"]] == [(399, 4, 4)]
        assert calls["cholesky"][0].shape == (399, 4, 4)
        raw = unvec(ef.propagator_matrices(g, grid)[1:] @ vec(rho0.matrix))
        for m, got in zip(raw, traj.matrices[1:]):
            assert np.array_equal(got, reference_repair_state(m))

    def test_a_nan_factor_never_certifies(self):
        # cholesky of a NaN matrix returns a NaN factor and does not raise
        ms = np.stack([np.eye(4, dtype=complex) / 4] * 3)
        ms[1, 2, 1] = np.nan
        assert np.isnan(np.linalg.cholesky(ms)[1]).any()
        assert not _factorizes(ms) and _factorizes(ms[::2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize(
        "positivity_at, drift_at, bad_at, error, message",
        [
            (2, 5, 1, StepFailure, "non-finite"),
            (2, 5, 4, PositivityLost, "below repair threshold"),
            (5, 2, 1, StepFailure, "non-finite"),
            (5, 2, 3, StepFailure, "trace drifted"),
        ],
    )
    def test_non_finite_state_fails_at_its_place(
        self, monkeypatch, bad, positivity_at, drift_at, bad_at, error, message
    ):
        ms = self.failing_stack(positivity_at, drift_at)
        # a lower Cholesky factor reads the lower triangle only: the bad entry is above it
        ms[bad_at, 0, 1] = bad
        calls = self.count_factorizations(monkeypatch)
        with pytest.raises(error, match=message):
            _repair_states(ms)
        assert all(np.isfinite(a).all() for a in calls["cholesky"] + calls["eigh"])
        with pytest.raises(StepFailure, match="non-finite"):
            _repair_states(ms[bad_at:])

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

