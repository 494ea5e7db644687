import numpy as np
import pytest

import entfate as ef
from entfate.errors import DimensionMismatch, NotAState, UnsupportedDimension, UnsupportedEnsemble
from entfate.states import transpose_b


def random_state(seed):
    return ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=seed))


def pt_oracle(rho, da, db):
    """Element-by-element partial transpose on B, independent of the
    reshape/transpose implementation."""
    out = np.zeros_like(rho)
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    out[i * db + j, k * db + l] = rho[i * db + l, k * db + j]
    return out


class TestNewState:
    def test_maximally_mixed(self):
        s = ef.new_state(np.eye(4) / 4, 2, 2)
        assert s.matrix.shape == (4, 4) and not s.matrix.flags.writeable
        assert abs(np.trace(s.matrix) - 1) < 1e-14
        assert np.array_equal(ef.new_state(np.eye(4) / 4).matrix, s.matrix)

    def test_pure_product_projector(self):
        s = ef.basis_state(0, 0)
        assert np.linalg.matrix_rank(s.matrix) == 1

    def test_psd_violation_reported(self):
        with pytest.raises(NotAState, match="PSD"):
            ef.new_state(np.diag([0.6, 0.6, -0.1, -0.1]), 2, 2)

    def test_hermiticity_violation(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.3
        with pytest.raises(NotAState, match="Hermitian"):
            ef.new_state(m, 2, 2)

    def test_trace_violation(self):
        with pytest.raises(NotAState, match="trace"):
            ef.new_state(np.eye(4) / 2, 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        # every "> tol" comparison is False for NaN, so this is checked first
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(NotAState, match="non-finite"):
            ef.new_state(m, 2, 2)

    def test_symmetrization_absorbs_roundoff(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e-12  # below tolerance, symmetrized away
        s = ef.new_state(m, 2, 2)
        assert np.max(np.abs(s.matrix - s.matrix.conj().T)) == 0.0


class TestPartialTranspose:
    def test_identity_fixed(self):
        s = ef.new_state(np.eye(4) / 4, 2, 2)
        assert np.allclose(ef.partial_transpose(s, "B"), np.eye(4) / 4)

    def test_bell_min_eigenvalue(self):
        s = ef.max_entangled()
        pt = ef.partial_transpose(s, "B")
        assert np.allclose(pt, pt_oracle(s.matrix, 2, 2))
        assert abs(np.linalg.eigvalsh(pt)[0] - (-0.5)) < 1e-12

    def test_involution_and_structure(self):
        for seed in range(100):
            s = random_state(seed)
            pt = ef.partial_transpose(s, "B")
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-14
            assert abs(np.trace(pt) - 1) < 1e-14
            twice = pt_oracle(pt, 2, 2)
            assert np.max(np.abs(twice - s.matrix)) < 1e-14

    def test_involution_via_api(self):
        # PT is linear on matrices; wrap via direct reshape round trip
        for seed in range(20):
            s = random_state(seed + 500)
            pt = ef.partial_transpose(s, "B")
            again = pt.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            assert np.max(np.abs(again - s.matrix)) < 1e-14

    def test_stack_matches_each_state(self):
        ms = np.stack([random_state(seed).matrix for seed in range(30)])
        pts = transpose_b(ms)
        assert pts.shape == (30, 4, 4)
        for m, pt in zip(ms, pts):
            assert np.array_equal(pt, pt_oracle(m, 2, 2))
            assert np.array_equal(pt, ef.partial_transpose(ef.new_state(m), "B"))

    def test_bad_subsystem(self):
        with pytest.raises(ValueError):
            ef.partial_transpose(ef.max_entangled(), "C")

    def test_subsystem_a(self):
        s = random_state(7)
        pa = ef.partial_transpose(s, "A")
        oracle = np.zeros_like(pa)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        oracle[i * 2 + j, k * 2 + l] = s.matrix[k * 2 + j, i * 2 + l]
        assert np.max(np.abs(pa - oracle)) < 1e-14


class TestPartialTrace:
    def test_bell_reduction(self):
        red = ef.partial_trace(ef.max_entangled(), "A")
        assert red.shape == (2, 2) and not red.flags.writeable
        assert np.allclose(red, np.eye(2) / 2, atol=1e-14)

    def test_product_factor_recovery(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            za = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            zb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            ra = za @ za.conj().T
            ra /= np.trace(ra).real
            rb = zb @ zb.conj().T
            rb /= np.trace(rb).real
            s = ef.new_state(np.kron(ra, rb), 2, 2)
            assert np.max(np.abs(ef.partial_trace(s, "A") - ra)) < 1e-12
            assert np.max(np.abs(ef.partial_trace(s, "B") - rb)) < 1e-12

    def test_trace_preserved(self):
        for seed in range(20):
            red = ef.partial_trace(random_state(seed), "B")
            assert abs(np.trace(red) - 1) < 1e-12
            assert np.array_equal(red, red.conj().T)


class TestTraceDistance:
    def test_self(self):
        s = random_state(0)
        assert ef.trace_distance(s, s) == 0.0

    def test_orthogonal_pure(self):
        assert abs(ef.trace_distance(ef.basis_state(0, 0), ef.basis_state(1, 1)) - 1.0) < 1e-14

    def test_triangle_inequality(self):
        for seed in range(100):
            a, b, c = (random_state(3 * seed + k) for k in range(3))
            assert ef.trace_distance(a, c) <= ef.trace_distance(a, b) + ef.trace_distance(b, c) + 1e-12


class TestSample:
    def test_deterministic(self):
        spec = ef.EnsembleSpec("hilbert_schmidt_mixed", seed=99)
        a = ef.sample(spec)
        b = ef.sample(spec)
        assert np.array_equal(a.matrix, b.matrix)

    def test_haar_pure_is_pure(self):
        s = ef.sample(ef.EnsembleSpec("haar_pure", seed=5))
        assert abs(np.trace(s.matrix @ s.matrix).real - 1.0) < 1e-12

    def test_fixed_concurrence_targets(self):
        for target in (0.0, 0.3, 0.6, 1.0):
            spec = ef.EnsembleSpec("fixed_concurrence_pure", seed=11, target_concurrence=target)
            s = ef.sample(spec)
            assert abs(ef.concurrence(s) - target) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedEnsemble):
            ef.EnsembleSpec("werner", seed=1)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            ef.EnsembleSpec("fixed_concurrence_pure", seed=1, target_concurrence=1.5)

    def test_ppt_fraction_positive_and_seed_stable(self):
        # reduced-size version of the acceptance criterion
        fracs = []
        for base in (21, 22):
            n = 2000
            cnt = sum(
                1
                for i in range(n)
                if ef.min_pt_eigenvalue(
                    ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=ef.split_seed(base, i)))
                )
                >= 0
            )
            fracs.append(cnt / n)
        assert all(f > 0.1 for f in fracs)
        assert abs(fracs[0] - fracs[1]) < 0.05

    def test_split_seed_distinct(self):
        seeds = {ef.split_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ef.new_state(np.eye(4) / 4, 2, 3), UnsupportedDimension),
        (lambda: ef.new_state(np.eye(2) / 2, 2, 1), UnsupportedDimension),
        (lambda: ef.new_state(np.eye(9) / 9, 3, 3), UnsupportedDimension),
        (lambda: ef.make_generator((2, 3)), UnsupportedDimension),
        (lambda: ef.new_state(np.eye(3) / 3), DimensionMismatch),
    ],
    ids=["new_state-2x3", "new_state-2x1", "new_state-3x3", "make_generator-2x3", "wrong-shape"],
)
def test_dimension_edges(call, error):
    """The only two calls that take dimensions accept (2, 2) alone, and a
    matrix of the wrong shape is still a DimensionMismatch."""
    with pytest.raises(error):
        call()
