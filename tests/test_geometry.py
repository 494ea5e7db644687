import numpy as np
import pytest

import entfate as ef


def werner(w):
    return ef.new_state(
        w * ef.max_entangled().matrix + (1 - w) * np.eye(4) / 4, 2, 2
    )


def random_state(seed):
    return ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=seed))


def haar_local_unitary(rng):
    def one(d):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    return np.kron(one(2), one(2))


class TestMinPtEigenvalue:
    def test_maximally_mixed(self):
        assert abs(ef.min_pt_eigenvalue(ef.new_state(np.eye(4) / 4, 2, 2)) - 0.25) < 1e-14

    def test_bell(self):
        assert abs(ef.min_pt_eigenvalue(ef.max_entangled()) - (-0.5)) < 1e-12

    @pytest.mark.parametrize("w", [0.0, 1.0 / 3.0, 0.5, 1.0])
    def test_werner_closed_form(self, w):
        assert abs(ef.min_pt_eigenvalue(werner(w)) - (1 - 3 * w) / 4) < 1e-10


class TestConcurrence:
    def test_bell(self):
        assert abs(ef.concurrence(ef.max_entangled()) - 1.0) < 1e-12

    def test_product_state(self):
        assert ef.concurrence(ef.basis_state(0, 1)) == 0.0

    def test_werner_half(self):
        # brute-force eigenvalue formula vs known closed form max(0,(3w-1)/2)
        assert abs(ef.concurrence(werner(0.5)) - 0.25) < 1e-10

    @pytest.mark.parametrize("w", [0.0, 0.2, 1.0 / 3.0, 0.7, 1.0])
    def test_werner_closed_form(self, w):
        assert abs(ef.concurrence(werner(w)) - max(0.0, (3 * w - 1) / 2)) < 1e-10


def pt_eigenvalues(s):
    return np.linalg.eigvalsh(ef.partial_transpose(s, "B"))


class TestNegativity:
    """A two-qubit partial transpose has at most one negative eigenvalue
    (Sanpera, Tarrach & Vidal, PRA 58, 826 (1998)), so the negativity is
    max(0, -min_pt_eigenvalue)."""

    def test_maximally_mixed(self):
        s = ef.new_state(np.eye(4) / 4, 2, 2)
        assert np.all(pt_eigenvalues(s) > 0.0) and ef.min_pt_eigenvalue(s) > 0.0

    def test_bell(self):
        eigs = pt_eigenvalues(ef.max_entangled())
        assert abs(-np.sum(eigs[eigs < 0.0]) - 0.5) < 1e-12
        assert abs(ef.min_pt_eigenvalue(ef.max_entangled()) + 0.5) < 1e-12

    def test_monotone_along_depolarizing(self):
        # T_B(I/4) = I/4, so m((1 - lam) rho + lam I/4) = (1 - lam) m(rho) + lam/4
        found = 0
        seed = 0
        while found < 50:
            s = random_state(seed)
            seed += 1
            m = ef.min_pt_eigenvalue(s)
            if m >= -1e-8:
                continue
            found += 1
            for lam in np.linspace(0.0, 1.0, 11):
                mixed = ef.new_state((1 - lam) * s.matrix + lam * np.eye(4) / 4, 2, 2)
                assert abs(ef.min_pt_eigenvalue(mixed) - ((1 - lam) * m + lam / 4)) < 1e-14

    def test_zero_iff_ppt(self):
        for seed in range(200):
            s = random_state(seed)
            eigs = pt_eigenvalues(s)
            assert eigs[1] > -1e-12  # at most one negative eigenvalue
            negativity = -np.sum(eigs[eigs < 0.0])
            assert abs(negativity - max(0.0, -ef.min_pt_eigenvalue(s))) < 1e-15


class TestClassifyRegion:
    def test_maximally_mixed(self):
        r = ef.classify_region(ef.new_state(np.eye(4) / 4, 2, 2), tol=1e-9)
        assert r.tag == "deep_separable"
        assert abs(r.margin - 0.25) < 1e-12

    def test_pure_product_on_boundary(self):
        # PT of |00><00| is itself: rank one, min eigenvalue exactly 0
        r = ef.classify_region(ef.basis_state(0, 0), tol=1e-9)
        assert r.tag == "boundary"
        assert abs(r.margin) < 1e-12

    def test_werner_half_entangled(self):
        r = ef.classify_region(werner(0.5))
        assert r.tag == "entangled"
        assert abs(r.margin - (-1.0 / 8.0)) < 1e-10

    def test_tie_is_boundary(self):
        # margin 0.25 with tol exactly 0.25 must classify as boundary
        r = ef.classify_region(ef.new_state(np.eye(4) / 4, 2, 2), tol=0.25)
        assert r.tag == "boundary"

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            ef.classify_region(ef.max_entangled(), tol=0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_tol_must_be_positive_and_finite(self, tol):
        # a NaN tol used to tag every state boundary
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ef.classify_region(ef.max_entangled(), tol=tol)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(17)
        for seed in range(30):
            s = random_state(seed)
            r = ef.classify_region(s)
            u = haar_local_unitary(rng)
            s2 = ef.new_state(u @ s.matrix @ u.conj().T, 2, 2)
            r2 = ef.classify_region(s2)
            assert r2.tag == r.tag
            assert abs(r2.margin - r.margin) < 1e-10


class TestAgreementAndConvexity:
    def test_concurrence_ppt_agreement(self):
        # 2x2: positive concurrence iff NPT, whenever both margins are clear
        for seed in range(10_000):
            s = random_state(seed)
            c = ef.concurrence(s)
            m = ef.min_pt_eigenvalue(s)
            if c > 1e-8 or m < -1e-8:
                assert (c > 1e-8) == (m < -1e-8), (c, m)

    def test_separable_set_convex(self):
        pairs = 0
        seed = 0
        while pairs < 300:
            a = random_state(seed)
            b = random_state(seed + 1)
            seed += 2
            if (
                ef.classify_region(a).tag == "entangled"
                or ef.classify_region(b).tag == "entangled"
            ):
                continue
            pairs += 1
            for lam in (0.25, 0.5, 0.75):
                mix = ef.new_state(lam * a.matrix + (1 - lam) * b.matrix, 2, 2)
                assert ef.min_pt_eigenvalue(mix) >= -1e-9
