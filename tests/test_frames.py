"""Frame invariance: a local unitary W = U⊗V keeps the PT spectrum, so every
margin, class and fate is unchanged when a generator's Hamiltonian and jumps
are conjugated by W, and a fate's start is too.

Catalog classes 5 and 6 are left out of the class cases: their fixed probes
are where the frame enters, so their evidence still depends on it.

The qubit swap X -> SWAP X SWAP and complex conjugation X -> X* keep the PT
spectrum too, and all six catalog classes, fixed probes included, keep their
class and margins under them, so all six are checked.  Conjugation sends H
to -H* and each jump L_k to L_k*, since d/dt rho* = -i[-H*, rho*] plus the
dissipator of the L_k*; the catalog generators have H = 0, so only
criterion 6's random generators show the sign."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entfate as ef
import test_dynamics
from entfate.fate import DEFAULT_REFINE_TOL

FRAMES = settings(max_examples=8, deadline=None, derandomize=True)
FRAME_SEEDS = st.integers(0, 2**32 - 1)
# each catalog class's fates grid: (horizon, grid points, solver options);
# class 6 takes the grid and tolerances of the quench fates benchmark
FATES_GRIDS = {class_id: (30.0, 400, ef.SolverOptions()) for class_id in range(1, 6)}
FATES_GRIDS[6] = (12.0, 200, ef.SolverOptions(rtol=1e-7, atol=1e-10))
N_STARTS = 5
# the fates grid of criterion 6's random generators
RANDOM_FATES_GRID = (20.0, 400, ef.SolverOptions())
SWAP = np.eye(4)[[0, 2, 1, 3]]
# each symmetry's action on a Hamiltonian, and on a jump operator or a state
SYMMETRIES = {
    "swap": (lambda h: SWAP @ h @ SWAP, lambda m: SWAP @ m @ SWAP),
    "conjugation": (lambda h: -h.conj(), np.conj),
}


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random 2x2 unitary: the QR factor of a complex Gaussian matrix,
    its columns' phases fixed by R's diagonal (Mezzadri, Notices AMS 54, 592
    (2007))."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def local_frame(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.kron(haar_unitary(rng), haar_unitary(rng))


def rotated(g: ef.Generator, w: np.ndarray) -> ef.Generator:
    """g with its Hamiltonian and every jump conjugated by w, rates kept."""
    return ef.make_generator(
        hamiltonian=w @ g.hamiltonian @ w.conj().T,
        jumps=[(w @ ch.operator @ w.conj().T, ch.rate) for ch in g.jumps],
    )


def transformed(g: ef.Generator, symmetry: str) -> ef.Generator:
    """g with a symmetry applied to its Hamiltonian and every jump, rates kept."""
    on_h, on_m = SYMMETRIES[symmetry]
    return ef.make_generator(
        hamiltonian=on_h(g.hamiltonian),
        jumps=[(on_m(ch.operator), ch.rate) for ch in g.jumps],
    )


def assert_same_fates(records, records_mapped):
    """Equal tags, birth and death presence, revival counts, and times within
    the refinement tolerance."""
    for rec, rec_w in zip(records, records_mapped, strict=True):
        assert rec_w.fate_tag == rec.fate_tag
        for t, t_w in [(rec.birth_time, rec_w.birth_time), (rec.death_time, rec_w.death_time)]:
            assert (t is None) == (t_w is None)
            assert t is None or abs(t_w - t) <= DEFAULT_REFINE_TOL
        assert len(rec_w.revival_times) == len(rec.revival_times)
        assert np.allclose(rec_w.revival_times, rec.revival_times, rtol=0.0,
                           atol=DEFAULT_REFINE_TOL)


def assert_same_class(g, g_mapped, class_id=None):
    _, cls = ef.classify_generator(g)
    _, cls_w = ef.classify_generator(g_mapped)
    assert cls_w.class_id == cls.class_id
    assert class_id is None or cls.class_id == class_id
    assert cls_w.min_margin == pytest.approx(cls.min_margin, abs=1e-9)
    assert cls_w.max_margin == pytest.approx(cls.max_margin, abs=1e-9)


def hs_starts(seed):
    return [
        ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", ef.split_seed(seed, i)))
        for i in range(N_STARTS)
    ]


@pytest.mark.parametrize("class_id", [1, 2, 3, 4])
@FRAMES
@given(seed=FRAME_SEEDS)
def test_class_and_margins_are_frame_invariant(class_id, seed):
    g = ef.catalog_generator(class_id)
    assert_same_class(g, rotated(g, local_frame(seed)), class_id)


@pytest.mark.parametrize("class_id", sorted(FATES_GRIDS))
@FRAMES
@given(seed=FRAME_SEEDS)
def test_fates_are_frame_invariant(class_id, seed):
    horizon, points, opts = FATES_GRIDS[class_id]
    w = local_frame(seed)
    g = ef.catalog_generator(class_id)
    g_w = rotated(g, w)
    starts = hs_starts(seed)
    # each frame's records in one run: a fates run keeps its last generator's
    # flow and limit set
    records = [ef.detect_fate(g, rho0, horizon, points, opts=opts) for rho0 in starts]
    records_w = [
        ef.detect_fate(g_w, ef.new_state(w @ rho0.matrix @ w.conj().T), horizon, points, opts=opts)
        for rho0 in starts
    ]
    assert_same_fates(records, records_w)


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@pytest.mark.parametrize("class_id", range(1, 7))
def test_catalog_class_and_margins_keep_under_swap_and_conjugation(symmetry, class_id):
    g = ef.catalog_generator(class_id)
    assert_same_class(g, transformed(g, symmetry), class_id)


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@FRAMES
@given(seed=FRAME_SEEDS)
def test_random_class_and_margins_keep_under_swap_and_conjugation(symmetry, seed):
    g = test_dynamics.random_generator(seed)
    assert_same_class(g, transformed(g, symmetry))


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@pytest.mark.parametrize("which", [*sorted(FATES_GRIDS), "random"])
@FRAMES
@given(seed=FRAME_SEEDS)
def test_fates_keep_under_swap_and_conjugation(symmetry, which, seed):
    if which == "random":
        g, (horizon, points, opts) = test_dynamics.random_generator(seed), RANDOM_FATES_GRID
    else:
        g, (horizon, points, opts) = ef.catalog_generator(which), FATES_GRIDS[which]
    g_s = transformed(g, symmetry)
    on_state = SYMMETRIES[symmetry][1]
    starts = hs_starts(seed)
    records = [ef.detect_fate(g, rho0, horizon, points, opts=opts) for rho0 in starts]
    records_s = [
        ef.detect_fate(g_s, ef.new_state(on_state(rho0.matrix)), horizon, points, opts=opts)
        for rho0 in starts
    ]
    assert_same_fates(records, records_s)
