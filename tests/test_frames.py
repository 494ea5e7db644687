"""Frame invariance: a local unitary W = U⊗V keeps the PT spectrum, so every
margin, class and fate is unchanged when a generator's Hamiltonian and jumps
are conjugated by W, and a fate's start is too.

Catalog classes 5 and 6 are left out of the class cases: their fixed probes
are where the frame enters, so their evidence still depends on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entfate as ef
from entfate.fate import DEFAULT_REFINE_TOL

FRAMES = settings(max_examples=8, deadline=None, derandomize=True)
FRAME_SEEDS = st.integers(0, 2**32 - 1)
# each catalog class's fates grid: (horizon, grid points, solver options);
# class 6 takes the grid and tolerances of the quench fates benchmark
FATES_GRIDS = {class_id: (30.0, 400, ef.SolverOptions()) for class_id in range(1, 6)}
FATES_GRIDS[6] = (12.0, 200, ef.SolverOptions(rtol=1e-7, atol=1e-10))
N_STARTS = 5


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


@pytest.mark.parametrize("class_id", [1, 2, 3, 4])
@FRAMES
@given(seed=FRAME_SEEDS)
def test_class_and_margins_are_frame_invariant(class_id, seed):
    g = ef.catalog_generator(class_id)
    _, cls = ef.classify_generator(g)
    _, cls_w = ef.classify_generator(rotated(g, local_frame(seed)))
    assert cls_w.class_id == cls.class_id == class_id
    assert cls_w.min_margin == pytest.approx(cls.min_margin, abs=1e-9)
    assert cls_w.max_margin == pytest.approx(cls.max_margin, abs=1e-9)


@pytest.mark.parametrize("class_id", sorted(FATES_GRIDS))
@FRAMES
@given(seed=FRAME_SEEDS)
def test_fates_are_frame_invariant(class_id, seed):
    horizon, points, opts = FATES_GRIDS[class_id]
    w = local_frame(seed)
    g = ef.catalog_generator(class_id)
    g_w = rotated(g, w)
    starts = [
        ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", ef.split_seed(seed, i)))
        for i in range(N_STARTS)
    ]
    # each frame's records in one run: a fates run keeps its last generator's
    # flow and limit set
    records = [ef.detect_fate(g, rho0, horizon, points, opts=opts) for rho0 in starts]
    records_w = [
        ef.detect_fate(g_w, ef.new_state(w @ rho0.matrix @ w.conj().T), horizon, points, opts=opts)
        for rho0 in starts
    ]
    for rec, rec_w in zip(records, records_w):
        assert rec_w.fate_tag == rec.fate_tag
        for t, t_w in [(rec.birth_time, rec_w.birth_time), (rec.death_time, rec_w.death_time)]:
            assert (t is None) == (t_w is None)
            assert t is None or abs(t_w - t) <= DEFAULT_REFINE_TOL
        assert len(rec_w.revival_times) == len(rec.revival_times)
        assert np.allclose(rec_w.revival_times, rec.revival_times, rtol=0.0,
                           atol=DEFAULT_REFINE_TOL)
