import sys
import threading

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entfate as ef
from entfate import states
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

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf)]
    )
    def test_non_finite_entry_rejected(self, bad):
        # symmetric, on the diagonal, or alone in the upper or lower triangle:
        # each must make the Hermiticity deviation non-finite, without a
        # warning, and be reported as non-finite
        for where in (((1, 2), (2, 1)), ((0, 0),), ((3, 3),), ((0, 3),), ((3, 0),)):
            m = np.eye(4, dtype=complex) / 4
            for ij in where:
                m[ij] = bad
            with pytest.raises(NotAState, match="non-finite"):
                ef.new_state(m, 2, 2)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-10, np.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        # every "> tol" check is False under a NaN tol, which would pass
        # 5I - 2J (trace 12, eigenvalue -3) as a state
        bad = 5.0 * np.eye(4) - 2.0 * np.ones((4, 4))
        for m in (bad, np.eye(4) / 4):
            with pytest.raises(ValueError, match="tol"):
                ef.new_state(m, 2, 2, tol=tol)

    def test_symmetrization_absorbs_roundoff(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e-12  # below tolerance, symmetrized away
        s = ef.new_state(m, 2, 2)
        assert np.max(np.abs(s.matrix - s.matrix.conj().T)) == 0.0


class TestQStateIdentity:
    def test_equality_is_identity_and_hashable(self):
        # equal matrices, distinct states: a generated __eq__ would compare arrays
        s, t = ef.max_entangled(), ef.max_entangled()
        assert s == s and s != t and not (s == t)
        assert {s: 1, t: 2}[s] == 1
        assert len({s, t, s}) == 2


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

    @pytest.mark.parametrize(
        "target", ["0.5", None, True, False, float("nan"), -0.1, 1.1], ids=repr
    )
    def test_target_must_be_a_real_number_in_range(self, target):
        # "0.5" and None used to end in an untyped TypeError from the range
        # comparison, and True to build and then fail in sample
        with pytest.raises(ValueError, match=r"target_concurrence must lie in \[0, 1\] as a real number, got "):
            ef.EnsembleSpec("fixed_concurrence_pure", seed=1, target_concurrence=target)

    @pytest.mark.parametrize(
        "target", [np.float64(0.6), np.float32(0.6), np.float16(0.6), np.int8(1), 1], ids=repr
    )
    def test_numpy_targets_sample_in_float64(self, target):
        spec = ef.EnsembleSpec("fixed_concurrence_pure", seed=11, target_concurrence=target)
        assert abs(ef.concurrence(ef.sample(spec)) - float(target)) < 1e-12

    @pytest.mark.parametrize("seed", [-1, 2**64, 3.5, "3", True], ids=repr)
    def test_seed_must_be_a_64_bit_integer(self, seed):
        # a sample's seed is its Philox key word: -1 and 2**64 used to build
        # and then fail in sample with numpy's OverflowError; 3.5 and "3"
        # used to sample the seed-3 state
        with pytest.raises(ValueError, match="seed") as info:
            ef.EnsembleSpec("hilbert_schmidt_mixed", seed=seed)
        assert repr(seed) in str(info.value)

    def test_seed_range_edges(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int32(3)):
            ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=seed))

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


def seed_sequence_child(seed, index):
    """The reference: numpy's own SeedSequence spawn-key child."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


_rnd = random.Random(20)
GRID_SEEDS = [0, 3, 7919, 2**32 - 1, 2**32, 2**47 + 12345, 2**63 + 5, 2**64 - 1,
              2**127 + 3, 2**128 + 7, 2**200 + 1] + [_rnd.getrandbits(64) for _ in range(20)]
GRID_INDICES = (list(range(1500)) + [_rnd.getrandbits(32) for _ in range(500)]
                + [_rnd.getrandbits(80) for _ in range(100)] + [2**32 - 1, 2**32, 2**64])


class TestSplitSeed:
    @pytest.mark.parametrize("seed", GRID_SEEDS)
    def test_bit_identical_to_seed_sequence(self, seed):
        # seeds of one to seven 32-bit words, indices of one to three
        for index in GRID_INDICES:
            assert ef.split_seed(seed, index) == seed_sequence_child(seed, index)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.integers(0, 2**256 - 1), st.integers(0, 2**96 - 1))
    def test_bit_identical_property(self, seed, index):
        assert ef.split_seed(seed, index) == seed_sequence_child(seed, index)

    def test_numpy_integers(self):
        assert ef.split_seed(np.uint64(2**64 - 1), np.int32(3)) == seed_sequence_child(2**64 - 1, 3)

    @pytest.mark.parametrize(
        "seed, index, name",
        [(3.7, 0, "seed"), (3, 2.9, "index"), (True, 0, "seed"), (3, False, "index"),
         ("3", 0, "seed"), (3, "0", "index"), (np.float64(3.0), 0, "seed")],
        ids=["seed-float", "index-float", "seed-bool", "index-bool", "seed-str", "index-str",
             "seed-numpy-float"],
    )
    def test_non_integers_are_refused(self, seed, index, name):
        # 3.7 used to give seed 3's child, and 2.9 index 2's
        with pytest.raises(ValueError, match=name):
            ef.split_seed(seed, index)

    @pytest.mark.parametrize("seed, index, name", [(-1, 0, "seed"), (3, -1, "index")])
    def test_negatives_are_refused(self, seed, index, name):
        with pytest.raises(ValueError, match=name):
            ef.split_seed(seed, index)

    def test_sampling_builds_no_seed_sequence(self, monkeypatch):
        g = ef.catalog_generator(2)
        spec = ef.EnsembleSpec("fixed_concurrence_pure", seed=3, target_concurrence=0.6)
        kinds = [(kind, c) for kind, c in SPECS for _ in range(34)][:100]
        specs = [ef.EnsembleSpec(kind, seed=ef.split_seed(3, i), target_concurrence=c)
                 for i, (kind, c) in enumerate(kinds)]
        expected = [ef.sample(s).matrix.tobytes() for s in specs]
        _, records = ef.fate_statistics(g, spec, n=5, horizon=20.0)

        def refuse(*args, **kwargs):
            raise AssertionError("a SeedSequence was built")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        states._seed_pool.cache_clear()
        got = [
            ef.sample(ef.EnsembleSpec(kind, seed=ef.split_seed(3, i), target_concurrence=c))
            for i, (kind, c) in enumerate(kinds)
        ]
        assert [s.matrix.tobytes() for s in got] == expected
        assert ef.fate_statistics(g, spec, n=5, horizon=20.0)[1] == records


def two_unitary_oracle(spec):
    """The fixed-concurrence sample as two separate Haar draws and np.kron."""
    rng = states._rng(spec.seed)

    def haar_unitary():
        z = rng.normal(size=(2, 2, 2))
        q, r = np.linalg.qr(z[0] + 1j * z[1])
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    u = np.kron(haar_unitary(), haar_unitary())
    theta = 0.5 * np.arcsin(spec.target_concurrence)
    v = u @ np.array([np.cos(theta), 0, 0, np.sin(theta)], dtype=complex)
    return ef.new_state(np.outer(v, v.conj()))


@pytest.mark.parametrize("c", [0.0, 0.3, 0.6, 1.0])
def test_fixed_concurrence_bit_identical_to_two_draws(c):
    for i in range(2000):
        spec = ef.EnsembleSpec("fixed_concurrence_pure", seed=ef.split_seed(17, i),
                               target_concurrence=c)
        assert ef.sample(spec).matrix.tobytes() == two_unitary_oracle(spec).matrix.tobytes()


def rngs(seed):
    """Two generators with one stream, of each kind that draws states:
    PCG64 for classify's probes and Philox for ensemble samples."""
    if seed % 2:
        return [np.random.Generator(np.random.Philox(key=seed)) for _ in range(2)]
    return [np.random.default_rng(seed) for _ in range(2)]


def non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.3
    return m


def non_finite(value, *where):
    m = np.eye(4, dtype=complex) / 4
    for ij in where:
        m[ij] = value
    return m


NOT_STATES = {
    "nan-off-diagonal": lambda: non_finite(np.nan, (1, 2), (2, 1)),
    "inf-imaginary-diagonal": lambda: non_finite(complex(1.0, np.inf), (0, 0)),
    "inf-lower": lambda: non_finite(-np.inf, (3, 0)),
    "non-hermitian": non_hermitian,
    "trace": lambda: np.eye(4, dtype=complex) / 2,
    "non-psd": lambda: np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex),
}


class TestHilbertSchmidtStack:
    """``hilbert_schmidt_states`` is n scalar draws in one stack, bit for bit,
    and its stacked check refuses what ``new_state`` refuses."""

    @pytest.mark.parametrize("seed", [0, 1, 3, 7919])
    def test_equals_scalar_draws(self, seed):
        # 4 seeds of 500: 2,000 states
        batch, scalar = rngs(seed)
        got = states.hilbert_schmidt_states(batch, 500)
        assert got.shape == (500, 4, 4) and not got.flags.writeable
        want = [states.hilbert_schmidt_state(scalar).matrix.tobytes() for _ in range(500)]
        assert [m.tobytes() for m in got] == want
        # the stream goes on where the n scalar draws leave it
        assert batch.normal(size=8).tobytes() == scalar.normal(size=8).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 50])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_small_counts(self, seed, n):
        batch, scalar = rngs(seed)
        got = states.hilbert_schmidt_states(batch, n)
        assert got.shape == (n, 4, 4) and got.dtype == complex
        want = [states.hilbert_schmidt_state(scalar).matrix.tobytes() for _ in range(n)]
        assert [m.tobytes() for m in got] == want
        assert batch.normal(size=8).tobytes() == scalar.normal(size=8).tobytes()

    def test_check_symmetrizes_as_new_state_does(self):
        rng = np.random.default_rng(2)
        ms = np.array(states.hilbert_schmidt_states(rng, 20))
        ms += 1e-12 * (rng.normal(size=ms.shape) + 1j * rng.normal(size=ms.shape))
        got = states._checked_states(ms)
        assert not got.flags.writeable
        assert [m.tobytes() for m in got] == [ef.new_state(m).matrix.tobytes() for m in ms]

    @pytest.mark.parametrize("k", [0, 2, 5])
    @pytest.mark.parametrize("bad", list(NOT_STATES))
    def test_check_refuses_what_new_state_refuses(self, bad, k):
        ms = np.array(states.hilbert_schmidt_states(np.random.default_rng(k), 6))
        ms[k] = NOT_STATES[bad]()
        others = [name for name in NOT_STATES if name != bad]
        for j in range(k + 1, 6):  # later failures of other kinds: the first is reported
            ms[j] = NOT_STATES[others[j % len(others)]]()
        for tol in (states.VALIDATION_TOL, 1e-3):
            with pytest.raises(NotAState) as want:
                ef.new_state(ms[k], tol=tol)
            with pytest.raises(NotAState) as got:
                states._checked_states(ms, tol=tol)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


def fresh_sample(spec):
    """Each ensemble built the long way: a fresh Philox keyed by the seed
    and separate real and imaginary normal draws."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(spec.seed)))

    def ginibre(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if spec.kind == "hilbert_schmidt_mixed":
        g = ginibre(4, 4)
        m = g @ g.conj().T
        return ef.new_state(m / np.trace(m).real)
    if spec.kind == "haar_pure":
        v = ginibre(4)
        v /= np.linalg.norm(v)
        return ef.new_state(np.outer(v, v.conj()))
    units = []
    for _ in range(2):
        q, r = np.linalg.qr(ginibre(2, 2))
        units.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    theta = 0.5 * np.arcsin(spec.target_concurrence)
    v = np.kron(*units) @ np.array([np.cos(theta), 0, 0, np.sin(theta)], dtype=complex)
    return ef.new_state(np.outer(v, v.conj()))


SPECS = [
    ("hilbert_schmidt_mixed", 0.0),
    ("haar_pure", 0.0),
    ("fixed_concurrence_pure", 0.6),
]


class TestRekeyedStream:
    @pytest.mark.parametrize("kind, c", SPECS, ids=[k for k, _ in SPECS])
    def test_bit_identical_to_fresh_philox(self, kind, c):
        for base in (0, 3, 7919):
            for i in range(300):
                spec = ef.EnsembleSpec(kind, seed=ef.split_seed(base, i), target_concurrence=c)
                assert ef.sample(spec).matrix.tobytes() == fresh_sample(spec).matrix.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 123456789, 2**64 - 1])
    def test_partial_draw_does_not_leak(self, seed):
        spec = ef.EnsembleSpec("hilbert_schmidt_mixed", seed=seed)
        rng = states._rng(seed ^ 1)
        rng.normal(size=3)  # leaves buffered words behind
        rng.integers(0, 2**32, dtype=np.uint32)  # leaves a buffered half word
        assert ef.sample(spec).matrix.tobytes() == fresh_sample(spec).matrix.tobytes()
        # a half word left behind (after an odd count) must not reach 32-bit draws
        for count in (1, 2):
            states._rng(seed ^ 1).integers(0, 2**32, size=count, dtype=np.uint32)
            fresh = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            words = states._rng(seed).integers(0, 2**32, size=5, dtype=np.uint32)
            assert np.array_equal(words, fresh.integers(0, 2**32, size=5, dtype=np.uint32))

    def test_threads_match_serial(self):
        specs = [
            ef.EnsembleSpec(kind, seed=ef.split_seed(11, i), target_concurrence=c)
            for i in range(200)
            for kind, c in SPECS
        ]
        serial = [ef.sample(spec).matrix.tobytes() for spec in specs]
        out = [None] * len(specs)

        def work(k):
            # thread k takes every fourth spec, so the threads' seeds interleave
            for i in range(k, len(specs), 4):
                out[i] = ef.sample(specs[i]).matrix.tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert out == serial

    def test_one_philox_per_thread(self, monkeypatch):
        made = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            made.append(threading.get_ident())
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        counts = []

        def work():
            for i in range(50):
                for kind, c in SPECS:
                    ef.sample(ef.EnsembleSpec(kind, seed=i, target_concurrence=c))
                counts.append(len(made))

        t = threading.Thread(target=work)
        t.start()
        t.join()
        assert counts[0] == 1 and counts[-1] == 1

    def test_shared_generator_stays_private(self):
        # a caller holding it across a second sample would see it re-keyed
        assert not hasattr(ef, "_rng")
        assert "_rng" not in getattr(ef, "__all__", ())


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


class TestArgumentRules:
    """check_whole and check_positive are the library's one rule for a count,
    index or seed and for a tolerance, horizon or time scale."""

    @pytest.mark.parametrize(
        "value", [0, 7, np.int8(7), np.uint64(2**64 - 1), 2**80], ids=repr
    )
    def test_whole_accepts_python_and_numpy_integers(self, value):
        got = states.check_whole("n", value)
        assert type(got) is int and got == int(value)

    @pytest.mark.parametrize(
        "value", [-1, True, False, np.bool_(True), 2.0, np.float64(7.0), 2.5, "3", None,
                  float("nan")], ids=repr
    )
    def test_whole_refuses_the_rest(self, value):
        with pytest.raises(ValueError) as got:
            states.check_whole("n_probes", value)
        assert str(got.value) == f"n_probes must be a non-negative integer, got {value!r}"

    @pytest.mark.parametrize(
        "least, most, value, rule",
        [
            (2, None, 1, "an integer >= 2"),
            (1, None, 2.5, "an integer >= 1"),
            (1, 64, 65, "an integer >= 1 and <= 64"),
            (0, 3, -1, "an integer >= 0 and <= 3"),
        ],
    )
    def test_whole_message_names_the_bounds(self, least, most, value, rule):
        with pytest.raises(ValueError) as got:
            states.check_whole("workers", value, least, most)
        assert str(got.value) == f"workers must be {rule}, got {value!r}"
        assert states.check_whole("workers", least, least, most) == least

    @pytest.mark.parametrize("value", [True, "1e-7", None, 1j, 0.0, -1.0, float("nan"),
                                       float("inf")], ids=repr)
    def test_positive_refuses_non_reals_and_bools(self, value):
        # True and "1e-7" used to pass as 1 and end in a TypeError
        with pytest.raises(ValueError) as got:
            states.check_positive("tol", value)
        assert str(got.value) == f"tol must be positive and finite, got {value!r}"

    @pytest.mark.parametrize("value", [1e-7, 3, np.float32(0.5), np.int64(2)], ids=repr)
    def test_positive_accepts_positive_reals(self, value):
        states.check_positive("tol", value)

    def test_ensemble_seed_is_checked_before_sampling(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr(states, "_rng", no_work)
        with pytest.raises(ValueError) as got:
            ef.EnsembleSpec("hilbert_schmidt_mixed", seed=2**64)
        assert str(got.value) == (
            "seed must be an integer >= 0 and <= 18446744073709551615, got 18446744073709551616"
        )
