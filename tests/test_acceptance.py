"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import entfate as ef
from entfate.cli import main
from entfate.dynamics import ConstantRate, make_generator
from entfate.errors import BadParams

CLASS_TOL = 1e-7


@contextmanager
def criterion(n, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n} ({name}): FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {n} ({name}): PASS", flush=True)


def hs_state(base_seed, i):
    return ef.sample(
        ef.EnsembleSpec("hilbert_schmidt_mixed", seed=ef.split_seed(base_seed, i))
    )


def test_01_six_class_round_trip(tmp_path, capsys):
    with criterion(1, "six-class round trip"):
        t0 = time.time()
        assert main(["catalog", "--out", str(tmp_path)]) == 0
        for class_id in range(1, 7):
            out = tmp_path / f"cls{class_id}"
            rc = main(
                [
                    "classify",
                    "--config",
                    str(tmp_path / f"catalog_class_{class_id}.json"),
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            assert f"class {class_id}" in capsys.readouterr().out
            ev = json.loads((out / "classification.json").read_text())["evidence"]
            if class_id in (1, 3):
                assert abs(ev["min_margin"]) > 2 * CLASS_TOL
            elif class_id == 2:
                assert abs(ev["min_margin"]) <= CLASS_TOL
            elif class_id == 4:
                assert ev["min_margin"] > 2 * CLASS_TOL
            elif class_id == 5:
                assert ev["min_margin"] <= CLASS_TOL < 2 * CLASS_TOL < ev["max_margin"]
            else:
                assert ev["max_margin"] < -2 * CLASS_TOL
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"six-class round trip took {elapsed:.1f}s"


def test_02_boundary_fixed_point():
    with criterion(2, "class-2 boundary fixed point"):
        aset = ef.stationary_set_autonomous(ef.catalog_generator(2))
        assert aset.cardinality == "one"
        assert ef.trace_distance(aset.state, ef.basis_state(0, 0)) <= 1e-8
        assert abs(ef.min_pt_eigenvalue(aset.state)) <= 1e-8


def test_03_dichotomy_at_equal_entanglement():
    with criterion(3, "equal-entanglement dichotomy under damping"):
        g = ef.catalog_generator(2)
        spec = ef.EnsembleSpec(
            "fixed_concurrence_pure", seed=2026, target_concurrence=0.6
        )
        stats, _ = ef.fate_statistics(g, spec, n=1000, horizon=30.0)
        assert stats.failures == 0
        for tag in ("sudden_death", "asymptotic_death"):
            lo, _ = stats.intervals[tag]
            assert stats.counts[tag] > 0
            assert lo > 0.0, f"{tag} CI does not exclude 0"


def test_04_sudden_death_necessity_class1():
    with criterion(4, "sudden death necessary when A is interior"):
        horizon = 10.0
        g = ef.catalog_generator(1)
        spec = ef.EnsembleSpec("haar_pure", seed=404)
        stats, records = ef.fate_statistics(
            g, spec, n=1000, horizon=horizon, grid_points=200
        )
        assert stats.failures == 0
        assert stats.counts["asymptotically_entangled"] == 0
        assert stats.counts["revival"] == 0
        for rec in records:
            if rec.initial_concurrence > 1e-6:
                assert rec.fate_tag == "sudden_death"
                assert rec.death_time is not None and rec.death_time < horizon


def test_05_sudden_birth_classes_3_and_6():
    with criterion(5, "sudden birth toward entangled attractors"):
        opts = ef.SolverOptions(rtol=1e-7, atol=1e-10)
        for class_id in (3, 6):
            g = ef.catalog_generator(class_id)
            grid = np.linspace(0.0, 12.0, 61)
            found = 0
            i = 0
            while found < 100:
                s = hs_state(500 + class_id, i)
                i += 1
                if ef.min_pt_eigenvalue(s) < 0.0:
                    continue
                found += 1
                traj = ef.propagate(g, s, grid, opts)
                margins = [ef.min_pt_eigenvalue(st) for st in traj.states]
                assert min(margins) < -1e-4, f"class {class_id}, sample {i}"


def test_06_solver_oracle_equivalence():
    with criterion(6, "adaptive integrator vs matrix exponential"):
        grid = np.linspace(0.0, 2.0, 9)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = 0.5 * (z + z.conj().T)
            jumps = []
            for _ in range(2):
                l = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                jumps.append((0.5 * l, ConstantRate(rng.uniform(0.2, 1.0))))
            ga = make_generator((2, 2), hamiltonian=h, jumps=jumps)
            gn = make_generator((2, 2), hamiltonian=h, jumps=jumps, autonomous=False)
            s = hs_state(600, seed)
            ta = ef.propagate(ga, s, grid)
            tn = ef.propagate(gn, s, grid)
            for a, b in zip(ta.states, tn.states):
                assert ef.trace_distance(a, b) < 1e-6


def test_07_analytic_margin_oracle_and_threshold():
    with criterion(7, "Werner margin closed form and class-4 threshold"):
        bell = ef.max_entangled().matrix
        for w in (0.0, 1.0 / 3.0, 0.5, 1.0):
            s = ef.new_state(w * bell + (1 - w) * np.eye(4) / 4, 2, 2)
            assert abs(ef.min_pt_eigenvalue(s) - (1 - 3 * w) / 4) < 1e-10
        with pytest.raises(BadParams):
            ef.catalog_generator(4, c=1.0)
        _, cls = ef.classify_generator(ef.catalog_generator(4, c=2.0))
        assert cls.class_id == 4


def test_08_convexity_of_asymptotic_sets():
    with criterion(8, "midpoints of A members stay in A"):
        rng = np.random.default_rng(808)
        for class_id in range(1, 7):
            g = ef.catalog_generator(class_id)
            if g.autonomous:
                aset = ef.stationary_set_autonomous(g)
            else:
                aset = ef.asymptotic_set_nonautonomous(g)
            a = ef.sample_member(aset, rng)
            b = ef.sample_member(aset, rng)
            mid = ef.new_state(0.5 * (a.matrix + b.matrix), 2, 2)
            assert ef.membership_residual(aset, mid) <= 1e-8, f"class {class_id}"


def test_09_worker_determinism(tmp_path):
    with criterion(9, "byte-identical fates.csv across 1/4/8 workers"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "generator": {"catalog": {"class_id": 2, "params": {}}},
                    "ensemble": {"kind": "hilbert_schmidt_mixed", "seed": 99},
                    "run": {"horizon": 20.0, "grid_points": 200, "n_samples": 30},
                }
            )
        )
        outputs = []
        for w in (1, 4, 8):
            out = tmp_path / f"w{w}"
            rc = main(
                ["fates", "--config", str(cfg), "--out", str(out), "--workers", str(w)]
            )
            assert rc == 0
            outputs.append((out / "fates.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


def test_10_positive_separable_volume():
    with criterion(10, "PPT fraction of Hilbert-Schmidt ensemble"):
        n = 100_000
        fracs = []
        for base_seed in range(5):
            cnt = sum(
                1 for i in range(n) if ef.min_pt_eigenvalue(hs_state(base_seed, i)) >= 0
            )
            fracs.append(cnt / n)
        print(f"\n  PPT fractions over {n} samples x 5 seeds: {fracs}", flush=True)
        assert all(f > 0.1 for f in fracs)
        assert max(fracs) - min(fracs) < 0.02
