import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entfate as ef
from entfate.cli import main

BELL = [
    [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
]
ZERO = [[[0.0, 0.0]] * 4] * 4


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def catalog_config(class_id, **run):
    return {
        "generator": {"catalog": {"class_id": class_id, "params": {}}},
        "run": run,
    }


class TestResolvedDefaults:
    def test_run_defaults_are_library_defaults(self):
        from entfate import asymptotics, fate
        from entfate.cli import _RUN_DEFAULTS

        opts = ef.SolverOptions()
        assert _RUN_DEFAULTS["rtol"] == opts.rtol and _RUN_DEFAULTS["atol"] == opts.atol
        assert _RUN_DEFAULTS["grid_points"] == fate.DEFAULT_GRID_POINTS
        assert _RUN_DEFAULTS["fate_tol"] == fate.DEFAULT_FATE_TOL
        assert _RUN_DEFAULTS["refine_tol"] == fate.DEFAULT_REFINE_TOL
        assert _RUN_DEFAULTS["class_tol"] == asymptotics.DEFAULT_CLASS_TOL
        assert _RUN_DEFAULTS["kernel_tol"] == asymptotics.DEFAULT_KERNEL_TOL
        assert _RUN_DEFAULTS["convergence_tol"] == asymptotics.DEFAULT_CONVERGENCE_TOL
        assert _RUN_DEFAULTS["classify_horizon"] == asymptotics.DEFAULT_NONAUTONOMOUS_HORIZON
        assert _RUN_DEFAULTS["n_probes"] == asymptotics.DEFAULT_N_PROBES

    def test_resolved_config_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", catalog_config(1))
        out = tmp_path / "out"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
        run = json.loads((out / "resolved_config.json").read_text())["run"]
        assert json.dumps(run, sort_keys=True) == (
            '{"atol": 1e-12, "class_tol": 1e-07, "classify_horizon": 60.0, '
            '"convergence_tol": 1e-08, "fate_tol": 1e-07, "grid_points": 400, '
            '"horizon": 30.0, "kernel_tol": 1e-09, "n_probes": 50, "n_samples": 100, '
            '"refine_tol": 1e-06, "rtol": 1e-09, "seed": null, "workers": 1}'
        )

    @pytest.mark.parametrize("run_seed, expected", [(None, 5), (7, 7)])
    def test_run_seed_overrides_ensemble_seed(self, run_seed, expected):
        from entfate.cli import build_ensemble

        resolved = {
            "ensemble": {"kind": "haar_pure", "seed": 5, "target_concurrence": 0.0},
            "run": {"seed": run_seed},
        }
        assert build_ensemble(resolved) == ef.EnsembleSpec("haar_pure", seed=expected)


class TestCatalogCommand:
    def test_lists_six_entries_and_threshold(self, tmp_path, capsys):
        assert main(["catalog", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert sum(1 for line in out.splitlines() if line.startswith("class ")) == 6
        assert "ln 3" in out
        for class_id in range(1, 7):
            assert (tmp_path / f"catalog_class_{class_id}.json").exists()

    def test_python_m_entfate(self, tmp_path):
        src = str(Path(ef.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "entfate", "catalog", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "catalog_class_6.json").exists()

    def test_configs_carry_no_formats(self, tmp_path, capsys):
        main(["catalog", "--out", str(tmp_path)])
        cfg = json.loads((tmp_path / "catalog_class_1.json").read_text())
        assert cfg["output"] == {"directory": "class_1"}
        out = tmp_path / "out"
        assert main(["classify", "--config", str(tmp_path / "catalog_class_1.json"),
                     "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["output"] == {"directory": str(out)}

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "--seed", "3"],
            ["catalog", "--workers", "2"],
            ["classify", "--config", "c.json", "--workers", "2"],
            ["simulate", "--config", "c.json", "--workers", "2"],
        ],
        ids=["catalog-seed", "catalog-workers", "classify-workers", "simulate-workers"],
    )
    def test_flags_that_did_nothing_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_emitted_configs_round_trip(self, tmp_path, capsys):
        main(["catalog", "--out", str(tmp_path)])
        for class_id in (2, 5):
            rc = main(
                [
                    "classify",
                    "--config",
                    str(tmp_path / f"catalog_class_{class_id}.json"),
                    "--out",
                    str(tmp_path / f"cls{class_id}"),
                ]
            )
            assert rc == 0
            assert f"class {class_id}" in capsys.readouterr().out


class TestConfigErrors:
    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["simulate", "--config", str(p)]) == 2

    def test_zero_horizon_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", catalog_config(1, horizon=0))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "run.horizon" in capsys.readouterr().err

    def test_missing_generator(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"run": {"horizon": 1.0}})
        assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_bad_class_id(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", {"generator": {"catalog": {"class_id": 9}}}
        )
        assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_uncertifiable_catalog_params(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"generator": {"catalog": {"class_id": 4, "params": {"c": 1.0}}}},
        )
        assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("classify", {"generator": {"explicit": {"dims": [2, 3]}}}, "generator.explicit.dims"),
            ("simulate", {"generator": {"explicit": {"dims": [2, 3]}}}, "generator.explicit.dims"),
            ("fates", {"generator": {"explicit": {"dims": [2, 3]}}}, "generator.explicit.dims"),
            (
                "classify",
                {"generator": {"explicit": {"jumps": [{"rate": 1.0}]}}},
                "generator.explicit.jumps[0]: expected an object with an 'operator'",
            ),
            (
                "classify",
                {"generator": {"explicit": {"jumps": [
                    {"operator": ZERO, "rate": {"kind": "exponential"}}
                ]}}},
                "generator.explicit.jumps[0].rate.amplitude",
            ),
            ("simulate", catalog_config(1, grid_points="x"), "run.grid_points"),
            ("simulate", {**catalog_config(1), "initial_state": {}}, "initial_state.matrix"),
            ("simulate", {**catalog_config(1), "run": [1]}, "run must be a JSON object"),
            ("fates", {**catalog_config(1), "ensemble": [1]}, "ensemble must be a JSON object"),
            ("classify", {**catalog_config(1), "output": "out"}, "output must be a JSON object"),
            ("classify", {"generator": [1]}, "'generator' object"),
            ("classify", {"generator": {"catalog": [2]}}, "generator.catalog must be a JSON object"),
            ("classify", {"generator": {"explicit": [1]}}, "generator.explicit must be a JSON object"),
            ("simulate", {**catalog_config(1), "initial_state": BELL}, "initial_state must be a JSON object"),
            ("classify", {"generator": {"explicit": {"jumps": 5}}}, "generator.explicit.jumps must be a JSON list"),
        ],
        ids=[
            "classify-dims",
            "simulate-dims",
            "fates-dims",
            "jump-without-operator",
            "exponential-without-amplitude",
            "grid-points-not-a-number",
            "initial-state-without-matrix",
            "run-not-an-object",
            "ensemble-not-an-object",
            "output-not-an-object",
            "generator-not-an-object",
            "catalog-not-an-object",
            "explicit-not-an-object",
            "initial-state-not-an-object",
            "jumps-not-a-list",
        ],
    )
    def test_bad_field_is_named(self, tmp_path, capsys, command, payload, field):
        cfg = write_config(tmp_path / "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, field",
        [
            (
                {"generator": {"explicit": {"jumps": [{"operator": BELL, "rate": float("nan")}]}}},
                "generator.explicit.jumps[0].rate.value must be finite",
            ),
            ({**catalog_config(2), "run": {"horizon": float("nan")}}, "run.horizon must be finite"),
            ({**catalog_config(2), "run": {"atol": float("inf")}}, "run.atol must be finite"),
            (
                {**catalog_config(2), "initial_state": {"matrix": [
                    [[float("nan"), 0.0], *row[1:]] if i == 0 else row for i, row in enumerate(BELL)
                ]}},
                "initial_state.matrix: matrix has a non-finite entry",
            ),
            (
                {"generator": {"explicit": {"jumps": [
                    {"operator": BELL, "rate": {"kind": "exponential", "amplitude": 1.0, "tau": 0}}
                ]}}},
                "generator.explicit.jumps[0].rate: tau must be positive",
            ),
            (
                {"generator": {"explicit": {"hamiltonian": [
                    [[float("inf"), 0.0], *row[1:]] if i == 0 else row for i, row in enumerate(ZERO)
                ]}}},
                "generator.explicit.hamiltonian: matrix has a non-finite entry",
            ),
            (
                {"generator": {"catalog": {"class_id": 2, "params": {"gamma": float("inf")}}}},
                "generator.catalog: non-finite rate",
            ),
        ],
        ids=["nan-rate", "nan-horizon", "inf-atol", "nan-initial-state", "zero-tau",
             "inf-hamiltonian", "inf-catalog-gamma"],
    )
    def test_non_finite_input_is_named(self, tmp_path, capsys, payload, field):
        # Python's json writes and reads NaN and Infinity
        cfg = write_config(tmp_path / "c.json", payload)
        assert "NaN" in Path(cfg).read_text() or "Infinity" in Path(cfg).read_text() or "tau" in field
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, -0.1])
    @pytest.mark.parametrize(
        "key",
        ["horizon", "rtol", "atol", "class_tol", "fate_tol", "refine_tol", "kernel_tol",
         "convergence_tol", "classify_horizon"],
    )
    def test_non_positive_run_field_is_named(self, tmp_path, capsys, monkeypatch, key, value):
        # refine_tol: 0 used to bisect forever
        import entfate.cli
        import entfate.fate

        def refuse(*args, **kwargs):
            raise AssertionError("propagated before the config was checked")

        monkeypatch.setattr(entfate.cli, "propagate", refuse)
        monkeypatch.setattr(entfate.fate, "propagate", refuse)
        cfg = write_config(tmp_path / "c.json", catalog_config(1, **{key: value}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"run.{key} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("fates", catalog_config(2, seed=-1), "run.seed must be a whole number >= 0"),
            ("simulate", catalog_config(2, seed=-1), "run.seed must be a whole number >= 0"),
            ("simulate", catalog_config(2, seed=1.5), "run.seed must be a whole number >= 0"),
            ("simulate", catalog_config(2, seed=True), "run.seed must be a number"),
            ("fates", {**catalog_config(2), "ensemble": {"seed": -4}},
             "ensemble.seed must be a whole number >= 0"),
            ("simulate", {**catalog_config(2), "ensemble": {"seed": -4}},
             "ensemble.seed must be a whole number >= 0"),
            ("simulate", catalog_config(2, grid_points=2.9), "run.grid_points must be a whole number >= 2"),
            ("simulate", catalog_config(2, grid_points=1), "run.grid_points must be a whole number >= 2"),
            ("fates", catalog_config(2, n_samples=1.5), "run.n_samples must be a whole number >= 1"),
            ("fates", catalog_config(2, n_samples=0), "run.n_samples must be a whole number >= 1"),
            ("fates", catalog_config(2, workers=0), "run.workers must be a whole number >= 1"),
            ("fates", catalog_config(2, workers=1.5), "run.workers must be a whole number >= 1"),
            ("classify", catalog_config(5, n_probes=-3), "run.n_probes must be a whole number >= 0"),
            ("simulate", catalog_config(2, horizon=True), "run.horizon must be a number"),
            ("classify", catalog_config(5, class_tol=False), "run.class_tol must be a number"),
            # used to print class 4 for this class-5 generator
            ("classify", catalog_config(5, class_tol=-0.1), "run.class_tol must be positive"),
            ("fates", catalog_config(2, fate_tol=0), "run.fate_tol must be positive"),
        ],
        ids=[
            "fates-negative-seed", "simulate-negative-seed", "fractional-seed", "boolean-seed",
            "fates-negative-ensemble-seed", "simulate-negative-ensemble-seed",
            "fractional-grid-points", "one-grid-point", "fractional-n-samples", "zero-n-samples",
            "zero-workers", "fractional-workers", "negative-n-probes", "boolean-horizon",
            "boolean-class-tol", "negative-class-tol", "zero-fate-tol",
        ],
    )
    def test_bad_number_is_named(self, tmp_path, capsys, command, payload, field):
        cfg = write_config(tmp_path / "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fates"])
    def test_negative_seed_flag_is_named(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.json", catalog_config(2))
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--seed", "-1"]) == 2
        assert "run.seed must be a whole number >= 0" in capsys.readouterr().err

    def test_whole_valued_float_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", catalog_config(1, horizon=2.0, grid_points=4.0))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 5

    def test_empty_kernel_writes_classification_error(self, tmp_path):
        # no Liouvillian eigenvalue is within 1e-30 of zero
        cfg = write_config(tmp_path / "c.json", catalog_config(1, kernel_tol=1e-30))
        assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 4
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["error"] == "NoTraceOneElement"


class TestSimulate:
    def test_class2_bell_initial(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "generator": {"catalog": {"class_id": 2, "params": {}}},
                "initial_state": {"matrix": BELL},
                "run": {"horizon": 30.0, "grid_points": 200},
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "resolved_config.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fate"]["fate_tag"] in ("sudden_death", "asymptotic_death")
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,margin,concurrence")
        assert "trace_distance_to_A" in header

    def test_class5_distance_to_many_state_set(self, tmp_path):
        # dephasing keeps the Bell populations and kills its coherences, so the
        # trajectory starts at trace distance 1/2 from A (the diagonal states)
        # and ends inside it
        cfg = write_config(
            tmp_path / "c.json",
            {
                "generator": {"catalog": {"class_id": 5, "params": {}}},
                "initial_state": {"matrix": BELL},
                "run": {"horizon": 10.0, "grid_points": 100},
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = (out / "trajectory.csv").read_text().splitlines()
        assert header.split(",")[-1] == "trace_distance_to_A"
        dist = [float(r.split(",")[-1]) for r in rows]
        assert dist[0] == pytest.approx(0.5, abs=1e-9)
        assert dist[-1] < 1e-9
        assert all(a >= b - 1e-12 for a, b in zip(dist, dist[1:]))

    def test_class2_margins_computed_once(self, tmp_path, monkeypatch):
        import entfate.fate

        stacked_rows, single, refinements = [], [], []

        def counting_margins(ms):
            stacked_rows.append(len(ms))
            return ef.min_pt_eigenvalues(ms)

        def counting_margin(s):
            single.append(s)
            return ef.min_pt_eigenvalue(s)

        def counting_evolve(*args, **kwargs):
            refinements.append(args)
            return ef.evolve_state(*args, **kwargs)

        monkeypatch.setattr(entfate.fate, "min_pt_eigenvalues", counting_margins)
        monkeypatch.setattr(entfate.fate, "min_pt_eigenvalue", counting_margin)
        monkeypatch.setattr(entfate.fate, "evolve_state", counting_evolve)
        cfg = write_config(
            tmp_path / "c.json",
            {
                "generator": {"catalog": {"class_id": 2, "params": {}}},
                "initial_state": {"matrix": BELL},
                "run": {"horizon": 30.0, "grid_points": 100},
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        # the grid margins come from one stacked call, then one margin per
        # off-grid refinement point
        assert stacked_rows == [101]
        assert sum(stacked_rows) + len(single) == 101 + len(refinements)

    def test_class6_propagates_once(self, tmp_path, monkeypatch):
        import entfate.cli
        import entfate.fate
        from entfate import dynamics

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return dynamics.propagate(*args, **kwargs)

        monkeypatch.setattr(entfate.cli, "propagate", counting)
        monkeypatch.setattr(entfate.fate, "propagate", counting)
        run = {"horizon": 12.0, "grid_points": 200, "rtol": 1e-7, "atol": 1e-10}
        cfg = write_config(
            tmp_path / "c.json",
            {
                "generator": {"catalog": {"class_id": 6, "params": {}}},
                "ensemble": {"kind": "hilbert_schmidt_mixed", "seed": 13},
                "run": run,
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == 1
        # the fate of the reused trajectory is the fate detect_fate finds
        fate = json.loads((out / "summary.json").read_text())["fate"]
        rho0 = ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=13))
        opts = ef.SolverOptions(rtol=run["rtol"], atol=run["atol"])
        rec = ef.detect_fate(ef.catalog_generator(6), rho0, 12.0, grid_points=200, opts=opts)
        assert fate["fate_tag"] == rec.fate_tag == "asymptotically_entangled"
        assert fate["birth_time"] == rec.birth_time is not None
        assert fate["final_margin"] == rec.final_margin

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "generator": {"catalog": {"class_id": 1, "params": {}}},
                "ensemble": {"kind": "haar_pure", "seed": 5},
                "run": {"horizon": 10.0, "grid_points": 100, "n_samples": 1},
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        resolved = str(out1 / "resolved_config.json")
        assert main(["simulate", "--config", resolved, "--out", str(out2)]) == 0
        t1 = (out1 / "trajectory.csv").read_bytes()
        # rerunning the resolved config reproduces results (paths aside)
        r2 = json.loads((out2 / "resolved_config.json").read_text())
        r1 = json.loads((out1 / "resolved_config.json").read_text())
        r1["output"].pop("directory")
        r2["output"].pop("directory")
        assert r1 == r2
        assert t1 == (out2 / "trajectory.csv").read_bytes()


class TestClassify:
    def test_explicit_depolarizing_matches_catalog(self, tmp_path, capsys):
        # class-1 depolarizing written out by hand: 15 Pauli channels
        from entfate.operators import two_qubit_paulis

        jumps = [
            {
                "operator": [[[z.real, z.imag] for z in row] for row in p],
                "rate": {"kind": "constant", "value": 1.0 / 16.0},
            }
            for p in two_qubit_paulis()
        ]
        cfg = write_config(
            tmp_path / "c.json",
            {"generator": {"explicit": {"dims": [2, 2], "jumps": jumps}}},
        )
        assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "class 1" in capsys.readouterr().out
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["class_id"] == 1
        assert payload["schema_version"] == 1

    def test_weak_quench_never_class4(self, tmp_path, capsys):
        # c = 0.5 < ln 3: part of the image is entangled, so class 5 (or
        # an explicit inconclusive), never class 4
        from entfate.operators import two_qubit_paulis

        cfg = write_config(
            tmp_path / "c.json",
            {
                "generator": {
                    "explicit": {
                        "dims": [2, 2],
                        "jumps": [
                            {
                                "operator": [[[z.real, z.imag] for z in row] for row in p],
                                "rate": {"kind": "exponential", "amplitude": 0.5 / 16.0, "tau": 1.0},
                            }
                            for p in two_qubit_paulis()
                        ],
                    }
                }
            },
        )
        rc = main(["classify", "--config", cfg, "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "classification.json").read_text())
        if rc == 0:
            assert payload["class_id"] == 5
        else:
            assert rc == 4
            assert "class_id" not in payload


class TestFates:
    def test_outputs_and_fraction_sum(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "generator": {"catalog": {"class_id": 1, "params": {}}},
                "ensemble": {"kind": "haar_pure", "seed": 9},
                "run": {"horizon": 15.0, "grid_points": 200, "n_samples": 20},
            },
        )
        out = tmp_path / "out"
        assert main(["fates", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "fates_summary.json").read_text())
        assert abs(sum(summary["fractions"].values()) - 1.0) < 1e-12
        assert summary["counts"]["asymptotically_entangled"] == 0
        rows = (out / "fates.csv").read_text().splitlines()
        assert rows[0] == "seed_index,initial_concurrence,fate_tag,death_time,final_margin"
        assert len(rows) == 21

    def test_worker_invariance_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "generator": {"catalog": {"class_id": 2, "params": {}}},
                "ensemble": {"kind": "hilbert_schmidt_mixed", "seed": 13},
                "run": {"horizon": 20.0, "grid_points": 200, "n_samples": 12},
            },
        )
        outputs = []
        for w, name in ((1, "w1"), (2, "w2")):
            out = tmp_path / name
            assert main(["fates", "--config", cfg, "--out", str(out), "--workers", str(w)]) == 0
            outputs.append((out / "fates.csv").read_bytes())
        assert outputs[0] == outputs[1]
