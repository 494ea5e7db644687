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
SEED_RANGE = "must be a whole number >= 0 and <= 18446744073709551615"


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

    def test_integer_beyond_json_digit_limit(self, tmp_path, capsys):
        # json reads at most 4300 digits of an integer; more used to end in ValueError
        p = tmp_path / "bad.json"
        p.write_text('{"run": {"seed": ' + "9" * 5000 + "}}")
        assert main(["simulate", "--config", str(p)]) == 2
        assert "config is not valid JSON" in capsys.readouterr().err

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
            # a seed keys a 64-bit generator; larger ones used to end in OverflowError
            ("simulate", catalog_config(2, seed=2**64), f"run.seed {SEED_RANGE}"),
            ("fates", catalog_config(2, seed=2**64), f"run.seed {SEED_RANGE}"),
            ("simulate", catalog_config(2, seed=1e20), f"run.seed {SEED_RANGE}"),
            ("simulate", {**catalog_config(2), "ensemble": {"seed": 2**64}},
             f"ensemble.seed {SEED_RANGE}"),
            # integers beyond the float range used to end in OverflowError
            ("simulate", catalog_config(2, seed=10**400), "run.seed must be finite"),
            ("simulate", catalog_config(2, horizon=10**400), "run.horizon must be finite"),
            ("classify", catalog_config(5, n_probes=-(10**400)), "run.n_probes must be finite"),
            # run sizes are bounded; 10**18 grid points used to end in _ArrayMemoryError
            ("simulate", catalog_config(2, grid_points=10**18),
             "run.grid_points must be a whole number >= 2 and <= 100000"),
            ("simulate", catalog_config(2, grid_points=100_001),
             "run.grid_points must be a whole number >= 2 and <= 100000"),
            ("fates", catalog_config(2, grid_points=100_001),
             "run.grid_points must be a whole number >= 2 and <= 100000"),
            ("fates", catalog_config(2, n_samples=10**6 + 1),
             "run.n_samples must be a whole number >= 1 and <= 1000000"),
            ("fates", catalog_config(2, n_samples=2**64 - 1),
             "run.n_samples must be a whole number >= 1 and <= 1000000"),
            ("fates", catalog_config(2, workers=65), "run.workers must be a whole number >= 1 and <= 64"),
            ("fates", catalog_config(2, workers=2**64 - 1),
             "run.workers must be a whole number >= 1 and <= 64"),
            ("classify", catalog_config(5, n_probes=100_001),
             "run.n_probes must be a whole number >= 0 and <= 100000"),
        ],
        ids=[
            "fates-negative-seed", "simulate-negative-seed", "fractional-seed", "boolean-seed",
            "fates-negative-ensemble-seed", "simulate-negative-ensemble-seed",
            "fractional-grid-points", "one-grid-point", "fractional-n-samples", "zero-n-samples",
            "zero-workers", "fractional-workers", "negative-n-probes", "boolean-horizon",
            "boolean-class-tol", "negative-class-tol", "zero-fate-tol",
            "simulate-seed-2^64", "fates-seed-2^64", "float-seed-1e20", "ensemble-seed-2^64",
            "seed-400-digits", "horizon-400-digits", "n-probes-400-digits",
            "simulate-grid-points-10^18", "simulate-grid-points-100001", "fates-grid-points-100001",
            "n-samples-1000001", "n-samples-2^64-1", "workers-65", "workers-2^64-1",
            "n-probes-100001",
        ],
    )
    def test_bad_number_is_named(self, tmp_path, capsys, monkeypatch, command, payload, field):
        # every bad number is refused by resolve_config: before the generator is
        # built, anything is allocated for the run or any process starts
        import entfate.cli

        def refuse(*args, **kwargs):
            raise AssertionError("generator built before the config was checked")

        monkeypatch.setattr(entfate.cli, "build_generator", refuse)
        cfg = write_config(tmp_path / "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err

    def test_workers_flag_beyond_bound_is_named(self, tmp_path, capsys, monkeypatch):
        import entfate.cli

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the config was checked")

        monkeypatch.setattr(entfate.cli, "fate_statistics", refuse)
        cfg = write_config(tmp_path / "c.json", catalog_config(2))
        assert main(["fates", "--config", cfg, "--out", str(tmp_path), "--workers", "65"]) == 2
        assert "run.workers must be a whole number >= 1 and <= 64" in capsys.readouterr().err

    def test_largest_run_sizes_resolve(self):
        from entfate.cli import resolve_config

        run = {"grid_points": 100_000, "n_samples": 10**6, "workers": 64, "n_probes": 100_000,
               "seed": 2**64 - 1}
        resolved = resolve_config({**catalog_config(2, **run), "ensemble": {"seed": 2**64 - 1}}, None)
        assert {k: resolved["run"][k] for k in run} == run

    @pytest.mark.parametrize(
        "command, seed, field",
        [
            ("simulate", "-1", "run.seed must be a whole number >= 0"),
            ("fates", "-1", "run.seed must be a whole number >= 0"),
            ("simulate", str(2**64), f"run.seed {SEED_RANGE}"),
            ("fates", str(2**64), f"run.seed {SEED_RANGE}"),
        ],
        ids=["simulate", "fates", "simulate-2^64", "fates-2^64"],
    )
    def test_negative_seed_flag_is_named(self, tmp_path, capsys, command, seed, field):
        cfg = write_config(tmp_path / "c.json", catalog_config(2))
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--seed", seed]) == 2
        assert field in capsys.readouterr().err

    def test_whole_valued_float_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", catalog_config(1, horizon=2.0, grid_points=4.0))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 5

    def test_largest_seed_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", catalog_config(1, horizon=2.0, grid_points=4))
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path), "--seed", str(2**64 - 1)]
        assert main(argv) == 0

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

    def test_distance_to_set_needs_no_classification(self, tmp_path, monkeypatch):
        # classify on this generator is Inconclusive (exit 4), which used to drop
        # the distance column from simulate without a word
        import entfate.asymptotics
        import entfate.cli
        from test_asymptotics import coherent_pumping

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return ef.classify_theorem_class(*args, **kwargs)

        monkeypatch.setattr(entfate.asymptotics, "classify_theorem_class", counting)
        monkeypatch.setattr(entfate.cli, "classify_theorem_class", counting)
        jumps = [
            {"operator": [[[z.real, z.imag] for z in row] for row in ch.operator],
             "rate": ch.rate.value}
            for ch in coherent_pumping().jumps
        ]
        cfg = write_config(
            tmp_path / "c.json",
            {
                "generator": {"explicit": {"jumps": jumps}},
                "initial_state": {"matrix": BELL},
                "run": {"horizon": 10.0, "grid_points": 50},
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = (out / "trajectory.csv").read_text().splitlines()
        assert header == "t,margin,concurrence,trace_distance_to_A"
        assert len(rows) == 51 and all(len(r.split(",")) == 4 for r in rows)
        assert calls == []
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "cls")]) == 4
        assert len(calls) == 1

    def test_unbuildable_set_is_reported(self, tmp_path, capsys):
        # no Liouvillian eigenvalue is within 1e-30 of zero
        cfg = write_config(
            tmp_path / "c.json", catalog_config(1, horizon=2.0, grid_points=4, kernel_tol=1e-30)
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").read_text().splitlines()[0] == "t,margin,concurrence"
        err = capsys.readouterr().err.splitlines()
        assert err == ["trace_distance_to_A omitted: NoTraceOneElement"]

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

    def test_class1_margins_computed_once(self, tmp_path, monkeypatch):
        import entfate.dynamics
        import entfate.fate

        stacked_rows, single, refinements = [], [], []
        state_at = entfate.dynamics.Trajectory.state_at

        def counting_margins(ms):
            stacked_rows.append(len(ms))
            return ef.min_pt_eigenvalues(ms)

        def counting_margin(s):
            single.append(s)
            return ef.min_pt_eigenvalue(s)

        def counting_state_at(traj, t):
            refinements.append(t)
            return state_at(traj, t)

        monkeypatch.setattr(entfate.dynamics, "min_pt_eigenvalues", counting_margins)
        monkeypatch.setattr(entfate.fate, "min_pt_eigenvalue", counting_margin)
        monkeypatch.setattr(entfate.dynamics.Trajectory, "state_at", counting_state_at)
        cfg = write_config(
            tmp_path / "c.json",
            {
                "generator": {"catalog": {"class_id": 1, "params": {}}},
                "initial_state": {"matrix": BELL},
                "run": {"horizon": 10.0, "grid_points": 100},
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        # the Werner margin (1 - 3 e^-t)/4 dies at ln 3, between grid times
        fate = json.loads((out / "summary.json").read_text())["fate"]
        assert fate["death_time"] == pytest.approx(np.log(3.0), abs=1e-5)
        # the grid margins come from one stacked call, then one margin per
        # off-grid refinement point
        assert stacked_rows == [101]
        assert len(refinements) > 0
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
        assert rows[0] == (
            "seed_index,initial_concurrence,fate_tag,death_time,final_margin,"
            "birth_time,revival_times"
        )
        assert len(rows) == 21

    def test_worker_invariance_bytes(self, tmp_path):
        # class 2 steps by exponentials; class 6 is non-autonomous, so each
        # worker builds its own RK45 source and bisects on its interpolants
        runs = {
            2: {"horizon": 20.0, "grid_points": 200, "n_samples": 12},
            6: {"horizon": 12.0, "grid_points": 200, "n_samples": 16,
                "rtol": 1e-7, "atol": 1e-10},
        }
        for class_id, run in runs.items():
            cfg = write_config(
                tmp_path / f"c{class_id}.json",
                {
                    "generator": {"catalog": {"class_id": class_id, "params": {}}},
                    "ensemble": {"kind": "hilbert_schmidt_mixed", "seed": 13},
                    "run": run,
                },
            )
            outputs = []
            for w in (1, 2):
                out = tmp_path / f"c{class_id}w{w}"
                assert main(["fates", "--config", cfg, "--out", str(out), "--workers", str(w)]) == 0
                outputs.append((out / "fates.csv").read_bytes())
            assert outputs[0] == outputs[1]
            assert len(outputs[0].splitlines()) == 1 + run["n_samples"]
