"""Scenario-driven command line front end.

Subcommands: simulate | classify | fates | catalog.
Exit codes: 0 success, 2 config error, 3 solver error,
4 classification inconclusive, 5 excessive sample failures.

Configs are JSON; complex entries are [re, im] pairs.  Every run writes
the fully resolved config (defaults included) next to its results, and
re-running that config reproduces the results bit for bit.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .asymptotics import (
    DEFAULT_CLASS_TOL,
    DEFAULT_CONVERGENCE_TOL,
    DEFAULT_KERNEL_TOL,
    DEFAULT_N_PROBES,
    DEFAULT_NONAUTONOMOUS_HORIZON,
    asymptotic_set,
    catalog_generator,
    classify_theorem_class,
    membership_residual,
)
from .dynamics import ConstantRate, ExponentialRate, SolverOptions, make_generator, propagate
from .errors import (
    BadParams,
    EntfateError,
    HorizonTooShort,
    Inconclusive,
    NoTraceOneElement,
    NotConverged,
    OscillatoryAsymptotics,
    PositivityLost,
    StepFailure,
)
from .fate import (
    DEFAULT_FATE_TOL,
    DEFAULT_GRID_POINTS,
    DEFAULT_REFINE_TOL,
    FateRecord,
    fate_of_trajectory,
    fate_statistics,
    margin_curve,
)
from .states import EnsembleSpec, new_state, sample

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INCONCLUSIVE = 4
EXIT_FAILURES = 5

_RUN_DEFAULTS = {
    "horizon": 30.0,
    "grid_points": DEFAULT_GRID_POINTS,
    "n_samples": 100,
    "seed": None,
    "workers": 1,
    "rtol": SolverOptions().rtol,
    "atol": SolverOptions().atol,
    "class_tol": DEFAULT_CLASS_TOL,
    "fate_tol": DEFAULT_FATE_TOL,
    "refine_tol": DEFAULT_REFINE_TOL,
    "kernel_tol": DEFAULT_KERNEL_TOL,
    "convergence_tol": DEFAULT_CONVERGENCE_TOL,
    "classify_horizon": DEFAULT_NONAUTONOMOUS_HORIZON,
    "n_probes": DEFAULT_N_PROBES,
}
_ENSEMBLE_DEFAULTS = {"kind": "hilbert_schmidt_mixed", "seed": 0, "target_concurrence": 0.0}
_OUTPUT_DEFAULTS = {"directory": "."}
_SEED_RANGE = (0, 2**64 - 1)  # the seeds of a 64-bit generator
# the whole-number run fields and their ranges; every other run field is positive.
# The upper bounds keep a run's allocations and processes small: a grid's shared
# propagator stack takes 4 KB per point (410 MB at 100,000 points).
_WHOLE = {
    "grid_points": (2, 100_000),
    "n_samples": (1, 10**6),
    "workers": (1, 64),
    "n_probes": (0, 100_000),
    "seed": _SEED_RANGE,
}


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    return "" if x is None else format(float(x), ".17g")


def parse_complex_matrix(entries, field: str) -> np.ndarray:
    try:
        arr = np.array(
            [[complex(e[0], e[1]) for e in row] for row in entries], dtype=complex
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"{field}: expected a matrix of [re, im] pairs ({exc})")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{field}: matrix must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{field}: matrix has a non-finite entry")
    return arr


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _object(value, field: str) -> dict:
    """A config section, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be a JSON object, got {value!r}")
    return value


def _number(obj: dict, key: str, field: str, default=None) -> float:
    """obj[key] (or the default) as a float; a missing, non-numeric (a JSON
    boolean included) or non-finite value (Python's json reads NaN, Infinity
    and integers beyond the float range) is a ConfigError naming ``field.key``."""
    value = obj.get(key, default)
    if value is None:
        raise ConfigError(f"{field}.{key} is missing")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}.{key} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # compares an int exactly, never overflows
        raise ConfigError(f"{field}.{key} must be finite, got {value!r}")
    return float(value)


def _whole(obj: dict, key: str, field: str, bounds: tuple[int, int]) -> None:
    """Check obj[key] as ``_number`` does, and as a whole number in [least, most]."""
    least, most = bounds
    value = _number(obj, key, field)
    if value != int(value) or not least <= int(obj[key]) <= most:
        raise ConfigError(
            f"{field}.{key} must be a whole number >= {least} and <= {most}, got {obj[key]!r}"
        )


def resolve_config(cfg: dict, args) -> dict:
    resolved = copy.deepcopy(cfg)
    resolved["schema_version"] = SCHEMA_VERSION
    run = dict(_RUN_DEFAULTS)
    run.update(_object(resolved.get("run", {}), "run"))
    if args is not None and getattr(args, "seed", None) is not None:
        run["seed"] = args.seed
    if args is not None and getattr(args, "workers", None) is not None:
        run["workers"] = args.workers
    resolved["run"] = run
    ens = dict(_ENSEMBLE_DEFAULTS)
    ens.update(_object(resolved.get("ensemble", {}), "ensemble"))
    resolved["ensemble"] = ens
    out = dict(_OUTPUT_DEFAULTS)
    out.update(_object(resolved.get("output", {}), "output"))
    if args is not None and getattr(args, "out", None) is not None:
        out["directory"] = args.out
    resolved["output"] = out
    for key in _RUN_DEFAULTS:
        if key not in _WHOLE:
            if _number(run, key, "run") <= 0.0:
                raise ConfigError(f"run.{key} must be positive, got {run[key]!r}")
        elif key != "seed" or run[key] is not None:
            _whole(run, key, "run", _WHOLE[key])
    _whole(ens, "seed", "ensemble", _SEED_RANGE)
    return resolved


def build_rate(desc, field: str):
    if isinstance(desc, (int, float)):
        desc = {"kind": "constant", "value": desc}
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{field}: rate must be a number or an object with 'kind'")
    if desc["kind"] == "constant":
        return ConstantRate(_number(desc, "value", field))
    if desc["kind"] == "exponential":
        try:
            return ExponentialRate(_number(desc, "amplitude", field), _number(desc, "tau", field, 1.0))
        except ValueError as exc:
            raise ConfigError(f"{field}: {exc}")
    raise ConfigError(f"{field}: unknown rate kind {desc['kind']!r}")


def build_generator(cfg: dict):
    gcfg = cfg.get("generator")
    if not isinstance(gcfg, dict):
        raise ConfigError("config needs a 'generator' object")
    if "catalog" in gcfg:
        cat = _object(gcfg["catalog"], "generator.catalog")
        class_id = cat.get("class_id")
        if class_id not in (1, 2, 3, 4, 5, 6):
            raise ConfigError(f"generator.catalog.class_id must be 1..6, got {class_id}")
        params = cat.get("params", {})
        try:
            return catalog_generator(class_id, **params)
        except (BadParams, TypeError, ValueError) as exc:
            raise ConfigError(f"generator.catalog: {exc}")
    if "explicit" in gcfg:
        ex = _object(gcfg["explicit"], "generator.explicit")
        if ex.get("dims", [2, 2]) != [2, 2]:
            raise ConfigError(f"generator.explicit.dims must be [2, 2], got {ex['dims']!r}")
        ham = None
        if ex.get("hamiltonian") is not None:
            ham = parse_complex_matrix(ex["hamiltonian"], "generator.explicit.hamiltonian")
        entries = ex.get("jumps", [])
        if not isinstance(entries, list):
            raise ConfigError(f"generator.explicit.jumps must be a JSON list, got {entries!r}")
        jumps = []
        for i, j in enumerate(entries):
            field = f"generator.explicit.jumps[{i}]"
            if not isinstance(j, dict) or "operator" not in j:
                raise ConfigError(f"{field}: expected an object with an 'operator'")
            op = parse_complex_matrix(j["operator"], f"{field}.operator")
            jumps.append((op, build_rate(j.get("rate", 1.0), f"{field}.rate")))
        try:
            return make_generator(hamiltonian=ham, jumps=jumps)
        except ValueError as exc:
            raise ConfigError(f"generator.explicit: {exc}")
    raise ConfigError("generator must contain 'catalog' or 'explicit'")


def build_ensemble(resolved: dict) -> EnsembleSpec:
    """The resolved ensemble, whose seed ``run.seed`` overrides when set."""
    ens = resolved["ensemble"]
    try:
        spec = EnsembleSpec(
            kind=ens["kind"],
            seed=int(ens["seed"]),
            target_concurrence=float(ens["target_concurrence"]),
        )
    except (EntfateError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"ensemble: {exc}")
    seed = resolved["run"]["seed"]
    return spec if seed is None else dataclasses.replace(spec, seed=int(seed))


def solver_options(run: dict) -> SolverOptions:
    return SolverOptions(rtol=float(run["rtol"]), atol=float(run["atol"]))


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_resolved(outdir: Path, resolved: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    )


def asymptotic_set_options(run: dict) -> dict:
    """Keyword arguments of ``asymptotic_set`` from a resolved run."""
    return {
        "kernel_tol": float(run["kernel_tol"]),
        "horizon": float(run["classify_horizon"]),
        "convergence_tol": float(run["convergence_tol"]),
        "opts": solver_options(run),
    }


def _initial_state(cfg: dict, resolved: dict):
    init = cfg.get("initial_state")
    if init is not None:
        m = parse_complex_matrix(_object(init, "initial_state").get("matrix"), "initial_state.matrix")
        try:
            return new_state(m)
        except EntfateError as exc:
            raise ConfigError(f"initial_state: {exc}")
    return sample(build_ensemble(resolved))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    resolved = resolve_config(cfg, args)
    run = resolved["run"]
    g = build_generator(resolved)
    rho0 = _initial_state(cfg, resolved)
    outdir = Path(resolved["output"]["directory"])
    _write_resolved(outdir, resolved)
    grid = np.linspace(0.0, float(run["horizon"]), int(run["grid_points"]) + 1)
    traj = propagate(g, rho0, grid, solver_options(run))
    record = fate_of_trajectory(traj, float(run["refine_tol"]), float(run["fate_tol"]))
    header, rows = "t,margin,concurrence", [list(row) for row in margin_curve(traj)]
    try:
        aset = asymptotic_set(g, **asymptotic_set_options(run))
    except EntfateError as exc:
        print(f"trace_distance_to_A omitted: {type(exc).__name__}", file=sys.stderr)
    else:
        header += ",trace_distance_to_A"
        for row, s in zip(rows, traj.states):
            row.append(membership_residual(aset, s))
    lines = [header] + [",".join(map(_fmt, row)) for row in rows]
    (outdir / "trajectory.csv").write_text("\n".join(lines) + "\n")
    _write_json(outdir / "summary.json", {"fate": dataclasses.asdict(record)})
    print(f"fate {record.fate_tag}")
    return EXIT_OK


def cmd_classify(args) -> int:
    cfg = load_config(args.config)
    resolved = resolve_config(cfg, args)
    run = resolved["run"]
    g = build_generator(resolved)
    outdir = Path(resolved["output"]["directory"])
    _write_resolved(outdir, resolved)
    try:
        aset = asymptotic_set(g, **asymptotic_set_options(run))
        cls = classify_theorem_class(
            aset, float(run["class_tol"]), int(run["n_probes"]), int(run["seed"] or 0)
        )
    except (Inconclusive, OscillatoryAsymptotics, NotConverged, NoTraceOneElement) as exc:
        _write_json(
            outdir / "classification.json",
            {"error": type(exc).__name__, "reason": str(exc)},
        )
        print(f"classification failed: {type(exc).__name__}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    _write_json(
        outdir / "classification.json",
        {
            "class_id": cls.class_id,
            "cardinality": cls.cardinality,
            "evidence": {
                "min_margin": cls.min_margin,
                "max_margin": cls.max_margin,
                "min_probe": cls.min_probe,
                "max_probe": cls.max_probe,
                "tol": cls.tol,
                "probes": [[label, m] for label, m in cls.probes],
            },
            "diagnostics": aset.diagnostics,
        },
    )
    print(f"class {cls.class_id}")
    return EXIT_OK


def cmd_fates(args) -> int:
    cfg = load_config(args.config)
    resolved = resolve_config(cfg, args)
    run = resolved["run"]
    g = build_generator(resolved)
    spec = build_ensemble(resolved)
    outdir = Path(resolved["output"]["directory"])
    _write_resolved(outdir, resolved)
    stats, records = fate_statistics(
        g,
        spec,
        n=int(run["n_samples"]),
        horizon=float(run["horizon"]),
        grid_points=int(run["grid_points"]),
        refine_tol=float(run["refine_tol"]),
        tol=float(run["fate_tol"]),
        opts=solver_options(run),
        workers=int(run["workers"]),
    )
    lines = ["seed_index,initial_concurrence,fate_tag,death_time,final_margin,"
             "birth_time,revival_times"]
    for i, rec in enumerate(records):
        if isinstance(rec, FateRecord):
            lines.append(
                f"{i},{_fmt(rec.initial_concurrence)},{rec.fate_tag},"
                f"{_fmt(rec.death_time)},{_fmt(rec.final_margin)},"
                f"{_fmt(rec.birth_time)},{';'.join(map(_fmt, rec.revival_times))}"
            )
    (outdir / "fates.csv").write_text("\n".join(lines) + "\n")
    _write_json(outdir / "fates_summary.json", dataclasses.asdict(stats))
    ok = stats.n - stats.failures
    print(f"fates: {ok}/{stats.n} samples succeeded")
    return EXIT_OK if ok >= 0.9 * stats.n else EXIT_FAILURES


_CATALOG_NOTES = {
    1: ("constant depolarizing toward I/4", {"gamma": 1.0}),
    2: ("independent amplitude damping on both qubits", {"gamma": 1.0}),
    3: ("pumping into the Bell state Phi+", {"gamma": 1.0}),
    4: ("quenched depolarizing, rate c*exp(-t); needs c >= ln 3 + 0.5 (~1.5986)", {"c": 2.0}),
    5: ("computational-basis dephasing on both qubits", {"gamma": 1.0}),
    6: ("quenched Bell pumping, rate c*exp(-t), c large", {"c": 10.0}),
}


def cmd_catalog(args) -> int:
    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    for class_id, (desc, params) in _CATALOG_NOTES.items():
        g = catalog_generator(class_id, **params)
        kind = "autonomous" if g.autonomous else "non-autonomous"
        print(f"class {class_id}: {desc} [{kind}, params {params}]")
        config = {
            "schema_version": SCHEMA_VERSION,
            "generator": {"catalog": {"class_id": class_id, "params": params}},
            "ensemble": dict(_ENSEMBLE_DEFAULTS),
            "run": {"horizon": 30.0, "grid_points": 400, "n_samples": 100, "seed": 0},
            "output": {"directory": f"class_{class_id}"},
        }
        path = outdir / f"catalog_class_{class_id}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    print(f"wrote 6 config files to {outdir}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entfate",
        description="Two-qubit open-system entanglement-fate simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("simulate", cmd_simulate),
        ("classify", cmd_classify),
        ("fates", cmd_fates),
        ("catalog", cmd_catalog),
    ):
        p = sub.add_parser(name)
        if name != "catalog":
            p.add_argument("--config", required=True, help="path to a JSON scenario config")
            p.add_argument("--seed", type=int, help="seed override")
        if name == "fates":
            p.add_argument("--workers", type=int, help="parallel workers for the ensemble")
        p.add_argument("--out", help="output directory (overrides config)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PositivityLost, StepFailure, HorizonTooShort) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
