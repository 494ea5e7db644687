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
    CATALOG,
    DEFAULT_CLASS_TOL,
    DEFAULT_CONVERGENCE_TOL,
    DEFAULT_KERNEL_TOL,
    DEFAULT_N_PROBES,
    DEFAULT_NONAUTONOMOUS_HORIZON,
    asymptotic_set,
    catalog_generator,
    classify_generator,
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


def _complex(pair, field: str) -> complex:
    """An [re, im] pair as a complex number, each part checked by ``_number``."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"{field} must be an [re, im] pair, got {pair!r}")
    return complex(_number(pair[0], f"{field}[0]"), _number(pair[1], f"{field}[1]"))


def parse_complex_matrix(entries, field: str) -> np.ndarray:
    n = len(entries) if isinstance(entries, list) else 0
    if n == 0 or not all(isinstance(row, list) and len(row) == n for row in entries):
        raise ConfigError(f"{field}: expected a square matrix, n lists of n [re, im] pairs")
    return np.array(
        [[_complex(e, f"{field}[{i}][{j}]") for j, e in enumerate(row)]
         for i, row in enumerate(entries)],
        dtype=complex,
    )


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


def _number(value, field: str) -> float:
    """The config value at ``field`` as a float; a missing, non-numeric (a JSON
    boolean or string included) or non-finite value (Python's json reads NaN,
    Infinity and integers beyond the float range) is a ConfigError naming it.
    Every number a config holds passes this rule."""
    if value is None:
        raise ConfigError(f"{field} is missing")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # compares an int exactly, never overflows
        raise ConfigError(f"{field} must be finite, got {value!r}")
    return float(value)


def _whole(value, field: str, bounds: tuple[int, int]) -> int:
    """``value`` checked as ``_number`` does, and as a whole number in [least, most]."""
    least, most = bounds
    number = _number(value, field)
    if number != int(number) or not least <= int(value) <= most:
        raise ConfigError(
            f"{field} must be a whole number >= {least} and <= {most}, got {value!r}"
        )
    return int(value)


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
            if _number(run[key], f"run.{key}") <= 0.0:
                raise ConfigError(f"run.{key} must be positive, got {run[key]!r}")
        elif key != "seed" or run[key] is not None:
            _whole(run[key], f"run.{key}", _WHOLE[key])
    _whole(ens["seed"], "ensemble.seed", _SEED_RANGE)
    _number(ens["target_concurrence"], "ensemble.target_concurrence")
    return resolved


def build_rate(desc, field: str):
    if isinstance(desc, (int, float)):
        desc = {"kind": "constant", "value": desc}
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{field}: rate must be a number or an object with 'kind'")
    if desc["kind"] == "constant":
        return ConstantRate(_number(desc.get("value"), f"{field}.value"))
    if desc["kind"] == "exponential":
        amplitude = _number(desc.get("amplitude"), f"{field}.amplitude")
        tau = _number(desc.get("tau", 1.0), f"{field}.tau")
        try:
            return ExponentialRate(amplitude, tau)
        except ValueError as exc:
            raise ConfigError(f"{field}: {exc}")
    raise ConfigError(f"{field}: unknown rate kind {desc['kind']!r}")


def build_generator(cfg: dict):
    gcfg = cfg.get("generator")
    if not isinstance(gcfg, dict):
        raise ConfigError("config needs a 'generator' object")
    if "catalog" in gcfg:
        cat = _object(gcfg["catalog"], "generator.catalog")
        ids = (min(CATALOG), max(CATALOG))
        class_id = _whole(cat.get("class_id"), "generator.catalog.class_id", ids)
        params = _object(cat.get("params", {}), "generator.catalog.params")
        params = {k: _number(v, f"generator.catalog.params.{k}") for k, v in params.items()}
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


def _output_directory(path) -> Path:
    """The output directory, created if missing; one that cannot be is a ConfigError."""
    try:
        outdir = Path(path)
        outdir.mkdir(parents=True, exist_ok=True)
    except (TypeError, OSError) as exc:
        raise ConfigError(f"output.directory {path!r} cannot be used: {exc}")
    return outdir


def asymptotic_set_options(run: dict) -> dict:
    """Keyword arguments of ``asymptotic_set`` from a resolved run."""
    return {
        "kernel_tol": float(run["kernel_tol"]),
        "horizon": float(run["classify_horizon"]),
        "convergence_tol": float(run["convergence_tol"]),
        "opts": solver_options(run),
    }


def _initial_state(resolved: dict):
    init = resolved.get("initial_state")
    if init is None:
        return sample(build_ensemble(resolved))
    m = parse_complex_matrix(_object(init, "initial_state").get("matrix"), "initial_state.matrix")
    try:
        return new_state(m)
    except EntfateError as exc:
        raise ConfigError(f"initial_state: {exc}")


def _set_up(args, build_start=None):
    """Load and resolve the config of a run, build its generator and, if
    asked, its start (``build_start(resolved)``: an initial state or an
    ensemble), then write ``resolved_config.json``.  Every config error is
    raised before anything is written.  Returns (run, generator, start,
    output directory)."""
    resolved = resolve_config(load_config(args.config), args)
    g = build_generator(resolved)
    start = None if build_start is None else build_start(resolved)
    outdir = _output_directory(resolved["output"]["directory"])
    _write_json(outdir / "resolved_config.json", resolved)
    return resolved["run"], g, start, outdir


def cmd_simulate(args) -> int:
    run, g, rho0, outdir = _set_up(args, _initial_state)
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
    run, g, _, outdir = _set_up(args)
    try:
        aset, cls = classify_generator(
            g,
            float(run["class_tol"]),
            n_probes=int(run["n_probes"]),
            seed=int(run["seed"] or 0),
            **asymptotic_set_options(run),
        )
    except (Inconclusive, OscillatoryAsymptotics, NotConverged, NoTraceOneElement) as exc:
        _write_json(
            outdir / "classification.json",
            {"error": type(exc).__name__, "reason": str(exc)},
        )
        print(f"classification failed: {type(exc).__name__}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    evidence = dict(vars(cls))  # not dataclasses.asdict, which deep-copies every probe
    verdict = {key: evidence.pop(key) for key in ("class_id", "cardinality")}
    payload = {**verdict, "evidence": evidence, "diagnostics": aset.diagnostics}
    _write_json(outdir / "classification.json", payload)
    print(f"class {cls.class_id}")
    return EXIT_OK


def cmd_fates(args) -> int:
    run, g, spec, outdir = _set_up(args, build_ensemble)
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


def cmd_catalog(args) -> int:
    outdir = _output_directory(args.out or ".")
    run = {**{k: _RUN_DEFAULTS[k] for k in ("horizon", "grid_points", "n_samples")}, "seed": 0}
    for class_id, (desc, params) in CATALOG.items():
        g = catalog_generator(class_id, **params)
        kind = "autonomous" if g.autonomous else "non-autonomous"
        print(f"class {class_id}: {desc} [{kind}, params {params}]")
        config = {
            "generator": {"catalog": {"class_id": class_id, "params": params}},
            "ensemble": _ENSEMBLE_DEFAULTS,
            "run": run,
            "output": {"directory": f"class_{class_id}"},
        }
        _write_json(outdir / f"catalog_class_{class_id}.json", config)
    print(f"wrote {len(CATALOG)} config files to {outdir}")
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
