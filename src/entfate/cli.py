"""Scenario-driven command line front end.

Subcommands: simulate | classify | fates | catalog.
Exit codes: 0 success, 2 config error, 3 solver error, 4 no asymptotic set
or no class (a ``simulate`` whose limit has no set too), 5 excessive sample
failures.  ``main`` alone maps an EntfateError, printed as ``Type: message``.

Configs are JSON; complex entries are [re, im] pairs, and a key that nothing
reads is a config error.  Every command builds every section of its config
before it writes the fully resolved config (``SCHEMA``'s defaults included)
next to its results; re-running that config reproduces them bit for bit.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, fate
from .asymptotics import (
    CATALOG,
    asymptotic_set,
    catalog_generator,
    classify_generator,
    membership_residual,
)
from .dynamics import ConstantRate, ExponentialRate, SolverOptions, make_generator, propagate
from .errors import (
    BadParams,
    EntfateError,
    Inconclusive,
    NoTraceOneElement,
    NotConverged,
    OscillatoryAsymptotics,
)
from .fate import FateRecord, fate_of_trajectory, fate_statistics, margin_curve
from .states import SEED_MAX, EnsembleSpec, new_state, sample

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INCONCLUSIVE = 4
EXIT_FAILURES = 5
# exit 4: no asymptotic set or no class; any other EntfateError exits 3
_NO_SET = (Inconclusive, OscillatoryAsymptotics, NotConverged, NoTraceOneElement)


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


def _object(value, field: str, keys) -> dict:
    """The config object at ``field`` ("" for the root): a JSON object whose
    every key is one of ``keys``, since a key that nothing reads is an error."""
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be a JSON object, got {value!r}")
    for key in value:
        if key not in keys:
            path = f"{field}.{key}" if field else key
            raise ConfigError(f"{path} is not a config field (expected {', '.join(keys)})")
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


def _positive(value, field: str) -> None:
    """The rule of a tolerance or a horizon: a number above zero."""
    if _number(value, field) <= 0.0:
        raise ConfigError(f"{field} must be positive, got {value!r}")


def _whole_in(least: int, most: int):
    """The rule of a whole number in [least, most], which also passes ``_number``'s."""

    def rule(value, field: str) -> int:
        number = _number(value, field)
        if number != int(number) or not least <= int(value) <= most:
            raise ConfigError(
                f"{field} must be a whole number >= {least} and <= {most}, got {value!r}"
            )
        return int(value)

    return rule


_SEED = _whole_in(0, SEED_MAX)  # the seeds of a 64-bit generator

# The config's sections: section -> field -> (default, rule).  The flag whose
# dest is "section.field" overrides that field.  A rule raises a ConfigError
# naming its field; None leaves the value to the builder that reads it.  The
# upper bounds keep a run's allocations and processes small: a grid's shared
# propagator stack takes 4 KB per point (410 MB at 100,000 points).
SCHEMA = {
    "run": {
        "horizon": (30.0, _positive),
        "grid_points": (fate.DEFAULT_GRID_POINTS, _whole_in(2, 100_000)),
        "n_samples": (100, _whole_in(1, 10**6)),
        # unset (None): the ensemble's seed, and 0 for classify's probes
        "seed": (None, lambda value, field: value is None or _SEED(value, field)),
        "workers": (1, _whole_in(1, 64)),
        "rtol": (SolverOptions().rtol, _positive),
        "atol": (SolverOptions().atol, _positive),
        "class_tol": (asymptotics.DEFAULT_CLASS_TOL, _positive),
        "fate_tol": (fate.DEFAULT_FATE_TOL, _positive),
        "refine_tol": (fate.DEFAULT_REFINE_TOL, _positive),
        "kernel_tol": (asymptotics.DEFAULT_KERNEL_TOL, _positive),
        "convergence_tol": (asymptotics.DEFAULT_CONVERGENCE_TOL, _positive),
        "classify_horizon": (asymptotics.DEFAULT_NONAUTONOMOUS_HORIZON, _positive),
        "n_probes": (asymptotics.DEFAULT_N_PROBES, _whole_in(0, 100_000)),
    },
    "ensemble": {
        "kind": ("hilbert_schmidt_mixed", None),
        "seed": (0, _SEED),
        "target_concurrence": (0.0, _number),
    },
    "output": {"directory": (".", None)},
}
# a config's root keys: the sections above, the builders' objects and schema_version
_ROOT = (*SCHEMA, "generator", "initial_state", "schema_version")


def resolve_config(cfg: dict, args) -> dict:
    """``cfg`` with every field of ``SCHEMA`` set from the flags of ``args``
    (None: no flags), else from ``cfg``, else its default, and checked."""
    resolved = copy.deepcopy(_object(cfg, "", _ROOT))
    version = resolved.setdefault("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:  # not 1.0, nor true
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    flags = {} if args is None else vars(args)
    for section, fields in SCHEMA.items():
        given = _object(resolved.get(section, {}), section, fields)
        values = {}
        for key, (default, rule) in fields.items():
            path = f"{section}.{key}"
            value = flags.get(path)
            if value is None:
                value = given.get(key, default)
            if rule is not None:
                rule(value, path)
            values[key] = value
        resolved[section] = values
    return resolved


def build_rate(desc, field: str):
    if isinstance(desc, (int, float)):
        desc = {"kind": "constant", "value": desc}
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{field}: rate must be a number or an object with 'kind'")
    if desc["kind"] == "constant":
        _object(desc, field, ("kind", "value"))
        return ConstantRate(_number(desc.get("value"), f"{field}.value"))
    if desc["kind"] == "exponential":
        _object(desc, field, ("kind", "amplitude", "tau"))
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
    if len(_object(gcfg, "generator", ("catalog", "explicit"))) != 1:
        raise ConfigError("generator must contain one of 'catalog' or 'explicit'")
    if "catalog" in gcfg:
        cat = _object(gcfg["catalog"], "generator.catalog", ("class_id", "params"))
        class_ids = _whole_in(min(CATALOG), max(CATALOG))
        class_id = class_ids(cat.get("class_id"), "generator.catalog.class_id")
        # a class takes the one parameter its CATALOG row names
        params = _object(cat.get("params", {}), "generator.catalog.params", CATALOG[class_id][1])
        params = {k: _number(v, f"generator.catalog.params.{k}") for k, v in params.items()}
        try:
            return catalog_generator(class_id, **params)
        except BadParams as exc:
            raise ConfigError(f"generator.catalog: {exc}")
    ex = _object(gcfg["explicit"], "generator.explicit", ("dims", "hamiltonian", "jumps"))
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
        if "operator" not in _object(j, field, ("operator", "rate")):
            raise ConfigError(f"{field}: expected an object with an 'operator'")
        op = parse_complex_matrix(j["operator"], f"{field}.operator")
        jumps.append((op, build_rate(j.get("rate", 1.0), f"{field}.rate")))
    try:
        return make_generator(hamiltonian=ham, jumps=jumps)
    except ValueError as exc:
        raise ConfigError(f"generator.explicit: {exc}")


def build_ensemble(resolved: dict) -> EnsembleSpec:
    """The resolved ensemble, whose seed ``run.seed`` overrides when set."""
    ens, seed = resolved["ensemble"], resolved["run"]["seed"]
    seed = ens["seed"] if seed is None else seed
    try:
        return EnsembleSpec(ens["kind"], int(seed), float(ens["target_concurrence"]))
    except (EntfateError, ValueError) as exc:
        raise ConfigError(f"ensemble: {exc}")


def solver_options(run: dict) -> SolverOptions:
    return SolverOptions(rtol=float(run["rtol"]), atol=float(run["atol"]))


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _output_directory(path, names) -> Path:
    """The output directory, created if missing, in which every file of
    ``names`` can be written; a directory that cannot be made, or a name
    taken by something other than a file, is a ConfigError."""
    try:
        outdir = Path(path)
        outdir.mkdir(parents=True, exist_ok=True)
    except (TypeError, OSError) as exc:
        raise ConfigError(f"output.directory {path!r} cannot be used: {exc}")
    for name in names:
        target = outdir / name
        if target.exists() and not target.is_file():
            raise ConfigError(f"output.directory {path!r}: {name} exists and is not a file")
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
    """The config's initial state, or None when it gives none."""
    init = resolved.get("initial_state")
    if init is None:
        return None
    init = _object(init, "initial_state", ("matrix",))
    m = parse_complex_matrix(init.get("matrix"), "initial_state.matrix")
    try:
        return new_state(m)
    except EntfateError as exc:
        raise ConfigError(f"initial_state: {exc}")


def _set_up(args, outputs):
    """Load and resolve the config of a run and build all of it, whatever the
    command: generator, ensemble and initial state (None if not given).  Check
    that the output directory takes ``resolved_config.json`` and ``outputs``,
    then write ``resolved_config.json``, so every config error comes first.
    Returns (run, generator, ensemble, initial state, output directory)."""
    resolved = resolve_config(load_config(args.config), args)
    g = build_generator(resolved)
    spec, rho0 = build_ensemble(resolved), _initial_state(resolved)
    outdir = _output_directory(resolved["output"]["directory"],
                               ("resolved_config.json", *outputs))
    _write_json(outdir / "resolved_config.json", resolved)
    return resolved["run"], g, spec, rho0, outdir


def cmd_simulate(args) -> int:
    run, g, spec, rho0, outdir = _set_up(args, ("trajectory.csv", "summary.json"))
    grid = fate.fate_grid(float(run["horizon"]), int(run["grid_points"]))
    traj = propagate(g, sample(spec) if rho0 is None else rho0, grid, solver_options(run))
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
    run, g, _, _, outdir = _set_up(args, ("classification.json",))
    try:
        aset, cls = classify_generator(
            g,
            float(run["class_tol"]),
            n_probes=int(run["n_probes"]),
            seed=int(run["seed"] or 0),
            **asymptotic_set_options(run),
        )
    except EntfateError as exc:
        failure = {"error": type(exc).__name__, "reason": str(exc)}
        _write_json(outdir / "classification.json", failure)
        raise
    evidence = dict(vars(cls))  # not dataclasses.asdict, which deep-copies every probe
    verdict = {key: evidence.pop(key) for key in ("class_id", "cardinality")}
    payload = {**verdict, "evidence": evidence, "diagnostics": aset.diagnostics}
    _write_json(outdir / "classification.json", payload)
    print(f"class {cls.class_id}")
    return EXIT_OK


def cmd_fates(args) -> int:
    run, g, spec, _, outdir = _set_up(args, ("fates.csv", "fates_summary.json"))
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
    names = {class_id: f"catalog_class_{class_id}.json" for class_id in CATALOG}
    directory = getattr(args, "output.directory") or SCHEMA["output"]["directory"][0]
    outdir = _output_directory(directory, names.values())
    run = {k: SCHEMA["run"][k][0] for k in ("horizon", "grid_points", "n_samples")} | {"seed": 0}
    ensemble = {key: default for key, (default, _) in SCHEMA["ensemble"].items()}
    for class_id, (desc, params) in CATALOG.items():
        g = catalog_generator(class_id, **params)
        kind = "autonomous" if g.autonomous else "non-autonomous"
        print(f"class {class_id}: {desc} [{kind}, params {params}]")
        config = {
            "generator": {"catalog": {"class_id": class_id, "params": params}},
            "ensemble": ensemble,
            "run": run,
            "output": {"directory": f"class_{class_id}"},
        }
        _write_json(outdir / names[class_id], config)
    print(f"wrote {len(CATALOG)} config files to {outdir}")
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command line parser, built once: parsing keeps no state in it."""
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
            p.add_argument("--seed", type=int, dest="run.seed", help="overrides run.seed")
        if name == "fates":
            p.add_argument("--workers", type=int, dest="run.workers", help="overrides run.workers")
        p.add_argument("--out", dest="output.directory", help="overrides output.directory")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EntfateError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE if isinstance(exc, _NO_SET) else EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
