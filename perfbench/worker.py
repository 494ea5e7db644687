"""One workload in one process.

Started by ``run.py``; not meant to be run by hand.  Imports entfate from
the checkout's ``src``, sets the workload up from the seed, runs timed
rounds for about ``--seconds`` seconds, checks the outputs and writes a
result JSON to ``--result``.  With ``--setup-only`` it stops after set-up
and records only the set-up time.

Every chunk's time is corrected for host speed (``hostspeed.py``).
``wall_s`` sums, over the chunks, the median corrected time across rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import loop_seconds, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_entfate():
    sys.path.insert(0, str(SRC))
    import entfate
    import entfate.cli

    where = Path(entfate.__file__).resolve().parent
    if where != SRC / "entfate":
        raise RuntimeError(f"imported entfate from {where}, not from {SRC}")
    return entfate


def blas_info() -> dict:
    """Vendor and version numpy was built with, and the thread cap the
    loaded OpenBLAS reports (None if it cannot be queried)."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"vendor": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
            "threads": None}
    for path in sorted(glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)  # already loaded by numpy: this returns its handle
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "env_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_round(wl) -> list[dict]:
    return [wl.run_chunk(i) for i in range(wl.n_chunks)]


def run_timed(wl, seconds: float, tracer=None):
    """Rounds until another would overrun ``seconds``; at least one.

    With a tracer, untraced and traced rounds alternate (at least one of
    each) and the per-layer table of each traced round is kept.
    """
    untraced, traced, tables = [], [], []
    start = time.monotonic()
    while True:
        t_round = time.monotonic()
        untraced.append(run_round(wl))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_round(wl))
            finally:
                tracer.uninstall()
            tables.append((tracer.table(), dict(tracer.counters)))
        now = time.monotonic()
        if now - start + (now - t_round) > seconds:
            break
    return untraced, traced, tables


def chunk_medians(rounds, key="corrected") -> list[float]:
    """Per chunk, the median of its times over the rounds."""
    return [statistics.median(r[i][key] for r in rounds) for i in range(len(rounds[0]))]


def round_factor(rnd) -> float:
    """Corrected over raw time of one round."""
    return sum(c["corrected"] for c in rnd) / sum(c["seconds"] for c in rnd)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--loop-s", type=float, required=True,
                    help="parent's calibration loop time just before spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ef = import_entfate()
    from workloads import WORKLOADS, oracle_mismatches

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](ef, workdir, args.seed)
    setup_raw_s = time.monotonic() - args.t0
    setup_s = setup_raw_s * speed_factor(0.5 * (args.loop_s + loop_seconds()))
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "setup_raw_s": setup_raw_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
    untraced, traced, tables = run_timed(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # output gate, outside the timed region
    refs = json.loads((HERE / "references.json").read_text()).get(args.workload)
    reference = None
    if refs is not None:
        if refs["size"] != wl.size():
            raise RuntimeError(f"references were recorded for size {refs['size']}, "
                               f"workload has {wl.size()}")
        reference = refs["seeds"].get(str(args.seed))
    rounds = untraced + traced
    outputs = [[c["output"] for c in r] for r in rounds]
    mismatches = wl.mismatches(outputs[0], reference)
    mismatches += [f"round {i} differs from round 0"
                   for i, out in enumerate(outputs) if out != outputs[0]]
    mismatches += oracle_mismatches(ef)
    layers = per_layer(tables, traced, untraced) if traced else {}
    if layers and not layers["counts_deterministic"]:
        mismatches.append("traced rounds gave different per-layer counts")

    attempted = sum(c["ops"] for r in rounds for c in r)
    failed = sum(c["failed"] for r in rounds for c in r)
    medians = chunk_medians(untraced)
    wall_s = sum(medians)
    wall_raw_s = sum(chunk_medians(untraced, "seconds"))
    ops_per_round = sum(c["ops"] for c in untraced[0])
    result.update({
        "trace": args.trace,
        "reference": reference is not None,
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "ops_per_round": ops_per_round,
        "unit_of_work": wl.unit_of_work,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "ref_mismatch": len(mismatches),
        "mismatches": mismatches[:20],
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "samples_per_s": ops_per_round / wall_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "detail": {**wl.detail(medians), "wall_raw_s": wall_raw_s},
        "host_speed": wall_s / wall_raw_s,
        "round_seconds": [[c["seconds"] for c in r] for r in untraced],
        "round_corrected": [[c["corrected"] for c in r] for r in untraced],
        "machine": machine_info(),
    })
    if traced:
        result.update(layers)
        result["traced_detail"] = wl.detail(chunk_medians(traced))
        result["trace_edges"] = tracer.edge_list()
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


def _counts(table, counters):
    return {name: rec["calls"] for name, rec in table.items()}, counters


def per_layer(tables, traced, untraced) -> dict:
    """Counts from the first traced round (every traced round must repeat
    them exactly) and the median corrected self time over traced rounds."""
    from layertrace import RESULT_COUNTERS

    first, first_counters = tables[0]
    factors = [round_factor(r) for r in traced]
    metrics = {}
    for name, rec in first.items():
        metrics[f"{name}.calls"] = rec["calls"]
        metrics[f"{name}.self_s"] = statistics.median(
            table[name]["self_s"] * f for (table, _), f in zip(tables, factors))
    for counter, _ in RESULT_COUNTERS.values():
        metrics[counter] = first_counters.get(counter, 0)
    traced_wall = sum(chunk_medians(traced))
    metrics["trace.overhead_frac"] = traced_wall / sum(chunk_medians(untraced)) - 1.0
    return {
        "per_layer": metrics,
        "traced_wall_s": traced_wall,
        "counts_deterministic": all(_counts(*t) == _counts(*tables[0]) for t in tables),
    }


if __name__ == "__main__":
    sys.exit(main())
