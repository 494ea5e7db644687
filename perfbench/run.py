"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh worker
process with BLAS threads pinned to 1, importing entfate from ``src``.
With ``--trace 0`` the last line of output is a JSON object holding every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every
per-layer metric instead.  Set-up time is the median over several
process starts, each corrected for host speed by calibration loops run
just before the spawn and just after set-up.  Scratch files and the full result go to
``perfbench/.work/<workload>/``.  Exits non-zero, printing no result, when
the checkout has no entfate sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import loop_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUP_PROBES = 4  # set-up-only processes, besides the workload process itself
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def spawn_worker(argv, workdir: Path, deadline: float) -> dict:
    result_file = workdir / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(SRC))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    loop_s = loop_seconds()
    t0 = time.monotonic()
    cmd = [sys.executable, str(WORKER), *argv, "--t0", repr(t0), "--loop-s", repr(loop_s),
           "--workdir", str(workdir), "--result", str(result_file)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f}s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_file.read_text())


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "entfate" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"perfbench: no entfate sources under {SRC} or no {spec_file.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = HERE / ".work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_PROBES):
                probe = spawn_worker([*common, "--setup-only"], workdir / f"setup_{k}", deadline)
                setups.append(probe["setup_s"])
        result = spawn_worker(common, workdir / "main", deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups

    if args.trace:
        wanted, values = spec["per_layer"], result["per_layer"]
    else:
        wanted, values = spec["end_to_end"], result["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {
        "correct": result["ref_mismatch"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    result["summary"] = summary
    (workdir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))

    m = result["machine"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['rounds']} rounds of {result['ops_per_round']} {result['unit_of_work']}"
          f" (+{result['traced_rounds']} traced), reference "
          f"{'recorded' if result['reference'] else 'not recorded'} for this seed")
    print(f"machine nproc {m['nproc']} (affinity {m['affinity']}), python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, blas {m['blas']['vendor']} "
          f"{m['blas']['version']} threads {m['blas']['threads']}")
    for name, rec in {**metrics, **{k: {"value": v, "unit": "s"}
                                    for k, v in result["detail"].items()}}.items():
        print(f"{name} {rec['value']:.6g} {rec['unit']}")
    print(f"fail_frac {result['fail_frac']:.6g} ({result['failed']}/{result['attempted']})")
    print(f"ref_mismatch {result['ref_mismatch']}")
    for line in result["mismatches"]:
        print(f"  mismatch: {line}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
