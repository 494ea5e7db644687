"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 0-9 [--workloads a,b] [--traced-seeds 0,0]
                                  [--write perfbench/baseline.json]

Each run is ``run.py`` in its own process, exactly as the benchmark
command is run.  For every end-to-end metric it prints the median, the
quartiles and the spread (interquartile distance over the median) next to
the metric's bound.  Traced runs add the per-layer table of the first
one, each layer's share of the traced wall time, and whether repeated
traced runs of that seed gave identical counts.  With ``--write`` the
summary is saved as the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads((HERE / ".work" / workload / "result.json").read_text())


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced-seeds", default="")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--write", help="save the summary to this JSON file")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            r = run_once(workload, seed, args.seconds, 0)
            runs.append(r)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in r["end_to_end"].items())
                + f", correct {r['summary']['correct']}, failed {r['failed']}", flush=True)
        entry = {
            "seeds": [r["seed"] for r in runs],
            "end_to_end": {k: spread([r["end_to_end"][k] for r in runs])
                           for k in runs[0]["end_to_end"]},
            "detail": {k: spread([r["detail"][k] for r in runs]) for k in runs[0]["detail"]},
            "fail_frac": max(r["fail_frac"] for r in runs),
            "ref_mismatch": max(r["ref_mismatch"] for r in runs),
            "rounds": [r["rounds"] for r in runs],
            "machine": runs[0]["machine"],
        }
        for k, s in entry["end_to_end"].items():
            flag = "" if k == "setup_s" or s["spread"] <= bounds[k] / 3 else "  <-- over bound/3"
            print(f"  {k}: median {s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
                  f"spread {s['spread']:.3f} (bound {bounds[k]}){flag}", flush=True)
        traced = [run_once(workload, seed, args.seconds, 1)
                  for seed in (parse_seeds(args.traced_seeds) if args.traced_seeds else [])]
        if traced:
            first = traced[0]
            entry["traced_seed"] = first["seed"]
            entry["per_layer"] = first["per_layer"]
            entry["traced_wall_s"] = first["traced_wall_s"]
            entry["traced_detail"] = first["traced_detail"]
            entry["self_share_of_traced_wall"] = {
                k[: -len(".self_s")]: v / first["traced_wall_s"]
                for k, v in first["per_layer"].items() if k.endswith(".self_s") and v > 0
            }
            counts = [{k: v for k, v in r["per_layer"].items() if k.endswith((".calls", ".nfev"))}
                      for r in traced if r["seed"] == first["seed"]]
            entry["traced_runs_of_seed"] = len(counts)
            entry["counts_identical_across_runs"] = all(c == counts[0] for c in counts)
        summary["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
