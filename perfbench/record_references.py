"""Record the reference outputs the output gate compares against.

    python3 perfbench/record_references.py --seeds 0-19

Runs one round of every workload per seed and stores its outputs, with the
workload sizes, in ``perfbench/references.json``.  References pin the
outputs of the commit that recorded them; re-record only when a change is
meant to alter results, and say so.  Seeds left out (such as the held-out
seed in README.md) are still gated by invariants and oracles.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from baseline import parse_seeds  # noqa: E402
from worker import import_entfate, run_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", default=str(HERE / "references.json"))
    args = ap.parse_args(argv)

    ef = import_entfate()
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    path = Path(args.out)
    refs = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workloads.split(","):
        cls = WORKLOADS[name]
        entry = None
        for seed in parse_seeds(args.seeds):
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                wl = cls(ef, Path(tmp), seed)
                if entry is None:
                    entry = refs.get(name)
                    if entry is None or entry["size"] != wl.size():
                        entry = {"size": wl.size(), "seeds": {}}
                out = [c["output"] for c in run_round(wl)]
                bad = wl.mismatches(out, None)
                if bad:
                    raise SystemExit(f"{name} seed {seed} fails its invariants: {bad[:5]}")
            entry["seeds"][str(seed)] = out
            print(f"{name} seed {seed}: recorded", flush=True)
        refs[name] = entry
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
