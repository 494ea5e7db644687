"""The benchmark's workloads and the output gate that checks them.

A workload's fixed work is made from the benchmark seed alone and split
into chunks of well under a second to a few seconds each.  A round runs
every chunk once; a run repeats rounds for as long as it has.  Each chunk
is timed on its own (``hostspeed.timed``) and its outputs are read after
its timer stops.

The gate checks outputs outside the timed region: every round must
reproduce round 0, round 0 must match the reference recorded for the seed
(when there is one), and seed-independent invariants and closed-form
oracles must hold.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from hostspeed import timed

FATE_CODES = {
    "sudden_death": "s",
    "asymptotic_death": "a",
    "never_entangled": "n",
    "asymptotically_entangled": "e",
    "revival": "r",
}
FAILED_CODE = "x"

MARGIN_REF_TOL = 1e-6
WERNER_TOL = 1e-10
CLASS4_MARGIN_TOL = 1e-8
BELL_DEATH_REFINE_TOL = 1e-6
# Hilbert-Schmidt probability that a two-qubit state is PPT
HS_PPT_PROBABILITY = 8.0 / 33.0
PPT_SIGMAS = 5.0


class Workload:
    """Fixed work made from the seed, run one chunk at a time."""

    name: str
    unit_of_work: str  # what samples_per_s counts
    n_chunks: int

    def __init__(self, ef, workdir: Path, seed: int):
        self.ef = ef
        self.workdir = workdir
        self.seed = seed

    def size(self) -> dict:
        """Sizes that the recorded references depend on."""
        raise NotImplementedError

    def run_chunk(self, i: int) -> dict:
        """Run chunk i once: {"ops", "failed", "seconds", "corrected", "output"},
        with raw and host-speed corrected seconds."""
        raise NotImplementedError

    def mismatches(self, outputs: list, reference) -> list[str]:
        """Check one round's chunk outputs against the reference (or None)
        and against invariants that hold for any seed."""
        raise NotImplementedError

    def detail(self, chunk_seconds: list[float]) -> dict:
        """Extra timings, in seconds, read off the per-chunk times."""
        return {}


def _cli_main(ef, argv) -> int:
    return ef.cli.main([str(a) for a in argv])


class ClassifyCatalog(Workload):
    """``entfate classify`` on the six catalog configs, one per chunk."""

    name = "classify_catalog"
    unit_of_work = "classify calls"
    n_chunks = 6

    def __init__(self, ef, workdir, seed):
        super().__init__(ef, workdir, seed)
        cfg_dir = workdir / "configs"
        if _cli_main(ef, ["catalog", "--out", cfg_dir]) != 0:
            raise RuntimeError("entfate catalog failed")
        self.configs = []
        for class_id in range(1, 7):
            path = cfg_dir / f"catalog_class_{class_id}.json"
            cfg = json.loads(path.read_text())
            cfg["run"]["seed"] = seed
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            self.configs.append(path)

    def size(self):
        return {"classes": self.n_chunks}

    def run_chunk(self, i):
        out = self.workdir / f"class_{i + 1}"
        argv = ["classify", "--config", self.configs[i], "--out", out]
        rc, raw, corrected = timed(lambda: _cli_main(self.ef, argv))
        output = None
        if rc == 0:
            payload = json.loads((out / "classification.json").read_text())
            ev = payload["evidence"]
            output = [payload["class_id"], ev["min_margin"], ev["max_margin"]]
        return {"ops": 1, "failed": int(rc != 0), "seconds": raw, "corrected": corrected,
                "output": output}

    def detail(self, chunk_seconds):
        return {f"classify_c{k}_s": chunk_seconds[k - 1] for k in (4, 5, 6)}

    def mismatches(self, outputs, reference):
        bad = []
        for i, got in enumerate(outputs):
            class_id = i + 1
            if got is None:
                bad.append(f"class {class_id}: classify failed")
                continue
            if got[0] != class_id:
                bad.append(f"class {class_id}: classified as {got[0]}")
            if reference is not None:
                ref = reference[i]
                for label, g, r in (("min", got[1], ref[1]), ("max", got[2], ref[2])):
                    if not abs(g - r) <= MARGIN_REF_TOL:
                        bad.append(f"class {class_id}: {label}_margin {g!r} vs reference {r!r}")
        return bad


class FatesWorkload(Workload):
    """``entfate fates`` on one catalog generator; each chunk is one CLI
    call on its own ensemble seed, derived from the benchmark seed."""

    unit_of_work = "fate samples"
    class_id: int
    ensemble: dict
    run: dict
    samples_per_chunk: int
    allowed_tags: frozenset

    def __init__(self, ef, workdir, seed):
        super().__init__(ef, workdir, seed)
        self.configs = []
        for i in range(self.n_chunks):
            chunk_seed = ef.split_seed(seed, i)
            config = {
                "generator": {"catalog": {"class_id": self.class_id, "params": {}}},
                "ensemble": {**self.ensemble, "seed": chunk_seed},
                "run": {**self.run, "n_samples": self.samples_per_chunk,
                        "seed": chunk_seed, "workers": 1},
            }
            path = workdir / f"fates_config_{i}.json"
            path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
            self.configs.append(path)

    def size(self):
        return {"chunks": self.n_chunks, "samples_per_chunk": self.samples_per_chunk,
                "run": self.run}

    def run_chunk(self, i):
        out = self.workdir / f"fates_{i}"
        argv = ["fates", "--config", self.configs[i], "--out", out, "--workers", 1]
        rc, raw, corrected = timed(lambda: _cli_main(self.ef, argv))
        return {"ops": self.samples_per_chunk, "failed": self._failures(out, rc),
                "seconds": raw, "corrected": corrected, "output": self._tags(out, rc)}

    def _failures(self, out, rc):
        if rc not in (0, 5):  # 5: too many failed samples, still summarised
            return self.samples_per_chunk
        return int(json.loads((out / "fates_summary.json").read_text())["failures"])

    def _tags(self, out, rc):
        """One letter per sample: its fate tag, or FAILED_CODE."""
        tags = [FAILED_CODE] * self.samples_per_chunk
        if rc in (0, 5):
            for line in (out / "fates.csv").read_text().splitlines()[1:]:
                fields = line.split(",")
                tags[int(fields[0])] = FATE_CODES[fields[2]]
        return "".join(tags)

    def mismatches(self, outputs, reference):
        bad = []
        allowed = {FATE_CODES[t] for t in self.allowed_tags}
        for c, tags in enumerate(outputs):
            for i, code in enumerate(tags):
                if code != FAILED_CODE and code not in allowed:
                    bad.append(f"chunk {c} sample {i}: fate {code!r} outside {sorted(allowed)}")
            if reference is not None:
                bad += [
                    f"chunk {c} sample {i}: fate {g!r} vs reference {r!r}"
                    for i, (g, r) in enumerate(zip(tags, reference[c]))
                    if g != r
                ]
        return bad


class FatesDamping(FatesWorkload):
    """Class 2 (boundary attractor) from pure states with C = 0.6: every
    sample dies, suddenly or asymptotically."""

    name = "fates_damping"
    class_id = 2
    ensemble = {"kind": "fixed_concurrence_pure", "target_concurrence": 0.6}
    run = {"horizon": 30.0, "grid_points": 400}
    n_chunks = 20
    samples_per_chunk = 12
    allowed_tags = frozenset({"sudden_death", "asymptotic_death"})


class FatesQuench(FatesWorkload):
    """Class 6 (entangled attractor) from Hilbert-Schmidt states: every
    sample ends entangled, separable ones by sudden birth.  Solver
    tolerances are those of acceptance criterion 5."""

    name = "fates_quench"
    class_id = 6
    ensemble = {"kind": "hilbert_schmidt_mixed"}
    run = {"horizon": 12.0, "grid_points": 200, "rtol": 1e-7, "atol": 1e-10}
    n_chunks = 20
    samples_per_chunk = 8
    allowed_tags = frozenset({"asymptotically_entangled", "revival"})


class PptVolume(Workload):
    """Library calls: sample Hilbert-Schmidt states and count PPT ones."""

    name = "ppt_volume"
    unit_of_work = "states"
    n_chunks = 8
    samples_per_chunk = 1000

    def size(self):
        return {"chunks": self.n_chunks, "samples_per_chunk": self.samples_per_chunk}

    def _count_ppt(self, first: int) -> int:
        ef = self.ef
        count = 0
        for k in range(first, first + self.samples_per_chunk):
            spec = ef.EnsembleSpec("hilbert_schmidt_mixed", seed=ef.split_seed(self.seed, k))
            if ef.min_pt_eigenvalue(ef.sample(spec)) >= 0.0:
                count += 1
        return count

    def run_chunk(self, i):
        count, raw, corrected = timed(lambda: self._count_ppt(i * self.samples_per_chunk))
        return {"ops": self.samples_per_chunk, "failed": 0, "seconds": raw,
                "corrected": corrected, "output": count}

    def mismatches(self, outputs, reference):
        bad = []
        n = self.n_chunks * self.samples_per_chunk
        p = HS_PPT_PROBABILITY
        sigma = math.sqrt(p * (1.0 - p) / n)
        frac = sum(outputs) / n
        if abs(frac - p) > PPT_SIGMAS * sigma:
            bad.append(f"PPT fraction {frac:.4f} vs 8/33 beyond {PPT_SIGMAS:g} sigma")
        if reference is not None:
            bad += [f"chunk {c}: PPT count {g} vs reference {r}"
                    for c, (g, r) in enumerate(zip(outputs, reference)) if g != r]
        return bad


WORKLOADS = {w.name: w for w in (ClassifyCatalog, FatesDamping, FatesQuench, PptVolume)}


def oracle_mismatches(ef) -> list[str]:
    """Closed-form oracles that hold at every seed."""
    import numpy as np

    bad = []
    bell = ef.max_entangled().matrix
    for w in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.9, 1.0):
        s = ef.new_state(w * bell + (1.0 - w) * np.eye(4) / 4.0, 2, 2)
        err = abs(ef.min_pt_eigenvalue(s) - (1.0 - 3.0 * w) / 4.0)
        if not err <= WERNER_TOL:
            bad.append(f"Werner margin at w={w}: error {err:.3e}")
    try:
        rec = ef.detect_fate(ef.catalog_generator(1), ef.max_entangled(), 10.0,
                             refine_tol=BELL_DEATH_REFINE_TOL)
        if rec.death_time is None or not abs(rec.death_time - math.log(3.0)) <= BELL_DEATH_REFINE_TOL:
            bad.append(f"class-1 Bell death at {rec.death_time!r}, expected ln 3")
    except ef.EntfateError as exc:
        bad.append(f"class-1 Bell death: {type(exc).__name__}: {exc}")
    try:
        _, cls = ef.classify_generator(ef.catalog_generator(4, c=2.0))
        expected = (1.0 - 3.0 * math.exp(-2.0)) / 4.0
        if not abs(cls.min_margin - expected) <= CLASS4_MARGIN_TOL:
            bad.append(f"class-4 min margin {cls.min_margin!r}, expected {expected!r}")
    except ef.EntfateError as exc:
        bad.append(f"class-4 min margin: {type(exc).__name__}: {exc}")
    return bad
