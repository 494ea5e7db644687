"""What each call imports, seen from a fresh interpreter.

pytest's own process has scipy loaded already, so every check here runs
its code in a new ``sys.executable -c`` process and reads back the
modules that process has loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import entfate as ef

SRC = str(Path(ef.__file__).resolve().parents[1])

# defines loaded(prefix): the loaded modules that are prefix or inside it
PRELUDE = """\
import json, sys
def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))
"""


def run_fresh(code: str):
    """Run ``code`` after PRELUDE in a fresh interpreter that imports entfate
    from this checkout; the JSON it prints on its last line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_catalog_sampling_and_geometry_load_no_scipy(tmp_path):
    found = run_fresh(f"""
import entfate, entfate.cli
assert entfate.cli.main(["catalog", "--out", {str(tmp_path)!r}]) == 0
rho = entfate.sample(entfate.EnsembleSpec("hilbert_schmidt_mixed", seed=3))
entfate.min_pt_eigenvalue(rho)
print(json.dumps(loaded("scipy") + loaded("concurrent.futures.process")))
""")
    assert found == []
    assert (tmp_path / "catalog_class_6.json").exists()


def test_autonomous_fate_loads_scipy_linalg_only():
    found = run_fresh("""
import entfate as ef
spec = ef.EnsembleSpec("fixed_concurrence_pure", seed=4, target_concurrence=0.6)
ef.detect_fate(ef.catalog_generator(2), ef.sample(spec), horizon=10.0, grid_points=50)
ef.fate_statistics(ef.catalog_generator(2), spec, n=2, horizon=10.0, grid_points=50, workers=1)
print(json.dumps({"linalg": "scipy.linalg" in sys.modules, "integrate": loaded("scipy.integrate"),
                  "pool": loaded("concurrent.futures.process")}))
""")
    assert found == {"linalg": True, "integrate": [], "pool": []}


def test_autonomous_classify_loads_scipy_linalg_only(tmp_path):
    config = tmp_path / "class_2.json"
    config.write_text(json.dumps({"generator": {"catalog": {"class_id": 2, "params": {}}}}))
    found = run_fresh(f"""
import entfate.cli
assert entfate.cli.main(["classify", "--config", {str(config)!r}, "--out", {str(tmp_path)!r}]) == 0
print(json.dumps({{"linalg": "scipy.linalg" in sys.modules,
                  "integrate": loaded("scipy.integrate")}}))
""")
    assert found == {"linalg": True, "integrate": []}
    assert json.loads((tmp_path / "classification.json").read_text())["class_id"] == 2


def test_quench_classify_loads_scipy_linalg_only(tmp_path):
    # a quench's set is its exact limit exp(a tau D), with no flow
    configs = []
    for class_id in (4, 6):
        config = tmp_path / f"class_{class_id}.json"
        config.write_text(json.dumps({"generator": {"catalog": {"class_id": class_id}}}))
        configs.append((str(config), str(tmp_path / f"out_{class_id}")))
    found = run_fresh(f"""
import entfate.cli
for config, out in {configs!r}:
    assert entfate.cli.main(["classify", "--config", config, "--out", out]) == 0
print(json.dumps({{"linalg": "scipy.linalg" in sys.modules,
                  "integrate": loaded("scipy.integrate")}}))
""")
    assert found == {"linalg": True, "integrate": []}
    for class_id in (4, 6):
        out = tmp_path / f"out_{class_id}" / "classification.json"
        assert json.loads(out.read_text())["class_id"] == class_id


def test_nonautonomous_fate_loads_scipy_integrate():
    found = run_fresh("""
import entfate as ef
rho = ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=4))
ef.detect_fate(ef.catalog_generator(6), rho, horizon=5.0, grid_points=50)
print(json.dumps("scipy.integrate" in sys.modules))
""")
    assert found is True


def test_scipy_names_are_module_attributes_bound_on_first_access():
    found = run_fresh("""
import entfate.dynamics as dyn
before = sorted(name for name in ("solve_ivp", "expm") if name in vars(dyn))
solve_ivp, expm = dyn.solve_ivp, dyn.expm
import scipy.integrate, scipy.linalg
try:
    dyn.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "before": before,
    "solve_ivp": solve_ivp is scipy.integrate.solve_ivp and vars(dyn)["solve_ivp"] is solve_ivp,
    "expm": expm is scipy.linalg.expm and vars(dyn)["expm"] is expm,
    "unknown": unknown,
}))
""")
    assert found == {
        "before": [],
        "solve_ivp": True,
        "expm": True,
        "unknown": "module 'entfate.dynamics' has no attribute 'no_such_name'",
    }


def test_pool_workers_import_scipy_themselves():
    # the parent never flows a state, so each pool worker makes the first
    # scipy.integrate import of its own
    found = run_fresh("""
import entfate as ef
g, spec = ef.catalog_generator(6), ef.EnsembleSpec("hilbert_schmidt_mixed", seed=5)
run = dict(n=6, horizon=5.0, grid_points=50)
_, pooled = ef.fate_statistics(g, spec, workers=2, **run)
parent_scipy = loaded("scipy")
_, serial = ef.fate_statistics(g, spec, workers=1, **run)
print(json.dumps({"parent_scipy": parent_scipy, "same": pooled == serial,
                  "failures": [r for r in serial if isinstance(r, str)]}))
""")
    assert found == {"parent_scipy": [], "same": True, "failures": []}
