"""What each call imports, seen from a fresh interpreter.

pytest's own process has scipy loaded already, so every check here runs
its code in a new ``sys.executable -c`` process and reads back the
modules that process has loaded.
"""

import ast
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


def test_classify_and_autonomous_flows_load_no_scipy(tmp_path):
    # the six catalog classes (Liouvillian kernels, quench limits), then an
    # autonomous fates run and a simulate of Phi+, which ends entangled under
    # damping and so reads its limit: exp steps, off-grid maps and the kernel
    runs = []
    for class_id in range(1, 7):
        config = tmp_path / f"class_{class_id}.json"
        config.write_text(json.dumps({"generator": {"catalog": {"class_id": class_id}}}))
        runs.append(["classify", "--config", str(config), "--out", str(tmp_path / f"c{class_id}")])
    flows = {
        "fates": {"ensemble": {"kind": "fixed_concurrence_pure", "seed": 4,
                               "target_concurrence": 0.6},
                  "run": {"horizon": 10.0, "grid_points": 50, "n_samples": 4}},
        "simulate": {"initial_state": {"matrix": [[[0.5 * (i % 3 == 0 and j % 3 == 0), 0.0]
                                                   for j in range(4)] for i in range(4)]},
                     "run": {"horizon": 10.0, "grid_points": 50}},
    }
    for command, payload in flows.items():
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps({"generator": {"catalog": {"class_id": 2}}, **payload}))
        runs.append([command, "--config", str(config), "--out", str(tmp_path / command)])
    found = run_fresh(f"""
import entfate.cli
codes = [entfate.cli.main(args) for args in {runs!r}]
print(json.dumps({{"codes": codes, "scipy": loaded("scipy"),
                  "pool": loaded("concurrent.futures.process")}}))
""")
    assert found == {"codes": [0] * 8, "scipy": [], "pool": []}
    for class_id in range(1, 7):
        out = tmp_path / f"c{class_id}" / "classification.json"
        assert json.loads(out.read_text())["class_id"] == class_id
    assert (tmp_path / "fates" / "fates.csv").exists()
    assert (tmp_path / "simulate" / "summary.json").exists()


def test_nonautonomous_fate_loads_scipy_integrate():
    found = run_fresh("""
import entfate as ef
rho = ef.sample(ef.EnsembleSpec("hilbert_schmidt_mixed", seed=4))
ef.detect_fate(ef.catalog_generator(6), rho, horizon=5.0, grid_points=50)
print(json.dumps("scipy.integrate" in sys.modules))
""")
    assert found is True


def test_scipy_names_are_module_attributes_bound_on_first_access():
    # solve_ivp is the one lazy name; expm is the module's own numpy function
    found = run_fresh("""
import entfate.dynamics as dyn
before = "solve_ivp" in vars(dyn)
expm = dyn.expm
after_expm = loaded("scipy")
solve_ivp = dyn.solve_ivp
import scipy.integrate
try:
    dyn.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "before": before,
    "expm": expm.__module__ == "entfate.dynamics" and vars(dyn)["expm"] is expm,
    "after_expm": after_expm,
    "solve_ivp": solve_ivp is scipy.integrate.solve_ivp and vars(dyn)["solve_ivp"] is solve_ivp,
    "unknown": unknown,
}))
""")
    assert found == {
        "before": False,
        "expm": True,
        "after_expm": [],
        "solve_ivp": True,
        "unknown": "module 'entfate.dynamics' has no attribute 'no_such_name'",
    }


def test_the_one_scipy_import_is_solve_ivp_inside_the_dynamics_getattr():
    found = []

    def visit(node, path, where):
        """Record every scipy import below node, with the function it sits in."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [(alias.name, None) for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [(child.module or "", alias.name) for alias in child.names]
            else:
                names = []
            found.extend((path.name, where, module, name) for module, name in names
                         if module.split(".")[0] == "scipy")
            function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, child.name if function else where)

    for path in sorted(Path(SRC, "entfate").rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "module")
    assert found == [("dynamics.py", "__getattr__", "scipy.integrate", "solve_ivp")]


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


def test_every_private_top_level_name_is_used_in_the_package():
    # a dead helper is deleted: each top-level private function or class is
    # read somewhere in the package besides inside its own definition
    defined, used = {}, set()
    for path in sorted(Path(SRC, "entfate").rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = None
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                own = node.name
                defined[own] = path.name
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else own)
                if name != own:
                    used.add(name)
    assert {name: where for name, where in defined.items() if name not in used} == {}
