"""Import layering: lazy package namespaces, footprints and registries.

Every package ``__init__`` serves its public names on first use from a
name -> submodule table (``repro._lazy``), so importing one module
loads only that module's own import closure.  These tests pin down the
three promises that make the laziness safe:

* the public surface is unchanged and fails early when a table entry
  is broken (every ``__all__`` name resolves, star-imports bind);
* each entry point stays out of the heavy tiers it does not use, and a
  workload's pass imports nothing its set-up did not;
* registries fill themselves, whatever was imported first.

Import state is per process, so most checks run a fresh interpreter.
"""

from __future__ import annotations

import ast
import functools
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"

PACKAGES = (
    "repro", "repro.analysis", "repro.cell", "repro.cellsdk", "repro.core",
    "repro.core.runtime", "repro.faults", "repro.mpi", "repro.obs",
    "repro.phylo", "repro.platforms", "repro.serve", "repro.sim",
    "repro.workloads",
)


def fresh(code: str):
    """Run ``code`` in a new interpreter; returns the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr[-3000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def loaded_after(statement: str):
    return set(fresh(f"""
        import json, sys
        {statement}
        print(json.dumps(sorted(n for n in sys.modules
                                if n == "repro" or n.startswith("repro."))))
    """))


# -- the public surface ------------------------------------------------------

@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    pkg = importlib.import_module(name)
    assert len(set(pkg.__all__)) == len(pkg.__all__), "duplicate export"
    for attr in pkg.__all__:
        getattr(pkg, attr)  # AttributeError / ImportError on a bad entry
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    pkg = importlib.import_module(name)
    missing = [a for a in pkg.__all__ if a not in namespace]
    assert not missing


@pytest.mark.parametrize("name", PACKAGES)
def test_no_export_shadows_a_submodule(name):
    # Importing a submodule binds it on its package, which would replace
    # an exported name of the same spelling.
    pkg = importlib.import_module(name)
    subs = {m.name for m in pkgutil.iter_modules(pkg.__path__)}
    assert not set(pkg.__all__) & subs


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_module(name):
    pkg = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"'{name}'.*no_such_name"):
        getattr(pkg, "no_such_name")
    assert not hasattr(pkg, "no_such_name")


def test_subpackage_attribute_works_without_importing_it():
    out = fresh("""
        import json, repro
        before = "repro.serve" in __import__("sys").modules
        fn = repro.serve.run_service
        print(json.dumps([before, fn.__module__, repro.phylo.__name__]))
    """)
    assert out == [False, "repro.serve.service", "repro.phylo"]


# -- import footprints -------------------------------------------------------

HEAVY = ("repro.obs.report", "repro.obs.bench", "repro.analysis", "repro.cli")

FOOTPRINTS = {
    "repro.core.runner": HEAVY + ("repro.serve", "repro.phylo",
                                  "repro.platforms", "repro.cellsdk"),
    "repro.serve.service": HEAVY + ("repro.phylo", "repro.serve.dag",
                                    "repro.serve.chaos"),
    "repro.serve.dag": HEAVY + ("repro.serve.chaos", "repro.phylo.likelihood",
                                "repro.phylo.search"),
    "repro.cli": ("repro.serve", "repro.phylo", "repro.obs.report",
                  "repro.obs.bench"),
}


@pytest.mark.parametrize("entry", sorted(FOOTPRINTS))
def test_entry_point_loads_only_its_closure(entry):
    loaded = loaded_after(f"import {entry}")
    assert entry in loaded
    leaked = sorted(m for m in FOOTPRINTS[entry] if m in loaded)
    assert not leaked, f"importing {entry} loaded {leaked}"


def test_bare_package_import_loads_nothing_else():
    assert loaded_after("import repro") == {"repro"}


# Set-ups mirror the benchmark workloads' (perfbench/workloads.py), on
# small inputs; each pass calls what the benchmark pass calls.
PASSES = {
    "fig8-point": (
        """
        from repro.core import runner
        from repro.core.schedulers import mgps
        from repro.workloads.traces import Workload
        """,
        """
        r = runner.run_experiment(
            mgps(), Workload(bootstraps=2, tasks_per_bootstrap=60, seed=0),
            seed=0)
        r.result_digest, r.llp_invocations, r.bootstraps_completed
        """,
    ),
    "run_service": (
        """
        from repro import serve
        from repro.serve import service
        config = serve.ServeConfig(
            tenants=serve.default_tenants(arrival_rate=0.25),
            duration_s=1800.0, seed=0, dispatch="static-block",
            max_blades=4)
        """,
        """
        res = service.run_service(config)
        res.digest_map(), res.summary, res.job_records, res.per_blade
        """,
    ),
    "run_dag": (
        """
        from repro.serve import bootstop, cache, dag
        config = dag.DagConfig(
            workflow=dag.raxml_workflow(replicates=30), submissions=2,
            seed=0, bootstop=bootstop.BootstopConfig())
        """,
        """
        res = dag.run_dag(config, cache=cache.ResultCache())
        res.serve.digest_map(), res.final_digests, res.conservation_ok
        """,
    ),
}


@pytest.mark.parametrize("name", sorted(PASSES))
def test_a_pass_imports_nothing(name):
    setup, run = PASSES[name]
    added = fresh(
        "import json, sys\n" + textwrap.dedent(setup)
        + "before = set(sys.modules)\n" + textwrap.dedent(run)
        + "print(json.dumps(sorted(n for n in set(sys.modules) - before\n"
        + "    if n == 'repro' or n.startswith('repro.'))))\n"
    )
    assert added == [], f"the {name} pass imported {added}"


# -- registries fill themselves ----------------------------------------------

def test_policy_registry_fills_itself():
    names = fresh("""
        import json
        from repro.core.runtime.policy import available_policies, resolve_policy
        for kind in ("linux", "edtlp", "static_hybrid", "mgps"):
            resolve_policy(kind)
        print(json.dumps([p.name for p in available_policies()]))
    """)
    assert names == ["edtlp", "linux", "mgps", "static_hybrid"]


def test_dispatch_registry_fills_itself():
    names = fresh("""
        import json
        from repro.serve.dispatch import available_dispatch_policies
        print(json.dumps([p.name for p in available_dispatch_policies()]))
    """)
    assert names == ["join-shortest-queue", "least-loaded", "static-block",
                     "work-stealing"]


def test_loop_schedule_registry_fills_itself():
    names = fresh("""
        import json
        from repro.core.llp import available_loop_schedules
        print(json.dumps([s.name for s in available_loop_schedules()]))
    """)
    assert names == ["adaptive", "dynamic", "guided", "static"]


# -- the layering rules, read from the source --------------------------------

def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        yield ".".join(parts), path


MODULES = dict(_modules())


@functools.cache
def _top_level_names(module: str):
    names = set()
    for node in ast.parse(MODULES[module].read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return names


def _repro_imports(module: str, path: pathlib.Path):
    """``(node, target module)`` of every ``from repro... import`` in it."""
    package = module if path.name == "__init__.py" \
        else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = package.split(".")[:len(package.split(".")) - node.level + 1]
            target = ".".join(base + ([node.module] if node.module else []))
        else:
            target = node.module or ""
        if target == "repro" or target.startswith("repro."):
            yield node, target


def test_leaf_modules_import_from_the_defining_module():
    wrong = []
    for module, path in MODULES.items():
        if path.name == "__init__.py":
            continue
        for node, target in _repro_imports(module, path):
            defined = _top_level_names(target)
            for alias in node.names:
                if (alias.name not in defined
                        and f"{target}.{alias.name}" not in MODULES):
                    wrong.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                 f"{alias.name} from {target}")
    assert not wrong


def test_no_function_local_package_imports_outside_the_cli():
    # Command bodies of the CLI import their tier on demand; everywhere
    # else a function-level import would run on a per-job path.
    local = []
    for module, path in MODULES.items():
        if module == "repro.cli":
            continue
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    local.extend(f"{path.relative_to(SRC)}:{node.lineno}"
                                 for a in node.names
                                 if a.name.split(".")[0] == "repro")
                elif isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").startswith("repro")):
                    local.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not local
