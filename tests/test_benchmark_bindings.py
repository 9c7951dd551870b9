"""The names ``perfbench/`` binds in entgap still resolve and still work.

``perfbench/`` and ``tests/`` each have a ``conftest`` module, so one pytest
session cannot collect both; these sub-second tests keep a rename, a
deletion or a broken binding in entgap from breaking the benchmark unnoticed.
"""

import ast
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import entgap
from entgap.cli import build_parser
from entgap.mera import initial_mera_params, mera_layout, mera_objective_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_perfbench_bindings_resolve(perfbench):
    perfbench("checks")
    perfbench("workloads")
    tracing = perfbench("tracing")
    for module, attr, _ in tracing.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_perfbench_entgap_imports_resolve(path):
    # every import, function-level ones included, of perfbench's modules and tests
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "entgap":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "entgap":
                    importlib.import_module(alias.name)


def test_benchmark_workload_command_lines_parse(perfbench):
    workloads = perfbench("workloads")
    names = [w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(workloads.WORKLOADS) == sorted(names)
    parser = build_parser()
    for name in names:
        wl = workloads.WORKLOADS[name](0)  # ReferenceEval parses its bound-check lines here
        if hasattr(wl, "argv"):  # a search, run with the flags _Search._invoke appends
            parser.parse_args(wl.argv + ["--seeds", "8", "--steps", str(wl.steps),
                                         "--master-seed", "0", "--out", "x"])


def test_every_exported_name_resolves():
    missing = [name for name in entgap.__all__ if not hasattr(entgap, name)]
    assert missing == []


def test_perfbench_mera_gradient_check_passes(perfbench):
    # drives _flatten/_unflatten and the analytic gradient as the mera-16 check does
    layout = mera_layout(8)
    params = initial_mera_params(layout, np.random.Generator(np.random.PCG64(11)))
    coords = [0, 41, 106, 219]
    failures = perfbench("checks").mera_gradient_failures(layout, params, mera_objective_config(8), coords)
    assert failures == []
