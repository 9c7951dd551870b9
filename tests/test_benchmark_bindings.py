"""The names ``perfbench/`` binds in entgap still resolve.

``perfbench/`` and ``tests/`` each have a ``conftest`` module, so one pytest
session cannot collect both; this sub-second test keeps a rename in entgap
from breaking the benchmark unnoticed.
"""

import importlib
from pathlib import Path

from entgap.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("checks")
    importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    for module, attr, _ in tracing.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"
    args = build_parser().parse_args(["mera", "--gradient", "analytic", "--out", "x"])
    assert args.gradient == "analytic"
