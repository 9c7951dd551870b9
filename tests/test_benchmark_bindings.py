"""The names ``perfbench/`` binds in entgap still resolve and still work.

``perfbench/`` and ``tests/`` each have a ``conftest`` module, so one pytest
session cannot collect both; these sub-second tests keep a rename or a
broken binding in entgap from breaking the benchmark unnoticed.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

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
    args = build_parser().parse_args(["mera", "--gradient", "analytic", "--out", "x"])
    assert args.gradient == "analytic"


def test_perfbench_mera_gradient_check_passes(perfbench):
    # drives _flatten/_unflatten and the analytic gradient as the mera-16 check does
    layout = mera_layout(8)
    params = initial_mera_params(layout, np.random.Generator(np.random.PCG64(11)))
    coords = [0, 41, 106, 219]
    failures = perfbench("checks").mera_gradient_failures(layout, params, mera_objective_config(8), coords)
    assert failures == []
