"""Golden shot logs: three small searches whose shots.jsonl bytes are pinned by SHA-256.

A refactor must reproduce them byte for byte, and no refactor re-records
them.  They belong to the numpy and BLAS build named in RECORDED_WITH; a
change that is meant to move the numerics records them anew and states its
drift.
"""

import hashlib

import numpy as np
import pytest

from entgap.cli import main

RECORDED_WITH = "numpy 2.4.6, scipy-openblas 0.3.31.188.0 (OpenBLAS core SkylakeX)"

GOLDEN = {
    "optimize": (["optimize", "--dims", "2,2,2,2", "--seeds", "4", "--steps", "50"],
                 "54ba721023aa31004d794ca2e429a1cf180d18086ae78ededb75e0de99e42ebd"),
    "optimize-penalty": (["optimize", "--dims", "2,2,2,2", "--seeds", "4", "--steps", "50", "--penalty"],
                         "102da364be68c3458d1667c723f98e12f0199c3be9c5925d0dc82fd081a53a2d"),
    "mera": (["mera", "--qubits", "8", "--seeds", "2", "--steps", "10"],
             "79f804e9338cc9ca73cd4bf221c7b7ecb70d80f1f1af7e0768e296fa4a54e768"),
}


def _this_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_shot_log(tmp_path, name):
    argv, digest = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "shots.jsonl").read_bytes()).hexdigest()
    assert got == digest, (f"{name}: shots.jsonl has SHA-256 {got}, recorded as {digest} "
                           f"with {RECORDED_WITH}; this run has {_this_build()}")
