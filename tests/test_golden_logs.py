"""Golden artifacts: small searches and reports whose output bytes are pinned by SHA-256.

A refactor must reproduce them byte for byte, and no refactor re-records
them.  They belong to the numpy and BLAS build named in RECORDED_WITH; a
change that is meant to move the numerics records them anew and states its
drift.  The shot logs pin the search; the sweep, curve and tmi tables also
pin the way back from a logged parameter row to its state.
"""

import hashlib

import numpy as np
import pytest

from conftest import fixture_path
from entgap.cli import main

RECORDED_WITH = "numpy 2.4.6, scipy-openblas 0.3.31.188.0 (OpenBLAS core SkylakeX)"

OPTIMIZE_3322 = ["optimize", "--dims", "3,3,2,2", "--seeds", "2", "--steps", "20"]
MERA_8 = ["mera", "--qubits", "8", "--seeds", "2", "--steps", "10"]

GOLDEN = {
    "optimize": (["optimize", "--dims", "2,2,2,2", "--seeds", "4", "--steps", "50"],
                 "54ba721023aa31004d794ca2e429a1cf180d18086ae78ededb75e0de99e42ebd"),
    "optimize-penalty": (["optimize", "--dims", "2,2,2,2", "--seeds", "4", "--steps", "50", "--penalty"],
                         "102da364be68c3458d1667c723f98e12f0199c3be9c5925d0dc82fd081a53a2d"),
    "mera": (MERA_8, "79f804e9338cc9ca73cd4bf221c7b7ecb70d80f1f1af7e0768e296fa4a54e768"),
    "optimize-3322": (OPTIMIZE_3322, "76b1d00f0f499d280ce06fc6dea2e278913aa6a1d00ce02fd600747c56d7c174"),
}

GOLDEN_REPORTS = {
    "sweep": (["sweep", "--dims", "2,2,2,2", "--train-q", "0.5,1", "--seeds", "2", "--steps", "30"],
              "sweep.csv", "788879f87a0be7ff6d321c947c195790be7f836626059e551bd49b23200c0825"),
    "curve": (["curve", "--state", str(fixture_path("violation_3322.json"))],
              "curve.csv", "3a1b3e57947095c72add6bfefb71c56201b70fad33503df9eb08b2c95a7f1429"),
}

TMI_3322 = "bd834fc8b723572f4e3be47355daf26d2ee2ada4aa8e4cf004b1952066cacf85"

# reports read from the MERA log: they pin the way back from a MERA record to its state
GOLDEN_MERA_REPORTS = {
    "mera-curve": (["curve", "--seed", "0"], "curve.csv",
                   "81a8a7afcdc59b854da420abf04061fba10c481766ec24cebf39a13d742e13f5"),
    "mera-tmi": (["tmi", "--threshold", "1"], "tmi.csv",
                 "c27cc13682755c7f995ae535d4c7b2612be871bde31dc46939fcf37ebb8bfd05"),
}


def _this_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def _check(name: str, path, digest: str) -> None:
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == digest, (f"{name}: {path.name} has SHA-256 {got}, recorded as {digest} "
                           f"with {RECORDED_WITH}; this run has {_this_build()}")


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_shot_log(tmp_path, name):
    argv, digest = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    _check(name, tmp_path / "shots.jsonl", digest)


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_golden_report(tmp_path, name):
    argv, artifact, digest = GOLDEN_REPORTS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    _check(name, tmp_path / artifact, digest)


def test_golden_tmi_report(tmp_path, capsys):
    """At --threshold 1 the table keeps both shots of the 3,3,2,2 log; their gaps are positive."""
    log = tmp_path / "log"
    assert main(OPTIMIZE_3322 + ["--out", str(log)]) == 0
    argv = ["tmi", "--shots", str(log / "shots.jsonl"), "--threshold", "1", "--out", str(tmp_path / "tmi")]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("(2 shots with gap <= 1.0)\n")
    _check("tmi", tmp_path / "tmi" / "tmi.csv", TMI_3322)


@pytest.mark.parametrize("name", GOLDEN_MERA_REPORTS)
def test_golden_mera_report(tmp_path, name):
    argv, artifact, digest = GOLDEN_MERA_REPORTS[name]
    log = tmp_path / "log"
    assert main(MERA_8 + ["--out", str(log)]) == 0
    assert main(argv[:1] + ["--shots", str(log / "shots.jsonl")] + argv[1:] + ["--out", str(tmp_path / "r")]) == 0
    _check(name, tmp_path / "r" / artifact, digest)
