"""Golden artifacts: small searches and reports whose output bytes are pinned by SHA-256.

A refactor must reproduce them byte for byte, and no refactor re-records
them.  They belong to the numpy and BLAS build named in RECORDED_WITH; a
change that is meant to move the numerics records them anew and states its
drift.  The shot logs pin the search; the sweep, curve and tmi tables also
pin the way back from a logged parameter row to its state.

``PYTHONPATH=src python tests/test_golden_logs.py`` prints ``name sha256``
for every case at the running build, each from a fresh directory.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from conftest import fixture_path
from entgap.cli import main

RECORDED_WITH = "numpy 2.4.6, scipy-openblas 0.3.31.188.0 (OpenBLAS core SkylakeX)"

OPTIMIZE_3322 = ["optimize", "--dims", "3,3,2,2", "--seeds", "2", "--steps", "20"]
MERA_8 = ["mera", "--qubits", "8", "--seeds", "2", "--steps", "10"]

GOLDEN = {
    "optimize": (["optimize", "--dims", "2,2,2,2", "--seeds", "4", "--steps", "50"],
                 "f37ff5ce31daa8bd6456404d540e9b80c182ab1bd6bee40a8698450a1d7d3a0c"),
    "optimize-penalty": (["optimize", "--dims", "2,2,2,2", "--seeds", "4", "--steps", "50", "--penalty"],
                         "52630f409fddd4ed97182c139e966bfd88005698709b4b890dcafe4b49caefe6"),
    "mera": (MERA_8, "b11c1e0ad95de7657921d411c3d96a8930ca219afcba1ff2d51672278f43bfad"),
    "optimize-3322": (OPTIMIZE_3322, "434f00c975558052bc7cf3ca98b03c46584f226675d5d938b31b7d3d4d06e48c"),
}

GOLDEN_REPORTS = {
    "sweep": (["sweep", "--dims", "2,2,2,2", "--train-q", "0.5,1", "--seeds", "2", "--steps", "30"],
              "sweep.csv", "7a55e3b8b7ba6fd2103bce47d99c220fda4e7875a610881a0e926b80dfd13532"),
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


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check(name: str, path, digest: str) -> None:
    got = _sha256(path)
    assert got == digest, (f"{name}: {path.name} has SHA-256 {got}, recorded as {digest} "
                           f"with {RECORDED_WITH}; this run has {_this_build()}")


def _run(argv: list[str], out) -> None:
    assert main(argv + ["--out", str(out)]) == 0


def _shot_log(name: str, tmp):
    _run(GOLDEN[name][0], tmp)
    return tmp / "shots.jsonl"


def _report(name: str, tmp):
    argv, artifact, _ = GOLDEN_REPORTS[name]
    _run(argv, tmp)
    return tmp / artifact


def _tmi_report(tmp):
    _run(OPTIMIZE_3322, tmp / "log")
    _run(["tmi", "--shots", str(tmp / "log" / "shots.jsonl"), "--threshold", "1"], tmp / "tmi")
    return tmp / "tmi" / "tmi.csv"


def _mera_report(name: str, tmp):
    argv, artifact, _ = GOLDEN_MERA_REPORTS[name]
    _run(MERA_8, tmp / "log")
    _run(argv[:1] + ["--shots", str(tmp / "log" / "shots.jsonl")] + argv[1:], tmp / "r")
    return tmp / "r" / artifact


def _cases():
    """(name, artifact maker taking a fresh directory, recorded digest) of every golden case."""
    yield from ((n, partial(_shot_log, n), GOLDEN[n][1]) for n in GOLDEN)
    yield from ((n, partial(_report, n), GOLDEN_REPORTS[n][2]) for n in GOLDEN_REPORTS)
    yield "tmi", _tmi_report, TMI_3322
    yield from ((n, partial(_mera_report, n), GOLDEN_MERA_REPORTS[n][2]) for n in GOLDEN_MERA_REPORTS)


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_shot_log(tmp_path, name):
    _check(name, _shot_log(name, tmp_path), GOLDEN[name][1])


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_golden_report(tmp_path, name):
    _check(name, _report(name, tmp_path), GOLDEN_REPORTS[name][2])


def test_golden_tmi_report(tmp_path, capsys):
    """At --threshold 1 the table keeps both shots of the 3,3,2,2 log; their gaps are positive."""
    path = _tmi_report(tmp_path)
    assert capsys.readouterr().out.endswith("(2 shots with gap <= 1.0)\n")
    _check("tmi", path, TMI_3322)


@pytest.mark.parametrize("name", GOLDEN_MERA_REPORTS)
def test_golden_mera_report(tmp_path, name):
    _check(name, _mera_report(name, tmp_path), GOLDEN_MERA_REPORTS[name][2])


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    for name, make, _ in _cases():
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            digest = _sha256(make(Path(tmp)))
        print(name, digest)
