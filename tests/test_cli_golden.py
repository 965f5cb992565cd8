"""Byte-level pins on the CLI: exit code and sha256 of stdout per invocation.

Each argv from ``invocations()`` runs in-process through ``qbcap.cli.main`` with
``QBCAP_TOL`` unset and ``COLUMNS=80``, the width argparse wraps help text to;
``{dir}`` stands for a directory holding the input files
written by ``write_inputs``. The expected results live in ``golden_cli.json``.
New invocations go at the end of ``invocations()``; record them with

    PYTHONPATH=src python3 tests/test_cli_golden.py

which appends their pins and exits non-zero, writing nothing, if any existing
pin would change.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from helpers import kernel_note

from qbcap.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")

X_STATE = {"rho11": 0.4, "rho22": 0.25, "rho33": 0.2, "rho44": 0.15, "rho14": [0.1, 0.05], "rho23": 0.1}
STATE = {
    "dim_a": 2,
    "dim_b": 2,
    "re": [[0.4, 0.05, 0.0, 0.1], [0.05, 0.3, 0.02, 0.0], [0.0, 0.02, 0.2, 0.03], [0.1, 0.0, 0.03, 0.1]],
    "im": [[0.0, 0.01, 0.0, 0.02], [-0.01, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -0.01], [-0.02, 0.0, 0.01, 0.0]],
}
# rho_A x |0><0|: the second measurement branch has probability 0.
PRODUCT_STATE = {
    "dim_a": 2,
    "dim_b": 2,
    "re": [[0.7, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0.3, 0], [0, 0, 0, 0]],
    "im": [[0] * 4] * 4,
}
SPECS = {
    "spec_x.json": {
        "family": "x_state", "param": "coherence_scale", "start": 0.0, "stop": 1.0, "count": 11,
        "eps_a": 0.6, "eps_b": 0.2, "scheme": "uniform", "basis": {"theta": 0.7, "phi": 1.3}, "x_state": X_STATE,
    },
    "spec_bell.json": {
        "family": "bell_diagonal", "param": "c3", "start": -0.3, "stop": 0.3, "count": 13,
        "eps_a": 0.5, "eps_b": 0.3, "scheme": "weighted", "weights": [0.7, 0.3], "bell_diag": [0.4, -0.2, 0.0],
    },
    "spec_missing.json": {"family": "werner", "param": "a", "start": 0.0, "stop": 1.0, "eps_a": 0.5, "eps_b": 0.3},
}  # fmt: skip

SOURCES = [
    ["--werner", "0.6"],
    ["--bell-diag", "0.4", "-0.2", "0.3"],
    ["--x-state", "{dir}/x.json"],
    ["--example2", "0.2"],
    ["--state", "{dir}/state.json"],
]
ENERGIES = ["--eps-a", "0.5", "--eps-b", "0.3"]
FORMATS = [[], ["--format", "json"], ["--format", "csv"]]
SCHEMES = [[], ["--scheme", "weighted", "0.65", "0.35"]]
BASES = [[], ["--basis", "rotated", "0.9", "2.1"]]

FLAG_SWEEPS = [
    ["--family", "werner", "--param", "a", "--start", "0", "--stop", "1", "--count", "21",
     "--eps-a", "0.5", "--eps-b", "0.3", "--scheme", "weighted", "0.9", "0.1"],
    ["--family", "bell_diagonal", "--param", "c1", "--start", "-0.2", "--stop", "0.5", "--count", "8",
     "--bell-diag", "0.1", "0.2", "0.3", "--eps-a", "0.7", "--eps-b", "0.2", "--basis", "rotated", "0.4", "2.0"],
    ["--family", "x_state", "--param", "coherence_scale", "--start", "0", "--stop", "1", "--count", "6",
     "--x-state", "{dir}/x.json", "--eps-a", "0.5", "--eps-b", "0.5", "--scheme", "weighted", "0.3", "0.7"],
]  # fmt: skip
SWEEP_SOURCES = [["--figure", "fig2"], ["--figure", "fig3"], ["--spec", "{dir}/spec_x.json"],
                 ["--spec", "{dir}/spec_bell.json"], *FLAG_SWEEPS]  # fmt: skip

CRITERION_9 = [
    ["capacity", "--werner", "0.6", "--eps-a", "0.5", "--eps-b", "0.3"],
    ["capacity", "--bell-diag", "0.4", "-0.2", "0.3", "--eps-a", "0.7", "--eps-b", "0.1", "--format", "json"],
    ["measure", "--werner", "0.4", "--scheme", "weighted", "0.8", "0.2", "--eps-a", "0.5", "--eps-b", "0.3",
     "--format", "json", "--seed", "7"],
    ["measure", "--example2", "0.2", "--basis", "rotated", "0.9", "2.1", "--eps-a", "0.5", "--eps-b", "0.3",
     "--format", "csv"],
    ["sweep", "--figure", "fig2", "--seed", "3"],
    ["sweep", "--figure", "fig3", "--format", "json"],
    ["sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "1", "--count", "21",
     "--eps-a", "0.5", "--eps-b", "0.3", "--scheme", "weighted", "0.9", "0.1", "--seed", "11"],
    ["sweep", "--figure", "fig3", "--out", "{dir}/a.csv"],
]  # fmt: skip

INVALID = [
    [],
    ["capacity", "--werner", "1.5", *ENERGIES],
    ["capacity", "--werner", "0.5", "--eps-a", "0.3", "--eps-b", "0.5"],
    ["capacity", "--werner", "0.5", "--eps-a", "inf", "--eps-b", "0.3"],
    ["capacity", "--werner", "0.5", "--eps-a", "nan", "--eps-b", "0.3"],
    ["capacity", "--werner", "0.5", "--eps-a", "0.5"],
    ["capacity", "--werner", "0.5", "--no-such-flag"],
    ["capacity", "--werner", "0.5", *ENERGIES, "--format", "text"],
    ["capacity", "--bell-diag", "0.9", "0.9", "0.9", *ENERGIES],
    ["capacity", "--state", "{dir}/nope.json", *ENERGIES],
    ["capacity", "--state", "{dir}/bad.json", *ENERGIES],
    ["measure", "--x-state", "{dir}/empty.json", *ENERGIES],
    ["measure", "--state", "{dir}/product.json", *ENERGIES],
    ["measure", "--werner", "0.5", "--scheme", "median", *ENERGIES],
    ["measure", "--werner", "0.5", "--scheme", "uniform", "0.5", *ENERGIES],
    ["measure", "--werner", "0.5", "--scheme", "weighted", *ENERGIES],
    ["measure", "--werner", "0.5", "--scheme", "weighted", "0.8", "x", *ENERGIES],
    ["measure", "--werner", "0.5", "--scheme", "weighted", "0.8", "0.4", *ENERGIES],
    ["measure", "--werner", "0.5", "--basis", "rotated", "0.1", *ENERGIES],
    ["measure", "--werner", "0.5", "--basis", "spherical", *ENERGIES],
    ["sweep"],
    ["sweep", "--figure", "fig2", "--family", "werner"],
    ["sweep", "--spec", "{dir}/spec_x.json", "--count", "5"],
    ["sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "1"],
    ["sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "1", "--count", "5"],
    ["sweep", "--family", "werner", "--param", "x", "--start", "0", "--stop", "1", "--count", "5", *ENERGIES],
    ["sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "1", "--count", "1", *ENERGIES],
    ["sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "2", "--count", "3", *ENERGIES],
    ["sweep", "--family", "bell_diagonal", "--param", "c1", "--start", "0", "--stop", "1", "--count", "3",
     *ENERGIES],
    ["sweep", "--spec", "{dir}/spec_missing.json"],
    ["sweep", "--spec", "{dir}/bad.json"],
    ["sweep", "--spec", "{dir}/nope.json"],
    ["sweep", "--figure", "fig2", "--out", "{dir}/missing/x.csv"],
]  # fmt: skip

# Grids spanning many sweep chunks: 10,001 points as CSV and JSON, and 513 points in a rotated basis.
WERNER_10K = ["sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "1", "--count", "10001",
              "--eps-a", "0.7", "--eps-b", "0.2", "--scheme", "weighted", "0.8", "0.2"]  # fmt: skip
X_STATE_513 = ["sweep", "--family", "x_state", "--param", "coherence_scale", "--start", "0", "--stop", "1",
               "--count", "513", "--x-state", "{dir}/x.json", "--eps-a", "0.6", "--eps-b", "0.2",
               "--basis", "rotated", "0.7", "1.3"]  # fmt: skip
MULTI_CHUNK = [WERNER_10K, [*WERNER_10K, "--format", "json"], X_STATE_513, [*X_STATE_513, "--format", "json"]]
HELP = [["--help"], ["capacity", "--help"], ["measure", "--help"], ["sweep", "--help"]]


def invocations() -> list[list[str]]:
    calls = []
    for source in SOURCES:
        calls += [["capacity", *source, *ENERGIES, *fmt] for fmt in FORMATS]
        calls += [
            ["measure", *source, *ENERGIES, *scheme, *basis, *fmt]
            for scheme in SCHEMES
            for basis in BASES
            for fmt in FORMATS
        ]
    calls += [["sweep", *source, *fmt] for source in SWEEP_SOURCES for fmt in ([], ["--format", "json"])]
    return calls + CRITERION_9 + INVALID + MULTI_CHUNK + HELP


def write_inputs(directory: Path) -> None:
    files = {"x.json": X_STATE, "state.json": STATE, "product.json": PRODUCT_STATE, **SPECS}
    for name, data in files.items():
        (directory / name).write_text(json.dumps(data))
    (directory / "bad.json").write_text("{not json")
    (directory / "empty.json").write_text("")


def run(argv: list[str], directory: Path) -> dict:
    """Exit code and stdout digest of one in-process call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([arg.replace("{dir}", str(directory)) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def results(directory: Path) -> list[dict]:
    write_inputs(directory)
    return [run(argv, directory) for argv in invocations()]


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("QBCAP_TOL", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(FIXTURE.read_text())
    assert [e["argv"] for e in expected] == invocations()
    mismatched = [(e, got) for e, got in zip(expected, results(tmp_path)) if e != got]
    assert not mismatched, f"{len(mismatched)} pins changed; {kernel_note()}: {mismatched}"


if __name__ == "__main__":
    os.environ.pop("QBCAP_TOL", None)
    os.environ["COLUMNS"] = "80"
    pinned = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []
    if [e["argv"] for e in pinned] != invocations()[: len(pinned)]:
        sys.exit(f"{FIXTURE.name}: the pinned invocations are not the start of invocations(); append new ones only")
    with tempfile.TemporaryDirectory() as tmp:
        recorded = results(Path(tmp))
    changed = [e["argv"] for e, got in zip(pinned, recorded) if e != got]
    if changed:
        sys.exit(f"refusing to rewrite {len(changed)} changed pin(s) in {FIXTURE.name}, first {changed[0]}")
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in recorded) + "\n]\n")
    print(f"{FIXTURE.name}: {len(pinned)} pins kept, {len(recorded) - len(pinned)} appended", file=sys.stderr)
