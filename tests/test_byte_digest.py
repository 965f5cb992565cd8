"""The corpora of ``tools/byte_digest.py``, the byte digest that compares two revisions of the CLI."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from test_cli_golden import CRITERION_9, FIXTURE
from test_cli_input_check import COMMANDS, FAULTS
from test_sweep_cli import CORPUS_CASES, HOSTILE_VALUES

TOOL = Path(__file__).resolve().parent.parent / "tools" / "byte_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("byte_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpora_cover_every_golden_call(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    tool = load_tool()
    tool.import_checkout(tool.ROOT)
    corpora = tool.corpora(tmp_path)
    covered = {tuple(argv) for calls in corpora.values() for argv, _ in calls}
    missing = [entry["argv"] for entry in json.loads(FIXTURE.read_text()) if tuple(entry["argv"]) not in covered]
    assert not missing, f"{len(missing)} golden calls outside the digest's corpora, first {missing[0]}"
    assert [argv for argv, _ in corpora["criterion-9"]] == CRITERION_9
    assert len(corpora["hostile"]) == len(CORPUS_CASES) * len(HOSTILE_VALUES) == 552
    assert len(corpora["families"]) == 4 * 2 * 2 * 2
    assert len(corpora["cli-calls"]) == 3 * 1600
    assert len(corpora["errors"]) == len(FAULTS) * len(COMMANDS) + 18 == 42
    # Every input a call reads is written under the directory, which each argv names as {dir}.
    assert not any(str(tmp_path) in arg for calls in corpora.values() for argv, _ in calls for arg in argv)


def test_a_record_holds_stderr_and_the_out_file(tmp_path, monkeypatch):
    monkeypatch.delenv("QBCAP_TOL", raising=False)
    tool = load_tool()
    failing = json.loads(tool.record(["capacity", "--werner", "1.5", "--eps-a", "0.5", "--eps-b", "0.3"], None, tmp_path))
    assert failing[1:] == [None, 2, "", "qbcap: error: werner parameter must lie in [0, 1], got 1.5\n", [], None]
    written = json.loads(tool.record(["sweep", "--figure", "fig2", "--out", "{dir}/a.csv"], None, tmp_path))
    assert written[1:4] == [None, 0, ""] and written[6].startswith("x,lambda0,")
    assert not (tmp_path / "a.csv").exists()
    # Calls that share an argv and read different files give different records.
    texts = [json.dumps(payload) for payload in tool.X_FAULTS[1:]]
    first, second = (json.loads(tool.record(["capacity", *tool.X_STATE_ARGS], text, tmp_path)) for text in texts)
    assert first[1] == hashlib.sha256(texts[0].encode("utf-8")).hexdigest() != second[1]


# Error lines that no other corpus reaches, each as it appears in the stderr of the errors corpus.
ERROR_MESSAGES = [
    "qbcap: error: matrix is not Hermitian: max |m - m^dagger| = 5.000e-02\n",
    "qbcap: error: trace = 1.5, expected 1 within 1e-10\n",
    "qbcap: error: negative eigenvalue -1.000e-01 below -1e-10\n",
    "qbcap: error: weight mu_0 = nan is not a finite number\n",
    "qbcap: error: weight mu_0 = -0.5 is negative\n",
    "qbcap: error: 3 weights for 2 branches\n",
    "qbcap: error: weight mu_1 = 0.5 assigned to a branch with probability 0.000e+00\n",
    "qbcap: error: branch 1 has probability 0.000e+00; the unweighted average is undefined\n",
    "qbcap measure: error: basis angles must be numbers, got ['x', '0']\n",
    "qbcap: error: {dir}/input.json: input file exceeds 1048576 characters\n",
    "qbcap: error: {dir}/input.json: JSON nested too deeply to read\n",
    "qbcap: error: malformed density-matrix payload: missing im\n",
    "qbcap: error: negative eigenvalue -1.472e-01 below -1e-10\n",
    "qbcap: error: negative eigenvalue -2.000e-01 below -1e-10\n",
    "qbcap: error: trace = 2, expected 1 within 1e-10\n",
    "qbcap: error: negative eigenvalue -1.241e-02 below -1e-10\n",
]


def test_the_errors_corpus_reaches_each_refusal(tmp_path, monkeypatch):
    monkeypatch.delenv("QBCAP_TOL", raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    tool = load_tool()
    tool.import_checkout(tool.ROOT)
    records = [json.loads(tool.record(argv, text, tmp_path)) for argv, text in tool.error_calls()]
    stderr = [err for _, _, code, out, err, caught, _ in records if code != 0 and out == "" and caught == []]
    assert len(stderr) == len(records)
    missing = [message for message in ERROR_MESSAGES if not any(err.endswith(message) for err in stderr)]
    assert not missing
