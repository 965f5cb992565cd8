"""The corpora of ``tools/byte_digest.py``, the byte digest that compares two revisions of the CLI."""

import importlib.util
import json
import sys
from pathlib import Path

from test_cli_golden import CRITERION_9, FIXTURE
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
    # Every input a call reads is written under the directory, which each argv names as {dir}.
    assert not any(str(tmp_path) in arg for calls in corpora.values() for argv, _ in calls for arg in argv)


def test_a_record_holds_stderr_and_the_out_file(tmp_path, monkeypatch):
    monkeypatch.delenv("QBCAP_TOL", raising=False)
    tool = load_tool()
    failing = json.loads(tool.record(["capacity", "--werner", "1.5", "--eps-a", "0.5", "--eps-b", "0.3"], None, tmp_path))
    assert failing[1:] == [2, "", "qbcap: error: werner parameter must lie in [0, 1], got 1.5\n", [], None]
    written = json.loads(tool.record(["sweep", "--figure", "fig2", "--out", "{dir}/a.csv"], None, tmp_path))
    assert written[1:3] == [0, ""] and written[5].startswith("x,lambda0,")
    assert not (tmp_path / "a.csv").exists()
