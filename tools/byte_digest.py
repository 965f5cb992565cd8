"""Digest the bytes of the qbcap CLI on fixed corpora of calls, to compare two revisions (ROADMAP item 15).

Every call runs in process through ``qbcap.cli.main`` with ``QBCAP_TOL``
unset and ``COLUMNS=80``. Its record is its argv, exit code, stdout, stderr,
the warnings it raised (category and message) and the bytes of the file its
``--out`` names; the input directory is written ``{dir}`` in all of them.
The script prints one sha256 per corpus, over its records in order, and one
over those lines. The corpora:

    golden       the calls pinned in tests/golden_cli.json
    hostile      each entry of each JSON input set to a hostile value (tests/test_sweep_cli.py)
    families     4 families x 2 bases x 2 schemes of 2,001 points, as CSV and JSON, from spec files
    criterion-9  the determinism invocations of acceptance criterion 9
    cli-calls    the single-point mix of perfbench's cli-calls workload for seeds 1-3

The digest depends on the BLAS kernel, as the golden pins do: it compares two
revisions on one machine and is not a pin. Run it on a change and on a
checkout of its parent, whose src/, tests/ and perfbench/ it then reads (it
writes nothing there):

    python3 tools/byte_digest.py                # the checkout beside this directory
    python3 tools/byte_digest.py --root PATH    # another checkout, e.g. the parent's
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_SEEDS = (1, 2, 3)
FAMILY_SPECS = {
    "werner": {"param": "a", "start": 0.0, "stop": 1.0},
    "example2": {"param": "x", "start": 0.0, "stop": 0.5},
    "bell_diagonal": {"param": "c3", "start": -0.5, "stop": 0.9, "bell_diag": [0.3, -0.2, 0.0]},
    "x_state": {"param": "coherence_scale", "start": 0.0, "stop": 1.0,
                "x_state": {"rho11": 0.4, "rho22": 0.25, "rho33": 0.2, "rho44": 0.15, "rho14": [0.1, 0.05], "rho23": 0.1}},
}  # fmt: skip
BASES = {"computational": {}, "rotated": {"basis": {"theta": 0.7, "phi": 1.3}}}
SCHEMES = {"uniform": {}, "weighted": {"scheme": "weighted", "weights": [0.7, 0.3]}}


def import_checkout(root: Path) -> None:
    """Put the checkout's src/, tests/ and perfbench/ first on the import path, without writing bytecode there."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "perfbench")]


def corpora(directory: Path) -> dict[str, list[tuple[list[str], str | None]]]:
    """Each corpus as (argv, input) calls, argv with ``{dir}`` for ``directory``; its input files are written there.

    A call's input, if not None, is written to ``{dir}/input.json`` just before it runs.
    """
    import test_cli_golden as golden
    import test_sweep_cli as hostile
    import workloads

    golden.write_inputs(directory)
    hostile_calls = []  # built as test_hostile_json_corpus_exits_2 builds them, from names older checkouts have too
    for command, entry in hostile.CORPUS_CASES:
        extra = hostile.PAIR_FLAGS if command.startswith("measure") else []
        for value in hostile.HOSTILE_VALUES.values():
            payload = json.loads(json.dumps(hostile.CORPUS_BASES[command]))
            *path, last = entry
            target = payload
            for key in path:
                target = target[key]
            target[last] = value
            hostile_calls.append(([*command.split(), "{dir}/input.json", *extra], json.dumps(payload)))
    family_calls = []
    for family, spec in FAMILY_SPECS.items():
        for basis, basis_keys in BASES.items():
            for scheme, scheme_keys in SCHEMES.items():
                name = f"sweep-{family}-{basis}-{scheme}.json"
                data = {"family": family, **spec, "count": 2001, "eps_a": 0.6, "eps_b": 0.2, **basis_keys, **scheme_keys}
                (directory / name).write_text(json.dumps(data))
                family_calls += [(["sweep", "--spec", f"{{dir}}/{name}", *fmt], None) for fmt in ([], ["--format", "json"])]
    cli_calls = []
    for seed in CLI_SEEDS:
        work = directory / f"cli-calls-{seed}"
        work.mkdir()
        for unit in workloads.build("cli-calls", seed, work, quick=False).units:
            cli_calls += [([arg.replace(str(directory), "{dir}") for arg in call.argv], None) for call in unit]
    return {
        "golden": [(argv, None) for argv in golden.invocations()],
        "hostile": hostile_calls,
        "families": family_calls,
        "criterion-9": [(argv, None) for argv in golden.CRITERION_9],
        "cli-calls": cli_calls,
    }


def record(argv: list[str], text: str | None, directory: Path) -> str:
    """One call's record as a JSON line: argv, exit code, stdout, stderr, warnings and ``--out`` file."""
    from qbcap.cli import main

    if text is not None:
        (directory / "input.json").write_text(text)
    args = [arg.replace("{dir}", str(directory)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    written = None
    if "--out" in args:
        path = Path(args[args.index("--out") + 1])
        if path.is_file():
            written = path.read_text(encoding="utf-8")
            path.unlink()
    fields = [argv, code, out.getvalue(), err.getvalue(), [f"{w.category.__name__}: {w.message}" for w in caught], written]
    return json.dumps(fields).replace(json.dumps(str(directory))[1:-1], "{dir}") + "\n"


def digests(directory: Path) -> dict[str, tuple[int, str]]:
    """Call count and sha256 of each corpus, run in ``directory``."""
    result = {}
    for name, calls in corpora(directory).items():
        sha = hashlib.sha256()
        for argv, text in calls:
            sha.update(record(argv, text, directory).encode("utf-8"))
        result[name] = (len(calls), sha.hexdigest())
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to digest (default: %(default)s)")
    root = parser.parse_args(argv).root.resolve()
    import_checkout(root)
    os.environ.pop("QBCAP_TOL", None)
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        result = digests(Path(tmp))
    lines = [f"{name:<12} {count:5d} calls  {sha}" for name, (count, sha) in result.items()]
    total = hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()
    print("\n".join([*lines, f"{'total':<12} {sum(c for c, _ in result.values()):5d} calls  {total}"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
