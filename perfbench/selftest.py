"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Checks, on small grids, that
  1. every workload passes the correctness gate and emits exactly the metrics
     BENCHMARK.json names, end-to-end untraced and per-layer traced;
  2. a deliberately corrupted output is counted as failed;
  3. the traced sweep-werner-10k run reads 8 eigh, 6 DensityMatrix and 4 kron
     calls per grid point, the call structure of the seed commit (a change to
     the engine is expected to move these, and the expected counts with it);
  4. the benchmark refuses to run beside no qbcap source tree.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_COUNTS = {"linalg.eigh.per_op": 8.0, "states.DensityMatrix.per_op": 6.0, "linalg.kron.per_op": 4.0}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    """Run run.py; return its exit code and its final JSON object (None if the last line is not one)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench("--workload", workload, "--trace", str(trace), "--quick")
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {} if result is None else {k: v["unit"] for k, v in result["metrics"].items()}
            expect(code == 0 and got == wanted, f"{workload} trace {trace}: every {kind} metric with its unit")
            expect(result is not None and result["correct"] and result["failed"] == 0, f"{workload} trace {trace}: outputs correct")
            if workload == "sweep-werner-10k" and trace == 1 and result is not None:
                counts = {k: result["metrics"].get(k, {}).get("value") for k in SEED_COUNTS}
                expect(counts == SEED_COUNTS, f"{workload}: seed-commit calls per point {counts}")
        code, result = bench("--workload", workload, "--trace", "0", "--quick", "--corrupt")
        expect(result is not None and result["failed"] >= 1 and not result["correct"], f"{workload}: corrupted output fails")

    bare = ROOT / ".perfbench-out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = bench("--workload", "cli-calls", "--trace", "0", cwd=bare)
    expect(code != 0 and result is None, "no result and a non-zero exit without a qbcap source tree")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
