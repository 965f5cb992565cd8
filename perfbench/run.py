"""qbcap benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-werner-10k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, default seed
    python3 perfbench/selftest.py             # fast check of the benchmark itself

Run from anywhere; the qbcap source is taken from ``src/`` beside this
directory. Each workload runs in fresh worker processes (worker.py) with one
BLAS/OpenMP thread and without QBCAP_TOL, which ``cli.main`` would otherwise
install as the global validation tolerance for every later call. Set-up is
sampled in SETUP_SAMPLES workers; the last of them also runs the timed loop.
The last line printed is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
DEFAULT_SEED = 1
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170.0


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QBCAP_TOL"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, work: Path, probe: bool) -> tuple[float, dict, dict | None]:
    """Start one worker; return its set-up seconds, READY payload and RESULT payload (None for a probe)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work),
    ]  # fmt: skip
    cmd += [flag for flag, on in (("--probe", probe), ("--quick", args.quick), ("--corrupt", args.corrupt)) if on]
    factor = calibrate.scale()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = (time.perf_counter() - t0) * factor
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or not ready.startswith("READY "):
        raise RuntimeError(f"worker exited with code {code} before reporting a result")
    result = None
    if not probe:
        lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
        if not lines:
            raise RuntimeError("worker printed no result")
        result = json.loads(lines[-1][len("RESULT ") :])
    return setup_s, json.loads(ready[len("READY ") :]), result


def run_workload(args, bench: dict) -> dict:
    """Run one workload; print its summary and return the final JSON object."""
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setups, imports = [], []
    for k in range(SETUP_SAMPLES):
        setup_s, ready, result = run_worker(args, work, probe=k < SETUP_SAMPLES - 1)
        setups.append(setup_s)
        imports.append(ready["import_ms"])
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = dict(result["layers"])
        values["import.numpy_ms"] = statistics.median(i["numpy"] for i in imports)
        values["import.qbcap_ms"] = statistics.median(i["qbcap"] for i in imports)
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {name: result[name] for name in units if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {**final, "workload": args.workload, "setup_samples_s": setups, **result}
    (work / "result.json").write_text(json.dumps(record, indent=2))
    print_summary(args, record)
    return final


def print_summary(args, record: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, m in record["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'failed_ratio':<44} {ratio:>16.6g} ratio  ({record['failed']} of {record['attempted']} ops failed)")
    print(
        f"  samples: {record['calls']} calls in {record['passes']} passes over {record['timed_s']:.3f} s timed, "
        f"{len(record['setup_samples_s'])} set-ups; repeated inputs {record['repeated_share']:.1%}"
    )
    print(
        f"  call_ms_p99 over {record['distinct_calls']} distinct calls, each at its median; "
        f"p99 over all calls {record['all_calls_ms_p99']:.6g} ms"
    )
    factor = record["speed_factor"]
    print(
        f"  speed factor (calibrate.py) min {factor['min']:.3f} median {factor['median']:.3f} max {factor['max']:.3f}; "
        f"raw call_ms_p50 {record['raw_call_ms_p50']:.6g} ms"
    )
    if record.get("missing"):
        print(f"  trace targets not found (their metrics are omitted): {', '.join(record['missing'])}")
    print(f"  output digest {record['digest']}")
    print(f"  provenance {json.dumps(record['provenance'])}")


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small grids, for the self-test")
    parser.add_argument("--corrupt", action="store_true", help="alter one output, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qbcap" / "__init__.py").is_file():
        print(f"perfbench: no qbcap source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    final = None
    for workload in [args.workload] if args.workload else workloads:
        args.workload = workload
        try:
            final = run_workload(args, bench)
        except RuntimeError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
