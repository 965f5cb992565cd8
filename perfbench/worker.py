"""One benchmark workload in one fresh, single-threaded process.

Started by run.py. Prints ``READY <json>`` once set-up (imports, input
generation, warm-up) is done; a ``--probe`` worker then exits, any other runs
the timed loop, optionally one traced pass, checks every output and prints
``RESULT <json>``. The imports of numpy and qbcap come first so that they are
timed alone.
"""

import sys
import time

_t0 = time.perf_counter()
import numpy as np  # noqa: E402

_t1 = time.perf_counter()
import qbcap  # noqa: E402
import qbcap.cli  # noqa: E402
import qbcap.sweep  # noqa: E402

_t2 = time.perf_counter()
IMPORT_MS = {"numpy": (_t1 - _t0) * 1e3, "qbcap": (_t2 - _t1) * 1e3}

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import zlib  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def invoke(call: workloads.Call) -> tuple[float, float, object, str, str]:
    """Time one call; returns (start, end, exit code, stdout, stderr) with perf_counter times.

    Functions are looked up on their modules at each call, so that the
    tracer's wrappers are used while it is installed.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if call.argv is not None:
                code = qbcap.cli.main(call.argv)
            else:
                rows = qbcap.sweep.run_sweep(call.sweep_spec)
                qbcap.sweep.write_csv(rows, call.sweep_spec, out)
                code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return t0, t1, code, out.getvalue(), err.getvalue()


class Outputs:
    """Every call's distinct outputs, kept to be checked after timing.

    Outputs are compared by digest, so a repeated call that prints the same
    bytes is checked once and counted as often as it ran. Stdout is kept
    compressed, so that the memory it holds stays small beside the program's
    own when a faster program reaches more distinct inputs.
    """

    def __init__(self, corrupt: bool):
        self.seen: dict[tuple[int, int], dict[str, list]] = {}
        self.corrupt = corrupt

    def record(self, key: tuple[int, int], code, out: str, err: str) -> None:
        if self.corrupt and _NUMBER.search(out):
            # Self-test: shift the last number of the first output that has one.
            last = list(_NUMBER.finditer(out))[-1]
            out = out[: last.start()] + repr(float(last.group()) + 0.25) + out[last.end() :]
            self.corrupt = False
        digest = hashlib.sha256(repr((code, out, err)).encode()).hexdigest()
        outputs = self.seen.setdefault(key, {})
        if digest not in outputs:
            outputs[digest] = [(code, zlib.compress(out.encode(), 1), err), 0]
        outputs[digest][1] += 1

    def check(self, units) -> tuple[int, int, str]:
        """Attempted ops, failed ops, and the digest of the first unit's first outputs.

        Later units are reached or not depending on speed, so the digest
        covers only the first unit, which every run executes.
        """
        attempted = failed = 0
        first = hashlib.sha256()
        for (u, j), outputs in sorted(self.seen.items()):
            call = units[u][j]
            for (code, packed, err), count in outputs.values():
                attempted += call.points * count
                failed += call.check(code, zlib.decompress(packed).decode(), err) * count
            if u == 0:
                first.update(next(iter(outputs)).encode())
        return attempted, failed, first.hexdigest()


def timed_loop(wl: workloads.Workload, seconds: float, outputs: Outputs) -> dict:
    """Cycle through the units until ``seconds`` of call time and ``min_passes`` passes over them are done.

    Call times are scaled to nominal machine speed afterwards (calibrate.py).
    """
    spans, unit_of, position = [], [], []
    inputs = set()
    timed = 0.0
    k = repeated = 0
    with calibrate.SpeedSampler() as sampler:
        while timed < seconds or k < wl.min_passes * len(wl.units):
            u = k % len(wl.units)
            unit = wl.units[u]
            results = [invoke(call) for call in unit]
            for j, (t0, t1, code, out, err) in enumerate(results):
                spans.append((t0, t1))
                unit_of.append(k)
                position.append((u, j))
                timed += t1 - t0
                outputs.record((u, j), code, out, err)
                key = tuple(unit[j].argv) if unit[j].argv is not None else id(unit[j].sweep_spec)
                repeated += key in inputs
                inputs.add(key)
            k += 1
    call_s, factors = sampler.scaled(spans)
    unit_s = np.bincount(unit_of, weights=call_s)
    points = [sum(call.points for call in wl.units[u % len(wl.units)]) for u in range(k)]
    return {
        "call_s": call_s,
        "position": position,
        "raw_call_s": call_s / factors,  # without sampler time
        "factors": factors,
        "rates": np.array(points) / unit_s,
        "points": sum(points),
        "passes": k,
        "timed_s": timed,
        "repeated_share": repeated / len(spans),
    }


def traced_pass(wl: workloads.Workload, outputs: Outputs, work: Path) -> tuple[dict, dict, int]:
    """Run units in order, traced, until ``min_calls`` calls; return metrics, bindings, ops.

    No sampler runs here, as its time would land inside the spans; the pass
    is scaled by calibrations just before and after it instead.
    """
    before = calibrate.scale()
    tracer = Tracer()
    tracer.install()
    ops = calls = bytes_out = 0
    raw = 0.0
    try:
        for u, unit in enumerate(wl.units):
            for j, call in enumerate(unit):
                t0, t1, code, out, err = invoke(call)
                outputs.record((u, j), code, out, err)
                raw += t1 - t0
                bytes_out += len(out.encode())
            ops += sum(call.points for call in unit)
            calls += len(unit)
            if calls >= wl.min_calls:
                break
    finally:
        tracer.uninstall()
    factor = (before + calibrate.scale()) / 2.0
    metrics, covered = tracer.metrics(ops)
    metrics["sweep.bytes_out"] = bytes_out
    metrics["trace.uncovered_ratio"] = (raw - covered) / raw
    tracer.save(work / "spans.npz")
    return metrics, {"s_per_op": raw * factor / ops, "missing": tracer.missing, "bindings": tracer.bindings}, ops


def p99_ms(call_s: np.ndarray, position: list[tuple[int, int]]) -> tuple[float, int]:
    """99th percentile over the workload's distinct calls of each call's median time; and how many calls.

    A distinct call is one place (unit, index) in the workload, and the timed
    loop runs each at least ``min_passes`` times. On a shared host a few
    percent of all call times carry a stall of the host, not of the program,
    and a plain p99 over all calls then follows the host's load. The median
    over a call's repeats drops such a stall unless it hits most of them, so
    this p99 follows the program's slowest inputs.
    """
    times: dict[tuple[int, int], list[float]] = {}
    for key, t in zip(position, call_s.tolist()):
        times.setdefault(key, []).append(t)
    medians = [statistics.median(ts) for ts in times.values()]
    return float(np.percentile(medians, 99) * 1e3), len(medians)


def provenance(seed: int) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qbcap").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": _git_head(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def _git_head() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--probe", action="store_true", help="exit once set-up is done")
    parser.add_argument("--quick", action="store_true", help="small grids, for the self-test")
    parser.add_argument("--corrupt", action="store_true", help="alter one output, for the self-test")
    args = parser.parse_args()

    source = (ROOT / "src").resolve()
    if Path(qbcap.__file__).resolve().parent.parent != source:
        print(f"perfbench: imported qbcap from {qbcap.__file__}, not from {source}", file=sys.stderr)
        return 3
    wl = workloads.build(args.workload, args.seed, args.work, args.quick)
    for call in wl.warm_up:
        invoke(call)
    print("READY " + json.dumps({"import_ms": IMPORT_MS}), flush=True)
    if args.probe:
        return 0
    # Keep full collections from scanning the inputs and harness objects, so
    # that the tail of the call times is the program's.
    gc.collect()
    gc.freeze()

    outputs = Outputs(args.corrupt)
    loop = timed_loop(wl, args.seconds, outputs)
    p99, distinct = p99_ms(loop["call_s"], loop["position"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "points_per_s": float(np.median(loop["rates"])),
        "call_ms_p50": float(np.median(loop["call_s"]) * 1e3),
        "call_ms_p99": p99,
        "distinct_calls": distinct,
        "all_calls_ms_p99": float(np.percentile(loop["call_s"], 99) * 1e3),
        "peak_rss_mb": peak_rss_mb,
        "raw_call_ms_p50": float(np.median(loop["raw_call_s"]) * 1e3),
        "speed_factor": dict(zip(("min", "median", "max"), np.percentile(loop["factors"], [0, 50, 100]).tolist())),
        "calls": len(loop["call_s"]),
        "passes": loop["passes"],
        "timed_s": loop["timed_s"],
        "repeated_share": loop["repeated_share"],
    }
    if args.trace:
        layers, info, ops = traced_pass(wl, outputs, args.work)
        untraced_s_per_op = loop["call_s"].sum() / loop["points"]
        layers["trace.overhead_ratio"] = info.pop("s_per_op") / untraced_s_per_op
        result.update(layers=layers, traced_ops=ops, **info)
    attempted, failed, digest = outputs.check(wl.units)
    result.update(attempted=attempted, failed=failed, digest=digest, provenance=provenance(args.seed))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
