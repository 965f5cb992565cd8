"""Machine-speed calibration for the benchmark's times.

On a shared 2-core VM the speed of one core drifts by 20-50% over seconds,
with no steal time reported and for pure-Python loops too, and the spread of
whole-run medians is then wider than any useful regression bound. So a fixed
reference kernel samples the machine's speed every INTERVAL_S during the
timed loop (from a SIGALRM handler, in the measuring thread), and each call's
time is scaled by NOMINAL_S / kernel time, averaged over the samples around
the call. The kernel mixes the kinds of work qbcap does: building and
running an argparse parser (allocation-heavy Python), small Hermitian
eigensolves, float formatting, JSON encoding and Python containers. Scaled
times read as times on a machine where the kernel takes NOMINAL_S; the raw
times and the factors are kept in each run's result.json.
"""

from __future__ import annotations

import argparse
import json
import signal
import time

import numpy as np

NOMINAL_S = 0.0025
INTERVAL_S = 0.05
# A call's factor averages the samples that start within WINDOW_S of it:
# about six for a short call, far below the seconds over which speed drifts.
WINDOW_S = 3 * INTERVAL_S

_M = np.array(
    [[2.0, 1j, 0.0, 0.0], [-1j, 2.0, 0.5, 0.0], [0.0, 0.5, 1.0, 0.25], [0.0, 0.0, 0.25, 1.0]], dtype=complex
)


def kernel_s() -> float:
    """Seconds the reference kernel takes now; about NOMINAL_S on the reference machine."""
    t0 = time.perf_counter()
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="kernel")
        subs = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c"):
            sub = subs.add_parser(name)
            sub.add_argument("--x", type=float)
            sub.add_argument("--y", nargs=3, type=float)
            sub.add_argument("--f", choices=("json", "csv"))
        parser.parse_args(["a", "--x", "0.5", "--y", "1", "2", "3", "--f", "json"])
    for i in range(100):
        np.linalg.eigvalsh(_M)
        json.dumps({"x": i * 0.1, "v": [1.5, 2.5, i]})
        f"{i * 0.37:.12g}"
        sorted((3, 1, 2, i))
    return time.perf_counter() - t0


def scale() -> float:
    """Factor converting a time measured now to nominal speed: NOMINAL_S over the median of 3 kernel times."""
    return NOMINAL_S / sorted(kernel_s() for _ in range(3))[1]


class SpeedSampler:
    """Context manager that samples the kernel every INTERVAL_S, and once on entry and exit."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, kernel seconds)

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        k = kernel_s()
        self.samples.append((t0, time.perf_counter(), k))

    def scaled(self, spans: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
        """Scaled seconds and factor of each (start, end) call interval.

        A call's own time excludes samples taken inside it. Its factor is the
        mean NOMINAL_S / kernel time over the samples that start within
        WINDOW_S of the call, or over the nearest sample if there is none.
        """
        start, end, k = (np.array(col) for col in zip(*self.samples))
        factor = NOMINAL_S / k
        csum = np.concatenate([[0.0], np.cumsum(factor)])
        dsum = np.concatenate([[0.0], np.cumsum(end - start)])
        s, e = (np.array(col) for col in zip(*spans))
        inside_lo, inside_hi = np.searchsorted(start, s), np.searchsorted(start, e)
        lo, hi = np.searchsorted(start, s - WINDOW_S), np.searchsorted(start, e + WINDOW_S)
        nearest = np.clip(np.searchsorted(start, s), 0, len(start) - 1)
        empty = hi == lo
        lo, hi = np.where(empty, nearest, lo), np.where(empty, nearest + 1, hi)
        call_factor = (csum[hi] - csum[lo]) / (hi - lo)
        own = (e - s) - (dsum[inside_hi] - dsum[inside_lo])
        return own * call_factor, call_factor
