"""Spans around qbcap's public functions, recorded from outside the package.

A function is wrapped at every module binding that refers to it: ``eigh``,
for one, is bound in qbcap.linalg, qbcap.states, qbcap.battery and qbcap, and
calls through each binding are seen. A class is traced by wrapping its
``__init__``, which also catches construction through ``cls(...)`` in
classmethods. Spans stay in memory as (name, start, end, parent) until
``save``; self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, defining module, attribute)
TARGETS = (
    ("linalg.eigh", "qbcap.linalg", "eigh"),
    # Every Kronecker product the package forms reaches numpy.kron, through
    # the validated qbcap.linalg.kron or directly (measure_b), so wrapping
    # numpy.kron counts each product exactly once.
    ("linalg.kron", "numpy", "kron"),
    ("states.DensityMatrix", "qbcap.states", "DensityMatrix"),
    ("states.werner", "qbcap.states", "werner"),
    ("states.bell_diagonal", "qbcap.states", "bell_diagonal"),
    ("states.x_state", "qbcap.states", "x_state"),
    ("states.example2", "qbcap.states", "example2"),
    ("states.is_entangled", "qbcap.states", "is_entangled"),
    ("battery.capacity", "qbcap.battery", "capacity"),
    ("battery.qubit_pair_hamiltonian", "qbcap.battery", "qubit_pair_hamiltonian"),
    ("battery.subsystem_a_hamiltonian", "qbcap.battery", "subsystem_a_hamiltonian"),
    ("measurement.MeasurementBasis", "qbcap.measurement", "MeasurementBasis"),
    ("measurement.measure_b", "qbcap.measurement", "measure_b"),
    ("measurement.final_state_uniform", "qbcap.measurement", "final_state_uniform"),
    ("measurement.final_state_weighted", "qbcap.measurement", "final_state_weighted"),
    ("measurement.capacity_gain", "qbcap.measurement", "capacity_gain"),
    ("sweep.run_sweep", "qbcap.sweep", "run_sweep"),
    ("sweep.write_csv", "qbcap.sweep", "write_csv"),
    ("sweep.rows_to_json", "qbcap.sweep", "rows_to_json"),
    ("cli.main", "qbcap.cli", "main"),
    ("cli.build_parser", "qbcap.cli", "build_parser"),
)


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.flagged_branches = 0
        self.missing: list[str] = []
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> list[str]:
        """Wrap every target; return the span names whose target was not found."""
        for idx, (span, module_name, attr) in enumerate(TARGETS):
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(span)
                continue
            after = self._count_flagged if span == "measurement.measure_b" else None
            if isinstance(original, type):
                self._patch(original, "__init__", self._wrap(idx, original.__init__, after))
                self.bindings[span] = [f"{module_name}.{attr}.__init__"]
                continue
            wrapper = self._wrap(idx, original, after)
            sites = [
                name
                for name, mod in list(sys.modules.items())
                if (name == module_name or name == "qbcap" or name.startswith("qbcap."))
                and getattr(mod, attr, None) is original
            ]
            for name in sites:
                self._patch(sys.modules[name], attr, wrapper)
            self.bindings[span] = sites
        return self.missing

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            if original is None:  # the class inherited it
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)

    def _patch(self, obj, attr: str, replacement) -> None:
        self._restore.append((obj, attr, vars(obj).get(attr)))
        setattr(obj, attr, replacement)

    def _count_flagged(self, ensemble) -> None:
        self.flagged_branches += sum(branch.state is None for branch in ensemble.branches)

    def _wrap(self, idx: int, fn, after):
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _arrays(self):
        return (np.frombuffer(a, dtype=a.typecode) for a in (self.name, self.start, self.end, self.parent))

    def metrics(self, ops: int) -> tuple[dict[str, float], float]:
        """Per-target calls, self_ms and calls per op, and the total time under root spans."""
        name, start, end, parent = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        calls = np.bincount(name, minlength=len(TARGETS))
        self_ms = np.bincount(name, weights=(dur - child) * 1e3, minlength=len(TARGETS))
        out = {}
        for idx, (span, _, _) in enumerate(TARGETS):
            if span in self.missing:
                continue
            out[f"{span}.calls"] = int(calls[idx])
            out[f"{span}.self_ms"] = float(self_ms[idx])
            out[f"{span}.per_op"] = float(calls[idx] / ops)
        if "measurement.measure_b" not in self.missing:
            out["measurement.measure_b.flagged_branches"] = self.flagged_branches
        return out, float(dur[~nested].sum())

    def save(self, path: Path) -> None:
        name, start, end, parent = self._arrays()
        names = np.array([span for span, _, _ in TARGETS])
        np.savez_compressed(path, names=names, name=name, start=start, end=end, parent=parent)
