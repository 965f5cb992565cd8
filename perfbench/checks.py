"""Correctness gate: parse what qbcap printed and compare it with the reference.

Every check is called with one call's exit code, stdout and stderr and
returns how many of the call's operations (grid points, or 1 for a
single-point call) are wrong. It never raises on malformed output: output
that cannot be parsed is wrong output.
"""

from __future__ import annotations

import json

import numpy as np

import reference

# Absolute tolerance on every real-valued output field. The CLI prints 12
# significant digits and every value is O(1), so printing costs < 1e-11.
ATOL = 1e-9
# The library calls a state entangled when its partial transpose has an
# eigenvalue below -1e-10. Within 1e-12 of that threshold either verdict is
# accepted, because the reference builds its matrices with other round-off.
PPT_THRESHOLD = 1e-10
PPT_AMBIGUOUS = 1e-12
# Werner predicate big_f > 0 <=> mu0 - mu1 > a, checked outside this band
# around the crossover; inside it |big_f| must stay below ATOL.
WERNER_BAND = 1e-9

_PARSE_ERRORS = (ValueError, KeyError, TypeError, IndexError, AttributeError)
_BOOL = {"true": True, "false": False}


def _close(got, want) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    return np.abs(got - want) <= ATOL  # False for NaN


def entangled_ok(flags, ppt_min) -> np.ndarray:
    flags = np.asarray(flags, dtype=bool)
    verdict = ppt_min < -PPT_THRESHOLD
    return (flags == verdict) | (np.abs(ppt_min + PPT_THRESHOLD) <= PPT_AMBIGUOUS)


def werner_threshold_ok(a, big_f, weights) -> np.ndarray:
    delta = weights[0] - weights[1]
    in_band = np.abs(delta - a) <= WERNER_BAND
    return np.where(in_band, np.abs(big_f) <= ATOL, (big_f > 0) == (delta > a))


def parse_sweep_csv(text: str, param: str):
    lines = text.split("\n")
    if lines[-1] != "" or lines[0].split(",") != [param, *reference.FIELDS, "entangled"]:
        raise ValueError("unexpected CSV header or missing final newline")
    cells = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != len(reference.FIELDS) + 2 for row in cells):
        raise ValueError("ragged CSV row")
    values = np.array([[float(c) for c in row[:-1]] for row in cells]).reshape(-1, len(reference.FIELDS) + 1)
    flags = [_BOOL[row[-1]] for row in cells]
    return values[:, 0], values[:, 1:], flags


def parse_sweep_json(text: str, spec: dict):
    data = json.loads(text)
    meta = {k: spec[k] for k in ("family", "param", "eps_a", "eps_b", "scheme", "basis")}
    if "weights" in spec:
        meta["weights"] = spec["weights"]
    if {k: v for k, v in data.items() if k != "rows"} != meta:
        raise ValueError("sweep echo does not match the spec")
    rows = data["rows"]
    params = [r[spec["param"]] for r in rows]
    values = [
        [*r["spectrum"], *(r[f] for f in reference.FIELDS[4:])] for r in rows if len(r["spectrum"]) == 4
    ]
    flags = [r["entangled"] for r in rows]
    if len(values) != len(rows) or not all(isinstance(f, bool) for f in flags):
        raise ValueError("malformed sweep row")
    return np.array(params, dtype=float), np.array(values, dtype=float).reshape(-1, len(reference.FIELDS)), flags


class SweepCheck:
    """Every row of one sweep output (CSV or JSON) against the reference sweep."""

    def __init__(self, spec: dict, fmt: str, werner_predicate: bool = False):
        self.spec = spec
        self.fmt = fmt
        self.werner_predicate = werner_predicate

    def __call__(self, code, out: str, err: str) -> int:
        n = self.spec["count"]
        if code != 0 or err:
            return n
        try:
            if self.fmt == "json":
                params, table, flags = parse_sweep_json(out, self.spec)
            else:
                params, table, flags = parse_sweep_csv(out, self.spec["param"])
        except _PARSE_ERRORS:
            return n
        if len(params) != n:
            return n
        grid, want, ppt_min = reference.sweep(self.spec)
        ok = _close(params, grid) & _close(table, want).all(axis=1) & entangled_ok(flags, ppt_min)
        if self.werner_predicate:
            big_f = table[:, reference.FIELDS.index("big_f")]
            ok &= werner_threshold_ok(params, big_f, self.spec["weights"])
        return int(n - ok.sum())


def _parse_lines(text: str, keys: tuple[str, ...]) -> dict[str, str]:
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) != len(keys) + 1:
        raise ValueError("unexpected line count")
    pairs = [line.split(": ", 1) for line in lines[:-1]]
    if [p[0] for p in pairs] != list(keys):
        raise ValueError("unexpected keys")
    return {k: v for k, v in pairs}


def _parse_csv_record(text: str, header: str) -> dict[str, str]:
    lines = text.split("\n")
    if len(lines) != 3 or lines[0] != header or lines[2] != "":
        raise ValueError("unexpected CSV layout")
    names, cells = header.split(","), lines[1].split(",")
    if len(cells) != len(names):
        raise ValueError("ragged CSV row")
    return dict(zip(names, cells))


_CAPACITY_CSV = "c_total,c_subsystem_a,lambda0,lambda1,lambda2,lambda3,entangled"
_MEASURE_KEYS = ("c_before_total", "c_after_total", "c_before_a", "c_after_a", "big_f", "small_f")
_MEASURE_CSV = ",".join((*_MEASURE_KEYS, "scheme", "weights"))


def parse_capacity(text: str, fmt: str) -> tuple[list[float], bool]:
    """[c_total, c_subsystem_a, lambda0..3] and the entanglement flag."""
    if fmt == "json":
        data = json.loads(text)
        if set(data) != {"c_total", "c_subsystem_a", "spectrum", "entangled"} or len(data["spectrum"]) != 4:
            raise ValueError("unexpected keys")
        values, flag = [data["c_total"], data["c_subsystem_a"], *data["spectrum"]], data["entangled"]
        if not isinstance(flag, bool):
            raise ValueError("entangled is not a boolean")
        return [float(v) for v in values], flag
    if fmt == "csv":
        rec = _parse_csv_record(text, _CAPACITY_CSV)
        values = [rec[k] for k in _CAPACITY_CSV.split(",")[:-1]]
    else:
        rec = _parse_lines(text, ("c_total", "c_subsystem_a", "spectrum", "entangled"))
        values = [rec["c_total"], rec["c_subsystem_a"], *rec["spectrum"].split(" ")]
        if len(values) != 6:
            raise ValueError("spectrum needs four values")
    return [float(v) for v in values], _BOOL[rec["entangled"]]


def parse_measure(text: str, fmt: str) -> tuple[list[float], str, list[float] | None]:
    """The six capacities, the scheme name and its weights (None for uniform)."""
    if fmt == "json":
        data = json.loads(text)
        if set(data) - {"weights"} != {*_MEASURE_KEYS, "scheme"}:
            raise ValueError("unexpected keys")
        weights = [float(w) for w in data["weights"]] if "weights" in data else None
        return [float(data[k]) for k in _MEASURE_KEYS], data["scheme"], weights
    if fmt == "csv":
        rec = _parse_csv_record(text, _MEASURE_CSV)
        weights = [float(w) for w in rec["weights"].split(";")] if rec["weights"] else None
        return [float(rec[k]) for k in _MEASURE_KEYS], rec["scheme"], weights
    rec = _parse_lines(text, ("scheme", *_MEASURE_KEYS))
    scheme, *weights = rec["scheme"].split(" ")
    return [float(rec[k]) for k in _MEASURE_KEYS], scheme, [float(w) for w in weights] or None


class PointCheck:
    """One ``capacity`` or ``measure`` call against the reference for its single state.

    ``state`` returns the 4x4 input state when called.
    """

    def __init__(self, command: str, fmt: str, state, eps_a: float, eps_b: float, basis, weights):
        self.command = command
        self.fmt = fmt
        self.state = state
        self.eps_a, self.eps_b = eps_a, eps_b
        self.basis = basis
        self.weights = weights

    def __call__(self, code, out: str, err: str) -> int:
        if code != 0 or err:
            return 1
        table, ppt_min = reference.protocol(self.state()[None], self.eps_a, self.eps_b, self.basis, self.weights)
        want = table[0]
        try:
            if self.command == "capacity":
                values, flag = parse_capacity(out, self.fmt)
                ok = _close(values, want[[4, 6, 0, 1, 2, 3]]).all() and entangled_ok([flag], ppt_min)[0]
            else:
                values, scheme, weights = parse_measure(out, self.fmt)
                ok = _close(values, want[4:]).all() and scheme == ("uniform" if self.weights is None else "weighted")
                if self.weights is None:
                    ok = ok and weights is None
                else:
                    ok = ok and weights is not None and len(weights) == 2 and _close(weights, self.weights).all()
        except _PARSE_ERRORS:
            return 1
        return 0 if ok else 1


class ExitCheck:
    """An invalid input: the CLI must exit with ``code``, print nothing on stdout and explain on stderr."""

    def __init__(self, code: int):
        self.code = code

    def __call__(self, code, out: str, err: str) -> int:
        return 0 if code == self.code and out == "" and err else 1
