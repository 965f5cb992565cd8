"""The chunked sweep engine against a plain-numpy oracle and against its own one-state path,
its columnar result as CSV and JSON, and the spec's JSON form."""

import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    blas_kernel,
    classical_quantum,
    eigh_check_oracle,
    family_matrix,
    kernel_note,
    protocol_oracle,
    random_density,
    random_energies,
    random_rotated_basis,
    subprocess_env,
)

import qbcap.sweep
from qbcap import (
    DensityMatrix,
    MeasurementBasis,
    QubitPairEnergies,
    SweepSpec,
    XStateParams,
    capacity,
    capacity_gain,
    final_state_uniform,
    final_state_weighted,
    is_entangled,
    measure_b,
    qubit_pair_hamiltonian,
    run_sweep,
    subsystem_a_hamiltonian,
)
from qbcap.errors import InvalidStateError, NumericError, raise_first
from qbcap.measurement import GAIN_FIELDS, _branches, _closure, _closure_error, _flag_checks, _flag_error, _mix, measure_and_mix
from qbcap.states import check_states, reduce_a
from qbcap.sweep import CHUNK, SPECTRUM_COLUMNS, SweepResult, format_number, rows_to_json, write_csv, write_json
from qbcap.tolerances import VALIDATION_TOL, ZERO_PROBABILITY

unit = st.floats(0.0, 1.0)
FAMILIES = ["werner", "example2", "bell_diagonal", "x_state"]


@st.composite
def sweep_specs(draw, count, family=None):
    """A valid sweep of ``count`` points whose branches all keep a probability well above the flag floor."""
    family = family or draw(st.sampled_from(FAMILIES))
    eps_b = draw(st.floats(0.0, 1.0))
    energies = QubitPairEnergies(eps_a=eps_b + draw(unit), eps_b=eps_b)
    mu0 = draw(st.floats(0.0, 1.0))
    weights = draw(st.sampled_from([None, (mu0, 1.0 - mu0)]))
    angles = draw(st.one_of(st.none(), st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))))
    extra, (lo, hi) = {}, (0.0, 0.5 if family == "example2" else 1.0)
    param = {"werner": "a", "example2": "x", "x_state": "coherence_scale"}.get(family, "c3")
    if family == "bell_diagonal":
        c1, c2 = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
        extra["bell_diag"] = (c1, c2, 0.0)
        lo, hi = -1.0 + abs(c1 - c2), 1.0 - abs(c1 + c2)
    if family == "x_state":
        pops = 0.05 + 0.8 * np.array([draw(unit) + 0.01 for _ in range(4)])
        pops /= pops.sum()
        r14 = draw(unit) * np.sqrt(pops[0] * pops[3]) * np.exp(1j * draw(st.floats(0.0, 6.3)))
        r23 = draw(unit) * np.sqrt(pops[1] * pops[2]) * np.exp(1j * draw(st.floats(0.0, 6.3)))
        extra["x_params"] = XStateParams(*map(float, pops[:3]), float(1.0 - pops[:3].sum()), complex(r14), complex(r23))
    start, stop = sorted((lo + (hi - lo) * draw(unit), lo + (hi - lo) * draw(unit)))
    scheme = "uniform" if weights is None else "weighted"
    return SweepSpec(family, param, start, stop, count, energies, scheme, weights, angles, **extra)


@pytest.mark.parametrize("count", [3, CHUNK + 2])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_sweep_rows_match_oracle_and_one_state_path(count, data):
    spec = data.draw(sweep_specs(count))
    result = run_sweep(spec)
    assert result.values.tolist() == spec.grid().tolist()
    basis = MeasurementBasis(spec.basis_angles)
    e = spec.energies
    for value, row_spectrum, row_gains, row_entangled in zip(result.values, result.spectra, result.gains, result.entangled):
        matrix = family_matrix(spec.family, value, spec.bell_diag, spec.param, spec.x_params)
        spectrum, gains, entangled = protocol_oracle(matrix, e.eps_a, e.eps_b, spec.basis_angles, spec.weights)
        np.testing.assert_allclose(row_spectrum, spectrum, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(row_gains, gains, rtol=0.0, atol=1e-12)
        assert row_entangled == entangled
        # Bit for bit the same as the one-state path, on either side of every chunk boundary.
        rho = DensityMatrix(spec.matrices(np.array([value]), VALIDATION_TOL)[0])
        report = capacity_gain(rho, e, basis=basis, scheme=spec.scheme, weights=spec.weights)
        assert row_spectrum.tolist() == rho.spectrum.tolist(), kernel_note()
        assert tuple(row_gains.tolist()) == report.gains, kernel_note()
        assert row_entangled == is_entangled(rho)


@pytest.mark.parametrize("scheme", ["uniform", "weighted"])
@pytest.mark.parametrize("rotated", [False, True], ids=["computational", "rotated"])
def test_public_stages_are_the_engine_arithmetic(rng, rotated, scheme):
    # measure_b, final_state_* and capacity, called one by one, give capacity_gain's four capacities bit for bit.
    # The last ten cases take a state accepted at tol=1e-6 with an eigenvalue of -2e-8, which every stage
    # checks at the tolerance it inherits: measure_b's ensemble, the final state and both reduced states.
    loose = DensityMatrix(np.diag([0.4 + 2e-8, 0.3, 0.3, -2e-8]), tol=1e-6)
    for case in range(60):
        rho, energies = random_density(rng) if case < 50 else loose, random_energies(rng)
        basis = random_rotated_basis(rng) if rotated else MeasurementBasis.computational()
        mu0 = float(rng.uniform())
        weights = None if scheme == "uniform" else (mu0, 1.0 - mu0)
        ensemble = measure_b(rho, basis)
        final = final_state_uniform(ensemble) if weights is None else final_state_weighted(ensemble, weights)
        h, h_a = qubit_pair_hamiltonian(energies), subsystem_a_hamiltonian(energies)
        staged = (capacity(rho, h), capacity(final, h), capacity(rho.reduced_a(), h_a), capacity(final.reduced_a(), h_a))
        report = capacity_gain(rho, energies, basis, scheme, weights)
        assert staged == report.gains[:4], kernel_note()
        assert ensemble.tol == final.tol == final.reduced_a().tol == rho.tol


def test_sweep_memory_is_bounded_by_the_chunk():
    # Peak traced memory beyond the returned result stays fixed as the grid grows,
    # because the stacks hold one chunk at a time; the result itself is a few columns.
    for count in (10_001, 40_001):
        spec = SweepSpec("werner", "a", 0.0, 1.0, count, QubitPairEnergies(0.7, 0.2), "weighted", (0.8, 0.2))
        tracemalloc.start()
        try:
            result = run_sweep(spec)
            held, peak = tracemalloc.get_traced_memory()
            out = io.StringIO()
            tracemalloc.reset_peak()
            write_csv(result, spec, out)
            written, csv_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.values) == count
        assert peak - held < 8 * 2**20, f"{count} points: {(peak - held) / 2**20:.1f} MiB beyond the result"
        assert held <= 128 * count, f"{count} points: the result holds {held / count:.0f} B per point"
        assert csv_peak - written < 8 * 2**20, f"{count} points: write_csv peaked {(csv_peak - written) / 2**20:.1f} MiB beyond its output"


# Parameter values the 12-digit format must get right: signed zeros, the smallest subnormal,
# tiny values of either sign, and neighbours of 12th-digit rounding ties.
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 1.0000000000005, -1.0000000000005,
                  0.99999999999950, 9.9999999999995, 0.12345678901250, 123456789012.5, 1e300, -2.5e-300]  # fmt: skip


def test_write_csv_matches_per_cell_reference():
    rng = np.random.default_rng(5)
    n = 2 * CHUNK + 7
    ties = np.array(SPECIAL_VALUES)
    pool = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), rng.standard_normal(20)])
    table = rng.choice(pool, size=(n, 1 + len(SPECTRUM_COLUMNS) + len(GAIN_FIELDS)))
    result = SweepResult(table[:, 0], table[:, 1:5], table[:, 5:], rng.random(n) < 0.5)
    spec = SweepSpec("werner", "a", 0.0, 1.0, n, QubitPairEnergies(0.7, 0.2))
    got = io.StringIO()
    write_csv(result, spec, got)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["a", *SPECTRUM_COLUMNS, *GAIN_FIELDS, "entangled"])
    for value, spectrum, gains, entangled in zip(result.values, result.spectra, result.gains, result.entangled):
        numbers = (value, *spectrum, *gains)
        writer.writerow([*map(format_number, numbers), "true" if entangled else "false"])
    assert got.getvalue() == want.getvalue()
    assert "-0," not in got.getvalue() and ",0," in got.getvalue()


def test_sweep_result_columns_and_json_bytes():
    # 258 points, the grid the digest below was recorded on, whatever the chunk size.
    x = XStateParams(0.4, 0.25, 0.2, 0.15, 0.1 + 0.05j, 0.1)
    spec = SweepSpec("x_state", "coherence_scale", 0.0, 1.0, 258, QubitPairEnergies(0.6, 0.2),
                     "weighted", (0.3, 0.7), (0.7, 1.3), x_params=x)  # fmt: skip
    result = run_sweep(spec)
    n = len(result.values)
    assert n == 258
    assert (result.spectra.shape, result.gains.shape, result.entangled.shape) == ((n, 4), (n, len(GAIN_FIELDS)), (n,))
    assert result.values[-1] == 1.0
    for k, name in enumerate(GAIN_FIELDS):
        assert result.gain(name).tolist() == result.gains[:, k].tolist()
    # The JSON form is byte for byte the one of the list-of-rows engine the columns replaced.
    digest = hashlib.sha256(json.dumps(rows_to_json(result, spec)).encode()).hexdigest()
    assert digest == "dfd6ddc4a030d6a6ecdc00aee844f0ad8b0f278a1a5dad3038006bd11786f227", kernel_note()


def test_the_chunk_size_does_not_change_bits(monkeypatch):
    # A point's spectrum, gains and verdict have the same bits in a chunk of 1, 256 or 512 points, on either
    # side of every chunk boundary: the branch products of a chunk run in GEMMs of at most 256 matrices, which
    # keep each matrix's bits under the OpenBLAS kernels tried, with 1 and 2 threads (Haswell with 2 threads
    # changes them in a 512-matrix GEMM).
    x = XStateParams(0.4, 0.25, 0.2, 0.15, 0.1 + 0.05j, 0.1)
    count = 2 * 512 + 3
    specs = {
        "rotated uniform x_state": SweepSpec(
            "x_state", "coherence_scale", 0.0, 1.0, count, QubitPairEnergies(0.6, 0.2), basis_angles=(0.7, 1.3), x_params=x
        ),
        "rotated weighted werner": SweepSpec("werner", "a", 0.0, 1.0, count, QubitPairEnergies(0.7, 0.2), "weighted", (0.8, 0.2), (0.7, 1.3)),
    }
    for name, spec in specs.items():
        columns = {}
        for size in (1, 256, 512):
            monkeypatch.setattr(qbcap.sweep, "CHUNK", size)
            result = run_sweep(spec)
            columns[size] = [column.tobytes() for column in (result.spectra, result.gains, result.entangled)]
        assert columns[1] == columns[256] == columns[512], f"{name}: the bits depend on the chunk size; {kernel_note()}"


def assert_writes_json_reference(result, spec):
    """write_json's text is json.dumps of the dict form; a mismatch reports its first differing offset
    rather than a diff of two long texts, which pytest would take minutes to build on every shrink step."""
    out = io.StringIO()
    write_json(result, spec, out)
    got, want = out.getvalue(), json.dumps(rows_to_json(result, spec), indent=2) + "\n"
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"write_json differs from offset {i}: {got[max(i - 40, 0) : i + 40]!r} != {want[max(i - 40, 0) : i + 40]!r}")
    return got


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("rotated", [False, True], ids=["computational", "rotated"])
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_write_json_is_json_dumps_of_rows_to_json(family, rotated, weighted, data):
    # Every family, basis and scheme, on grids that end on either side of each chunk boundary.
    count = data.draw(st.sampled_from([2, CHUNK, CHUNK + 1, 2 * CHUNK + 1]))
    kind = (rotated, weighted)
    spec = data.draw(sweep_specs(count, family).filter(lambda s: (s.basis_angles is not None, s.weights is not None) == kind))
    assert_writes_json_reference(run_sweep(spec), spec)


def test_write_json_bytes_at_special_values():
    rng = np.random.default_rng(7)
    n = CHUNK + 3
    ties = np.array(SPECIAL_VALUES)
    pool = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
    table = rng.choice(pool, size=(n, 1 + len(SPECTRUM_COLUMNS) + len(GAIN_FIELDS)))
    table[:len(ties), 0] = ties
    result = SweepResult(table[:, 0], table[:, 1:5], table[:, 5:], rng.random(n) < 0.5)
    spec = SweepSpec("werner", "a", 0.0, 1.0, n, QubitPairEnergies(0.7, 0.2), "weighted", (0.25, 0.75), (0.7, 1.3))
    text = assert_writes_json_reference(result, spec)
    assert '"a": -0.0,' in text and '"a": 5e-324,' in text
    empty = SweepResult(np.empty(0), np.empty((0, 4)), np.empty((0, len(GAIN_FIELDS))), np.empty(0, bool))
    assert assert_writes_json_reference(empty, spec).endswith('"rows": []\n}\n')


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_json_rejects_non_finite_numbers(bad):
    spec = SweepSpec("werner", "a", 0.0, 1.0, 2, QubitPairEnergies(0.7, 0.2))
    result = run_sweep(spec)
    result.gains[1, 4] = bad
    with pytest.raises(ValueError, match="non-finite"):
        write_json(result, spec, io.StringIO())


def test_write_json_memory_is_bounded_by_the_chunk():
    count = 40_001
    spec = SweepSpec("werner", "a", 0.0, 1.0, count, QubitPairEnergies(0.7, 0.2), "weighted", (0.8, 0.2))
    result = run_sweep(spec)
    out = io.StringIO()
    tracemalloc.start()
    try:
        write_json(result, spec, out)
        written, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.getvalue().count('"entangled"') == count
    assert peak - written < 8 * 2**20, f"write_json peaked {(peak - written) / 2**20:.1f} MiB beyond its output"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_spec_to_mapping_round_trips(data):
    spec = data.draw(sweep_specs(data.draw(st.integers(2, 10_000))))
    mapping = spec.to_mapping()
    assert SweepSpec.from_mapping(mapping) == spec
    assert SweepSpec.from_mapping(json.loads(json.dumps(mapping))) == spec
    # The JSON output echoes these keys of the same mapping, in this order.
    empty = SweepResult(np.empty(0), np.empty((0, 4)), np.empty((0, len(GAIN_FIELDS))), np.empty(0, bool))
    echo = ("family", "param", "eps_a", "eps_b", "scheme", "weights", "basis")
    assert list(rows_to_json(empty, spec).items()) == [(key, mapping[key]) for key in echo if key in mapping] + [("rows", [])]


@st.composite
def branch_stacks(draw):
    """A basis and a stack of 1, 2, CHUNK or CHUNK + 1 pair matrices, real or complex, with exact zeros of either sign."""
    angles = draw(st.one_of(st.none(), st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))))
    basis = MeasurementBasis(angles)
    n = draw(st.sampled_from([1, 2, CHUNK, CHUNK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # classical-quantum points: with p_0 = 1, branch 1 holds round-off only and is flagged
        p0 = draw(st.sampled_from([1.0, 0.5, 1.0 - 1e-7]))
        points = [classical_quantum([random_density(rng, 2).matrix for _ in range(2)], (p0, 1.0 - p0), basis) for _ in range(n)]
    else:
        points = [random_density(rng).matrix for _ in range(n)]
    matrices = np.array(points)
    off_diagonal = ~np.eye(4, dtype=bool) & (rng.random((n, 4, 4)) < draw(st.sampled_from([0.0, 0.3, 1.0])))
    matrices.real[off_diagonal] = np.where(rng.random(off_diagonal.sum()) < 0.5, 0.0, -0.0)
    matrices.imag[rng.random((n, 4, 4)) < 0.3] = -0.0
    if draw(st.booleans()):
        matrices = np.ascontiguousarray(matrices.real)  # the family stacks are real
    return basis, matrices


def assert_same_bytes(got, want, what):
    for name, a, b in zip(("branches", "probabilities", "flags"), got, want):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        differ = np.ascontiguousarray(a).view(np.uint8) != np.ascontiguousarray(b).view(np.uint8)
        assert not differ.any(), f"{name} differ from {what} in {differ.sum()} bytes; {kernel_note()}"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stack=branch_stacks())
def test_branches_are_bitwise_the_stacked_products(stack):
    # The slab GEMMs of the left and the transposed right products give the bits of the 4N stacked products
    # (I x P_k) rho (I x P_k).
    basis, matrices = stack
    unnormalized = basis.operators @ matrices[:, None] @ basis.operators
    probabilities = np.trace(unnormalized, axis1=-2, axis2=-1).real
    flagged = probabilities < ZERO_PROBABILITY
    branches = unnormalized / np.where(flagged, 1.0, probabilities)[..., None, None]
    branches[flagged] = 0.0
    assert_same_bytes(_branches(matrices, basis), (branches, probabilities, flagged), "the stacked products")
    # Written into the branch slabs of measure_and_mix's role-major buffer, which are strided: a matmul
    # that left BLAS for such an output would show here.
    slabs = np.full((4, len(matrices), 4, 4), np.nan, dtype=complex)[1:3].transpose(1, 0, 2, 3)
    got = _branches(matrices, basis, out=slabs)
    assert got[0] is slabs
    assert_same_bytes(got, (branches, probabilities, flagged), "the stacked products, written into strided slabs")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(stack=branch_stacks())
def test_branches_of_a_stack_are_those_of_each_matrix_alone(stack):
    # A matrix's branches have the same bits whatever the size of its stack, under every BLAS kernel.
    basis, matrices = stack
    alone = [_branches(m[None], basis) for m in matrices]
    stacked = _branches(matrices, basis)
    assert_same_bytes(stacked, [np.concatenate(a) for a in zip(*alone)], "those of each matrix alone")


# Run in a child Python under another OpenBLAS kernel: a stack's branches against each matrix's own, in bytes.
STACK_SIZE_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from helpers import blas_kernel
from qbcap import MeasurementBasis
from qbcap.measurement import _branches

rng = np.random.default_rng(2405)
g = rng.standard_normal((513, 4, 4)) + 1j * rng.standard_normal((513, 4, 4))
states = g @ g.conj().transpose(0, 2, 1)
states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
failures = []
for angles in (None, (0.9, 2.1)):
    basis = MeasurementBasis(angles)
    for matrices in (states, np.ascontiguousarray(states.real)):
        alone = [_branches(m[None], basis) for m in matrices]
        for n in (1, 2, 127, 128, 129, 255, 256, 257, 512, 513):
            for i, (got, own) in enumerate(zip(zip(*_branches(matrices[:n], basis)), alone)):
                if any(a.tobytes() != b[0].tobytes() for a, b in zip(got, own)):
                    failures.append(f"basis {angles}, {matrices.dtype}, stack of {n}: matrix {i}")
print(json.dumps({"kernel": blas_kernel(), "failures": failures[:5], "count": len(failures)}))
"""


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_branches_keep_their_bits_in_any_stack_under_other_kernels(kernel):
    # GEMM_SLAB's claim, checked where it matters: with 2 threads, under a kernel other than the one the suite
    # runs under, each matrix gets the branches it gets alone on stacks on either side of every slab and chunk
    # boundary.
    env = subprocess_env({"OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "2"})
    tests = str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-c", STACK_SIZE_CHILD, tests], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if report["kernel"] in (None, blas_kernel()):
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} left the BLAS kernel at {report['kernel']}")
    assert report["count"] == 0, f"{report['count']} matrices change bits with their stack under {report['kernel']}: {report['failures']}"


@st.composite
def near_negative_points(draw, basis):
    """A classical-quantum pair matrix sum_k p_k rho_k x P_k in the measured basis.

    Each conditional state rho_k = U diag(l, 1 - l) U^dagger has its lowest eigenvalue l on a 1e-13 grid in
    [-2e-10, 0], so the input's own eigenvalues p_k l lie there too. The grid keeps every reported value
    clear of a rounding tie of the 4-digit message and skips l = -1e-10, the tolerance itself, where two
    ways of computing one eigenvalue may fall on either side of the bound.
    """
    p0 = draw(st.integers(0, 19).flatmap(lambda i: st.just(1.0) if i == 0 else st.floats(0.05, 0.95)))  # 1: flagged
    conditionals = []
    for _ in range(2):
        low = draw(st.integers(-2000, 0).filter(lambda j: j != -1000)) * 1e-13
        alpha, beta = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
        u = np.array([[np.cos(alpha), -np.sin(alpha) * np.exp(-1j * beta)], [np.sin(alpha) * np.exp(1j * beta), np.cos(alpha)]])
        conditionals.append(u @ np.diag([low, 1.0 - low]) @ u.conj().T)
    return classical_quantum(conditionals, (p0, 1.0 - p0), basis)


def eigh_rule_message(matrices, basis, weights):
    """The error text of the protocol with every input, branch and final matrix checked by full eigh, or None.

    The first failing point reports. Its input is checked before anything measured of it, as a
    ``DensityMatrix`` built of it would check it; then the closure of its probabilities, its
    zero-probability branches, its branch and final matrices, and last its reduced states.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite input spreads through the branches and the mix
        branches, probabilities, flagged = _branches(matrices, basis)
        stack = np.concatenate([matrices[:, None], branches, _mix(branches, weights)[:, None]], axis=1)
    stack[:, 1:3][flagged] = np.eye(4) / 4.0
    for i in range(len(matrices)):
        point = np.s_[i : i + 1]
        try:
            total, unclosed = _closure(probabilities[point], VALIDATION_TOL)
            raise_first(unclosed, lambda j: _closure_error(total[j]))
            raise_first(_flag_checks(flagged[point], weights)[0], lambda k: _flag_error(probabilities[i], weights, k))
            message = None
        except (ValueError, ArithmeticError) as exc:
            message = str(exc)
        message = eigh_check_oracle(matrices[point]) or message or eigh_check_oracle(stack[point])
        message = message or eigh_check_oracle(reduce_a(stack[point, ::3]))
        if message:
            return message
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_branch_verdicts_match_the_eigh_rule(data):
    # Branches are checked as products rho_{A|k} x P_k; verdict and message equal those of a full
    # eigendecomposition of every branch, on stacks of 1-4 points in either kind of basis.
    angles = data.draw(st.one_of(st.none(), st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))))
    basis = MeasurementBasis(angles)
    weights = data.draw(st.one_of(st.none(), st.just((1.0, 0.0)), st.floats(0.0, 1.0).map(lambda mu: (mu, 1.0 - mu))))
    matrices = np.array(data.draw(st.lists(near_negative_points(basis), min_size=1, max_size=4)))
    try:
        measure_and_mix(matrices, basis, weights, QubitPairEnergies(0.7, 0.2).levels(), VALIDATION_TOL)
        message = None
    except (ValueError, ArithmeticError) as exc:
        message = str(exc)
    assert message == eigh_rule_message(matrices, basis, weights)


@pytest.mark.parametrize("angles", [None, (0.9, 2.1)], ids=["computational", "rotated"])
@pytest.mark.parametrize("weights", [None, (0.7, 0.3)], ids=["uniform", "weighted"])
def test_malformed_points_raise_as_under_the_eigh_rule(angles, weights):
    # Inputs that fail the screen reach no spectral check: each raises its own error, in stack order.
    basis = MeasurementBasis(angles)
    good = classical_quantum((np.diag([0.3, 0.7]), np.diag([0.6, 0.4])), (0.5, 0.5), basis)
    skew, off_trace, nan = good.copy(), good * 1.1, good.copy()
    skew[0, 1] += 1e-9j  # not Hermitian, and neither are its branches
    nan[2, 2] = np.nan
    for bad in (skew, off_trace, nan):
        matrices = np.array([good, bad, good])
        with pytest.raises((ValueError, ArithmeticError)) as raised:
            measure_and_mix(matrices, basis, weights, QubitPairEnergies(0.7, 0.2).levels(), VALIDATION_TOL)
        assert str(raised.value) == eigh_rule_message(matrices, basis, weights)


@pytest.mark.parametrize("angles", [None, (0.9, 2.1)], ids=["computational", "rotated"])
@pytest.mark.parametrize("weights", [None, (0.7, 0.3)], ids=["uniform", "weighted"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.7e308])
def test_non_finite_and_huge_entries_raise_without_a_warning(angles, weights, bad):
    # NaNs and infinities, given or made by a huge entry, spread through the branches and the final state
    # until the screen reports them; numpy warns of none of them.
    basis = MeasurementBasis(angles)
    good = classical_quantum((np.diag([0.3, 0.7]), np.diag([0.6, 0.4])), (0.5, 0.5), basis)
    for position in ((0, 0), (1, 2), (0, 2)):
        point = good.copy()
        point[position] = bad
        matrices = np.array([good, point])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((ValueError, ArithmeticError)) as raised:
                measure_and_mix(matrices, basis, weights, QubitPairEnergies(0.7, 0.2).levels(), VALIDATION_TOL)
        assert str(raised.value) == eigh_rule_message(matrices, basis, weights)
        assert math.isfinite(bad) or str(raised.value) == "matrix contains non-finite entries"


@pytest.mark.parametrize("angles", [None, (0.9, 2.1)], ids=["computational", "rotated"])
def test_a_hermitian_input_with_huge_entries_raises_without_a_warning(angles):
    # Huge entries mirrored across the diagonal pass the screen, and the first-qubit states' sums of them
    # overflow; measured or not, the pass reports the input's reconstruction, and numpy warns of nothing.
    point = np.eye(4, dtype=complex) / 4.0
    point[0, 2] = point[2, 0] = point[1, 3] = point[3, 1] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for basis in (MeasurementBasis(angles), None):
            with pytest.raises(NumericError, match="^eigendecomposition reconstruction error "):
                measure_and_mix(point[None], basis, None, QubitPairEnergies(0.7, 0.2).levels(), VALIDATION_TOL)


@pytest.mark.parametrize(
    "diagonal, message",
    [
        ((1e308, 1e308, -1e308, -1e308), "negative eigenvalue -1.000e+308 below -1e-10"),
        ((-1e308, -1e308, 1e308, 1e308), "negative eigenvalue -1.000e+308 below -1e-10"),
        ((1e308 + 0.1, 1e308 + 0.1, -1e308 + 0.1, -1e308 + 0.1), "negative eigenvalue -1.000e+308 below -1e-10"),
        ((1e308, -1e308, 1e308, -1e308), "trace = 0, expected 1 within 1e-10"),
    ],
)
def test_a_trace_that_overflows_to_nan_passes_the_screen(diagonal, message):
    # Finite huge entries can sum to a NaN trace, (1e308 + 1e308) + (-1e308 + -1e308); that is no failed
    # trace test, so the lowest eigenvalue gives the verdict, as it does for check_states, measured or not.
    # Paired the other way, the sums cancel to a finite trace 0, which fails. Messages pinned from the engine
    # before its checks went into one table.
    point = np.diag(np.array(diagonal, dtype=complex))[None]
    levels = QubitPairEnergies(0.7, 0.2).levels()
    calls = [lambda: check_states(point, 1e-10)]
    calls += [lambda b=b, w=w: measure_and_mix(point, b, w, levels, 1e-10) for b, w in ((None, None), (MeasurementBasis(), None))]
    calls += [lambda: measure_and_mix(point, MeasurementBasis((0.3, 0.2)), (0.4, 0.6), levels, 1e-10)]
    for call in calls:
        with pytest.raises(InvalidStateError) as raised:
            call()
        assert str(raised.value) == message


def test_sweep_eigendecomposes_two_pair_matrices_per_point(monkeypatch):
    # Only the input and final matrices of a point reach eigh, in one call per chunk; the branches are checked
    # as product states, and the two reduced states of a point take eigvalsh, in one call per chunk. The PPT
    # test settles every point of this Werner grid in closed form, so no partial transpose reaches eigvalsh.
    received = {"eigh": [], "eigvalsh": []}
    for name, calls in received.items():
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, original=original, calls=calls: calls.append(m.shape) or original(m))
    count = 600
    spec = SweepSpec("werner", "a", 0.0, 1.0, count, QubitPairEnergies(0.7, 0.2), "weighted", (0.8, 0.2), (0.7, 1.3))
    run_sweep(spec)
    matrices = {
        name: {d: sum(math.prod(shape[:-2]) for shape in shapes if shape[-1] == d) for d in (2, 4)}
        for name, shapes in received.items()
    }
    assert matrices == {"eigh": {4: 2 * count, 2: 0}, "eigvalsh": {4: 0, 2: 2 * count}}
    chunks = math.ceil(count / CHUNK)
    assert (len(received["eigh"]), len(received["eigvalsh"])) == (chunks, chunks)
