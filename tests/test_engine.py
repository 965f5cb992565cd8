"""The chunked sweep engine against a plain-numpy oracle and against its own one-state path."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import family_matrix, protocol_oracle

from qbcap import MeasurementBasis, QubitPairEnergies, SweepSpec, XStateParams, capacity_gain, is_entangled, run_sweep
from qbcap.sweep import CHUNK

unit = st.floats(0.0, 1.0)


@st.composite
def sweep_specs(draw, count):
    """A valid sweep of ``count`` points whose branches all keep a probability well above the flag floor."""
    family = draw(st.sampled_from(["werner", "example2", "bell_diagonal", "x_state"]))
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
    rows = run_sweep(spec)
    assert [row.param_value for row in rows] == spec.grid().tolist()
    basis = MeasurementBasis(spec.basis_angles)
    e = spec.energies
    for row in rows:
        matrix = family_matrix(spec.family, row.param_value, spec.bell_diag, spec.param, spec.x_params)
        spectrum, gains, entangled = protocol_oracle(matrix, e.eps_a, e.eps_b, spec.basis_angles, spec.weights)
        np.testing.assert_allclose(row.spectrum, spectrum, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(row.gains, gains, rtol=0.0, atol=1e-12)
        assert row.entangled == entangled
        # Bit for bit the same as the one-state path, on either side of every chunk boundary.
        rho = spec.state_at(row.param_value)
        report = capacity_gain(rho, e, basis=basis, scheme=spec.scheme, weights=spec.weights)
        assert row.spectrum == tuple(rho.spectrum.tolist())
        assert row.gains == report.gains
        assert row.entangled == is_entangled(rho)


def test_sweep_memory_is_bounded_by_the_chunk():
    # Peak traced memory beyond the returned rows stays fixed as the grid grows,
    # because the stacks hold one chunk at a time.
    for count in (10_001, 40_001):
        spec = SweepSpec("werner", "a", 0.0, 1.0, count, QubitPairEnergies(0.7, 0.2), "weighted", (0.8, 0.2))
        tracemalloc.start()
        try:
            rows = run_sweep(spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == count
        assert peak - held < 8 * 2**20, f"{count} points: {(peak - held) / 2**20:.1f} MiB beyond the rows"
