"""Bounded Hypothesis properties of the capacity, the ergotropy and the measure-and-mix protocol."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbcap import (
    DensityMatrix,
    MeasurementBasis,
    QubitPairEnergies,
    bell_diagonal,
    capacity,
    capacity_gain,
    ergotropy,
    qubit_pair_hamiltonian,
    subsystem_a_hamiltonian,
    werner,
)
from qbcap.linalg import PAULIS

unit = st.floats(0.0, 1.0)


@st.composite
def energies(draw):
    eps_a = draw(st.floats(0.1, 1.0))
    return QubitPairEnergies(eps_a, draw(st.floats(0.0, 1.0)) * eps_a)


@st.composite
def states(draw, dim):
    """A state of rank 1 to ``dim`` from a normalized complex Ginibre product."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, dim))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


bases = st.one_of(st.none(), st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.sampled_from([2, 4]), e=energies())
def test_ergotropy_lies_between_zero_and_capacity(data, dim, e):
    rho = data.draw(states(dim))
    h = qubit_pair_hamiltonian(e) if dim == 4 else subsystem_a_hamiltonian(e)
    work, spread = ergotropy(rho, h), capacity(rho, h)
    assert 0.0 <= work <= spread + 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(r=st.tuples(*[st.floats(-1.0, 1.0)] * 3), eps=st.floats(0.0, 10.0))
def test_qubit_capacity_is_twice_the_splitting_times_the_bloch_length(r, eps):
    r = np.array(r)
    length = np.linalg.norm(r)
    if length > 1.0:
        r /= length
        length = np.linalg.norm(r)
    rho = DensityMatrix((np.eye(2) + sum(rk * s for rk, s in zip(r, PAULIS))) / 2.0)
    assert abs(capacity(rho, subsystem_a_hamiltonian(QubitPairEnergies(eps, 0.0))) - 2.0 * eps * length) <= 1e-12 * (1.0 + eps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=st.tuples(*[st.floats(-1.0, 1.0)] * 3), e=energies(), angles=bases)
def test_uniform_mixing_of_bell_diagonal_states_loses_pair_capacity(c, e, angles):
    # The second qubit of a Bell-diagonal state is maximally mixed, so each outcome has probability 1/2 and the
    # average is the dephased state: the pair loses capacity and the first qubit keeps its state.
    lams = [(1 - c[0] - c[1] - c[2]) / 4, (1 - c[0] + c[1] + c[2]) / 4, (1 + c[0] - c[1] + c[2]) / 4, (1 + c[0] + c[1] - c[2]) / 4]
    assume(min(lams) >= 0.0)
    report = capacity_gain(bell_diagonal(*c), e, MeasurementBasis(angles), "uniform")
    assert report.big_f <= 1e-12
    assert report.small_f >= -1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=unit, delta=st.floats(0.0, 1.0, exclude_max=True), e=energies())
def test_werner_pair_gain_is_positive_exactly_beyond_the_singlet_fraction(a, delta, e):
    # Weights ((1 + delta)/2, (1 - delta)/2) in the computational basis raise the whole-pair capacity exactly
    # when delta = mu_0 - mu_1 exceeds a; the gain grows linearly from the crossover, so a margin of 1e-6
    # lifts it well clear of round-off.
    assume(abs(delta - a) >= 1e-6)
    report = capacity_gain(werner(a), e, scheme="weighted", weights=((1.0 + delta) / 2.0, (1.0 - delta) / 2.0))
    assert (report.big_f > 1e-10) == (delta > a)
