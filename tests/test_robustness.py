"""Property tests: the order-alpha entropies and the classical and quantum
divergences return a finite number, INFINITE, or raise an ObsentError over
the valid range (alpha from 1e-3 to 1e4, weights scaled from 1e-6 to 1e6,
rank-deficient states with spectra spanning many orders of magnitude); a
grid of orders gives the kernel's per-order values bit for bit, and each
row of a table its own vector call's values;
effective_beta recovers beta at every spectral scale from 1e-6 to 1e6; and
malformed matrices, arrays, numbers, objects and options raise an
ObsentError at every public entry."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsent import (
    INFINITE,
    CoarseGraining,
    DrivingProtocol,
    EnergyWindowing,
    LevelSystem,
    OutcomeDistribution,
    RefinementMap,
    check_refinement,
    closed_run,
    coarse_grained_state,
    energy_cg,
    free_energy,
    measurement_channel,
    merge_outcomes,
    op_power,
    outcomes,
    partial_trace,
    post_measurement_state,
    propagate,
    spectral,
    tensor,
    validate_operator,
    alpha_derivative,
    effective_beta,
    gibbs_state,
    identity_cg,
    alpha_oe,
    alpha_oe_divergence_form,
    alpha_oe_gap,
    classical_petz_renyi,
    decompose_alpha_oe,
    is_coarse_grained,
    jackson_check,
    kl_divergence,
    observational_entropy,
    petz_renyi,
    projective_cg,
    refinement_divergence_bound,
    renyi_entropy,
    tensor_cg,
    renyi_mutual_info,
    renyi_mutual_info_divergence_form,
    renyi_post_measurement,
    umegaki,
    von_neumann,
)
from obsent import divergences
from obsent.divergences import _ragged
from obsent.errors import InvalidAlpha, NotHermitian, ObsentError
from obsent.verify import run_suite
from obsent.generators import (
    random_coarse_graining,
    random_merge,
    random_projective_cg,
    random_unitary,
)


def _state(rng, dim, rank, spread):
    """Rank-deficient state whose eigenvalues span up to 10**-spread."""
    lam = np.zeros(dim)
    lam[: min(rank, dim)] = 10.0 ** (-spread * rng.uniform(size=min(rank, dim)))
    u = random_unitary(rng, dim)
    return (u * (lam / lam.sum())) @ u.conj().T


def _finite_infinite_or_error(fn, *args):
    try:
        value = fn(*args)
    except ObsentError:
        return
    assert math.isfinite(value) or value == INFINITE, (fn.__name__, value)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    rank=st.integers(1, 6),
    log_alpha=st.floats(-3.0, 4.0),
    log_scales=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    spread=st.floats(0.0, 15.0),
)
def test_finite_infinite_or_obsent_error(
    seed, dim, rank, log_alpha, log_scales, spread
):
    rng = np.random.default_rng(seed)
    alpha = 10.0**log_alpha
    rho = _state(rng, dim, rank, spread)
    cg = random_coarse_graining(rng, dim)
    x = rng.dirichlet(np.ones(dim)) * 10.0 ** log_scales[0]
    q = rng.dirichlet(np.ones(dim)) * 10.0 ** log_scales[1]
    x[rng.uniform(size=dim) < 0.3] = 0.0
    q[rng.uniform(size=dim) < 0.3] = 0.0

    _finite_infinite_or_error(alpha_oe, cg, rho, alpha)
    _finite_infinite_or_error(observational_entropy, cg, rho)
    _finite_infinite_or_error(alpha_oe_divergence_form, cg, rho, alpha)
    _finite_infinite_or_error(renyi_entropy, rho, alpha)
    _finite_infinite_or_error(von_neumann, rho)
    _finite_infinite_or_error(classical_petz_renyi, x, q, alpha)
    _finite_infinite_or_error(classical_petz_renyi, q, x, alpha)
    _finite_infinite_or_error(kl_divergence, x, q)

    sigma = _state(rng, dim, max(dim + 1 - rank, 1), spread)
    rho_ab = _state(rng, 2 * dim, 2 * rank, spread)
    fine = random_projective_cg(rng, dim)
    coarser, rmap = random_merge(rng, fine)
    for a, b in ((rho, sigma), (sigma, rho), (rho, rho)):
        _finite_infinite_or_error(petz_renyi, a, b, alpha)
        _finite_infinite_or_error(umegaki, a, b)
    _finite_infinite_or_error(alpha_oe_gap, cg, rho, alpha)
    _finite_infinite_or_error(
        renyi_mutual_info_divergence_form, rho_ab, (2, dim), alpha
    )
    _finite_infinite_or_error(alpha_derivative, cg, rho, alpha)
    _finite_infinite_or_error(
        refinement_divergence_bound, fine, coarser, rmap, rho, alpha
    )


_ORDER = st.floats(-3.0, 4.0).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 16),
    centers=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
    spread=st.floats(0.0, 20.0),
    scalar_q=st.booleans(),
    orders=st.lists(_ORDER, min_size=0, max_size=16),
)
def test_grid_call_equals_scalar_calls_bit_for_bit(
    seed, size, centers, spread, scalar_q, orders
):
    # weights from 1e-300 to 1e300 around two centres, with exact zeros
    rng = np.random.default_rng(seed)
    x, q = (
        10.0 ** np.clip(c + spread * rng.uniform(-1, 1, size), -300, 300)
        for c in centers
    )
    x[rng.uniform(size=size) < 0.2] = 0.0
    q[rng.uniform(size=size) < 0.2] = 0.0
    if scalar_q:
        q = 10.0 ** centers[1]
    # the orders with special cases in the kernel or in numpy's power
    orders = [1.0, 1 + 1e-7, 1 - 1e-7, 0.5, 2.0, 3.0, *orders]
    qs = q if scalar_q else [q]
    grid = _ragged([x], qs, np.array(orders))
    assert grid.shape == (1, len(orders))
    for alpha, value in zip(orders, grid[0].tolist()):
        [scalar] = _ragged([x], qs, alpha).tolist()
        assert not math.isnan(scalar)
        # hex compares every bit: the sign of zero and INFINITE included
        assert scalar.hex() == value.hex(), (alpha, scalar, value)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    log_scale=st.floats(-6.0, 6.0),
    x=st.floats(-5.0, 5.0),
)
def test_effective_beta_is_scale_free(seed, dim, log_scale, x):
    # levels spanning [0, scale]; x = beta * span is the scale-free beta
    rng = np.random.default_rng(seed)
    levels = np.sort(rng.uniform(size=dim))
    levels = (levels - levels[0]) / (levels[-1] - levels[0])
    scale = 10.0**log_scale
    u = random_unitary(rng, dim)
    h = (u * (levels * scale)) @ u.conj().T
    beta = effective_beta(h, gibbs_state(h, x / scale))
    assert beta * scale == pytest.approx(x, abs=1e-8)


_RHO = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
_FINE = projective_cg(np.eye(4))
_COARSE, _MERGE = merge_outcomes(_FINE, [["0", "1"], ["2", "3"]])
# every public function of one order alpha, as alpha -> call
_SCALAR_ALPHA_FUNCTIONS = {
    "alpha_oe": lambda a: alpha_oe(_FINE, _RHO, a),
    "alpha_oe_divergence_form": lambda a: alpha_oe_divergence_form(_FINE, _RHO, a),
    "alpha_oe_gap": lambda a: alpha_oe_gap(_FINE, _RHO, a),
    "alpha_derivative": lambda a: alpha_derivative(_FINE, _RHO, a),
    "classical_petz_renyi": lambda a: classical_petz_renyi([0.5, 0.5], [0.3, 0.7], a),
    "renyi_entropy": lambda a: renyi_entropy(_RHO, a),
    "petz_renyi": lambda a: petz_renyi(_RHO, np.eye(4) / 4, a),
    "renyi_mutual_info": lambda a: renyi_mutual_info(_RHO, (2, 2), a),
    "renyi_mutual_info_divergence_form": (
        lambda a: renyi_mutual_info_divergence_form(_RHO, (2, 2), a)
    ),
    "renyi_post_measurement": lambda a: renyi_post_measurement(_FINE, _RHO, a),
    "decompose_alpha_oe": lambda a: decompose_alpha_oe(_FINE, _RHO, a),
    "is_coarse_grained": lambda a: is_coarse_grained(_FINE, _RHO, a),
    "refinement_divergence_bound": (
        lambda a: refinement_divergence_bound(_FINE, _COARSE, _MERGE, _RHO, a)
    ),
    "jackson_check": (
        lambda a: jackson_check(LevelSystem(np.array([0.0, 1.0]), 1.0), 1.0, a)
    ),
}


@pytest.mark.parametrize("name", sorted(_SCALAR_ALPHA_FUNCTIONS))
@pytest.mark.parametrize("alpha", [[2.0, 3.0], np.array([2.0]), np.array([]), "2"])
def test_public_functions_take_one_real_order(name, alpha):
    # the grid form of the kernel is private; a public alpha is one number
    call = _SCALAR_ALPHA_FUNCTIONS[name]
    with pytest.raises(InvalidAlpha):
        call(alpha)
    for one in (2, np.float64(2.0), np.array(2.0)):
        assert call(one) == call(2.0)


@pytest.mark.parametrize("name", sorted(_SCALAR_ALPHA_FUNCTIONS))
def test_public_functions_return_python_floats(name):
    # the table helpers return arrays; each public value is a Python float
    value = _SCALAR_ALPHA_FUNCTIONS[name](2.0)
    if name == "is_coarse_grained":
        value = (value.matrix_residual, value.entropy_residual)
    for v in value if isinstance(value, tuple) else (value,):
        assert type(v) is float


_NAN = np.full((2, 2), np.nan)
_QUBIT = projective_cg(np.eye(2))
_STATE = np.diag([0.7, 0.3])
_NOT_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])
# malformed input -> call; each returned a value (nan, a truncated or a
# one-triangle result) or raised a raw exception before the input gates
_MALFORMED_CALLS = {
    "effect that is a number": lambda: CoarseGraining(("a",), [5]),
    "effect with a nan entry": lambda: CoarseGraining(("a", "b"), [np.eye(2), _NAN]),
    "rectangular Hamiltonian": lambda: gibbs_state(np.ones((2, 3)), 1.0),
    "state of another dimension": lambda: effective_beta(np.diag([0, 1, 2]), _STATE),
    "rectangular state": lambda: outcomes(_QUBIT, np.ones((2, 3))),
    "complex weight list": lambda: classical_petz_renyi([1 + 1j, 1], [1, 1], 2.0),
    "complex weight array": (
        lambda: classical_petz_renyi(np.array([1 + 1j, 1]), [1, 1], 2.0)
    ),
    "string window width": lambda: EnergyWindowing("a"),
    "array window width": lambda: EnergyWindowing(np.array([1.0, 2.0])),
    "string duration": lambda: DrivingProtocol(((np.eye(2), "a"),)),
    "string temperature": lambda: free_energy(LevelSystem([0, 1]), "x"),
    "nan density": lambda: validate_operator(_NAN, "density"),
    "nan hermitian": lambda: validate_operator(_NAN, "hermitian"),
    "unknown operator kind": lambda: validate_operator(np.eye(2), "foo"),
    "nan spectral": lambda: spectral(_NAN),
    "nan probability": lambda: OutcomeDistribution(("a",), [np.nan], [1.0]),
    "complex probability": (
        lambda: OutcomeDistribution(("a",), np.array([0.5 + 0.5j]), [1.0])
    ),
    "non-Hermitian gibbs_state": lambda: gibbs_state(_NOT_HERMITIAN, 1.0),
    "non-Hermitian effective_beta": (
        lambda: effective_beta(np.array([[0.0, 5.0], [0.0, 1.0]]), _STATE)
    ),
    "non-Hermitian propagate": lambda: propagate(_STATE, _NOT_HERMITIAN, 1.0),
    "nan op_power": lambda: op_power(_NAN, 0.5),
    "nan gibbs_state": lambda: gibbs_state(_NAN, 1.0),
    "nan coarse_grained_state": lambda: coarse_grained_state(_QUBIT, _NAN),
    "nan post_measurement_state": lambda: post_measurement_state(_QUBIT, _NAN),
    "nan measurement_channel": lambda: measurement_channel(_QUBIT, _NAN),
    "nan refinement map": lambda: RefinementMap([[np.nan]]),
    "tensor of one operator": lambda: tensor(np.eye(2) / 2),
    "unknown partial_trace side": lambda: partial_trace(np.eye(4) / 4, (2, 2), "C"),
    "one dims entry": lambda: renyi_mutual_info(np.eye(4) / 4, (4,), 2.0),
    "unknown suite": lambda: run_suite("nope"),
    "unhashable label": lambda: merge_outcomes(_QUBIT, [[["0"]], ["1"]]),
    # an object of the wrong type where a structured argument is expected
    "coarse-graining that is a number": lambda: alpha_oe(float("nan"), _STATE, 2.0),
    "windowing that is None": lambda: energy_cg(np.eye(2), None),
    "dimension that is nan": lambda: identity_cg(float("nan")),
    "protocol of a number": lambda: DrivingProtocol(5),
    "alphas that are a number": lambda: closed_run(
        DrivingProtocol(((np.eye(2), 1.0),)), _STATE, EnergyWindowing(0.5), 2.0, [0.5]
    ),
    "refinement map that is a list": (
        lambda: check_refinement(_QUBIT, identity_cg(2), [[1.0], [1.0]])
    ),
    "levels that are a list": lambda: free_energy([0.0, 1.0], 1.0),
    "part that is a number": lambda: tensor_cg([_QUBIT, 5]),
    # real arrays go through one gate
    "complex refinement map": lambda: RefinementMap(np.array([[1.0 + 1j]])),
    "string energies": lambda: LevelSystem("ab", 1.0),
    "complex volume": lambda: OutcomeDistribution(("a",), [1.0], np.array([1.0 + 1j])),
    # an option that is not a string
    "array partial_trace side": (
        lambda: partial_trace(np.eye(4) / 4, (2, 2), np.array([1, 2]))
    ),
    "array operator kind": lambda: validate_operator(np.eye(2), np.array([1, 2])),
    "array suite": lambda: run_suite(np.array([1, 2])),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_CALLS))
def test_malformed_input_raises_obsent_error(name):
    with pytest.raises(ObsentError):
        _MALFORMED_CALLS[name]()


def test_non_hermitian_hamiltonian_raises_not_hermitian():
    # eigh reads one triangle; unchecked, these would read [[0, 0], [0, 0]]
    with pytest.raises(NotHermitian):
        gibbs_state(_NOT_HERMITIAN, 1.0)
    with pytest.raises(NotHermitian):
        effective_beta(_NOT_HERMITIAN + np.diag([0.0, 1.0]), _STATE)
    with pytest.raises(NotHermitian):
        propagate(_STATE, _NOT_HERMITIAN, 1.0)


def test_table_rows_equal_their_vector_calls():
    # each row keeps its own support cut, q = 0 handling and log-space redo
    rows = [
        ([0.5, 0.3, 0.2], [1.0, 1.0, 1.0]),  # shorter than the longest
        ([0.4, 0.6], [0.0, 2.0]),  # a zero-volume entry
        ([1.0, 1e-20, 0.5, 0.25, 0.125, 1e-30, 0.1, 0.2, 0.3], [0.5] * 9),  # cut
        ([0.7, 0.3], [0.0, 0.0]),  # q = 0
        ([0.9, 0.1], [1e-300, 1.0]),  # x^alpha underflows at alpha = 1e4
        # padded to the longest row, its sum would take another order
        ([0.1, 0.2, 0.3, 0.4], [1.0] * 4),
    ]
    orders = np.array([0.3, 1.0, 1 + 1e-7, 2.0, 1e4])
    xs, qs = [np.array(x) for x, _ in rows], [np.array(q) for _, q in rows]
    table = _ragged(xs, qs, orders)
    assert table.shape == (len(rows), len(orders))
    assert not np.isnan(table).any()
    unit = _ragged(xs, 1.0, orders)
    for x, q, row, unit_row in zip(xs, qs, table.tolist(), unit.tolist()):
        for value, alone in zip(row, _ragged([x], [q], orders)[0].tolist()):
            assert value.hex() == alone.hex()
        for value, alone in zip(unit_row, _ragged([x], 1.0, orders)[0].tolist()):
            assert value.hex() == alone.hex()
    # a kept entry over q = 0: INFINITE from alpha = 1 on, cut below
    assert table[1, 1:].tolist() == [INFINITE] * 4
    assert table[1, 0] == pytest.approx(math.log(0.6**0.3 * 2.0**0.7) / (0.3 - 1.0))
    assert table[3].tolist() == [INFINITE] * 5
    # the log-space redo gives the finite value at alpha = 1e4
    assert table[4, 4] == pytest.approx(
        (1e4 * math.log(0.9) - (1e4 - 1) * math.log(1e-300)) / (1e4 - 1), rel=1e-12
    )
    # one order gives that column of the grid, bit for bit
    column = _ragged(xs, qs, 2.0)
    assert column.tolist() == table[:, 3].tolist()
    # the rows of one length alone are one table of the kernel
    same = [1, 3, 4]
    alone = _ragged([xs[r] for r in same], [qs[r] for r in same], orders)
    assert np.array_equal(alone, table[same])


def test_ragged_makes_one_kernel_call_per_length(monkeypatch):
    rng = np.random.default_rng(3)
    xs = [rng.dirichlet(np.ones(n)) for n in (2, 40, 3, 17, 5, 40, 3)]
    qs = [rng.uniform(0.5, 2.0, len(x)) for x in xs]
    orders = np.array([0.5, 2.0])
    kernel, tables = divergences._renyi_divergence, []

    def counting(x, q, alpha):
        tables.append(np.shape(x))
        return kernel(x, q, alpha)

    monkeypatch.setattr(divergences, "_renyi_divergence", counting)
    values = _ragged(xs, qs, orders)
    assert sorted(tables) == [(1, 2), (1, 5), (1, 17), (2, 3), (2, 40)]
    for x, q, row in zip(xs, qs, values.tolist()):
        assert row == _ragged([x], [q], orders)[0].tolist()


def test_overflow_gives_a_value():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under -W error
        # Z = e^1000 is beyond the float range; A = -T log Z is not
        fe = free_energy(LevelSystem([-1000.0]), 1.0)
        assert fe.partition == fe.partition_scaled == INFINITE
        assert fe.helmholtz == fe.helmholtz_scaled == -1000.0
        _, _, gap = jackson_check(LevelSystem([-1000.0, 0.0]), 1.0, 2.0)
        assert abs(gap) <= 1e-9
        # E / T is beyond the float range; A is not
        fe = free_energy(LevelSystem([-1e300, 0.0]), 1e-300)
        assert fe.helmholtz == fe.helmholtz_scaled == -1e300
        assert free_energy(LevelSystem([1e300]), 1e-300).helmholtz == 1e300
        # (alpha - 1)^2 is beyond the float range at alpha = 1e300
        assert alpha_derivative(_FINE, _RHO, 1e300) == 0.0
        # and alpha log t_i too at 1.7e308, for t = (0.3, 0.2)
        rho = np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex)
        assert alpha_derivative(_COARSE, rho, 1.7e308) == 0.0
        assert alpha_derivative(_FINE, _RHO, 1.7e308) == 0.0
