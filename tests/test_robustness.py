"""Property tests: the order-alpha entropies and the classical and quantum
divergences return a finite number, INFINITE, or raise an ObsentError over
the valid range (alpha from 1e-3 to 1e4, weights scaled from 1e-6 to 1e6,
rank-deficient states with spectra spanning many orders of magnitude); a
grid of orders gives the kernel's per-order values bit for bit, and each
row of a table its own vector call's values;
effective_beta recovers beta at every spectral scale from 1e-6 to 1e6; and
malformed matrices, arrays, numbers, objects and options raise an
ObsentError at every public entry, and calls at the edges of the float
range give a value or an ObsentError without a warning."""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsent import (
    INFINITE,
    CoarseGraining,
    DensityOperator,
    HermitianOperator,
    DrivingProtocol,
    EnergyWindowing,
    LevelSystem,
    OutcomeDistribution,
    RefinementMap,
    check_refinement,
    closed_run,
    coarse_grained_state,
    conditional_ensemble,
    energy_cg,
    free_energy,
    measurement_channel,
    merge_outcomes,
    op_power,
    open_run,
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
    sequential,
    tensor_cg,
    renyi_mutual_info,
    renyi_mutual_info_divergence_form,
    renyi_post_measurement,
    umegaki,
    von_neumann,
)
from obsent import divergences, generators
from obsent.divergences import _ragged
from obsent.errors import (
    DimensionMismatch,
    InvalidAlpha,
    InvalidPartition,
    InvalidTemperature,
    NotARefinement,
    NotHermitian,
    NotPSD,
    NotSquare,
    ObsentError,
    SchemaError,
    ValidationError,
)
from obsent.serialize import coarse_graining_from_json, dump_json, run_to_csv
from obsent.verify import run_suite
import random_instances
from random_instances import (
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
_X_BASIS = projective_cg(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
_STATE = np.diag([0.7, 0.3])
_NOT_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])
# malformed input -> call; each returned a value (nan, a truncated or a
# one-triangle result) or raised a raw exception before the input gates
_MALFORMED_CALLS = {
    "effect that is a number": (NotSquare, lambda: CoarseGraining(("a",), [5])),
    # 0 x 0 effects have no least eigenvalue to index, but zero trace
    "effects of dimension 0": (
        ValidationError, lambda: CoarseGraining(("a",), np.zeros((1, 0, 0)))
    ),
    "effect with a nan entry": (
        ValidationError, lambda: CoarseGraining(("a", "b"), [np.eye(2), _NAN])
    ),
    "rectangular Hamiltonian": (NotSquare, lambda: gibbs_state(np.ones((2, 3)), 1.0)),
    "state of another dimension": (
        DimensionMismatch, lambda: effective_beta(np.diag([0, 1, 2]), _STATE)
    ),
    "rectangular state": (NotSquare, lambda: outcomes(_QUBIT, np.ones((2, 3)))),
    "complex weight list": (
        ValidationError, lambda: classical_petz_renyi([1 + 1j, 1], [1, 1], 2.0)
    ),
    "complex weight array": (
        ValidationError, lambda: classical_petz_renyi(np.array([1 + 1j, 1]), [1, 1], 2.0)
    ),
    "string window width": (ValidationError, lambda: EnergyWindowing("a")),
    "array window width": (ValidationError, lambda: EnergyWindowing(np.array([1.0, 2.0]))),
    "string duration": (ValidationError, lambda: DrivingProtocol(((np.eye(2), "a"),))),
    "string temperature": (InvalidTemperature, lambda: free_energy(LevelSystem([0, 1]), "x")),
    "nan density": (ValidationError, lambda: validate_operator(_NAN, "density")),
    "nan hermitian": (ValidationError, lambda: validate_operator(_NAN, "hermitian")),
    "unknown operator kind": (ValidationError, lambda: validate_operator(np.eye(2), "foo")),
    "nan spectral": (ValidationError, lambda: spectral(_NAN)),
    "nan probability": (ValidationError, lambda: OutcomeDistribution(("a",), [np.nan], [1.0])),
    "complex probability": (
        ValidationError, lambda: OutcomeDistribution(("a",), np.array([0.5 + 0.5j]), [1.0])
    ),
    "non-Hermitian gibbs_state": (NotHermitian, lambda: gibbs_state(_NOT_HERMITIAN, 1.0)),
    "non-Hermitian effective_beta": (
        NotHermitian, lambda: effective_beta(np.array([[0.0, 5.0], [0.0, 1.0]]), _STATE)
    ),
    "non-Hermitian propagate": (NotHermitian, lambda: propagate(_STATE, _NOT_HERMITIAN, 1.0)),
    "nan op_power": (ValidationError, lambda: op_power(_NAN, 0.5)),
    # a state or op_power argument is checked as Hamiltonians are, not read
    # by one triangle
    "non-Hermitian op_power": (
        NotHermitian, lambda: op_power(np.array([[0.5, 1.0], [0.0, 0.5]]), 1.0)
    ),
    "non-Hermitian renyi_entropy": (
        NotHermitian, lambda: renyi_entropy(np.array([[0.5, 0.4], [0.0, 0.5]]), 2.0)
    ),
    "non-Hermitian petz_renyi": (
        NotHermitian, lambda: petz_renyi(np.array([[0.5, 0.4], [0.0, 0.5]]), _STATE, 2.0)
    ),
    "non-Hermitian alpha_oe": (
        NotHermitian, lambda: alpha_oe(_QUBIT, np.array([[0.5, 0.4], [0.0, 0.5]]), 2.0)
    ),
    # the X basis reads the off-diagonal entries, each triangle differently
    "non-Hermitian outcomes": (
        NotHermitian, lambda: outcomes(_X_BASIS, [[0.5, 0.4], [0.0, 0.5]])
    ),
    "non-Hermitian conditional_ensemble": (
        NotHermitian, lambda: conditional_ensemble(_X_BASIS, [[0.5, 0.4], [0.0, 0.5]])
    ),
    # Tr(Pi_i X) = +-0.5j; the real part alone reads [0, 0]
    "non-Hermitian measurement_channel": (
        NotHermitian, lambda: measurement_channel(_X_BASIS, [[0.0, 1j], [0.0, 0.0]])
    ),
    "nan gibbs_state": (ValidationError, lambda: gibbs_state(_NAN, 1.0)),
    "nan coarse_grained_state": (ValidationError, lambda: coarse_grained_state(_QUBIT, _NAN)),
    "nan post_measurement_state": (ValidationError, lambda: post_measurement_state(_QUBIT, _NAN)),
    "nan measurement_channel": (ValidationError, lambda: measurement_channel(_QUBIT, _NAN)),
    "nan refinement map": (NotARefinement, lambda: RefinementMap([[np.nan]])),
    "tensor of one operator": (ValidationError, lambda: tensor(np.eye(2) / 2)),
    "unknown partial_trace side": (
        ValidationError, lambda: partial_trace(np.eye(4) / 4, (2, 2), "C")
    ),
    "one dims entry": (ValidationError, lambda: renyi_mutual_info(np.eye(4) / 4, (4,), 2.0)),
    "unknown suite": (ValidationError, lambda: run_suite("nope")),
    "unhashable label": (InvalidPartition, lambda: merge_outcomes(_QUBIT, [[["0"]], ["1"]])),
    # an object of the wrong type where a structured argument is expected
    "coarse-graining that is a number": (
        ValidationError, lambda: alpha_oe(float("nan"), _STATE, 2.0)
    ),
    "windowing that is None": (ValidationError, lambda: energy_cg(np.eye(2), None)),
    "dimension that is nan": (ValidationError, lambda: identity_cg(float("nan"))),
    "protocol of a number": (ValidationError, lambda: DrivingProtocol(5)),
    "alphas that are a number": (
        ValidationError,
        lambda: closed_run(
            DrivingProtocol(((np.eye(2), 1.0),)), _STATE, EnergyWindowing(0.5), 2.0, [0.5]
        ),
    ),
    "refinement map that is a list": (
        ValidationError, lambda: check_refinement(_QUBIT, identity_cg(2), [[1.0], [1.0]])
    ),
    "levels that are a list": (ValidationError, lambda: free_energy([0.0, 1.0], 1.0)),
    "part that is a number": (ValidationError, lambda: tensor_cg([_QUBIT, 5])),
    # real arrays go through one gate
    "complex refinement map": (NotARefinement, lambda: RefinementMap(np.array([[1.0 + 1j]]))),
    "string energies": (ValidationError, lambda: LevelSystem("ab", 1.0)),
    "complex volume": (
        ValidationError, lambda: OutcomeDistribution(("a",), [1.0], np.array([1.0 + 1j]))
    ),
    # an option that is not a string
    "array partial_trace side": (
        ValidationError, lambda: partial_trace(np.eye(4) / 4, (2, 2), np.array([1, 2]))
    ),
    "array operator kind": (
        ValidationError, lambda: validate_operator(np.eye(2), np.array([1, 2]))
    ),
    "array suite": (ValidationError, lambda: run_suite(np.array([1, 2]))),
    # a tolerance keyword is one finite real number >= 0
    "string is_projective atol": (ValidationError, lambda: _QUBIT.is_projective("x")),
    "negative is_projective atol": (ValidationError, lambda: _QUBIT.is_projective(-1.0)),
    "None is_coarse_grained atol": (
        ValidationError, lambda: is_coarse_grained(_QUBIT, _STATE, 2.0, atol=None)
    ),
    "string op_power support_rtol": (
        ValidationError, lambda: op_power(_STATE, 0.5, support_rtol="x")
    ),
    "nan op_power support_rtol": (
        ValidationError, lambda: op_power(np.eye(2) / 2, 0.5, support_rtol=np.nan)
    ),
    "None spectral degeneracy_tol": (
        ValidationError, lambda: spectral(_STATE, degeneracy_tol=None)
    ),
    "negative spectral degeneracy_tol": (
        ValidationError, lambda: spectral(np.eye(2), degeneracy_tol=-1.0)
    ),
    # error paths no other test reaches
    "refinement map with a negative entry": (NotARefinement, lambda: RefinementMap([[1.5, -0.5]])),
    "sequential of two dimensions": (
        DimensionMismatch, lambda: sequential(_QUBIT, projective_cg(np.eye(3)))
    ),
    "check_refinement of two dimensions": (
        DimensionMismatch,
        lambda: check_refinement(
            _QUBIT, projective_cg(np.eye(3)), RefinementMap([[1.0], [1.0]])
        ),
    ),
    "merge that repeats a label": (
        InvalidPartition, lambda: merge_outcomes(_QUBIT, [["0"], ["0", "1"]])
    ),
    "map that does not reproduce the coarser": (
        NotARefinement,
        lambda: refinement_divergence_bound(
            _QUBIT, _QUBIT, RefinementMap([[0, 1], [1, 0]]), _STATE, 2.0
        ),
    ),
    "density with a negative eigenvalue": (NotPSD, lambda: DensityOperator(np.diag([1.5, -0.5]))),
    "coarse-graining JSON without effects": (
        SchemaError, lambda: coarse_graining_from_json({"dim": 2})
    ),
    "effect JSON without a matrix": (
        SchemaError, lambda: coarse_graining_from_json({"effects": [{"label": "a"}]})
    ),
    "nan written as JSON": (SchemaError, lambda: dump_json({"x": np.nan}, os.devnull)),
    "negative sample time": (
        ValidationError,
        lambda: closed_run(
            DrivingProtocol(((np.eye(2), 1.0),)), _STATE, EnergyWindowing(0.5), (2.0,), [-1.0]
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_CALLS))
def test_malformed_input_raises_obsent_error(name):
    # the exact class, so that a call raising another ObsentError fails
    error, call = _MALFORMED_CALLS[name]
    with pytest.raises(ObsentError) as err:
        call()
    assert type(err.value) is error


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


_H2 = np.diag([0.0, 1.0]).astype(complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_WINDOWS = EnergyWindowing(0.5)
_LEVELS = LevelSystem([0.0, 1.0, 2.0], 1.0)
# a valid call of every public callable of the package (the result
# containers EigenSystem and ConditionalEnsemble, which check nothing,
# aside), of run_suite and of the generators, as callable -> arguments
_VALID_CALLS = {
    "CoarseGraining": (CoarseGraining, [("a", "b"), [np.diag([1, 0]), np.diag([0, 1])]]),
    "OutcomeDistribution": (OutcomeDistribution, [("a",), [1.0], [1.0]]),
    "RefinementMap": (RefinementMap, [[[1.0], [1.0]]]),
    "alpha_derivative": (alpha_derivative, [_FINE, _RHO, 2.0]),
    "alpha_oe": (alpha_oe, [_FINE, _RHO, 2.0]),
    "alpha_oe_divergence_form": (alpha_oe_divergence_form, [_FINE, _RHO, 2.0]),
    "alpha_oe_gap": (alpha_oe_gap, [_FINE, _RHO, 2.0]),
    "check_refinement": (check_refinement, [_FINE, _COARSE, _MERGE]),
    "identity_cg": (identity_cg, [3]),
    "measurement_channel": (measurement_channel, [_FINE, _RHO]),
    "merge_outcomes": (merge_outcomes, [_FINE, [["0", "1"], ["2", "3"]]]),
    "observational_entropy": (observational_entropy, [_FINE, _RHO]),
    "outcomes": (outcomes, [_FINE, _RHO]),
    "projective_cg": (projective_cg, [np.eye(3)]),
    "refinement_divergence_bound": (
        refinement_divergence_bound, [_FINE, _COARSE, _MERGE, _RHO, 2.0]
    ),
    "sequential": (sequential, [_FINE, _COARSE]),
    "tensor_cg": (tensor_cg, [[_QUBIT, _QUBIT]]),
    "classical_petz_renyi": (classical_petz_renyi, [[0.5, 0.5], [0.3, 0.7], 2.0]),
    "kl_divergence": (kl_divergence, [[0.5, 0.5], [0.3, 0.7]]),
    "petz_renyi": (petz_renyi, [_RHO, np.eye(4) / 4, 2.0]),
    "renyi_entropy": (renyi_entropy, [_RHO, 2.0]),
    "renyi_mutual_info": (renyi_mutual_info, [_RHO, (2, 2), 2.0]),
    "renyi_mutual_info_divergence_form": (
        renyi_mutual_info_divergence_form, [_RHO, (2, 2), 2.0]
    ),
    "umegaki": (umegaki, [_RHO, np.eye(4) / 4]),
    "von_neumann": (von_neumann, [_RHO]),
    "DensityOperator": (DensityOperator, [_RHO]),
    "HermitianOperator": (HermitianOperator, [_H2]),
    "op_power": (op_power, [_RHO, 0.5]),
    "partial_trace": (partial_trace, [_RHO, (2, 2), "A"]),
    "propagate": (propagate, [_STATE, _H2, 1.0]),
    "spectral": (spectral, [_H2]),
    "tensor": (tensor, [_H2, _H2]),
    "validate_operator": (validate_operator, [_RHO, "density"]),
    "coarse_grained_state": (coarse_grained_state, [_FINE, _RHO]),
    "conditional_ensemble": (conditional_ensemble, [_FINE, _RHO]),
    "decompose_alpha_oe": (decompose_alpha_oe, [_FINE, _RHO, 2.0]),
    "is_coarse_grained": (is_coarse_grained, [_FINE, _RHO, 2.0]),
    "post_measurement_state": (post_measurement_state, [_FINE, _RHO]),
    "renyi_post_measurement": (renyi_post_measurement, [_FINE, _RHO, 2.0]),
    "DrivingProtocol": (DrivingProtocol, [((_H2, 1.0),)]),
    "EnergyWindowing": (EnergyWindowing, [0.5]),
    "LevelSystem": (LevelSystem, [[0.0, 1.0], 1.0]),
    "closed_run": (closed_run, [
        DrivingProtocol(((_H2, 1.0), (_SX, 1.0))), _STATE, _WINDOWS, [2.0], [0.5, 1.5]
    ]),
    "effective_beta": (effective_beta, [_H2, _STATE]),
    "energy_cg": (energy_cg, [_H2, _WINDOWS]),
    "free_energy": (free_energy, [_LEVELS, 1.0]),
    "gibbs_state": (gibbs_state, [_H2, 1.0]),
    "jackson_check": (jackson_check, [_LEVELS, 1.0, 2.0]),
    "open_run": (open_run, [
        _H2, _H2, 0.1 * np.kron(_SX, _SX), _STATE, 1.0, _WINDOWS, [2.0], [0.5]
    ]),
    "run_suite": (run_suite, ["divergences", 0, 2, 3]),
}
_GENERATOR_RNG = np.random.default_rng(0)
# the seeded generators, verify's and the tests' one-instance ones, which
# share one stream here
_VALID_CALLS.update({
    name: (getattr(generators, name, None) or getattr(random_instances, name),
           [_GENERATOR_RNG, *args])
    for name, args in {
        "random_density": [3],
        "random_unitary": [3],
        "random_rank_partition": [3],
        "random_projective_cg": [3],
        "random_rank1_projective_cg": [3],
        "random_povm": [3, 4],
        "random_coarse_graining": [3],
        "random_merge": [_FINE],
        "random_coarse_grained_state": [_FINE],
    }.items()
})
# malformed values, each put in place of one argument at a time
_MALFORMED_VALUES = (
    None, math.nan, math.inf, -1, 0, 1e300, "a", [], [[1, 2]], np.zeros((2, 3)),
    _NAN, _NOT_HERMITIAN, 1j, {}, object(), np.eye(3),
)


def _holds_nan(value) -> bool:
    """Whether a result holds nan, in a float, an array, a tuple or list, or a
    dataclass field other than the caller's labels."""
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "fc" and bool(np.isnan(value).any())
    if isinstance(value, (tuple, list)):
        return any(map(_holds_nan, value))
    fields = getattr(value, "__dataclass_fields__", ())
    return any(_holds_nan(getattr(value, f)) for f in fields if f != "labels")


def _assert_a_value(value, *where) -> None:
    """A finite number, INFINITE, or a result without nan."""
    assert not _holds_nan(value), (*where, value)
    if isinstance(value, float):
        assert math.isfinite(value) or value == INFINITE, (*where, value)


@pytest.mark.parametrize("name", sorted(_VALID_CALLS))
def test_malformed_arguments_give_a_value_or_an_obsent_error(name):
    fn, args = _VALID_CALLS[name]
    fn(*args)  # the unchanged call is valid
    for k in range(len(args)):
        for bad in _MALFORMED_VALUES:
            try:
                value = fn(*args[:k], bad, *args[k + 1 :])
            except ObsentError:
                continue
            _assert_a_value(value, k, bad)


# public calls at the edges of the float range, as callable -> arguments
_FLOAT_RANGE_CALLS = {
    # eigenvalue powers beyond the float range
    "op_power 1e-10 ** -40": (op_power, [np.diag([1e-10, 1.0]), -40.0]),
    "op_power 2 ** 2000": (op_power, [np.diag([0.5, 2.0]), 2000.0]),
    # beta times the level spacing is beyond the float range: weight 0
    "gibbs_state beta 1e308": (gibbs_state, [np.diag([0.0, 1.0, 2.0]), 1e308]),
    "gibbs_state beta -1e308": (gibbs_state, [_H2, -1e308]),
    "open_run bath beta 1e308": (open_run, [
        _H2, np.diag([0.0, 2.0, 4.0]), 0.15 * np.kron(_SX, np.eye(3, k=1) + np.eye(3, k=-1)),
        _STATE, 1e308, _WINDOWS, [2.0], [0.5],
    ]),
    # the squared deviation of a level 1e300 up is beyond the float range
    "effective_beta span 1e300": (effective_beta, [np.diag([0.0, 1e300]), np.diag([0.7, 0.3])]),
    "run_to_csv None": (run_to_csv, [None]),
    "alpha_oe 5e-324": (alpha_oe, [_FINE, _RHO, 5e-324]),
    "alpha_oe 1e308": (alpha_oe, [_FINE, _RHO, 1e308]),
    "renyi_entropy 5e-324": (renyi_entropy, [_RHO, 5e-324]),
    "renyi_entropy 1e308": (renyi_entropy, [_RHO, 1e308]),
    "petz_renyi 5e-324": (petz_renyi, [_RHO, np.eye(4) / 4, 5e-324]),
    "petz_renyi 1e308": (petz_renyi, [_RHO, np.eye(4) / 4, 1e308]),
    "jackson_check 1e308": (jackson_check, [_LEVELS, 1.0, 1e308]),
    "free_energy T 5e-324": (free_energy, [_LEVELS, 5e-324]),
    "propagate t 1e308": (propagate, [_STATE, _H2, 1e308]),
}


@pytest.mark.parametrize("name", sorted(_FLOAT_RANGE_CALLS))
def test_float_range_edges_give_a_value_or_an_obsent_error(name):
    fn, args = _FLOAT_RANGE_CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under -W error
        try:
            value = fn(*args)
        except ObsentError:
            return
    _assert_a_value(value)
