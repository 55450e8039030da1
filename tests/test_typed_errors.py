"""Every public size, rank and count parameter takes an int and nothing
else: a bool, a float or a string raises ValueError, never TypeError, and
is never read as the int it resembles (True as 1, 2.0 as 2)."""

import random

import pytest
from conftest import bounded

from rankcodes import (CoordinateSolver, DirectSumCode, FieldTower, GabidulinCode,
                       LinearizedPoly, SubfieldEmbedding, SubspaceBasis, count_rank_matrices,
                       decode_experiment, default_generator, direct_sum_violations,
                       dual_vector, ext_nullspace, ext_solve, find_irreducible, moore_matrix,
                       random_error, random_rows, rank_event_rate, rank_leq_probability,
                       rank_of_vector, success_probability)


@pytest.fixture(scope="module")
def sized(gf16, gf64):
    """One call per parameter, each taking the value under test there and
    valid values everywhere else."""
    g = default_generator(gf16)
    code64 = GabidulinCode(gf64, 4, g=default_generator(gf64))  # [6, 4, 3]
    pair = DirectSumCode(code64, [(1, 2, 4), (8, 16, 32)])
    rng = random.Random(0)
    return {
        "FieldTower q": lambda v: FieldTower(v, 3),
        "FieldTower n": lambda v: FieldTower(2, v),
        "find_irreducible n": lambda v: find_irreducible(2, v),
        "GabidulinCode k": lambda v: GabidulinCode(gf16, v, g=g),
        "dual_vector k": lambda v: dual_vector(gf16, g, v),
        "moore_matrix rows": lambda v: moore_matrix(gf16, [1, 2], v),
        "SubfieldEmbedding s": lambda v: SubfieldEmbedding(gf16, v),
        "count_rank_matrices m": lambda v: count_rank_matrices(2, v, 2, 1),
        "count_rank_matrices t": lambda v: count_rank_matrices(2, 2, v, 1),
        "count_rank_matrices r": lambda v: count_rank_matrices(2, 2, 2, v),
        "rank_leq_probability m": lambda v: rank_leq_probability(2, v, 3, 1),
        "rank_leq_probability t": lambda v: rank_leq_probability(2, 3, v, 1),
        "rank_leq_probability cap": lambda v: rank_leq_probability(2, 3, 2, v),
        "success_probability t": lambda v: success_probability(2, [2, 2], 1, v),
        "success_probability capability": lambda v: success_probability(2, [2, 2], v, 2),
        "random_rows rows": lambda v: random_rows(3, v, 3, rng),
        "random_rows width": lambda v: random_rows(3, 3, v, rng),
        "random_error length": lambda v: random_error(gf16, v, 1, rng),
        "random_error t": lambda v: random_error(gf16, 4, v, rng),
        "rank_event_rate t": lambda v: rank_event_rate(2, [2, 2], 1, v, 10, 0),
        "rank_event_rate trials": lambda v: rank_event_rate(2, [2, 2], 1, 2, v, 0),
        "decode_experiment trials": lambda v: decode_experiment(pair, 1, v, 0),
    }


PARAMETERS = ["FieldTower q", "FieldTower n", "find_irreducible n", "GabidulinCode k",
              "dual_vector k", "moore_matrix rows", "SubfieldEmbedding s", "count_rank_matrices m",
              "count_rank_matrices t", "count_rank_matrices r", "rank_leq_probability m",
              "rank_leq_probability t", "rank_leq_probability cap", "success_probability t",
              "success_probability capability", "random_rows rows", "random_rows width",
              "random_error length", "random_error t", "rank_event_rate t",
              "rank_event_rate trials", "decode_experiment trials"]


def test_sweep_lists_every_parameter(sized):
    assert sorted(sized) == sorted(PARAMETERS)


@pytest.mark.parametrize("value", [True, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("parameter", PARAMETERS)
def test_size_parameters_take_only_ints(sized, parameter, value):
    with bounded(10), pytest.raises(ValueError):
        sized[parameter](value)


def test_out_of_range_ranks_still_count_zero():
    assert count_rank_matrices(2, 2, 2, -1) == count_rank_matrices(2, 2, 2, 3) == 0
    assert rank_leq_probability(2, 3, 2, -1) == 0
    assert rank_leq_probability(2, 3, 2, 5) == 1


@pytest.mark.parametrize("x", [16, 99, -1, True, 2.0])
def test_evaluate_rejects_non_elements(gf16, x):
    with pytest.raises(ValueError, match="not an element"):
        LinearizedPoly(gf16, [1, 2]).evaluate(x)


@pytest.mark.parametrize("n", [0, -1])
def test_find_irreducible_rejects_a_degree_below_one(n):
    # no scan first: degree 0 once ran through q^0 candidates to a RuntimeError
    with bounded(1), pytest.raises(ValueError, match="degree"):
        find_irreducible(2, n)


@pytest.mark.parametrize("x", [-1, 16])
def test_moore_matrix_rejects_non_elements(gf16, x):
    # -1 once gave the row [-1] and its square read from the end of the log
    # table; 16 indexed past the table
    with pytest.raises(ValueError, match=f"element {x} is not an element"):
        moore_matrix(gf16, [x], 2)


@pytest.mark.parametrize("solve", [False, True])
def test_ragged_matrix_rows_rejected(gf16, solve):
    for matrix in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="rows differ in length"):
            if solve:
                ext_solve(gf16, matrix, [1, 1])
            else:
                ext_nullspace(gf16, matrix)


@pytest.mark.parametrize("vector", ["g", "h"])
def test_code_vectors_must_have_a_length(gf16, vector):
    for bad in (5, iter([1, 2, 4, 8])):
        with pytest.raises(ValueError, match="have a length"):
            GabidulinCode(gf16, 2, **{vector: bad})
    # any sized vector still builds the code
    code = GabidulinCode(gf16, 1, **{vector: range(1, 3)})
    assert getattr(code, vector) == (1, 2)


# a vector that is no iterable, and the name each check gives it
NON_ITERABLES = {
    "CoordinateSolver": (lambda t: CoordinateSolver(t, 5), "basis element list"),
    "rank_of_vector": (lambda t: rank_of_vector(t, 5), "element list"),
    "moore_matrix": (lambda t: moore_matrix(t, 5, 2), "element list"),
    "dual_vector": (lambda t: dual_vector(t, 5, 1), "element list"),
    "LinearizedPoly": (lambda t: LinearizedPoly(t, 5), "coefficient list"),
    "ext_nullspace": (lambda t: ext_nullspace(t, 5), "matrix"),
    "ext_nullspace row": (lambda t: ext_nullspace(t, [5]), "matrix entry list"),
    "ext_solve row": (lambda t: ext_solve(t, [5], [1]), "matrix entry list"),
    "ext_solve rhs": (lambda t: ext_solve(t, [[1, 2]], 5), "right-hand side list"),
    "DirectSumCode": (lambda t: DirectSumCode(GabidulinCode(t, 2, g=default_generator(t)), 5),
                      "part list"),
    "rank_event_rate": (lambda t: rank_event_rate(2, 5, 1, 1, 10, seed=1),
                        "part dimension list"),
    "success_probability": (lambda t: success_probability(2, 5, 1, 1), "part dimension list"),
}


@pytest.mark.parametrize("entry", sorted(NON_ITERABLES))
def test_non_iterable_vectors_raise_value_error_naming_them(gf16, entry):
    call, what = NON_ITERABLES[entry]
    with pytest.raises(ValueError, match=f"^{what} 5 is not iterable$"):
        call(gf16)


def test_ext_solve_takes_an_iterator_row_as_ext_nullspace_does(gf16):
    assert ext_solve(gf16, [iter([1, 2])], [1]) == ext_solve(gf16, [[1, 2]], [1])
    assert ext_solve(gf16, [iter([1, 2]), (3, 4)], iter([5, 6])) == ext_solve(
        gf16, [[1, 2], [3, 4]], [5, 6])
    assert ext_nullspace(gf16, [iter([1, 2])]) == ext_nullspace(gf16, [[1, 2]])


def test_direct_sum_violations_takes_only_subspace_bases(gf16):
    # a plain list has no tower to take ranks in
    for parts in ([[1], [2]], [SubspaceBasis(gf16, [1]), [2]]):
        with pytest.raises(ValueError, match="SubspaceBasis"):
            direct_sum_violations(parts)
    assert direct_sum_violations([SubspaceBasis(gf16, [1]), SubspaceBasis(gf16, [2])]) == []
