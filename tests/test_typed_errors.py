"""Every public size, rank and count parameter takes an int and nothing
else: a bool, a float or a string raises ValueError, never TypeError, and
is never read as the int it resembles (True as 1, 2.0 as 2)."""

import random

import pytest
from conftest import bounded

from rankcodes import (DirectSumCode, FieldTower, GabidulinCode, LinearizedPoly,
                       SubfieldEmbedding, count_rank_matrices, decode_experiment,
                       default_generator, dual_vector, moore_matrix, random_error,
                       random_rows, rank_event_rate, rank_leq_probability,
                       success_probability)


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


PARAMETERS = ["FieldTower q", "FieldTower n", "GabidulinCode k", "dual_vector k",
              "moore_matrix rows", "SubfieldEmbedding s", "count_rank_matrices m",
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


@pytest.mark.parametrize("vector", ["g", "h"])
def test_code_vectors_must_have_a_length(gf16, vector):
    for bad in (5, iter([1, 2, 4, 8])):
        with pytest.raises(ValueError, match="have a length"):
            GabidulinCode(gf16, 2, **{vector: bad})
    # any sized vector still builds the code
    code = GabidulinCode(gf16, 1, **{vector: range(1, 3)})
    assert getattr(code, vector) == (1, 2)
