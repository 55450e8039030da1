import random

import pytest

from rankcodes import FieldTower, LinearizedPoly as LibraryLinearizedPoly, rank_of_vector

from gfq_reference import LinearizedPoly, min_subspace_poly


def test_identity_and_zero(gf16):
    ident = LinearizedPoly.identity(gf16)
    for x in range(16):
        assert ident.evaluate(x) == x
    f = LinearizedPoly(gf16, (3, 0, 7))
    assert f.evaluate(0) == 0
    assert f.q_degree == 2
    assert LinearizedPoly(gf16, (0, 0)).is_zero


def test_frobenius_monomial(gf16):
    f = LinearizedPoly(gf16, (0, 1))  # x^[1]
    assert f.evaluate(2) == gf16.mul(2, 2)


def test_evaluation_is_gfq_linear(gf16, gf27):
    rng = random.Random(31)
    for tower in (gf16, gf27):
        for _ in range(100):
            f = LinearizedPoly(tower, [tower.random_element(rng) for _ in range(4)])
            x, y = tower.random_element(rng), tower.random_element(rng)
            assert f.evaluate(tower.add(x, y)) == tower.add(f.evaluate(x), f.evaluate(y))
            for lam in range(tower.q):
                assert f.evaluate(tower.mul(lam, x)) == tower.mul(lam, f.evaluate(x))


def test_root_space_identity_and_fixed_field(gf16):
    assert LinearizedPoly.identity(gf16).root_space_basis() == []
    # x^[1] - x vanishes exactly on the base field
    f = LinearizedPoly(gf16, (1, 1))  # over q=2, -1 == 1
    roots = f.root_space_basis()
    assert roots == [1]
    with pytest.raises(ValueError):
        LinearizedPoly.zero(gf16).root_space_basis()


def test_root_space_dimension_bounded(gf16):
    rng = random.Random(19)
    for _ in range(100):
        coeffs = [gf16.random_element(rng) for _ in range(4)]
        f = LinearizedPoly(gf16, coeffs)
        if f.is_zero:
            continue
        assert len(f.root_space_basis()) <= f.q_degree


def test_min_subspace_poly_kernel_is_the_span(gf4096):
    rng = random.Random(23)
    for _ in range(50):
        dim = rng.randrange(1, 4)
        values = []
        while len(values) < dim:
            cand = gf4096.random_element(rng)
            if cand and rank_of_vector(gf4096, tuple(values) + (cand,)) == len(values) + 1:
                values.append(cand)
        sigma = min_subspace_poly(gf4096, values)
        assert sigma.q_degree == dim
        assert sigma.coeffs[-1] == 1
        assert all(sigma.evaluate(v) == 0 for v in values)
        kernel = sigma.root_space_basis()
        assert len(kernel) == dim
        # kernel basis spans the same space as the inputs
        assert rank_of_vector(gf4096, tuple(values) + tuple(kernel)) == dim


def test_min_subspace_poly_skips_dependent_values(gf16):
    sigma = min_subspace_poly(gf16, [2, 2, gf16.add(2, 2)])
    assert sigma.q_degree == 1
    assert sigma.evaluate(2) == 0


def test_coefficients_outside_the_field_rejected(gf4096):
    # each of these answered wrong or raised an untyped error before the
    # check: [-1, 1] gave the root space [4095], [True, 1] gave [1],
    # [4096, 1] raised IndexError, GF(2^20) [2^20, 1] gave [] and 2.0 a
    # TypeError
    gf2_20 = FieldTower(2, 20)
    cases = [(gf4096, [-1, 1]), (gf4096, [True, 1]), (gf4096, [4096, 1]),
             (gf2_20, [2**20, 1]), (gf4096, [2.0, 1]), (gf2_20, [1, 2.0]),
             (FieldTower(3, 5), [1, 3**5])]
    for tower, coeffs in cases:
        for cls in (LibraryLinearizedPoly, LinearizedPoly):
            with pytest.raises(ValueError, match="coefficient .* is not an element"):
                cls(tower, coeffs)
