"""Property-based tests over random shapes for q in {2, 3, 5, 7}, up to
q = 13 for the log tables under random moduli and the subfields, up to
q = 17 for the Monte Carlo passes, up to q = 257 for the Gabidulin codec, up to q = 65521 for table-less products
and inverses, and up to q = 2^32 + 15 for the GF(q) elimination and the
linear maps, whose lanes then pass 64 bits."""

import itertools
import math
import random
from fractions import Fraction
from functools import cache, reduce

import pytest
from conftest import bounded
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rankcodes import (CoordinateSolver, DecodingFailure, DirectSumCode,
                       FieldTower, GabidulinCode, LinearizedPoly, SubfieldEmbedding,
                       SubspaceSubcode, compute_factorization, default_generator, dual_vector,
                       is_irreducible, random_error, random_rows, rank_of_vector, rank_q, rank_rows,
                       sample_channel_error, success_probability, verify_uniqueness)
from rankcodes.field import (LinearMap, _draw_lanes, _lane_digits, _rank_reaches, _reduce_lanes,
                             _to_lanes, int_digits)
from rankcodes import directsum, gabidulin, qlinalg
from rankcodes.qlinalg import ext_nullspace, ext_solve, kernel_rows

import gfq_reference as ref
from gfq_reference import min_subspace_poly

# the smallest prime above 2^32: q (q - 1) no longer fits a 64-bit lane
BEYOND_64 = 4294967311

# chunk boundaries: 8 bits per table for q = 2, 5 digits for q = 3 and
# 3 digits for q = 5, so each list ends on a boundary and one past it
SOLVER_SHAPES = [(2, 8), (2, 9), (2, 16), (2, 17), (3, 5), (3, 6), (3, 9), (5, 4)]


@cache
def _tower(q, n):
    return FieldTower(q, n)


@st.composite
def solver_cases(draw, shapes=SOLVER_SHAPES):
    q, n = draw(st.sampled_from(shapes))
    tower = _tower(q, n)
    element = st.integers(0, tower.order - 1)
    elements = ()
    for cand in draw(st.lists(element, max_size=n + 2)):
        if rank_of_vector(tower, elements + (cand,)) == len(elements) + 1:
            elements += (cand,)
    coeffs = draw(st.lists(st.integers(0, q - 1), min_size=len(elements),
                           max_size=len(elements)))
    # targets inside the span, which random draws would almost never hit,
    # and the all-(q-1) digit element, which fills every lane the most
    inside = tower.contract(coeffs, elements)
    x = draw(st.one_of(st.just(inside), st.just(tower.order - 1), element))
    return tower, elements, x


@settings(max_examples=300, deadline=None)
@given(solver_cases())
def test_coordinate_solver_matches_span_membership(case):
    tower, elements, x = case
    u = CoordinateSolver(tower, elements).solve(x)
    if rank_of_vector(tower, elements + (x,)) == len(elements):
        assert u is not None and len(u) == len(elements)
        assert all(0 <= c < tower.q for c in u)
        assert tower.contract(u, elements) == x
    else:
        assert u is None


# one shape per lane format of the odd-q kernel: 4-bit lanes (q = 3), 8-bit
# lanes (5 <= q <= 13) and lane-by-lane reduction (q >= 17)
LANE_SHAPES = [(2, 9), (3, 4), (3, 7), (5, 3), (7, 3), (13, 2), (17, 2), (31, 2)]


@settings(max_examples=300, deadline=None)
@given(solver_cases(LANE_SHAPES))
def test_coordinate_solver_matches_reference_solve(case):
    tower, elements, x = case
    q, n = tower.q, tower.n
    columns = [ref.digits(b, q, n) for b in elements]
    matrix = [[col[i] for col in columns] for i in range(n)]
    want = ref.solve(matrix, ref.digits(x, q, n), q)
    assert CoordinateSolver(tower, elements).solve(x) == want


# table-backed and table-less (2^17) towers for each q
COMBINE_SHAPES = [(2, 4), (2, 12), (2, 17), (3, 3), (3, 9), (5, 2), (5, 3)]


def _fold(tower, pairs):
    acc = 0
    for a, b in pairs:
        acc = tower.add(acc, tower.mul(a, b))
    return acc


@st.composite
def combine_cases(draw):
    q, n = draw(st.sampled_from(COMBINE_SHAPES))
    tower = _tower(q, n)
    length = draw(st.integers(0, n + 3))
    element = st.integers(0, tower.order - 1)
    # sparse draws so zero coefficients and zero elements both occur
    sparse = st.one_of(st.just(0), element)
    xs = draw(st.lists(sparse, min_size=length, max_size=length))
    ys = draw(st.lists(sparse, min_size=length, max_size=length))
    # coefficients outside [0, q) are read modulo q
    coeffs = draw(st.lists(st.integers(-q, 2 * q), min_size=length,
                           max_size=length))
    return tower, coeffs, xs, ys


@settings(max_examples=300, deadline=None)
@given(combine_cases())
def test_contract_and_dot_equal_explicit_fold(case):
    tower, coeffs, xs, ys = case
    want_contract = _fold(tower, ((c % tower.q, x) for c, x in zip(coeffs, xs)))
    want_dot = _fold(tower, zip(xs, ys))

    before = tower.mul_count
    assert tower.contract(coeffs, xs) == want_contract
    if tower.q == 2:
        assert tower.mul_count == before
    before = tower.mul_count
    assert ref.dot(tower, xs, ys) == want_dot
    assert tower.mul_count - before == sum(1 for x, y in zip(xs, ys) if x and y)


@st.composite
def packed_row_cases(draw):
    # lanes of 8 bits (q <= 13), 16 (17, 31), 32 (257, 65521) and 128
    q = draw(st.sampled_from([2, 3, 5, 7, 13, 17, 31, 257, 65521, BEYOND_64]))
    width = draw(st.integers(0, 20))
    row = st.one_of(st.just(0), st.integers(0, q**width - 1))
    rows = draw(st.lists(row, max_size=8))
    if rows:  # repeated rows, which add nothing to the rank
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return q, width, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(packed_row_cases())
def test_rank_rows_matches_rank_q(case):
    q, width, rows = case
    matrix = [ref.digits(v, q, width) for v in rows]
    want = ref.rank(matrix, q)
    assert rank_rows(rows, q) == want
    assert rank_q(matrix, q) == want


@settings(max_examples=300, deadline=None)
@given(packed_row_cases())
def test_kernel_rows_matches_reference_nullspace(case):
    q, width, rows = case
    # column j of the matrix is the digits of rows[j]; width 0 is the zero map
    matrix = [list(col) for col in zip(*(ref.digits(v, q, width) for v in rows))]
    want = ref.nullspace(matrix or [[0] * len(rows)], q)
    assert kernel_rows(rows, q) == [ref.pack(v, q) for v in want]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 6), st.integers(0, 8),
       st.randoms(use_true_random=False))
def test_random_rows_full_rank(q, rows, width, rng):
    out = random_rows(q, rows, width, rng, full_rank=True)
    assert len(out) == rows and all(0 <= v < q**width for v in out)
    assert ref.rank([ref.digits(v, q, width) for v in out], q) == min(rows, width)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7, 13, 17, 31, 257, 65521, BEYOND_64]), st.integers(0, 6),
       st.integers(0, 12), st.booleans(), st.integers(0, 2**32))
def test_random_rows_draws_as_randrange(q, rows, width, full_rank, seed):
    # the same rows as the randrange sampler, and the generator left in the same state
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert random_rows(q, rows, width, rng, full_rank) == ref.random_rows(
        q, rows, width, ref_rng, full_rank)
    assert rng.random() == ref_rng.random()


# table-less towers, where inv is extended Euclid and frobenius reads the
# lazily built linear-map tables, plus two table-backed ones for mul_count
TABLELESS_SHAPES = [(2, 17), (2, 20), (2, 33), (2, 64), (3, 11), (5, 7)]
COUNT_SHAPES = TABLELESS_SHAPES + [(2, 12), (3, 9)]
# table-less towers whose GF(q)[x] lanes are 16, 32 and 64 bits; out of the
# Frobenius reference, which multiplies q times per power
WIDE_LANE_SHAPES = [(17, 4), (257, 2), (65521, 2)]


@st.composite
def frobenius_cases(draw, shapes=TABLELESS_SHAPES):
    q, n = draw(st.sampled_from(shapes))
    tower = _tower(q, n)
    x = draw(st.one_of(st.integers(0, q), st.integers(0, tower.order - 1)))
    return tower, x, draw(st.integers(-2 * n, 2 * n))


def _raw_power(tower, x, i):
    """x^(q^i) by i-fold q-th powering with reference products."""
    for _ in range(i % tower.n):
        y = 1
        for _ in range(tower.q):
            y = ref.field_mul(y, x, tower.q, tower.modulus)
        x = y
    return x


@settings(max_examples=200, deadline=None)
@given(frobenius_cases(TABLELESS_SHAPES + WIDE_LANE_SHAPES))
def test_tableless_inverse(case):
    tower, x, _ = case
    a = x or 1
    inv = tower.inv(a)
    assert 0 <= inv < tower.order
    assert ref.field_mul(a, inv, tower.q, tower.modulus) == 1


@settings(max_examples=200, deadline=None)
@given(frobenius_cases())
def test_tableless_frobenius_matches_repeated_powering(case):
    tower, x, i = case
    y = tower.frobenius(x, i)
    assert y == _raw_power(tower, x, i)
    assert tower.frobenius(y, -i) == x


@settings(max_examples=200, deadline=None)
@given(frobenius_cases(COUNT_SHAPES))
def test_inv_and_frobenius_count_one_each(case):
    tower, x, i = case
    before = tower.mul_count
    if x:
        tower.inv(x)
        assert tower.mul_count == before + 1
    before = tower.mul_count
    tower.frobenius(x, i)
    trivial = i % tower.n == 0 or x in (0, 1)
    assert tower.mul_count == before + (0 if trivial else 1)


# a dense modulus of degree 33: 31 nonzero coefficients, where the default
# has 3, so every byte table of the comb's reduction is dense
DENSE_MODULUS = (1,) * 5 + (0,) * 3 + (1,) * 26


@cache
def _dense_tower():
    return FieldTower(2, 33, modulus=DENSE_MODULUS)


@st.composite
def axpy_cases(draw):
    """A table-less tower (or a table-backed one for q in {2, 3, 5}), a
    multiplier and two rows, sparse so zero entries and c = 0 occur."""
    shape = draw(st.sampled_from(COUNT_SHAPES + WIDE_LANE_SHAPES + [(5, 3), "dense"]))
    tower = _dense_tower() if shape == "dense" else _tower(*shape)
    element = st.integers(0, tower.order - 1)
    sparse = st.one_of(st.just(0), st.just(1), st.just(tower.order - 1), element)
    length = draw(st.integers(0, 6))
    xs = draw(st.lists(sparse, min_size=length, max_size=length))
    ys = draw(st.lists(sparse, min_size=length, max_size=length))
    return tower, draw(sparse), xs, ys


@settings(max_examples=300, deadline=None)
@given(axpy_cases())
def test_mul_and_axpy_match_reference(case):
    tower, c, xs, ys = case
    q, n, modulus = tower.q, tower.n, tower.modulus
    products = [ref.field_mul(c, x, q, modulus) for x in xs]
    assert [tower.mul(c, x) for x in xs] == products
    before = tower.mul_count
    assert tower.axpy(ys, c, xs) == [ref.field_add(y, p, q, n) for y, p in zip(ys, products)]
    assert tower.mul_count - before == len(xs)
    event(f"q = {q}, {'table-less' if tower._exp is None else 'table-backed'}")


# table-less towers of even n whose half field GF(q^(n/2)) has tables
HALF_FIELD_SHAPES = [(2, 18), (2, 20), (2, 22), (3, 12), (5, 8), (7, 6)]


@st.composite
def ext_systems(draw):
    """A consistent system over a half-field tower: random (so of full rank
    but for its zeros and ones), singular (a
    row a combination of two others) or inconsistent (that row's right-hand
    side moved off it).  Entries include 0, 1 and elements with a zero half:
    the subfield GF(q^(n/2)), as norms y^(1 + q^(n/2)), and its alpha multiples."""
    tower = _tower(*draw(st.sampled_from(HALF_FIELD_SHAPES)))
    s, element = tower.n // 2, st.integers(0, tower.order - 1)
    norm = element.map(lambda y: tower.mul(y, tower.frobenius(y, s)))
    entry = st.one_of(st.just(0), st.just(1), element, norm,
                      norm.map(lambda h: tower.mul(h, tower.q)))
    kind = draw(st.sampled_from(["random", "singular", "inconsistent"]))
    nrows, ncols = draw(st.integers(1 if kind == "random" else 3, 5)), draw(st.integers(1, 6))
    matrix = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    x = draw(st.lists(element, min_size=ncols, max_size=ncols))
    rhs = [ref.dot(tower, row, x) for row in matrix]
    if kind != "random":  # row 0 = c row 1 + row 2, right-hand side alike
        c = draw(element)
        matrix[0] = tower.axpy(matrix[2], c, matrix[1])
        rhs[0] = tower.add(rhs[2], tower.mul(c, rhs[1]))
    if kind == "inconsistent":
        rhs[0] = tower.add(rhs[0], draw(st.integers(1, tower.order - 1)))
    return tower, matrix, rhs, kind


@settings(max_examples=300, deadline=None)
@given(ext_systems())
def test_half_field_elimination_matches_reference_loop(case):
    """`_rref_ext` in the half field gives the reference loop's pivots,
    rows and count, and so do ext_nullspace and ext_solve built on it."""
    tower, matrix, rhs, kind = case
    results = []
    for kernel in (qlinalg._rref_ext, ref.rref_ext):
        before, rows = tower.mul_count, [list(row) for row in matrix]
        pivots = kernel(tower, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qlinalg, "_rref_ext", kernel)
            solved = ext_nullspace(tower, matrix), ext_solve(tower, matrix, rhs)
        results.append((pivots, rows, solved, tower.mul_count - before))
    assert tower._half and results[0] == results[1]
    solution = results[0][2][1]
    assert (solution is None) == (kind == "inconsistent")
    if solution is not None:
        assert [ref.dot(tower, row, solution[0]) for row in matrix] == rhs
    event(f"{kind}, GF({tower.q}^{tower.n})")


# table-backed q in {2, 3, 5}, table-less (with the wide lanes of 17 and
# 257), and n = 1, table-backed and, at q = 65537, table-less; (13, 21),
# whose word-map lanes reach 21 * 12 = 252 and so leave a byte once a
# reduced sum is added, and (251, 2), the widest table-backed lanes
IMAGE_SHAPES = [(2, 8), (2, 12), (3, 5), (3, 9), (5, 3), (5, 6), (2, 20), (2, 33),
                (3, 11), (5, 7), (17, 4), (257, 2), (2, 1), (3, 1), (5, 1), (65537, 1),
                (13, 21), (251, 2)]


@st.composite
def linearized_image_cases(draw):
    """A tower and up to 2n + 2 coefficients, sparse, so p >= n and c_p = 0
    occur."""
    tower = _tower(*draw(st.sampled_from(IMAGE_SHAPES)))
    element = st.integers(0, tower.order - 1)
    sparse = st.one_of(st.just(0), st.just(1), st.just(tower.order - 1), element)
    return tower, draw(st.lists(sparse, max_size=2 * tower.n + 2))


@settings(max_examples=300, deadline=None)
@given(linearized_image_cases())
def test_linearized_images_match_mul_and_frobenius(case):
    tower, coeffs = case
    before = tower.mul_count
    images = tower.linearized_images(coeffs)
    counted = tower.mul_count - before
    expected, muls = [0] * tower.n, 0
    for p, c in enumerate(coeffs):
        if c:
            for i, b in enumerate(tower.basis):
                expected[i] = tower.add(expected[i], tower.mul(c, tower.frobenius(b, p)))
            muls += tower.n
    assert images == expected
    assert counted == muls
    event(f"q = {tower.q}, {'table-less' if tower._exp is None else 'table-backed'}")


# root spaces on table-backed and table-less (2^17, 2^20, 3^11, 5^7) towers,
# and on the wide lanes of 17^4 and 257^2
ROOT_SPACE_SHAPES = [(2, 6), (2, 12), (2, 17), (2, 20), (3, 5), (3, 11), (5, 3),
                     (5, 7), (17, 4), (257, 2)]


# root spaces eliminated on the lanes of their images: byte lanes on the
# table-backed 3^9, 5^6, 7^4 and 13^3 and the table-less 3^11, wide lanes on
# the table-less 17^4 and 257^2
LANE_ROOT_SHAPES = [(3, 9), (3, 11), (5, 6), (7, 4), (13, 3), (17, 4), (257, 2)]


@st.composite
def span_polys(draw):
    """The minimal subspace polynomial of 1 to 4 nonzero values, whose
    kernel is their span: nontrivial, so row steps run, where a random
    polynomial's kernel is mostly trivial."""
    tower = _tower(*draw(st.sampled_from(LANE_ROOT_SHAPES)))
    values = draw(st.lists(st.integers(1, tower.order - 1), min_size=1, max_size=4))
    return min_subspace_poly(tower, values), values


@settings(max_examples=80, deadline=None)
@given(span_polys())
def test_lane_root_space_equals_kernel_rows_of_the_images(case):
    f, values = case
    tower = f.tower
    with bounded(10):
        kernel = f.root_space_basis()
        assert kernel == kernel_rows(tower.linearized_images(f.coeffs), tower.q)
        assert kernel == _root_space_reference(f)
        assert len(kernel) == rank_of_vector(tower, values)
    event(f"GF({tower.q}^{tower.n}), kernel dimension {len(kernel)}")


def test_power_map_lanes_hold_a_row_step():
    """A root space is eliminated on the lanes of its power maps, the word
    maps c -> [c beta^i]_i, each lane reduced mod q.  A row step v + (q - c) p
    of reduced v and p reaches (q - 1) + (q - 1)^2 = q (q - 1) in a lane,
    and for n >= 2 the power map's lanes already hold that.  Odd-q lanes are
    at least bytes, and for q <= 16 a byte holds 255 >= 16 * 15 >= q (q - 1).
    Past q = 16 the power map, a map to a word of n symbols, has no tables
    (tables need q^k <= 16), so its lanes hold n unreduced digit products
    plus q - 1, n (q - 1)^2 + q - 1 >= q (q - 1).  At n = 1 a byte lane can
    fall short (GF(17): 2 * 16 < 256 < 17 * 16), but there is one row, and a
    single row takes no row step."""
    for q, n in LANE_ROOT_SHAPES + [(3, 2), (13, 2), (17, 2), (3, 1), (17, 1), (127, 1)]:
        tower = _tower(q, n)
        lane = tower._image_lanes([0, 1])[1].lane
        if n > 1:
            assert (1 << lane) - 1 >= q * (q - 1), (q, n, lane)
        else:  # x^[1] - x vanishes on all of GF(q)
            assert LinearizedPoly(tower, [q - 1, 1]).root_space_basis() == [1]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.lists(st.integers(0, 3**8), max_size=8),
       st.booleans(), st.booleans())
def test_inline_byte_reduction_equals_mod_lanes(q, rows, identity, spread):
    """`_reduce_lanes` takes each row step mod q inline on byte lanes and by
    `_mod_lanes` on wider ones: the same rows on 8- and 16-bit lanes leave
    the same pivots and rows, digit for digit, spread in the loop or given
    on their lanes."""
    rows = [v % q**6 for v in rows]
    count = 6 + len(rows) * identity

    def reduced(bits):
        given = rows if spread else _to_lanes(rows, q, bits, 6)
        with bounded(5):
            pivots, left = _reduce_lanes(given, q, bits, identity, spread)
        return ({top: list(_lane_digits(v, q, bits, count)) for top, v in pivots.items()},
                [list(_lane_digits(v, q, bits, count)) for v in left])

    assert reduced(8) == reduced(16)


@st.composite
def linpoly_cases(draw):
    q, n = draw(st.sampled_from(ROOT_SPACE_SHAPES))
    tower = _tower(q, n)
    element = st.integers(0, tower.order - 1)
    kind = draw(st.sampled_from(["monic", "span", "subfield"]))
    if kind == "subfield":
        # x^[s] - x vanishes on GF(q^s) for s | n, and on the whole field
        # for s = n and 2n, whose q-degree reaches n and beyond
        s = draw(st.sampled_from([s for s in range(1, n + 1) if n % s == 0] + [2 * n]))
        return LinearizedPoly(tower, [tower.neg(1)] + [0] * (s - 1) + [1])
    if kind == "monic":
        # a random monic polynomial of q-degree at most 4
        return LinearizedPoly(tower, draw(st.lists(element, max_size=4)) + [1])
    # the span of a few values, repeats and dependent values included
    values = draw(st.lists(element, max_size=4))
    if values:
        values.append(draw(st.sampled_from(values)))
        values.append(tower.add(values[0], values[-1]))
    return min_subspace_poly(tower, values)


def _root_space_reference(f):
    """Kernel of f by expanding its basis images into digits, transposing
    and taking the reference nullspace, packed back into field elements."""
    tower = f.tower
    images = [tower.digits(f.evaluate(b)) for b in tower.basis]
    matrix = [[img[i] for img in images] for i in range(tower.n)]
    return [tower.from_digits(v) for v in ref.nullspace(matrix, tower.q)]


@settings(max_examples=500, deadline=None)
@given(linpoly_cases())
def test_root_space_matches_digit_nullspace(f):
    tower = f.tower
    kernel = f.root_space_basis()
    assert kernel == _root_space_reference(f)
    s = f.q_degree
    if f.coeffs == (tower.neg(1),) + (0,) * (s - 1) + (1,):
        assert len(kernel) == math.gcd(s, tower.n)  # x^[s] - x: roots GF(q^gcd(s, n))
    assert all(f.evaluate(x) == 0 for x in kernel)
    images = [f.evaluate(b) for b in tower.basis]
    assert len(kernel) == tower.n - rank_rows(images, tower.q)


# (q, n, length, k) for table-backed and table-less towers, q in {2, 3, 5,
# 17, 31, 257}, with length < n and length = n; "dense" is GF(2^33) under
# DENSE_MODULUS.  Word-wide maps read 4 bits per table for q = 2, 2 digits
# for q = 3 and 1 for q = 5, so for most shapes a message or a word ends
# inside a chunk.  q = 17, 31 and 257 keep no tables, past the 16 entries
# a word map's table may hold: each digit multiplies its image, in lanes
# wider than a byte
CODEC_SHAPES = [(2, 6, 6, 3), (2, 12, 7, 4), (2, 17, 9, 4), (2, 20, 20, 12),
                ("dense", 33, 33, 17), ("dense", 33, 10, 3), (3, 4, 4, 2),
                (3, 9, 5, 2), (3, 11, 11, 5), (3, 11, 6, 3), (5, 3, 3, 1),
                (5, 6, 4, 2), (5, 7, 7, 3), (17, 3, 3, 1), (31, 4, 3, 2),
                (257, 2, 2, 1)]


def _ref_moore(tower, vector, rows):
    """Rows vector^[0..rows-1], each the q-th power of the one before by q
    reference products."""
    q, modulus = tower.q, tower.modulus
    out = [tuple(vector)]
    while len(out) < rows:
        nxt = []
        for x in out[-1]:
            y = 1
            for _ in range(q):
                y = ref.field_mul(y, x, q, modulus)
            nxt.append(y)
        out.append(tuple(nxt))
    return out


def _ref_combination(tower, coeffs, rows):
    """sum_i coeffs_i rows_i by reference products and digit-wise sums."""
    q, n, modulus = tower.q, tower.n, tower.modulus
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        acc = [ref.field_add(a, ref.field_mul(c, x, q, modulus), q, n)
               for a, x in zip(acc, row)]
    return tuple(acc)


@cache
def _codec(shape):
    """The code of a CODEC_SHAPES entry (generator: the polynomial basis
    on the dense tower, else the default generator, cut to the length),
    its parity-only twin, and the reference Moore rows of g and h."""
    q, n, length, k = shape
    if q == "dense":
        tower = _dense_tower()
        g = tower.basis[:length]
    else:
        tower = _tower(q, n)
        g = default_generator(tower)[:length]
    code = GabidulinCode(tower, k, g=g)
    parity = GabidulinCode(tower, k, h=code.h)
    return (code, parity, _ref_moore(tower, g, k),
            list(zip(*_ref_moore(tower, code.h, code.d - 1))))


@st.composite
def codec_cases(draw):
    code, parity, gen_rows, par_cols = _codec(draw(st.sampled_from(CODEC_SHAPES)))
    tower = code.tower
    element = st.integers(0, tower.order - 1)
    sparse = st.one_of(st.just(0), st.just(1), st.just(tower.order - 1), element)
    message = draw(st.lists(sparse, min_size=code.k, max_size=code.k))
    word = draw(st.lists(sparse, min_size=code.length, max_size=code.length))
    return code, parity, gen_rows, par_cols, message, word


@settings(max_examples=200, deadline=None)
@given(codec_cases())
def test_encode_and_syndromes_match_reference_sums(case):
    code, parity, gen_rows, par_cols, message, word = case
    tower = code.tower
    before = tower.mul_count
    codeword = code.encode(message)
    assert codeword == _ref_combination(tower, message, gen_rows)
    synd = _ref_combination(tower, word, par_cols)
    assert code.syndromes(word) == synd
    assert parity.syndromes(word) == synd
    assert not any(code.syndromes(codeword))
    assert tower.mul_count == before
    with pytest.raises(ValueError, match="encoding needs a generator vector"):
        parity.encode(message)
    event(f"q = {tower.q}, {'table-less' if tower._exp is None else 'table-backed'}, "
          f"{'L = n' if code.length == tower.n else 'L < n'}")


@st.composite
def linear_map_cases(draw):
    q = draw(st.sampled_from([2, 3, 5, 13, 17, 31, 257, 65521, BEYOND_64]))
    n, width, length = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    top = q ** (width * n) - 1
    images = draw(st.lists(st.one_of(st.just(top), st.integers(0, top)),
                           min_size=length * n, max_size=length * n))
    symbol = st.one_of(st.just(q**n - 1), st.integers(0, q**n - 1))
    return q, n, width, images, draw(st.lists(symbol, min_size=length, max_size=length))


@settings(max_examples=200, deadline=None)
@given(linear_map_cases())
def test_linear_map_matches_reference_sum(case):
    # byte lanes, wider ones (q >= 17, or many images) and no tables (q >= 257,
    # in 32-, 64- and 128-bit lanes, or q >= 17 for a word); all-(q-1) images
    # and symbols fill every lane the most
    q, n, width, images, word = case
    m = LinearMap(q, n, images, width)
    x = ref.pack([d for s in word for d in ref.digits(s, q, n)], q)
    want = [0] * (width * n)
    for d, image in zip(ref.digits(x, q, len(images)), images):
        want = [(w + d * e) % q for w, e in zip(want, ref.digits(image, q, width * n))]
    assert list(m.digits(x)) == want
    symbols = tuple(ref.pack(want[i:i + n], q) for i in range(0, width * n, n))
    assert m.word(word) == symbols
    if width == 1:
        assert m(x) == symbols[0]
    event(f"q = {q}, {m.lane}-bit lanes{'' if m._bits else ', no tables'}")


# largest extension degree drawn per q: GF(2^10), GF(3^6), GF(5^4)
DECODE_MAX_N = {2: 10, 3: 6, 5: 4}


@cache
def _code(q, n, length, k):
    tower = _tower(q, n)
    return GabidulinCode(tower, k, g=default_generator(tower)[:length])


@st.composite
def decode_cases(draw):
    q = draw(st.sampled_from(sorted(DECODE_MAX_N)))
    n = draw(st.integers(2, DECODE_MAX_N[q]))
    length = draw(st.integers(2, n))
    code = _code(q, n, length, draw(st.integers(1, length - 1)))
    rng = draw(st.randoms(use_true_random=False))
    c = code.encode([code.tower.random_element(rng) for _ in range(code.k)])
    e = random_error(code.tower, length, draw(st.integers(0, length)), rng)
    return code, c, e


@settings(max_examples=300, deadline=None)
@given(decode_cases())
def test_decode_roundtrip_and_beyond_capability(case):
    code, c, e = case
    tower = code.tower
    y = tuple(tower.add(a, b) for a, b in zip(c, e))
    if rank_of_vector(tower, e) <= code.capability:
        assert code.decode(y) == (c, e)
        return
    try:
        got_c, got_e = code.decode(y)
    except DecodingFailure:
        return
    assert code.is_codeword(got_c)
    assert got_e == tuple(tower.sub(a, b) for a, b in zip(y, got_c))
    assert rank_of_vector(tower, got_e) <= code.capability


# (q, n, L, k): for each q a table-backed and a table-less tower, each with
# a code of L < n and one of L = n
EQUIVALENCE_SHAPES = [(2, 8, 6, 2), (2, 8, 8, 4), (2, 17, 11, 5), (2, 17, 17, 9),
                      (3, 5, 4, 2), (3, 5, 5, 1), (3, 11, 7, 3), (3, 11, 11, 7),
                      (5, 4, 3, 1), (5, 4, 4, 2), (5, 7, 5, 1), (5, 7, 7, 3)]
# what the full locator system's inconsistency becomes on the square block
INCONSISTENT_LOCATOR = "locator: locator system is inconsistent"
SQUARE_BLOCK_FAILURES = ("locator: error locator outside the span of h",
                         "residual: corrected word has nonzero syndromes")


@st.composite
def equivalence_cases(draw, shapes=EQUIVALENCE_SHAPES):
    """A uniform word, or a codeword plus an error of rank 0..C+2."""
    code = _code(*draw(st.sampled_from(shapes)))
    tower = code.tower
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        return code, tuple(tower.random_element(rng) for _ in range(code.length))
    c = code.encode([tower.random_element(rng) for _ in range(code.k)])
    rank = draw(st.integers(0, min(code.capability + 2, code.length)))
    e = random_error(tower, code.length, rank, rng)
    return code, tuple(tower.add(a, b) for a, b in zip(c, e))


def _outcome(decode, word):
    try:
        return decode(word)
    except DecodingFailure as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(equivalence_cases())
def test_decode_equals_full_locator_reference(case):
    # the f x f locator block returns every word the full (d - 1)-row system
    # returns, and fails at the same stage, except that an inconsistent
    # full system fails at the span of h or at the residual check
    code, y = case
    got = _outcome(code.decode, y)
    want = _outcome(lambda w: ref.decode_full_locator(code, w), y)
    if want == INCONSISTENT_LOCATOR:
        assert got in SQUARE_BLOCK_FAILURES
    else:
        assert got == want
    tower = code.tower
    event(f"q = {tower.q}, {'table-less' if tower._exp is None else 'table-backed'}, "
          f"{'L = n' if code.length == tower.n else 'L < n'}, "
          f"{got.split(':')[0] if isinstance(got, str) else 'decoded'}")


# (q, n, L, k): [8,5,4], whose key equation has C + 1 rows; a three-dim part's
# parent over GF(3^9); L < n codes of C = 2 over GF(3^9), over GF(2^20), which
# eliminates in its half field, and over the table-less GF(3^11)
WRAPPER_SHAPES = [(2, 8, 8, 5), (3, 9, 3, 1), (3, 9, 6, 2), (2, 20, 8, 4), (3, 11, 7, 3)]


@settings(max_examples=200, deadline=None)
@given(equivalence_cases(WRAPPER_SHAPES))
def test_decode_equals_the_wrapper_route(case):
    # the systems read straight off `_rref_ext` give the same word, error or
    # failure text as the checked `ext_nullspace` / `ext_solve` route, and
    # count the same field operations
    code, y = case
    tower = code.tower
    with bounded(10):
        outcomes = []
        for decode in (code.decode, lambda w: ref.decode_by_wrappers(code, w)):
            before = tower.mul_count
            outcomes.append((_outcome(decode, y), tower.mul_count - before))
    assert outcomes[0] == outcomes[1]
    got = outcomes[0][0]
    event(f"GF({tower.q}^{tower.n}) [{code.length},{code.k}], "
          f"{got.split(':')[0] if isinstance(got, str) else 'decoded'}")


# table-backed towers, n = 1 included, for the q-degree-1 root space
DEGREE_ONE_SHAPES = [(2, 1), (2, 6), (2, 12), (3, 1), (3, 5), (3, 9), (5, 1), (5, 4),
                     (7, 1), (7, 3), (13, 2), (13, 4), (251, 1), (251, 2)]


@st.composite
def degree_one_polys(draw):
    """c0 x + c1 x^q with c1 != 0, not monic in general: c0 = 0, c0 drawn
    at random, or c0 = -c1 x^(q-1) for a drawn x != 0, so x is a root."""
    tower = _tower(*draw(st.sampled_from(DEGREE_ONE_SHAPES)))
    nonzero = st.integers(1, tower.order - 1)
    c1 = draw(nonzero)
    kind = draw(st.sampled_from(["c0 = 0", "random", "rooted"]))
    if kind == "rooted":
        c0 = tower.neg(tower.mul(c1, tower.pow(draw(nonzero), tower.q - 1)))
    else:
        c0 = draw(nonzero) if kind == "random" else 0
    return LinearizedPoly(tower, [c0, c1]), kind


@settings(max_examples=400, deadline=None)
@given(degree_one_polys())
def test_degree_one_root_space_equals_the_elimination(case):
    f, kind = case
    tower = f.tower
    with bounded(5):
        before = tower.mul_count
        got = f.root_space_basis()
        middle = tower.mul_count
        want = ref.root_space_by_elimination(f)
    assert got == want
    assert middle - before == tower.mul_count - middle == tower.n * (1 + (f.coeffs[0] != 0))
    event(f"GF({tower.q}^{tower.n}), {kind}, {len(got)} root{'s' * (len(got) != 1)}")


# table-backed odd-q towers: add, neg and sub through the Zech logarithms
ZECH_SHAPES = [(3, 2), (3, 9), (5, 4), (7, 2), (5, 1)]


@st.composite
def zech_cases(draw):
    q, n = draw(st.sampled_from(ZECH_SHAPES))
    tower = _tower(q, n)
    element = st.one_of(st.just(0), st.integers(1, tower.order - 1))
    a = draw(element)
    minus_a = tower.from_digits([-d for d in tower.digits(a)])
    # b = -a hits the Zech sentinel, a + (-a) = 0
    return tower, a, draw(st.one_of(element, st.just(minus_a)))


@settings(max_examples=400, deadline=None)
@given(zech_cases())
def test_odd_q_add_neg_sub_match_digitwise(case):
    tower, a, b = case
    assert tower._zech is not None
    da, db = tower.digits(a), tower.digits(b)
    assert tower.add(a, b) == tower.from_digits([x + y for x, y in zip(da, db)])
    assert tower.sub(a, b) == tower.from_digits([x - y for x, y in zip(da, db)])
    assert tower.neg(a) == tower.from_digits([-x for x in da])
    assert tower.add(a, tower.neg(a)) == 0


@cache
def _raw_tables(q, n):
    """Generator, exp and log of GF(q^n) by the reference stepping scan."""
    return ref.log_tables(q, _tower(q, n).modulus)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(ZECH_SHAPES + [(2, 6), (2, 12)]), st.data())
def test_log_tables_match_raw_powering(shape, data):
    tower = _tower(*shape)
    gen, exp, log = _raw_tables(*shape)
    assert (tower.generator, tower._exp, tower._log) == (gen, exp, log)
    i = data.draw(st.integers(0, len(exp) - 1))
    assert tower._log[tower._exp[i]] == i % (tower.order - 1)


# (q, n) with q^n <= 2^12 that have an irreducible modulus whose root alpha
# is not primitive: q^n - 1 is not prime
RANDOM_MODULUS_SHAPES = [(2, n) for n in (4, 6, 8, 9, 10, 11, 12)] + [
    (3, n) for n in range(2, 8)] + [(5, n) for n in range(2, 6)] + [
    (7, n) for n in range(2, 5)] + [(13, 2), (13, 3)]


@st.composite
def nonprimitive_moduli(draw):
    """The first irreducible modulus at or after a random start, in base-q
    order, whose root alpha is not primitive, so that the table fill steps
    by a generator g other than alpha: one that adds lower digits of g, or
    scales by a leading digit above 1."""
    q, n = draw(st.sampled_from(RANDOM_MODULUS_SHAPES))
    start = draw(st.integers(0, q**n - 1))
    for low in itertools.chain(range(start, q**n), range(start)):
        modulus = tuple(ref.digits(low, q, n)) + (1,)
        if is_irreducible(modulus, q) and FieldTower(q, n, modulus).generator != q:
            return q, n, modulus
    raise AssertionError(f"every irreducible modulus of GF({q}^{n}) has alpha primitive")


@settings(max_examples=50, deadline=None)
@given(nonprimitive_moduli())
def test_tables_match_stepping_scan_for_random_moduli(case):
    q, n, modulus = case
    tower = FieldTower(q, n, modulus)
    event(f"q = {q}, g = {tower.generator}")
    gen, exp, log = ref.log_tables(q, modulus)
    assert (tower.generator, tower._exp, tower._log) == (gen, exp, log)
    assert tower._zech == (None if q == 2 else ref.zech_table(q, n, exp, log))


# q in {2, 3, 5, 7} up to n = 12, table-less towers among them, and the
# table-less q = 2 towers past 2^16 that the bench and the goldens build
DUAL_SHAPES = [(q, n) for q in (2, 3, 5, 7) for n in range(2, 13)] + [(2, 17), (2, 20)]


@st.composite
def drawn_towers(draw, shapes=DUAL_SHAPES):
    """A tower of `shapes`, on its default modulus or, up to order 4096,
    on the first irreducible one at or after a random start."""
    q, n = draw(st.sampled_from(shapes))
    if q**n <= 4096 and draw(st.booleans()):
        start = draw(st.integers(0, q**n - 1))
        low = next(low for low in itertools.chain(range(start, q**n), range(start))
                   if is_irreducible(ref.digits(low, q, n) + [1], q))
        return FieldTower(q, n, ref.digits(low, q, n) + [1])
    return _tower(q, n)


@st.composite
def full_length_cases(draw):
    """A tower of `drawn_towers`, a full-rank generator vector of length n
    and a dimension k."""
    tower = draw(drawn_towers())
    n = tower.n
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = ()
    while len(g) < n:
        x = tower.random_element(rng)
        if rank_of_vector(tower, g + (x,)) == len(g) + 1:
            g += (x,)
    return tower, g, draw(st.integers(1, n - 1))


@settings(max_examples=150, deadline=None)
@given(full_length_cases())
def test_trace_dual_parity_vector_equals_the_elimination(case):
    """For L = n, `dual_vector` takes (g*)^[k] from the trace-dual basis g*
    of g with no elimination over GF(q^n): the dual system's kernel vector."""
    tower, g, k = case
    h = dual_vector(tower, g, k)
    assert h == ref.dual_vector_by_elimination(tower, g, k)
    code = GabidulinCode(tower, k, g=g)
    assert code.h == h
    event(f"q = {tower.q}, {'table-less' if tower._exp is None else 'table-backed'}")


@settings(max_examples=150, deadline=None)
@given(drawn_towers(DUAL_SHAPES + [(3, 11)]))
def test_traces_equal_the_frobenius_sums(tower):
    """Newton's identities on the modulus give Tr(alpha^e), the sum of the
    Frobenius orbit of alpha^e, for every e < 2n - 1 that `dual_vector` reads."""
    n, alpha = tower.n, tower.basis[1]
    orbit_sums = []
    for e in range(2 * n - 1):
        x = tower.pow(alpha, e)
        orbit_sums.append(reduce(tower.add, [tower.frobenius(x, j) for j in range(n)]))
    assert gabidulin._traces(tower, 2 * n - 1) == orbit_sums
    event(f"q = {tower.q}, {'table-less' if tower._exp is None else 'table-backed'}")


# table-less odd q, on byte lanes for q = 3, 5, 7 and 16-bit lanes for
# q = 31; then the log lookups of table-backed odd q, n = 1 included, and
# the q = 2 lanes with and without tables
LANE_ALPHA_SHAPES = [(3, 11), (3, 12), (5, 7), (7, 6), (31, 4)]
ALPHA_SHAPES = LANE_ALPHA_SHAPES + [(3, 1), (3, 9), (5, 3), (2, 12), (2, 20)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALPHA_SHAPES), st.data())
def test_alpha_multiples_equal_the_per_entry_steps(shape, data):
    """A word map's alpha-multiples, a whole row stepped on lanes (or an
    entry looked up, table-backed odd q), equal the per-entry `_mul_raw`
    steps' words, zero entries and single entries too."""
    tower = _tower(*shape)
    element = st.integers(0, tower.order - 1)
    entry = st.one_of(st.just(0), st.just(1), st.just(tower.order - 1), element)
    row = data.draw(st.lists(entry, min_size=1, max_size=tower.n + 1))
    assert tower._alpha_multiples(row) == ref.alpha_multiples_by_entry(tower, row)
    event(f"q = {tower.q}, {'table-less' if tower._exp is None else 'table-backed'}, "
          f"{'one entry' if len(row) == 1 else 'a zero entry' if 0 in row else 'no zero'}")


# largest extension degree drawn per q for direct sums: GF(2^8), GF(3^7),
# GF(5^5); every shape leaves room for two parts of dimension >= d = 2
DIRECT_SUM_MAX_N = {2: 8, 3: 7, 5: 5}


@st.composite
def direct_sum_cases(draw):
    q = draw(st.sampled_from(sorted(DIRECT_SUM_MAX_N)))
    n = draw(st.integers(4, DIRECT_SUM_MAX_N[q]))
    u = draw(st.integers(2, min(3, n // 2)))
    d = draw(st.integers(2, n // u))
    dims = [d] * u
    for _ in range(draw(st.integers(0, n - u * d))):
        dims[draw(st.integers(0, u - 1))] += 1
    code = _code(q, n, n, n - d + 1)
    tower = code.tower
    rng = random.Random(draw(st.integers(0, 2**32)))
    concat = ()
    while len(concat) < sum(dims):
        x = tower.random_element(rng)
        if rank_of_vector(tower, concat + (x,)) == len(concat) + 1:
            concat += (x,)
    offsets = [sum(dims[:i]) for i in range(u + 1)]
    M = DirectSumCode(code, [concat[a:b] for a, b in zip(offsets, offsets[1:])])
    message = [tower.random_element(rng) for _ in range(M.message_length)]
    t = draw(st.integers(0, min(n, M.total_dim)))
    error = sample_channel_error(M, t, rng, channel="exact-rank")
    return M, message, error


def _add_words(tower, words, length):
    acc = (0,) * length
    for w in words:
        acc = tuple(tower.add(a, b) for a, b in zip(acc, w))
    return acc


def _per_part_decode(M, subs, received):
    """The per-part route: project, decode each part in its subspace
    subcode through its parent, and sum the parts that decoded."""
    outcomes, codewords, errors = [], [], []
    for idx, (sub, part) in enumerate(zip(subs, M.project(received))):
        try:
            c, e = sub.decode(part)
        except DecodingFailure as exc:
            outcomes.append((idx, False, str(exc)))
            continue
        outcomes.append((idx, True, ""))
        codewords.append(c)
        errors.append(e)
    if len(codewords) < len(subs):
        return False, None, None, outcomes
    n = M.code.length
    return (True, _add_words(M.tower, codewords, n),
            _add_words(M.tower, errors, n), outcomes)


@settings(max_examples=200, deadline=None)
@given(direct_sum_cases())
def test_direct_sum_codec_matches_per_part_route(case):
    M, message, error = case
    tower, n = M.tower, M.code.length
    blocks, off = [], 0
    for parent in M.parents:
        blocks.append(message[off:off + parent.k])
        off += parent.k
    codeword = M.encode(message)
    subs = [SubspaceSubcode(M.code, p) for p in M.parts]
    assert codeword == _add_words(
        tower, [sub.encode(b) for sub, b in zip(subs, blocks)], n)
    received = tuple(tower.add(a, b) for a, b in zip(codeword, error))

    parts = M.project(received)
    for part, basis in zip(parts, M.parts):
        assert all(basis.contains(x) for x in part)
    assert _add_words(tower, parts, n) == received

    folded = M.to_parents(received)
    assert [len(f) for f in folded] == M.dims
    assert (rank_of_vector(tower, sum(folded, ()))
            == rank_of_vector(tower, received))

    result = M.decode(received)
    ok, want_c, want_e, outcomes = _per_part_decode(M, subs, received)
    assert (result.ok, result.codeword, result.error) == (ok, want_c, want_e)
    assert [(o.index, o.ok, o.reason) for o in result.components] == outcomes
    event(f"q = {tower.q}, {len(M.parts)} parts, "
          f"{'every part decodes' if ok else 'a part fails'}")
    if ok and rank_of_vector(tower, error) <= M.capability:
        assert (want_c, want_e) == (codeword, error)


# (q, n, k, g, part dimensions): the benchmark's three workloads, parts
# taken from the polynomial basis, and a sum of N = 6 < n = 8
CHANNEL_CODES = {"paper-q2n12": (2, 12, 8, None, [6, 6]),
                 "tableless-q2n20": (2, 20, 12, "basis", [10, 10]),
                 "oddq-q3n9": (3, 9, 7, None, [3, 3, 3]),
                 "N < n": (3, 8, 6, None, [3, 3])}


@cache
def _channel_code(name):
    q, n, k, g, dims = CHANNEL_CODES[name]
    tower = _tower(q, n)
    code = GabidulinCode(tower, k, g=tower.basis if g else default_generator(tower))
    offsets = list(itertools.accumulate(dims, initial=0))
    return DirectSumCode(code, [tower.basis[a:b] for a, b in itertools.pairwise(offsets)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CHANNEL_CODES)), st.randoms(use_true_random=False))
def test_channel_map_equals_the_unfold_of_parity_symbols(name, rng):
    M = _channel_code(name)
    sample_channel_error(M, 0, rng)  # the map is built on first use; t = 0 draws nothing
    with bounded(10):
        values = [M.tower.random_element(rng) for _ in range(M.total_dim)]
        assert M._channel.word(values) == ref.unfold_of_parity_symbols(M, values)
    event(name)


@st.composite
def enumerable_shapes(draw):
    """(q, dims, capability, t) with at most 4096 t x sum(dims) matrices."""
    q = draw(st.sampled_from([2, 3, 5]))
    cells = {2: 12, 3: 7, 5: 5}[q]
    t = draw(st.integers(0, 3))
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                .filter(lambda d: t * sum(d) <= cells))
    return q, dims, draw(st.integers(0, 2)), t


@settings(max_examples=60, deadline=None)
@given(enumerable_shapes())
def test_exact_success_probability_matches_enumeration(case):
    q, dims, capability, t = case
    width = sum(dims)
    offsets = list(itertools.accumulate([0] + dims))
    hits = 0
    for flat in itertools.product(range(q), repeat=t * width):
        rows = [flat[i * width:(i + 1) * width] for i in range(t)]
        hits += all(ref.rank([row[lo:hi] for row in rows], q) <= capability
                    for lo, hi in zip(offsets, offsets[1:]))
    want = Fraction(hits, q ** (t * width))
    assert success_probability(q, dims, capability, t, form="exact") == want


@st.composite
def monte_carlo_cases(draw):
    """`rank_event_rate`'s arguments: q on bit lanes, bit planes (3, about
    3 draws in 10), byte lanes and past them (17), 0 to 3 parts of dimension 0 to 6 (for q = 2 also 30 to 40,
    so a row passes 32 bits), t from 0, C from 0 to N, either channel, and
    passes of 4 m to 4 m + 40 attempts for the widest part m, the fewest
    that take the lanes, so that `trials` spans several passes."""
    q = draw(st.sampled_from([2, 2, 2, 3, 3, 3, 5, 7, 11, 13, 17]))
    dim = st.integers(0, 6) | st.integers(30, 40) if q == 2 else st.integers(0, 6)
    dims = draw(st.lists(dim, min_size=draw(st.sampled_from([0, 1, 1, 1])), max_size=3))
    channel = draw(st.sampled_from(["uniform-matrix", "exact-rank"]))
    n_total = sum(dims)
    top = min(n_total if channel == "exact-rank" else n_total + 2, 8)
    t = draw(st.integers(0, top) | st.just(min(max(dims, default=0), top)))
    capability = draw(st.just(max(t - 1, 0)) | st.integers(0, n_total))
    return (q, dims, capability, t, draw(st.integers(1, 60)), draw(st.integers(0, 2**32)),
            channel, draw(st.integers(0, 40)))


@settings(max_examples=300, deadline=None)
@given(monte_carlo_cases())
def test_rank_event_rate_equals_the_per_trial_loop(case):
    """A pass of attempts on lanes counts the successes of the per-trial
    loop on the same stream, for every q (q = 17 takes that loop), on the
    exact-rank channel too, where accepted attempts carry over passes."""
    *args, channel, extra = case
    lanes = 4 * max(args[1], default=0) + extra
    with pytest.MonkeyPatch.context() as mp, bounded(10):
        mp.setattr(directsum, "_pass_lanes", lambda q, t, n_total: lanes)
        got = directsum.rank_event_rate(*args, channel=channel).successes
        assert got == ref.rank_event_successes(*args, channel=channel)
    q, trials = args[0], args[4]
    event(f"{'bits' if q == 2 else 'planes' if q == 3 else 'bytes' if q < 17 else 'loop'}, "
          f"{'all' if got == trials else 'none' if got == 0 else 'some'} succeed")


@pytest.mark.parametrize("count", [1, 7, 64, 65])
def test_q3_draw_lanes_planes_read_back_to_random_rows(count):
    # lane j of plane lo (hi) is bit j, set where attempt j holds 1 (2); the
    # draw is that of `count` random_rows calls and leaves rng where they do
    for t, width in [(1, 1), (2, 3), (3, 9), (4, 2)]:
        for seed in range(3):
            rng, loop = random.Random(seed), random.Random(seed)
            columns = _draw_lanes(3, t, width, count, rng)
            rows = [qlinalg.random_rows(3, t, width, loop) for _ in range(count)]
            assert len(columns) == width and all(len(col) == t for col in columns)
            for c, col in enumerate(columns):
                for r, (lo, hi) in enumerate(col):
                    assert lo & hi == 0 and (lo | hi) >> count == 0
                    got = [(lo >> j & 1) + 2 * (hi >> j & 1) for j in range(count)]
                    assert got == [rows[j][r] // 3**c % 3 for j in range(count)]
            assert rng.getstate() == loop.getstate()


@pytest.mark.parametrize("t, width", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_q3_rank_reaches_on_planes_ranks_every_matrix(t, width):
    # every t x width matrix over GF(3) in a lane of its own, so each product
    # and sum on the planes meets every pair of digits
    matrices = list(itertools.product(range(3), repeat=t * width))
    columns = [[tuple(sum(1 << j for j, flat in enumerate(matrices) if flat[r * width + c] == d)
                      for d in (1, 2)) for r in range(t)] for c in range(width)]
    ranks = [ref.rank([flat[r * width:(r + 1) * width] for r in range(t)], 3)
             for flat in matrices]
    for k in range(1, min(t, width) + 1):
        got = _rank_reaches(columns, k, 3, len(matrices))
        assert got == sum(1 << j for j, r in enumerate(ranks) if r >= k), k


# every (q, n) with q^n <= 2^12 for q in {2, 3, 5, 7, 13}
SUBFIELD_SHAPES = [(q, n) for q in (2, 3, 5, 7, 13) for n in range(1, 13) if q**n <= 1 << 12]


@st.composite
def subfield_cases(draw):
    q, n = draw(st.sampled_from(SUBFIELD_SHAPES))
    s = draw(st.sampled_from([s for s in range(1, n + 1) if n % s == 0]))
    # a code with d - 2 < s, that is d <= s + 1, when n leaves room for one
    k = draw(st.integers(max(1, n - s), n - 1)) if n > 1 else None
    return _tower(q, n), s, k


@settings(max_examples=100, deadline=None)
@given(subfield_cases())
def test_subfield_counting_order_and_generator(case):
    tower, s, k = case
    q, n = tower.q, tower.n
    event(f"q = {q}, n = {n}, s = {s}")
    subfield = ref.fixed_field(tower, s)
    # the root-space basis of x^[s] - x counts the subfield in integer order
    kernel = LinearizedPoly(tower, (tower.neg(1),) + (0,) * (s - 1) + (1,)).root_space_basis()
    assert [tower.contract(int_digits(c, q, s), kernel) for c in range(q**s)] == subfield
    # theta is the smallest nonzero subfield element of degree s
    theta = next(x for x in subfield[1:] if ref.rank(
        [ref.digits(tower.pow(x, i), q, n) for i in range(s)], q) == s)
    emb = SubfieldEmbedding(tower, s)
    assert emb.generator == theta
    assert emb.poly_basis == tuple(tower.pow(theta, i) for i in range(s))
    if k is not None:
        code = GabidulinCode(tower, k, g=default_generator(tower))
        factz = compute_factorization(code, s, embedding=emb)
        assert verify_uniqueness(code, factz) == (True, None)
