import copy
import gc
import itertools
import pickle
import random
import weakref

import pytest
from conftest import bounded

from rankcodes import (CoordinateSolver, FieldTower, count_rank_matrices, ext_nullspace,
                       ext_solve, find_irreducible, is_irreducible, random_error,
                       random_rows, rank_leq_probability, rank_of_vector, rank_q, rank_rows)
from rankcodes import field, qlinalg
from rankcodes.qlinalg import kernel_rows

import gfq_reference as ref


# -- q-ary elimination --------------------------------------------------------

def test_rank_basics():
    assert rank_q([[1, 0], [0, 1]], 2) == 2
    assert rank_q([[0, 0], [0, 0]], 3) == 0
    assert rank_q([[1, 1], [1, 1]], 2) == 1


def test_nullspace_dimension():
    # [[1, 1, 0], [0, 0, 1]] sends e_0, e_1 -> (1, 0) and e_2 -> (0, 1)
    assert kernel_rows([1, 1, 2], 2) == [0b011]
    assert ref.nullspace([[1, 1, 0], [0, 0, 1]], 2) == [[1, 1, 0]]
    # the zero 2 x 2 matrix over GF(5)
    assert kernel_rows([0, 0], 5) == [1, 5]
    assert ref.nullspace([[0, 0], [0, 0]], 5) == [[1, 0], [0, 1]]


def test_kernel_rows_examples():
    for q in (2, 3, 5):
        basis = [q**j for j in range(4)]
        # the zero map: every basis vector lies in the kernel
        assert kernel_rows([0] * 4, q) == basis
        # an injective map, e_j -> e_(3-j): the kernel is zero
        assert kernel_rows(basis[::-1], q) == []
        # e_0, e_1 -> e_0 and e_2, e_3 -> e_1: the kernel is spanned by
        # e_1 - e_0 and e_3 - e_2, listed in ascending top-digit order
        assert kernel_rows([1, 1, q, q], q) == [q + q - 1, q**3 + (q - 1) * q**2]
        # images of width 0: the map is zero
        assert kernel_rows([0, 0], q) == [1, q]


@pytest.mark.parametrize("fn, rows, q", [
    (rank_rows, [-1], 3), (kernel_rows, [5, -3], 5), (kernel_rows, [1, 2, -7], 3),
    (kernel_rows, [-1], 2), (rank_rows, [-1, 1], 2),
    # -3 and -3 ^ 3 share a bit length: XOR against the pivot 3 would cycle
    (rank_rows, [3, -3], 2), (kernel_rows, [3, -3], 2)])
def test_negative_packed_rows_are_rejected(fn, rows, q):
    with bounded(5), pytest.raises(ValueError, match="negative"):
        fn(rows, q)


# -- rank of extension vectors --------------------------------------------------

def test_rank_of_vector_rejects_non_elements():
    # 9 lies outside both GF(3^2) and GF(2^3); no rank is taken of it
    for tower in (FieldTower(3, 2), FieldTower(2, 3)):
        for vec in ([9, 1], [-1], [True, 1], [1.0]):
            with pytest.raises(ValueError, match="not an element"):
                rank_of_vector(tower, vec)


def test_rank_of_vector_examples(gf16):
    assert rank_of_vector(gf16, (0, 0, 0)) == 0
    assert rank_of_vector(gf16, (1, 2, 4, 8)) == 4       # polynomial basis
    assert rank_of_vector(gf16, (2, 2, 0, 2)) == 1       # everything in span{alpha}


def test_rank_invariant_under_position_mixing(gf16):
    # rank(v P) = rank(v) for invertible q-ary P acting on positions
    rng = random.Random(9)
    for _ in range(200):
        v = tuple(gf16.random_element(rng) for _ in range(5))
        while True:
            p = [[rng.randrange(2) for _ in range(5)] for _ in range(5)]
            if rank_q(p, 2) == 5:
                break
        moved = tuple(
            gf16.contract([p[i][j] for i in range(5)],
                          [v[i] for i in range(5)])
            for j in range(5))
        assert rank_of_vector(gf16, moved) == rank_of_vector(gf16, v)


def test_rank_of_vector_matches_generic_path(gf27):
    rng = random.Random(13)
    for _ in range(100):
        v = tuple(gf27.random_element(rng) for _ in range(4))
        rows = [list(gf27.digits(x)) for x in v]
        assert rank_of_vector(gf27, v) == ref.rank(rows, 3)


# -- extension-field elimination ------------------------------------------------

def test_ext_solve_identity_and_roundtrip(gf16, gf27):
    rng = random.Random(21)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    rhs = [5, 9, 14]
    assert ext_solve(gf16, eye, rhs)[0] == rhs
    for _ in range(50):
        m = [[gf16.random_element(rng) for _ in range(3)] for _ in range(3)]
        x = [gf16.random_element(rng) for _ in range(3)]
        b = [0, 0, 0]
        for i in range(3):
            acc = 0
            for j in range(3):
                acc = gf16.add(acc, gf16.mul(m[i][j], x[j]))
            b[i] = acc
        sol = ext_solve(gf16, m, b)
        assert sol is not None
        got = sol[0]
        assert sol[1] == ext_nullspace(gf16, m)
        for i in range(3):
            acc = 0
            for j in range(3):
                acc = gf16.add(acc, gf16.mul(m[i][j], got[j]))
            assert acc == b[i]
    # a singular odd-q system: the kernel comes back with the solution
    row = [1, 5]
    m = [row, [gf27.mul(2, x) for x in row]]
    b = [ref.dot(gf27, r, [4, 7]) for r in m]
    got, kernel = ext_solve(gf27, m, b)
    assert [ref.dot(gf27, r, got) for r in m] == b
    assert kernel == ext_nullspace(gf27, m) and len(kernel) == 1
    assert all(ref.dot(gf27, r, kernel[0]) == 0 for r in m)


def test_ext_elimination_of_empty_and_mismatched_systems(gf16, gf27):
    for tower in (gf16, gf27):
        assert ext_nullspace(tower, []) == []
        assert ext_solve(tower, [], []) == ([], [])
        for matrix, rhs in (([], [0]), ([[1, 0], [0, 1]], [1]), ([[1, 0]], [1, 1])):
            with pytest.raises(ValueError, match="right-hand sides"):
                ext_solve(tower, matrix, rhs)


def test_ext_elimination_rejects_entries_outside_the_field():
    """One element check per matrix row and one on the right-hand side: an
    entry outside [0, q^n) used to fail by chance or return a kernel, on
    the log tables of GF(2^12) and in the half field of GF(2^20)."""
    for tower in (FieldTower(2, 12), FieldTower(2, 20)):
        assert ext_nullspace(tower, [[1, 1]]) == [[1, 1]]  # GF(2^20) builds its half field
        for bad in (-5, tower.order, tower.order + 3, True, 2.0):
            for matrix in ([[bad, 1]], [[1, bad]], [[1, 0], [7, bad]]):
                with pytest.raises(ValueError, match=f"^matrix entry {bad!r} is not"):
                    ext_nullspace(tower, matrix)
                with pytest.raises(ValueError, match=f"^matrix entry {bad!r} is not"):
                    ext_solve(tower, matrix, [1] * len(matrix))
            with pytest.raises(ValueError, match=f"^right-hand side {bad!r} is not"):
                ext_solve(tower, [[1, 0], [0, 1]], [3, bad])
    assert tower._half


def test_ext_nullspace_singular_system(gf16):
    # rows are scalar multiples: nullspace of a 2x2 rank-1 system is 1-dim
    row = [3, 7]
    scaled = [gf16.mul(9, x) for x in row]
    ns = ext_nullspace(gf16, [row, scaled])
    assert len(ns) == 1
    v = ns[0]
    acc = gf16.add(gf16.mul(row[0], v[0]), gf16.mul(row[1], v[1]))
    assert acc == 0


def test_ext_nullspace_over_gf4():
    from rankcodes import FieldTower
    gf4 = FieldTower(2, 2)
    # [[1, a], [a, a^2]] has rank 1 over GF(4)
    a = 2
    m = [[1, a], [a, gf4.mul(a, a)]]
    ns = ext_nullspace(gf4, m)
    assert len(ns) == 1
    x = ns[0]
    assert gf4.add(x[0], gf4.mul(a, x[1])) == 0


# odd n, a half field above 2^16, and table-backed towers, even n included
NO_HALF_FIELD = [(2, 17), (3, 11), (2, 34), (2, 16), (2, 12), (3, 9), (3, 10), (251, 2)]


@pytest.mark.parametrize("q, n", NO_HALF_FIELD)
def test_other_towers_never_build_the_half_field(monkeypatch, q, n):
    def refuse(tower):
        raise AssertionError(f"a half field was built for {tower}")

    monkeypatch.setattr(field, "_HalfField", refuse)
    tower, rng = FieldTower(q, n), random.Random(q * 100 + n)
    m = [[tower.random_element(rng) for _ in range(4)] for _ in range(3)]
    assert len(ext_nullspace(tower, m)) == 1
    assert ext_solve(tower, m, [1, 2, 3]) is not None
    assert tower._half is False


@pytest.mark.parametrize("q, n", [(2, 20), (3, 12)])
def test_building_the_half_field_counts_nothing(q, n):
    tower = FieldTower(q, n)
    assert tower._half_field() and tower.mul_count == 0
    # built inside the first elimination, it counts as the reference loop does
    fresh, reference, rng = FieldTower(q, n), FieldTower(q, n), random.Random(n)
    m = [[fresh.random_element(rng) for _ in range(5)] for _ in range(4)]
    rows, ref_rows = [list(r) for r in m], [list(r) for r in m]
    assert qlinalg._rref_ext(fresh, rows) == ref.rref_ext(reference, ref_rows)
    assert rows == ref_rows and fresh.mul_count == reference.mul_count == 4 * (1 + 4 * 5)


@pytest.mark.parametrize("q, n", [(3, 12), (5, 8), (2, 20)])
def test_the_half_field_tables_are_its_subfield_towers(q, n):
    """One copy of H's log and exp tables: on odd q the half field keeps H
    for its Zech add and reads H's own lists, padded in place past exp's
    two periods; q = 2 adds by XOR and keeps the lists alone."""
    half = FieldTower(q, n)._half_field()
    assert half.log[0] == 2 * half.size and len(half.exp) == 4 * half.size + 1
    assert not any(half.exp[2 * half.size:])
    if q != 2:
        h = half.add.__self__
        assert half.log is h._log and half.exp is h._exp


def test_a_tower_with_a_half_field_pickles_and_copies():
    tower, m = FieldTower(2, 20), [[1, 5, 7], [9, 3, 2]]
    kernel, counted = ext_nullspace(tower, m), tower.mul_count
    assert tower._half
    for twin in (pickle.loads(pickle.dumps(tower)), copy.deepcopy(tower)):
        assert twin == tower and twin._half is not tower._half and twin.mul_count == counted
        assert ext_nullspace(twin, m) == kernel and twin.mul_count == 2 * counted


def test_a_dropped_tower_goes_with_its_half_field_without_gc():
    """No tower/half-field reference cycle holds a dropped tower until a full GC."""
    tower = FieldTower(2, 20)
    ext_nullspace(tower, [[1, 5, 7], [9, 3, 2]])
    assert tower._half
    gone, enabled = weakref.ref(tower), gc.isenabled()
    gc.disable()
    try:
        del tower
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


# -- coordinate solver ----------------------------------------------------------

def test_coordinate_solver_membership(gf16):
    solver = CoordinateSolver(gf16, [1, 2, 4])
    assert solver.solve(6) == [0, 1, 1]     # alpha + alpha^2
    assert solver.solve(8) is None          # alpha^3 outside
    with pytest.raises(ValueError, match="rank"):
        CoordinateSolver(gf16, [1, 2, 3])


# -- error sampling --------------------------------------------------------------

def test_random_error_zero_and_rank(gf4096):
    rng = random.Random(1)
    assert random_error(gf4096, 12, 0, rng) == (0,) * 12
    for _ in range(1000):
        t = rng.randrange(1, 4)
        e = random_error(gf4096, 12, t, rng)
        assert rank_of_vector(gf4096, e) == t


def test_random_error_support_confinement(gf4096):
    rng = random.Random(2)
    support = tuple(2**i for i in range(6))
    solver = CoordinateSolver(gf4096, support)
    for _ in range(100):
        e = ref.random_support_error(gf4096, 12, 2, rng, support)
        assert all(solver.solve(x) is not None for x in e)


@pytest.mark.parametrize("q, n", [(2, 12), (3, 5)])
def test_random_support_error_over_the_field_is_the_library_stream(q, n):
    # over the polynomial basis the support values are the sampled rows as
    # they are, so the reference helper and random_error draw the same errors
    tower = FieldTower(q, n)
    ours, theirs = random.Random(5), random.Random(5)
    for t in (0, 1, 2, 3, 3):
        assert (ref.random_support_error(tower, 6, t, ours, tower.basis)
                == random_error(tower, 6, t, theirs))


def test_random_support_error_checks_its_support(gf16):
    rng = random.Random(0)
    with bounded(5):
        with pytest.raises(ValueError, match="support element 32"):
            ref.random_support_error(gf16, 3, 1, rng, [1, 32])
        with pytest.raises(ValueError, match="not linearly independent"):
            ref.random_support_error(gf16, 3, 1, rng, [1, 2, 3])
        with pytest.raises(ValueError, match="exceeds"):
            ref.random_support_error(gf16, 4, 3, rng, (1, 2))


def test_random_error_rank_one_structure(gf16):
    rng = random.Random(3)
    e = random_error(gf16, 4, 1, rng)
    assert rank_of_vector(gf16, e) == 1


def test_random_error_uniform_mode_bounded(gf16):
    rng = random.Random(8)
    for _ in range(200):
        e = random_error(gf16, 4, 2, rng, mode="uniform-matrix")
        assert rank_of_vector(gf16, e) <= 2


def test_random_error_validation(gf16):
    rng = random.Random(0)
    with pytest.raises(ValueError, match="exceeds"):
        random_error(gf16, 8, 5, rng)
    with pytest.raises(ValueError, match="mode"):
        random_error(gf16, 4, 1, rng, mode="bogus")
    with pytest.raises(ValueError, match="negative"):
        random_error(gf16, 4, -1, rng)
    with pytest.raises(ValueError, match="negative"):
        random_error(gf16, 4, -1, rng, mode="uniform-matrix")
    # a negative length, whatever the rank and mode
    for t, mode in itertools.product((0, 1), ("exact-rank", "uniform-matrix")):
        with pytest.raises(ValueError, match="negative"):
            random_error(gf16, -3, t, rng, mode=mode)
    # exact rank 3 cannot be spread over 2 positions
    with pytest.raises(ValueError, match="exceeds the length"):
        random_error(gf16, 2, 3, rng)
    e = random_error(gf16, 2, 3, rng, mode="uniform-matrix")
    assert rank_of_vector(gf16, e) <= 2
    # the sampler under random_error fails fast on a negative shape
    for q, shape in itertools.product((2, 3), ((-1, 3), (3, -1))):
        with pytest.raises(ValueError, match="negative shape"):
            random_rows(q, *shape, rng, full_rank=True)
    # and on a shape that is a bool or not an int
    for q, shape in itertools.product((2, 3), ((True, 2), (2, 2.0), (False, 0))):
        for full_rank in (False, True):
            with pytest.raises(ValueError, match="not two ints"):
                random_rows(q, *shape, rng, full_rank=full_rank)


# odd q over every lane width of the GF(q) elimination: 8, 16, 32 and 128 bits
DRAW_PRIMES = [3, 5, 7, 13, 17, 31, 257, 65521, 2**32 + 15]


@pytest.mark.parametrize("q", DRAW_PRIMES)
def test_randrange_is_the_getrandbits_rejection_loop(q):
    # random_rows draws each odd-q digit by this loop and relies on it giving
    # randrange(q)'s stream; if a Python release changes randrange, this fails
    # by name instead of every odd-q golden
    for seed in range(5):
        rng, loop = random.Random(seed), random.Random(seed)
        for _ in range(200):
            d = loop.getrandbits(q.bit_length())
            while d >= q:
                d = loop.getrandbits(q.bit_length())
            assert rng.randrange(q) == d
        assert rng.random() == loop.random()


@pytest.mark.parametrize("k", [1, 4, 12, 31, 32, 33, 40, 64, 65, 100])
def test_getrandbits_is_little_endian_words(k):
    # rank_event_rate draws a pass of random_rows calls as one getrandbits of
    # 32-bit words (field._draw_lanes) and relies on this layout; if a Python
    # release changes it, this fails by name instead of every Monte Carlo count
    words = -(-k // 32)
    for seed in range(5):
        rng, batch = random.Random(seed), random.Random(seed)
        stream = batch.getrandbits(32 * 3 * words)  # 32 j bits: the next j words, word i at 32 i
        for i in range(3):
            row = [stream >> 32 * (i * words + w) & 0xFFFFFFFF for w in range(words)]
            row[-1] >>= 32 * words - k  # k <= 32: the top k bits of one word
            assert rng.getrandbits(k) == sum(w << 32 * j for j, w in enumerate(row))
        assert rng.random() == batch.random()


@pytest.mark.parametrize("q", [3, 17, 257])  # lanes of 8, 16 and 32 bits
def test_odd_rank_rows_gathers_no_kernel_vector(monkeypatch, q):
    def gather(*args):
        raise AssertionError("rank_rows gathered a kernel vector")
    rows = [1, 1, q, q + 1, 0, (q - 1) * q**3]  # rank 3, a kernel of dimension 3
    monkeypatch.setattr(qlinalg, "_from_lanes", gather)
    assert rank_rows(rows, q) == 3


# -- rank-matrix counting ---------------------------------------------------------

def _enumerate_rank_counts(q, m, t):
    """Brute-force oracle: count all t x m matrices over GF(q) by rank."""
    counts = {}
    for flat in itertools.product(range(q), repeat=m * t):
        rows = [list(flat[i * m:(i + 1) * m]) for i in range(t)]
        r = rank_q(rows, q)
        counts[r] = counts.get(r, 0) + 1
    return counts


def test_count_rank_matrices_against_enumeration():
    oracle = _enumerate_rank_counts(2, 2, 2)
    assert oracle == {0: 1, 1: 9, 2: 6}
    for r, want in oracle.items():
        assert count_rank_matrices(2, 2, 2, r) == want
    oracle3 = _enumerate_rank_counts(3, 2, 2)
    for r in range(3):
        assert count_rank_matrices(3, 2, 2, r) == oracle3.get(r, 0)


def test_count_rank_matrices_total_identity():
    for q in (2, 3):
        for m in range(1, 5):
            for t in range(1, 5):
                total = sum(count_rank_matrices(q, m, t, r)
                            for r in range(min(m, t) + 1))
                assert total == q ** (m * t)


def test_count_rank_matrices_conventions():
    assert count_rank_matrices(2, 3, 3, 0) == 1
    assert count_rank_matrices(2, 2, 2, 3) == 0
    assert count_rank_matrices(2, 2, 2, -1) == 0
    # symmetric in m and t
    assert count_rank_matrices(3, 4, 2, 2) == count_rank_matrices(3, 2, 4, 2)


@pytest.mark.parametrize("q, m, t", [(1, 3, 2), (0, 3, 2), (-3, 3, 2), (6, 2, 2), (2.0, 2, 2),
                                     (2, -1, 2), (2, 2, -1), (2, True, 2), (2, 2, 1.0)])
def test_count_rank_matrices_rejects_bad_shapes(q, m, t):
    # before: q = 1 divided by zero, q = 0 gave -1, q = -3 gave 56, m < 0 gave 0
    with pytest.raises(ValueError):
        count_rank_matrices(q, m, t, 1)
    for cap in (1, -1):  # before: a negative cap skipped every check
        with pytest.raises(ValueError):
            rank_leq_probability(q, m, t, cap)


def test_count_rank_matrices_prime_power_and_empty_shapes():
    assert count_rank_matrices(4, 2, 2, 1) == (16 - 1) * (16 - 1) // (4 - 1)
    assert count_rank_matrices(2, 0, 3, 0) == 1 and count_rank_matrices(2, 0, 3, 1) == 0


NOT_PRIME_CALLS = {
    "rank_q-4": lambda: rank_q([[1, 2], [2, 1]], 4),
    "rank_rows-1": lambda: rank_rows([5], 1),
    "rank_rows-0": lambda: rank_rows([5], 0),
    "rank_rows-9": lambda: rank_rows([5, 7], 9),
    "rank_rows--3": lambda: rank_rows([1], -3),
    "kernel_rows-4": lambda: kernel_rows([], 4),
    "random_rows-1": lambda: random_rows(1, 2, 2, random.Random(0), full_rank=True),
    "random_rows-4-any-rank": lambda: random_rows(4, 2, 3, random.Random(1)),
    "random_rows-1-any-rank": lambda: random_rows(1, 2, 3, random.Random(1)),
}


@pytest.mark.parametrize("name", NOT_PRIME_CALLS)
def test_gfq_elimination_needs_a_prime(name):
    # before: composite q and q = 1 never returned, q = 0 divided by zero
    with bounded(5), pytest.raises(ValueError, match="not a prime"):
        NOT_PRIME_CALLS[name]()


NOT_PRIME_POLYNOMIAL_CALLS = {
    "is_irreducible-6": lambda: is_irreducible((1, 1, 1), 6),
    "is_irreducible-4": lambda: is_irreducible((1, 1, 1), 4),
    "is_irreducible-1": lambda: is_irreducible((1, 1), 1),
    "is_irreducible-0": lambda: is_irreducible((1, 1, 1), 0),
    "find_irreducible-4": lambda: find_irreducible(4, 2),
    "find_irreducible-1": lambda: find_irreducible(1, 2),
}


@pytest.mark.parametrize("name", NOT_PRIME_POLYNOMIAL_CALLS)
def test_irreducibility_needs_a_prime(name):
    # before: q = 6 and find_irreducible(4, 2) never returned, q = 4 and
    # q = 1 answered, q = 0 divided by zero
    with bounded(5), pytest.raises(ValueError, match="not a prime"):
        NOT_PRIME_POLYNOMIAL_CALLS[name]()
