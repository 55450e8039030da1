import random
import sys
import threading

import pytest
from conftest import bounded

from rankcodes import (CoordinateSolver, DirectSumCode, FieldTower, GabidulinCode,
                       SubfieldEmbedding, SubspaceBasis, SubspaceSubcode, find_irreducible,
                       is_irreducible, random_error)
from rankcodes.field import _DEFAULT_MODULI, LinearMap, _mod_lanes

import gfq_reference as ref


def test_default_moduli_are_irreducible():
    for (q, n), modulus in _DEFAULT_MODULI.items():
        assert len(modulus) == n + 1 and modulus[-1] == 1
        assert is_irreducible(modulus, q), (q, n)


@pytest.mark.parametrize("q, n, modulus", [
    (2, 2, (1, 1, 1)),
    (2, 3, (1, 1, 0, 1)),
    (2, 4, (1, 1, 0, 0, 1)),
    (2, 5, (1, 0, 1, 0, 0, 1)),
    (2, 7, (1, 1, 0, 0, 0, 0, 0, 1)),
    (2, 11, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (2, 13, (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (3, 3, (1, 2, 0, 1)),
])
def test_searched_default_moduli_are_pinned(q, n, modulus):
    # these shapes have no fixed default: the search picks this modulus
    assert (q, n) not in _DEFAULT_MODULI
    assert FieldTower(q, n).modulus == modulus


def test_reducible_modulus_rejected():
    # x^4 + 1 = (x + 1)^4 over GF(2)
    with pytest.raises(ValueError, match="reducible"):
        FieldTower(2, 4, modulus=(1, 0, 0, 0, 1))


def test_composite_degree_reducibility():
    # x^6 + ... with an irreducible degree-2 times degree-3 factorization must
    # be rejected: (x^2+x+1)(x^3+x+1) = x^5+x^4+1 ... degree 5; build degree 6
    # directly: (x^2+x+1)(x^4+x+1)
    f = _poly_mul((1, 1, 1), (1, 1, 0, 0, 1))
    assert not is_irreducible(f, 2)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] ^= ai & bj
    return tuple(out)


def test_non_prime_base_rejected():
    with pytest.raises(ValueError, match="not prime"):
        FieldTower(4, 2)


@pytest.mark.parametrize("n", [0, 65])
def test_degree_outside_range_rejected(n):
    with pytest.raises(ValueError, match="outside supported range"):
        FieldTower(2, n)


@pytest.mark.parametrize("modulus", [
    (1.7, 1, 0, 0, 1),  # int() would truncate this to a valid modulus
    5,
    "11001",
    (True, 1, 0, 0, 1),
    [1, 1, 0, 0, [1]],
])
def test_malformed_modulus_rejected(modulus):
    with pytest.raises(ValueError, match="integer coefficients"):
        FieldTower(2, 4, modulus=modulus)


def test_non_monic_modulus_rejected():
    with pytest.raises(ValueError, match="monic"):
        FieldTower(3, 2, modulus=(1, 1, 2))
    with pytest.raises(ValueError, match="monic"):
        FieldTower(2, 3, modulus=(1, 1, 0, 1, 1))  # wrong degree


def test_find_irreducible_smallest():
    assert find_irreducible(2, 2) == (1, 1, 1)
    f = find_irreducible(3, 5)
    assert len(f) == 6 and is_irreducible(f, 3)


def test_field_axioms_random_triples(gf16, gf27):
    rng = random.Random(2024)
    for tower in (gf16, gf27):
        for _ in range(10_000):
            a, b, c = (tower.random_element(rng) for _ in range(3))
            assert tower.mul(a, tower.mul(b, c)) == tower.mul(tower.mul(a, b), c)
            assert tower.mul(a, tower.add(b, c)) == tower.add(
                tower.mul(a, b), tower.mul(a, c))
            if a:
                assert tower.mul(a, tower.inv(a)) == 1
            assert tower.sub(tower.add(a, b), b) == a


def test_slow_path_matches_tables():
    # one tower above the table limit, against the schoolbook reference
    big = FieldTower(2, 17)
    assert big._exp is None
    rng = random.Random(5)
    for _ in range(300):
        a, b = big.random_element(rng), big.random_element(rng)
        assert big.mul(a, b) == ref.field_mul(a, b, 2, big.modulus)
        if a:
            assert big.mul(a, big.inv(a)) == 1


def test_frobenius_identity_cases(gf16):
    alpha = 2
    assert gf16.frobenius(alpha, gf16.n) == alpha      # [n] is the identity
    for x in range(16):
        assert gf16.frobenius(x, 0) == x


def test_frobenius_negative_index_repeated_squaring_oracle(gf16):
    # [-1] = q^(n-1): alpha^(2^3) by naive squaring
    alpha = 2
    expected = alpha
    for _ in range(3):
        expected = gf16.mul(expected, expected)
    assert expected == 5  # 1 + alpha^2 under x^4 + x + 1
    assert gf16.frobenius(alpha, -1) == expected


def test_frobenius_is_additive_and_composes(gf16, gf27):
    rng = random.Random(77)
    for tower in (gf16, gf27):
        for _ in range(500):
            x, y = tower.random_element(rng), tower.random_element(rng)
            i = rng.randrange(-2 * tower.n, 2 * tower.n + 1)
            j = rng.randrange(-2 * tower.n, 2 * tower.n + 1)
            assert tower.frobenius(tower.add(x, y), i) == tower.add(
                tower.frobenius(x, i), tower.frobenius(y, i))
            assert tower.frobenius(tower.frobenius(x, i), j) == tower.frobenius(x, i + j)


def test_frobenius_fixes_base_field(gf27):
    for c in range(3):
        assert gf27.frobenius(c, 1) == c


def test_digits_contract_roundtrip(gf16):
    assert gf16.digits(0) == (0, 0, 0, 0)
    assert gf16.digits(4) == (0, 0, 1, 0)  # alpha^2 is a basis vector
    # alpha^4 = 1 + alpha under x^4 + x + 1
    alpha4 = gf16.pow(2, 4)
    assert gf16.digits(alpha4) == (1, 1, 0, 0)
    for x in range(16):
        assert gf16.contract(gf16.digits(x)) == x


def test_digits_are_linear(gf16, gf27):
    rng = random.Random(3)
    for tower in (gf16, gf27):
        for _ in range(300):
            x, y = tower.random_element(rng), tower.random_element(rng)
            sx = tower.digits(tower.add(x, y))
            want = tuple((a + b) % tower.q
                         for a, b in zip(tower.digits(x), tower.digits(y)))
            assert sx == want


def test_contract_over_other_elements_roundtrip(gf16):
    other = (2, 3, 9, 14)
    solver = CoordinateSolver(gf16, other)
    for x in range(16):
        assert gf16.contract(solver.solve(x), other) == x


@pytest.mark.parametrize("q, n", [(2, 6), (3, 3), (2, 20), (3, 11)])
def test_pow_negative_exponent_and_zero_base(q, n):
    tower = FieldTower(q, n)
    rng = random.Random(q * n)
    for _ in range(20):
        a = rng.randrange(1, tower.order)
        assert tower.pow(a, -3) == tower.inv(tower.pow(a, 3))
        assert tower.mul(tower.pow(a, -1), a) == 1
    assert tower.pow(0, 5) == 0 and tower.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        tower.pow(0, -1)


def test_tower_equality_reads_q_n_and_modulus():
    a, b = FieldTower(2, 6), FieldTower(2, 6)
    assert a is not b and a == b and hash(a) == hash(b)
    other = FieldTower(2, 6, (1, 0, 0, 0, 0, 1, 1))
    assert other.modulus != a.modulus and a != other
    assert a != FieldTower(2, 12) and a != FieldTower(3, 6)
    assert a != (2, 6)


def test_mul_count_increments(gf64):
    before = gf64.mul_count
    gf64.mul(3, 5)
    assert gf64.mul_count == before + 1


@pytest.mark.parametrize("q, n", [(2, 20), (3, 11)])
def test_tableless_operations_fail_fast_outside_the_field(q, n):
    tower = FieldTower(q, n)
    assert tower._exp is None
    bad = (-3, tower.order, tower._mod_int)
    with bounded(5):
        for x in bad:
            with pytest.raises(ValueError, match="outside"):
                tower.mul(5, x)
            with pytest.raises(ValueError, match="outside"):
                tower.mul(x, 5)
            with pytest.raises(ValueError, match="outside"):
                tower.inv(x)
            with pytest.raises(ValueError, match="outside"):
                tower.frobenius(x, 1)
        with pytest.raises(ZeroDivisionError):
            tower.inv(0)


# the generator is the smallest candidate of full order; these shapes
# include GF(2), prime fields up to 65521 and fields whose generator is
# not the first candidate (GF(3^7): 5, GF(5^5): 10, GF(7^3): 22, GF(7^4):
# 12, GF(13^2): 15, GF(13^4): 17, GF(31^3): 34, GF(251^2): 256, GF(65521):
# 17), so that the bulk fill steps by g of degree 0, 1 and 3, in lanes of
# 1 bit (q = 2), a byte (q <= 13, GF(13^4) the widest) and 16 and 32 bits
GENERATOR_SHAPES = [(2, 1), (2, 2), (2, 5), (2, 8), (2, 12), (2, 16), (3, 1), (3, 2),
                    (3, 5), (3, 7), (3, 9), (3, 10), (5, 1), (5, 4), (5, 5), (5, 6),
                    (7, 3), (7, 4), (11, 3), (13, 2), (13, 4), (17, 2), (17, 3), (31, 3),
                    (251, 2), (257, 1), (65521, 1)]
# a full scan of GF(3^10) steps 32 candidates before g = 34 (about 30 s), so
# the reference steps only g; its minimality is test_generator_order_test_is_bounded's
KNOWN_GENERATORS = {(3, 10): 34}


@pytest.mark.parametrize("q, n", GENERATOR_SHAPES)
def test_generator_matches_stepping_scan(q, n):
    tower = FieldTower(q, n)
    assert tower.mul_count == 0
    gen, exp, log = ref.log_tables(q, tower.modulus, KNOWN_GENERATORS.get((q, n)))
    assert tower.generator == gen
    assert tower._exp == exp and tower._log == log
    if q == 2:
        assert tower._zech is None
    else:
        assert tower._zech == ref.zech_table(q, n, exp, log)


# monic polynomials of each degree, all of them checked against trial division
IRREDUCIBILITY_SHAPES = [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)] + [
    (5, n) for n in range(1, 4)] + [(7, n) for n in range(1, 4)]


@pytest.mark.parametrize("q, n", IRREDUCIBILITY_SHAPES)
def test_is_irreducible_matches_trial_division(q, n):
    for low in range(q**n):
        f = tuple(ref.digits(low, q, n)) + (1,)
        assert is_irreducible(f, q) == ref.is_irreducible(f, q), f


# coefficients are read mod q, (1, 1, 3) as x + 1; degree below 1 or not
# monic: False
@pytest.mark.parametrize("f, q, expected", [
    ((), 2, False), ((1,), 2, False), ((1, 1, 0), 2, True), ((2, 2), 3, False),
    ((4, 1), 3, True), ((1, 1, 3), 3, True)])
def test_is_irreducible_edge_inputs(f, q, expected):
    assert is_irreducible(f, q) is expected


# the moduli find_irreducible returned before it stopped at the first
# failing power (Ben-Or's test decides the same predicate)
PINNED_MODULI = {
    (2, 20): (1, 0, 0, 1) + (0,) * 16 + (1,),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 11): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (13, 4): (2, 0, 0, 0, 1),
    (31, 24): (30, 0, 1) + (0,) * 21 + (1,),
}


# (31, 24) goes through FieldTower under a time bound, below
@pytest.mark.parametrize("q, n", [s for s in PINNED_MODULI if s != (31, 24)])
def test_find_irreducible_returns_pinned_modulus(q, n):
    assert find_irreducible(q, n) == PINNED_MODULI[q, n]


def test_find_irreducible_is_bounded_at_31_24():
    # about 1,000 candidates, most rejected after one or two powers of x
    with bounded(10):
        tower = FieldTower(31, 24)
    assert tower.modulus == PINNED_MODULI[31, 24]


def test_find_irreducible_is_bounded_at_31_64():
    # 974 candidates, each power of x a product on 32-bit lanes
    with bounded(10):
        tower = FieldTower(31, 64)
    assert tower.modulus == (12, 0, 1) + (0,) * 61 + (1,)


def test_generator_order_test_is_bounded():
    # the order test rejects a candidate with a few powers instead of
    # stepping through its cycle: GF(3^10) rejects the 32 candidates 2..33
    with bounded(1):
        assert FieldTower(3, 10).generator == 34


def test_frobenius_tables_leave_mul_count_alone():
    # a fresh tower builds the tables for power 3 on the first call only,
    # and both calls count the same
    tower = FieldTower(2, 20)
    counts = []
    for _ in range(2):
        before = tower.mul_count
        tower.frobenius(12345, 3)
        counts.append(tower.mul_count - before)
    assert counts == [1, 1]
    assert list(tower._frob) == [3]
    # trivial calls are the identity and count nothing
    before = tower.mul_count
    assert [tower.frobenius(x, i) for x, i in ((0, 3), (1, 3), (7, 20))] == [0, 1, 7]
    assert tower.mul_count == before


def test_frobenius_tables_shared_across_threads():
    # threads that fill a fresh tower's Frobenius cache at once, power by
    # power, must all read complete tables: compare with a tower filled
    # by one thread; several fresh towers, since one race may not overlap
    n, workers = 20, 6
    alone = FieldTower(2, n)
    xs = random.Random(4).sample(range(2, alone.order), 12)
    want = [[alone.frobenius(x, i) for x in xs] for i in range(n)]

    def race(shared):
        got = {}
        start = threading.Barrier(workers, timeout=30)

        def work(k):
            start.wait()
            got[k] = [[shared.frobenius(x, i) for x in xs] for i in range(n)]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads)
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(12):
            shared = FieldTower(2, n)
            assert race(shared) == {k: want for k in range(workers)}
            assert sorted(shared._frob) == list(range(1, n))
    finally:
        sys.setswitchinterval(interval)


def test_power_maps_leave_mul_count_alone():
    # the first root-space images of a fresh tower build the word maps for
    # powers 0, 2 and n - 1 (n + 2 reads as 2); both calls count n per
    # nonzero coefficient
    for q, n in ((2, 12), (3, 9), (2, 20), (3, 11), (31, 4)):
        tower = FieldTower(q, n)
        coeffs = [0] * (n + 3)
        coeffs[0], coeffs[2], coeffs[n - 1], coeffs[n + 2] = 1, tower.order - 1, 2, 3
        counts, images = [], []
        for _ in range(2):
            before = tower.mul_count
            images.append(tower.linearized_images(coeffs))
            counts.append(tower.mul_count - before)
        assert counts == [4 * n, 4 * n]
        assert images[0] == images[1]
        assert sorted(tower._power_maps) == [0, 2, n - 1]


def test_linear_map_lanes_hold_an_image_plus_a_reduced_sum():
    # linearized_images adds a map's lanes to a running sum taken mod q: with
    # 21 input digits at q = 13 an image's lane reaches 21 * 12 = 252, and
    # the sum 252 + 252 mod 13 = 257 no longer fits in a byte
    m = LinearMap(13, 1, [1] * 21)
    w = m._lanes(13**21 - 1)  # every input digit 12
    assert (m.lane, w) == (16, 252)
    assert m._symbols(_mod_lanes(w, 13, m.lane) + w) == [2 * 252 % 13]


def test_linearized_images_of_many_terms_stay_reduced():
    # 2n + 2 dense coefficients on GF(13^10), whose word-map lanes are bytes
    # that hold one term (at most 10 * 12) and a reduced sum: summed without
    # the reduction, the terms would carry out of their lanes
    tower = FieldTower(13, 10)
    coeffs = [tower.order - 1 - p for p in range(2 * tower.n + 2)]
    want = [0] * tower.n
    for p, c in enumerate(coeffs):
        for i, b in enumerate(tower.basis):
            want[i] = tower.add(want[i], tower.mul(c, tower.frobenius(b, p)))
    assert tower.linearized_images(coeffs) == want
    assert tower._power_maps[0].lane == 8


def test_power_maps_shared_across_threads():
    # threads that fill a fresh tower's word-map cache at once must all read
    # complete maps: compare with a tower filled by one thread, on a
    # table-backed and a table-less tower of each parity of q
    workers = 6
    for q, n in ((2, 12), (3, 9), (2, 20), (3, 11)):
        alone = FieldTower(q, n)
        rng = random.Random(q * n)
        polys = [[rng.randrange(alone.order) for _ in range(p + 1)] + [1] for p in range(n)]
        want = [alone.linearized_images(f) for f in polys]

        def race(shared):
            got = {}
            start = threading.Barrier(workers, timeout=30)

            def work(k):
                start.wait()
                got[k] = [shared.linearized_images(f) for f in polys]

            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                shared = FieldTower(q, n)
                assert race(shared) == {k: want for k in range(workers)}
                assert sorted(shared._power_maps) == list(range(n))
        finally:
            sys.setswitchinterval(interval)


def test_elements_outside_the_field_rejected_at_the_boundary(gf16):
    rng = random.Random(0)
    gf9 = FieldTower(3, 2)
    with bounded(5):
        with pytest.raises(ValueError, match="generator component 16"):
            GabidulinCode(gf16, 2, g=(1, 2, 4, 16))
        with pytest.raises(ValueError, match="parity component -1"):
            GabidulinCode(gf16, 2, h=(1, 2, 4, -1))
        with pytest.raises(ValueError, match="basis element -1"):
            SubspaceBasis(gf9, [-1])
        with pytest.raises(ValueError, match="element 99"):
            CoordinateSolver(gf16, [1, 99])
        with pytest.raises(ValueError, match="support element 32"):
            random_error(gf16, 3, 1, rng, support=[1, 32])
        with pytest.raises(ValueError, match="element 2.0"):
            CoordinateSolver(gf16, [1, 2.0])
    assert gf16.check_elements(iter([0, 15])) == (0, 15)
    # words and messages, on table-backed and table-less towers: -1 would
    # index the log tables from their end, and `axpy` checks no entry
    for tower in (gf16, gf9, FieldTower(2, 17), FieldTower(3, 11)):
        n = tower.n
        with bounded(20):
            code = GabidulinCode(tower, n - 1, g=tower.basis)
            M = DirectSumCode(code, [tower.basis[:n // 2], tower.basis[n // 2:]])
            basis = SubspaceBasis(tower, tower.basis[:max(2, n // 2)])
            sub = SubspaceSubcode(code, basis)
            emb = SubfieldEmbedding(tower, 1)
        for bad in (-1, tower.order, True, 2.0):
            word = (1,) * (n - 1) + (bad,)
            with bounded(5):
                for call, what in ((code.decode, "word symbol"),
                                   (code.is_codeword, "word symbol"),
                                   (M.decode, "word symbol"),
                                   (code.encode, "message symbol")):
                    with pytest.raises(ValueError, match=f"{what} {bad!r} "):
                        call(word[1:] if call == code.encode else word)
                # single symbols at the subspace and subfield boundary
                for call in (basis.coords, basis.contains, code.parity_coordinates,
                             emb.contains, emb.subfield_coords, emb.ext_coords):
                    with pytest.raises(ValueError, match=f"^element {bad!r} "):
                        call(bad)
                for call in (sub.to_parent, sub.decode,
                             lambda w: sub.decode(w, route="ambient")):
                    with pytest.raises(ValueError, match=f"^word symbol {bad!r} "):
                        call(word)
                with pytest.raises(ValueError, match=f"^element {bad!r} "):
                    sub.from_parent(word[-basis.m:])


def test_check_elements_rejects_bools(gf16):
    with pytest.raises(ValueError, match="element True"):
        gf16.check_elements([1, True])
    with pytest.raises(ValueError, match="parity component False"):
        GabidulinCode(gf16, 2, h=(1, 2, 4, False))
