import random

import pytest
from conftest import bounded, table_bytes

from rankcodes import (DecodingFailure, FieldTower, GabidulinCode,
                       default_generator, dual_vector, ext_nullspace,
                       moore_matrix, random_error, rank_of_vector)

import gfq_reference as ref
from gfq_reference import ext_rank, min_rank_distance


def _orthogonal(tower, g_rows, h_rows):
    for grow in g_rows:
        for hrow in h_rows:
            acc = 0
            for a, b in zip(grow, hrow):
                acc = tower.add(acc, tower.mul(a, b))
            if acc:
                return False
    return True


def test_moore_matrix_shape_and_squaring(gf16):
    v = (1, 2, 4, 8)
    m = moore_matrix(gf16, v, 3)
    assert m[0] == [1, 2, 4, 8]
    for i in range(2):
        assert m[i + 1] == [gf16.mul(x, x) for x in m[i]]  # q = 2
    assert moore_matrix(gf16, v, 1) == [list(v)]
    with pytest.raises(ValueError):
        moore_matrix(gf16, v, 0)


def test_full_moore_matrix_invertible(gf16):
    rng = random.Random(41)
    for _ in range(20):
        while True:
            v = tuple(gf16.random_element(rng) for _ in range(4))
            if rank_of_vector(gf16, v) == 4:
                break
        assert ext_rank(gf16, moore_matrix(gf16, v, 4)) == 4


def test_dual_vector_defining_system_one_dimensional(gf16):
    rng = random.Random(42)
    for _ in range(20):
        while True:
            g = tuple(gf16.random_element(rng) for _ in range(4))
            if rank_of_vector(gf16, g) == 4:
                break
        k = rng.randrange(1, 4)
        rows = [[gf16.frobenius(gi, mu) for gi in g]
                for mu in range(-(4 - k - 1), k)]
        assert len(ext_nullspace(gf16, rows)) == 1
        h = dual_vector(gf16, g, k)
        assert rank_of_vector(gf16, h) == 4
        assert _orthogonal(gf16, moore_matrix(gf16, g, k),
                           moore_matrix(gf16, h, 4 - k))


def test_dual_vector_canonicalized(gf16):
    h = dual_vector(gf16, (1, 2, 4, 8), 2)
    assert next(x for x in h if x) == 1
    # any nonzero scalar multiple still satisfies the parity relations
    lam = 7
    scaled = tuple(gf16.mul(lam, x) for x in h)
    assert _orthogonal(gf16, moore_matrix(gf16, (1, 2, 4, 8), 2),
                       moore_matrix(gf16, scaled, 2))


def test_code_construction_checks(gf16):
    g = default_generator(gf16)
    code = GabidulinCode(gf16, 2, g=g)
    assert (code.length, code.k, code.d, code.capability) == (4, 2, 3, 1)
    with pytest.raises(ValueError, match="rank"):
        GabidulinCode(gf16, 2, g=(1, 2, 3, 4))
    with pytest.raises(ValueError, match="dimension"):
        GabidulinCode(gf16, 4, g=g)
    with pytest.raises(ValueError, match="dual"):
        GabidulinCode(gf16, 2, g=g, h=g)
    with pytest.raises(ValueError, match="need a generator vector"):
        GabidulinCode(gf16, 2)
    with pytest.raises(ValueError, match="exceeds the extension degree"):
        GabidulinCode(gf16, 2, h=(1, 2, 4, 8, 3))
    with pytest.raises(ValueError, match="parity vector must have full q-ary rank"):
        GabidulinCode(gf16, 2, h=(1, 2, 3, 4))


def test_decode_only_code_refuses_encoding(gf16):
    code = GabidulinCode(gf16, 2, h=(1, 2, 4, 8))
    with pytest.raises(ValueError, match="generator"):
        code.encode((1, 2))
    with pytest.raises(ValueError, match="generator"):
        list(ref.codewords(code))


def test_encode_unit_vector_gives_generator_row(tiny_code):
    assert tiny_code.encode((1, 0)) == tiny_code.g
    assert tiny_code.encode((0,) * tiny_code.k) == (0,) * tiny_code.length


def test_syndromes_zero_iff_codeword(tiny_code, gf16):
    rng = random.Random(43)
    assert tiny_code.syndromes((0, 0, 0, 0)) == (0, 0)
    for _ in range(100):
        msg = tuple(gf16.random_element(rng) for _ in range(2))
        c = tiny_code.encode(msg)
        assert tiny_code.is_codeword(c)
    # words off the code have nonzero syndromes (full parity rank)
    non = 0
    for _ in range(100):
        w = tuple(gf16.random_element(rng) for _ in range(4))
        if not tiny_code.is_codeword(w):
            non += 1
            assert any(tiny_code.syndromes(w))
    assert non > 0


def test_rank_one_error_syndrome_structure(medium_code, gf4096):
    # for e_i = a_i * E with a_i in GF(q): s_l = E * x^[l], x = sum a_i h_i
    rng = random.Random(44)
    h = medium_code.h
    for _ in range(20):
        value = rng.randrange(1, gf4096.order)
        coeffs = [rng.randrange(2) for _ in range(12)]
        if not any(coeffs):
            coeffs[0] = 1
        e = tuple(gf4096.mul(a, value) for a in coeffs)
        synd = medium_code.syndromes(e)
        x = gf4096.contract(coeffs, h)
        for l, s_l in enumerate(synd):
            assert s_l == gf4096.mul(value, gf4096.frobenius(x, l))


def test_decode_clean_codeword(tiny_code, gf16):
    rng = random.Random(45)
    msg = tuple(gf16.random_element(rng) for _ in range(2))
    c = tiny_code.encode(msg)
    got_c, got_e = tiny_code.decode(c)
    assert got_c == c and got_e == (0,) * 4


def test_decode_roundtrip_within_capability(medium_code, gf4096):
    rng = random.Random(46)
    for trial in range(400):
        msg = tuple(gf4096.random_element(rng) for _ in range(8))
        c = medium_code.encode(msg)
        t = trial % 3
        e = random_error(gf4096, 12, t, rng)
        y = tuple(gf4096.add(a, b) for a, b in zip(c, e))
        got_c, got_e = medium_code.decode(y)
        assert got_c == c and got_e == e


def test_decode_beyond_capability_never_junk(medium_code, gf4096):
    rng = random.Random(47)
    failures = 0
    for _ in range(100):
        msg = tuple(gf4096.random_element(rng) for _ in range(8))
        c = medium_code.encode(msg)
        e = random_error(gf4096, 12, 3, rng)
        y = tuple(gf4096.add(a, b) for a, b in zip(c, e))
        try:
            got_c, got_e = medium_code.decode(y)
        except DecodingFailure:
            failures += 1
            continue
        assert medium_code.is_codeword(got_c)
        assert rank_of_vector(gf4096, got_e) <= medium_code.capability
    assert failures > 0


@pytest.mark.parametrize("k,expected", [(1, 4), (2, 3), (3, 2)])
def test_exhaustive_min_distance(gf16, k, expected):
    code = GabidulinCode(gf16, k, g=default_generator(gf16))
    assert min_rank_distance(code) == expected


def test_enumeration_guard(gf4096):
    code = GabidulinCode(gf4096, 8, g=default_generator(gf4096))
    with pytest.raises(ValueError, match="enumerate"):
        list(ref.codewords(code))


def _code(q, n, length, k):
    tower = FieldTower(q, n)
    return GabidulinCode(tower, k, g=default_generator(tower)[:length])


def test_decode_failure_names_its_stage():
    # errors of rank C + 1 fail at different stages on different shapes:
    # [8,5,4] has a 2 x 2 key equation, [6,2,5] has L < n
    stages = set()
    for shape in [(2, 8, 8, 5), (2, 12, 12, 8), (2, 8, 6, 2)]:
        code = _code(*shape)
        tower, rng = code.tower, random.Random(48)
        for _ in range(30):
            c = code.encode(tuple(tower.random_element(rng) for _ in range(code.k)))
            e = random_error(tower, code.length, code.capability + 1, rng)
            y = tuple(tower.add(a, b) for a, b in zip(c, e))
            try:
                code.decode(y)
            except DecodingFailure as exc:
                assert str(exc).startswith(f"{exc.stage}: ")
                stages.add(exc.stage)
    assert {"key-equation", "root-space", "locator"} <= stages
    assert stages <= {"key-equation", "root-space", "locator", "residual"}


@pytest.mark.parametrize("word, failure", [
    ((47, 134, 102, 167, 91, 57), "locator: error locator outside the span of h"),
    ((94, 12, 182, 107, 157, 220), "residual: corrected word has nonzero syndromes"),
])
def test_inconsistent_locator_system_fails_at_span_or_residual(word, failure):
    # uniform words on [6,2,5] over GF(2^8) whose full (d-1)-row locator
    # system is inconsistent; decode solves only the f x f block, and the
    # span of h or the residual check rejects what that block returns
    code = _code(2, 8, 6, 2)
    with pytest.raises(DecodingFailure, match="locator system is inconsistent"):
        ref.decode_full_locator(code, word)
    with pytest.raises(DecodingFailure) as info:
        code.decode(word)
    assert str(info.value) == failure


@pytest.mark.parametrize("shape", [(2, 4, 4, 2), (2, 5, 5, 1), (3, 3, 3, 1)])
def test_decode_matches_exhaustive_nearest_codeword(shape):
    # [4,2,3] over GF(2^4), [5,1,5] over GF(2^5), [3,1,3] over GF(3^3)
    code = _code(*shape)
    tower, length, rng = code.tower, code.length, random.Random(49)
    codewords = list(ref.codewords(code))
    words = [tuple(tower.random_element(rng) for _ in range(length)) for _ in range(40)]
    for t in range(length + 1):
        for _ in range(8):
            c = rng.choice(codewords)
            e = random_error(tower, length, t, rng)
            words.append(tuple(tower.add(a, b) for a, b in zip(c, e)))
    for y in words:
        near = [c for c in codewords
                if rank_of_vector(tower, [tower.sub(a, b) for a, b in zip(y, c)])
                <= code.capability]
        assert len(near) <= 1
        if near:
            c = near[0]
            assert code.decode(y) == (c, tuple(tower.sub(a, b) for a, b in zip(y, c)))
        else:
            with pytest.raises(DecodingFailure):
                code.decode(y)


def _orbit_rank_scan(tower):
    """The smallest normal element's orbit by testing every candidate."""
    for cand in range(1, tower.order):
        orbit = tuple(tower.frobenius(cand, i) for i in range(tower.n))
        if rank_of_vector(tower, orbit) == tower.n:
            return orbit


# (2, 8), (2, 16) and (3, 9) have n a power of the characteristic
@pytest.mark.parametrize("q, n", [(2, 6), (2, 8), (2, 12), (2, 16), (3, 3), (3, 4),
                                  (3, 6), (3, 9), (5, 4), (5, 5), (7, 2),
                                  (2, 17), (2, 33), (3, 11), (5, 7)])
def test_default_generator_matches_orbit_rank_scan(q, n):
    tower = FieldTower(q, n)
    assert default_generator(tower) == _orbit_rank_scan(tower)


def test_default_generator_table_less_n20():
    with bounded(2):
        tower = FieldTower(2, 20)
        g = default_generator(tower)
    assert g == tuple(tower.frobenius(1 << 17, i) for i in range(20))
    assert rank_of_vector(tower, g) == 20


def test_full_length_odd_q_code_builds_in_seconds_at_n_64():
    # the parity vector comes from the trace-dual basis, with no
    # elimination over GF(3^64), and the word maps step alpha on lanes
    with bounded(15):
        tower = FieldTower(3, 64)
        code = GabidulinCode(tower, 32, g=tower.basis)
    assert code.h[0] == 1 and rank_of_vector(tower, code.h) == 64


@pytest.mark.parametrize("q, n, k", [(2, 64, 32), (3, 30, 15)])
def test_codec_maps_bounded_at_the_top_of_the_range(q, n, k):
    # the word-wide maps read 4-bit chunks (q^k <= 16 digits), which keeps
    # both codec tables of a code at n = 64 under 10 MB
    tower = FieldTower(q, n)
    g = default_generator(tower)
    rng = random.Random(7)
    with bounded(30):
        code = GabidulinCode(tower, k, g=g)
        message = [tower.random_element(rng) for _ in range(k)]
        codeword = code.encode(message)
    assert code.is_codeword(codeword)
    # codeword_l = sum_i m_i g_l^[i], for the first and last position
    for pos in (0, n - 1):
        want = 0
        for i, m in enumerate(message):
            want = tower.add(want, tower.mul(m, tower.frobenius(g[pos], i)))
        assert codeword[pos] == want
    assert table_bytes(code._encoder) + table_bytes(code._syndrome_map) < 10 * 2**20


def test_word_maps_past_q_16_keep_no_tables():
    # a word map's table holds at most 16 entries, so for q > 16 each input
    # digit multiplies its image: the GF(31^16) [16, 8] codec maps hold one
    # image per digit, about 0.15 MB each, where tables of 31 entries per
    # digit held 2.2 MB
    tower = FieldTower(31, 16)
    with bounded(10):
        code = GabidulinCode(tower, 8, g=tower.basis)
    for m, digits in ((code._encoder, 8 * 16), (code._syndrome_map, 16 * 16)):
        assert m._bits == 0 and len(m.tables) == digits
        assert table_bytes(m) < 2**18


def test_small_odd_q_word_maps_take_byte_lanes():
    # GF(5^6) [6, 4]: 24 encoder and 36 syndrome input digits, whose lanes
    # sum to at most 24 * 4 and 36 * 4, with each digit multiple taken mod 5
    tower = FieldTower(5, 6)
    code = GabidulinCode(tower, 4, g=default_generator(tower))
    assert code._encoder.lane == code._syndrome_map.lane == 8
