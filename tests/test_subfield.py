import dataclasses
import itertools
import random

import pytest
from conftest import bounded

from rankcodes import (FieldTower, GabidulinCode, SubfieldEmbedding,
                       SubspaceBasis, SubspaceSubcode,
                       block_diagonal, compute_factorization, default_generator,
                       ext_nullspace, rank_of_vector, rank_q,
                       subfield_success_probability, success_probability,
                       verify_uniqueness)
from rankcodes.subfield import _qary_expansion

from gfq_reference import (annihilates, codewords, dot, expand_parity, ext_coords, ext_rank,
                           fixed_field, min_rank_distance, subcode_encodings)


@pytest.fixture(scope="module")
def code64(gf64):
    return GabidulinCode(gf64, 4, g=default_generator(gf64))  # [6,4,3]


@pytest.fixture(scope="module")
def emb3(gf64):
    return SubfieldEmbedding(gf64, 3)


@pytest.fixture(scope="module")
def gf8(gf64):
    return fixed_field(gf64, 3)


@pytest.fixture(scope="module")
def factz(code64):
    return compute_factorization(code64, 3)


@pytest.fixture(scope="module")
def subcode_words(code64, emb3):
    sub = SubspaceSubcode(code64, SubspaceBasis(code64.tower, emb3.poly_basis))
    return subcode_encodings(sub)


def test_embedding_is_the_fixed_field(gf64, emb3, gf8):
    assert len(gf8) == 8
    assert sorted(gf64.contract(c, emb3.poly_basis)
                  for c in itertools.product(range(2), repeat=3)) == gf8
    for x in gf8:
        assert gf64.frobenius(x, 3) == x and emb3.contains(x)
    # closed under the field operations
    for a, b in itertools.product(gf8, repeat=2):
        assert gf64.add(a, b) in gf8
        assert gf64.mul(a, b) in gf8
    outside = next(x for x in range(gf64.order) if x not in gf8)
    assert not emb3.contains(outside)


def test_embedding_polynomial_basis(gf64, emb3):
    assert emb3.poly_basis[0] == 1
    assert rank_of_vector(gf64, emb3.poly_basis) == 3
    theta = emb3.generator
    assert emb3.poly_basis == (1, theta, gf64.mul(theta, theta))


def test_embedding_degree_must_divide():
    tower = FieldTower(2, 6)
    with pytest.raises(ValueError, match="divide"):
        SubfieldEmbedding(tower, 4)


@pytest.mark.parametrize("s", [1.5, 3.0, "3", True, False, None, 0, -3, 4, 12])
def test_subfield_degree_must_be_an_int_dividing_n(gf64, code64, emb3, s):
    with pytest.raises(ValueError, match="subfield degree"):
        SubfieldEmbedding(gf64, s)
    with pytest.raises(ValueError, match="subfield degree"):
        subfield_success_probability(code64, s, 2)
    with pytest.raises(ValueError, match="subfield degree"):
        compute_factorization(code64, s, embedding=emb3)


def test_embedding_beyond_enumeration_is_bounded():
    # GF(2^32) inside GF(2^64): theta is found without listing 2^32 elements
    tower = FieldTower(2, 64)
    with bounded(5):
        emb = SubfieldEmbedding(tower, 32)
    theta = emb.generator
    assert emb.poly_basis == tuple(tower.pow(theta, i) for i in range(32))
    assert rank_of_vector(tower, emb.poly_basis) == 32
    assert tower.frobenius(theta, 32) == theta and tower.frobenius(theta, 16) != theta
    for x in emb.poly_basis + emb.ext_basis:
        assert dot(tower, ext_coords(emb, x), emb.ext_basis) == x


@pytest.mark.parametrize("ext_basis", [(2.5, 1), (64, 1), (-1, 2), (True, 2)])
def test_embedding_rejects_ext_basis_outside_the_field(gf64, ext_basis):
    with pytest.raises(ValueError, match="extension basis element"):
        SubfieldEmbedding(gf64, 3, ext_basis=ext_basis)


def test_embedding_rejects_ext_basis_dependent_over_the_subfield(gf64, emb3):
    # 1 and theta both lie in GF(2^3), so they span only the subfield
    with pytest.raises(ValueError, match="rank 3 < 6"):
        SubfieldEmbedding(gf64, 3, ext_basis=(1, emb3.generator))


def test_trivial_embedding_s_equals_n(gf16):
    emb = SubfieldEmbedding(gf16, 4)
    assert len(emb.ext_basis) == 1 and emb.ext_basis == (1,)
    assert sorted(gf16.contract(c, emb.poly_basis) for c in itertools.product(
        range(2), repeat=4)) == fixed_field(gf16, 4) == list(range(16))
    for x in range(16):
        assert ext_coords(emb, x) == (x,)


def test_subfield_coordinates_roundtrip(gf64, emb3, gf8):
    for x in gf8:
        coords = emb3.sub_basis.coords(x)
        assert coords is not None
        assert gf64.contract(coords, emb3.poly_basis) == x
    assert emb3.sub_basis.coords(2) is None  # alpha has degree 6, not in GF(8)


def test_ext_coords_roundtrip(gf64, emb3):
    rng = random.Random(70)
    for _ in range(200):
        x = gf64.random_element(rng)
        coords = ext_coords(emb3, x)
        assert len(coords) == 2
        assert all(emb3.contains(c) for c in coords)
        assert dot(gf64, coords, emb3.ext_basis) == x


def test_expand_parity_columns_contract_to_h(code64, emb3, gf64):
    rows = expand_parity(code64, emb3)
    assert len(rows) == 2 and len(rows[0]) == 6
    for j, hj in enumerate(code64.h):
        assert dot(gf64, [rows[r][j] for r in range(2)], emb3.ext_basis) == hj
    # the q-ary expansion of the rows has full rank n
    from rankcodes.subfield import _qary_expansion
    assert rank_q(_qary_expansion(emb3, rows), 2) == 6


def test_expand_parity_single_row_when_s_is_n(gf16):
    code = GabidulinCode(gf16, 2, g=default_generator(gf16))
    emb = SubfieldEmbedding(gf16, 4)
    rows = expand_parity(code, emb)
    assert rows == [list(code.h)]


def test_factorization_transform_invertible(factz, gf64):
    assert rank_q(factz.transform, 2) == 6
    assert len(factz.block) == 2 and len(factz.block[0]) == 3
    # block rows are Frobenius powers of the subfield basis
    assert tuple(factz.block[0]) == factz.subfield_basis
    assert factz.block[1] == [gf64.mul(x, x) for x in factz.block[0]]


def test_factorization_annihilates_the_subcode(factz, subcode_words, gf64):
    assert len(subcode_words) == 64  # q^(n(s-d+1)) with m = s
    for word in subcode_words:
        assert annihilates(gf64, factz.parity, word)


def test_factorization_kernel_is_exactly_the_subcode(factz, gf8, subcode_words, gf64):
    # among subfield vectors, the parity kernel has exactly the subcode size
    hits = sum(1 for word in itertools.product(gf8, repeat=6)
               if annihilates(gf64, factz.parity, word))
    assert hits == len(subcode_words) == 64


def test_factorization_parity_rank_over_subfield(factz, code64, gf64, emb3):
    r = ext_rank(gf64, factz.parity)
    assert r == (code64.d - 1) * emb3.blocks == 4


def test_factorization_requires_theorem_precondition(gf64):
    # d - 2 < s fails for d = 5, s = 3
    big_d = GabidulinCode(gf64, 2, g=default_generator(gf64))  # [6,2,5]
    with pytest.raises(ValueError, match="d - 2 < s"):
        compute_factorization(big_d, 3)


def test_factorization_requires_full_length(gf64):
    short = GabidulinCode(gf64, 2, g=(1, 2, 4, 8))
    with pytest.raises(ValueError, match="full-length"):
        compute_factorization(short, 3)


@pytest.mark.parametrize("q, n, modulus", [(2, 6, (1, 0, 0, 0, 0, 1, 1)), (2, 12, None)])
def test_embedding_from_another_tower_is_rejected(code64, factz, q, n, modulus):
    other = SubfieldEmbedding(FieldTower(q, n, modulus), 3)
    with pytest.raises(ValueError, match="different field towers"):
        compute_factorization(code64, 3, embedding=other)
    with pytest.raises(ValueError, match="different field towers"):
        verify_uniqueness(code64, dataclasses.replace(factz, embedding=other))


def test_uniqueness_of_transform(code64, factz):
    ok, problem = verify_uniqueness(code64, factz)
    assert ok, problem


@pytest.mark.parametrize("q, n, s, k", [
    (2, 6, 3, 4), (3, 9, 3, 7), (5, 4, 2, 2), (3, 6, 2, 4), (2, 12, 4, 8)])
def test_transform_is_the_coordinate_matrix_of_h(q, n, s, k):
    # S read off h agrees with expanding h over the extension basis and
    # then each subfield entry over the subfield basis
    tower = FieldTower(q, n)
    code = GabidulinCode(tower, k, g=default_generator(tower))
    emb = SubfieldEmbedding(tower, s)
    factz = compute_factorization(code, s, embedding=emb)
    assert factz.transform == _qary_expansion(emb, expand_parity(code, emb))
    assert verify_uniqueness(code, factz) == (True, None)


def test_transform_matches_expansion_over_another_ext_basis(code64, gf64):
    emb = SubfieldEmbedding(gf64, 3, ext_basis=(2, 1))
    factz = compute_factorization(code64, 3, embedding=emb)
    assert factz.transform == _qary_expansion(emb, expand_parity(code64, emb))


@pytest.mark.parametrize("q, n, s, k", [(2, 6, 3, 4), (5, 4, 2, 2)])
def test_uniqueness_check_rejects_a_tampered_system(q, n, s, k):
    tower = FieldTower(q, n)
    code = GabidulinCode(tower, k, g=default_generator(tower))
    emb = SubfieldEmbedding(tower, s)
    factz = compute_factorization(code, s, embedding=emb)
    rng = random.Random(q * n)
    subfield = fixed_field(tower, s)
    for _ in range(6):
        # one entry of S changed: the true solution now differs from it
        i, j = rng.randrange(n), rng.randrange(n)
        bad = [row[:] for row in factz.transform]
        bad[i][j] = (bad[i][j] + rng.randrange(1, q)) % q
        ok, problem = verify_uniqueness(code, dataclasses.replace(factz, transform=bad))
        assert not ok and problem == f"column {j}: distinct solution found"
        # one parity entry moved by a nonzero subfield element
        r, c = rng.randrange(len(factz.parity)), rng.randrange(n)
        parity = [row[:] for row in factz.parity]
        parity[r][c] = tower.add(parity[r][c], rng.choice(subfield[1:]))
        ok, problem = verify_uniqueness(code, dataclasses.replace(factz, parity=parity))
        assert not ok and problem.startswith(f"column {c}: ")
    # a parity entry outside the subfield is no system over it
    parity = [row[:] for row in factz.parity]
    parity[0][0] = next(x for x in range(tower.order) if not emb.contains(x))
    with pytest.raises(ValueError, match="not a subfield element"):
        verify_uniqueness(code, dataclasses.replace(factz, parity=parity))
    # a zero block leaves every unknown free
    zero = [[0] * s for _ in factz.block]
    ok, problem = verify_uniqueness(code, dataclasses.replace(factz, block=zero))
    assert (ok, problem) == (False, f"solution space has dimension {n}")


def test_perturbed_transform_breaks_annihilation(factz, subcode_words, gf64, emb3):
    rng = random.Random(71)
    big = block_diagonal(factz.block, emb3.blocks)
    for _ in range(5):
        i, j = rng.randrange(6), rng.randrange(6)
        bad = [row[:] for row in factz.transform]
        bad[i][j] ^= 1
        parity = []
        for row in big:
            out = []
            for c in range(6):
                acc = 0
                for jj, w in enumerate(row):
                    if w and bad[jj][c]:
                        acc = gf64.add(acc, gf64.mul(bad[jj][c], w))
                out.append(acc)
            parity.append(out)
        assert any(not annihilates(gf64, parity, word) for word in subcode_words)


def test_changing_ext_basis_changes_transform(code64, factz, subcode_words, gf64):
    permuted = SubfieldEmbedding(gf64, 3, ext_basis=(2, 1))
    other = compute_factorization(code64, 3, embedding=permuted)
    assert other.transform != factz.transform
    for word in subcode_words:
        assert annihilates(gf64, other.parity, word)


def test_block_code_is_mrd_over_the_subfield(factz, gf8, gf64):
    # the code over GF(q^s) with parity-check A is a [3,1,3] rank-metric
    # optimum: enumerate its subfield-vector kernel exhaustively
    words = [w for w in itertools.product(gf8, repeat=3)
             if annihilates(gf64, factz.block, w)]
    assert len(words) == 8  # (q^s)^(s-d+1)
    assert min(rank_of_vector(gf64, w) for w in words if any(w)) == 3


def test_block_code_matches_abstract_gf8_code():
    # an abstract GF(2^3) code with the same Moore parity shape has the
    # same parameters, independently of the embedding
    t8 = FieldTower(2, 3)
    from rankcodes import dual_vector
    h = (1, 2, 4)
    g = dual_vector(t8, h, 2)  # generator of the [3,1] code with parity h
    abstract = GabidulinCode(t8, 1, g=g, h=h)
    assert abstract.d == 3
    assert min_rank_distance(abstract) == 3
    assert len(set(codewords(abstract))) == 8


def test_subfield_decoding_probability_matches_direct_sum_form(code64):
    # decoding a subfield subcode succeeds per block, so its probability is
    # the direct-sum exact product with u = n/s parts of dimension s
    from rankcodes import rank_leq_probability, subfield_success_probability
    cap = code64.capability
    for t in range(0, 4):
        lhs = subfield_success_probability(code64, 3, t)
        assert lhs == success_probability(2, [3, 3], cap, t)
        assert lhs == rank_leq_probability(2, 3, t, cap) ** 2
    p = subfield_success_probability(code64, 3, 2)
    assert 0 < p < 1
    lead = subfield_success_probability(code64, 3, 2, form="leading-order")
    assert lead == success_probability(2, [3, 3], cap, 2, form="leading-order")
    assert lead == 2.0 ** (-(2 - cap) * ((3 - cap) + (3 - cap)))
