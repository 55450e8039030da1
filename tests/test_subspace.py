import random

import pytest

from rankcodes import (CoordinateSolver, DecodingFailure, FieldTower, GabidulinCode,
                       SubfieldEmbedding, SubspaceBasis, SubspaceSubcode,
                       TrivialSubcodeError, default_generator, moore_matrix, qlinalg,
                       random_error, rank_of_vector)

from gfq_reference import (codewords, messages, min_rank_distance, parent_parity_rows, span,
                           subcode_codewords, subcode_encodings)


@pytest.fixture(scope="module")
def tiny_sub(tiny_code, gf16):
    return SubspaceSubcode(tiny_code, SubspaceBasis(gf16, (1, 2, 4)))


@pytest.fixture(scope="module")
def medium_sub(medium_code, gf4096):
    return SubspaceSubcode(medium_code,
                           SubspaceBasis(gf4096, tuple(2**i for i in range(8))))


def _rand_subspace_vector(rng, basis, length):
    return tuple(basis.element([rng.randrange(basis.tower.q)
                                for _ in range(basis.m)])
                 for _ in range(length))


def test_subspace_basis_validation(gf16):
    with pytest.raises(ValueError, match="dependent"):
        SubspaceBasis(gf16, (1, 2, 3))
    basis = SubspaceBasis(gf16, (1, 2, 4))
    assert basis.m == 3
    assert basis.contains(6) and not basis.contains(8)


@pytest.mark.parametrize("q, n, elements", [(2, 12, (1, 2, 4, 8, 16, 32)), (3, 9, (1, 3, 9))])
def test_subspace_basis_is_one_elimination(monkeypatch, q, n, elements):
    """The basis is its own CoordinateSolver: its rank test and its
    coordinates come from one kernel_rows, with no separate rank."""
    tower = FieldTower(q, n)
    calls = {"kernel_rows": 0, "rank_rows": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(qlinalg, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(qlinalg, name, counted)
    basis = SubspaceBasis(tower, elements)
    assert calls == {"kernel_rows": 1, "rank_rows": 0}
    assert isinstance(basis, CoordinateSolver) and basis.m == len(elements)


def test_coords_is_the_checked_solve(gf16, gf64, tiny_code):
    with pytest.raises(ValueError, match="linearly dependent"):
        SubspaceBasis(gf16, (1, 2, 3))
    emb = SubfieldEmbedding(gf64, 3)
    for tower, solver in [(gf16, SubspaceBasis(gf16, (1, 2, 4))), (gf16, tiny_code._h_solver),
                          (gf64, emb._sub_solver), (gf64, emb._full_solver)]:
        for x in range(tower.order):
            assert solver.coords(x) == solver.solve(x)
            assert solver.contains(x) == (solver.solve(x) is not None)
        with pytest.raises(ValueError, match="not an element"):
            solver.coords(tower.order)


def test_subspace_basis_rejects_non_integer_elements(gf16):
    # elements are checked as given, not coerced by int() first
    for bad in ([1.7, 2], ["4", True], [True], [None]):
        with pytest.raises(ValueError, match="basis element"):
            SubspaceBasis(gf16, bad)


def test_empty_subspace_holds_only_zero(gf16, gf27):
    for tower in (gf16, gf27):
        empty = SubspaceBasis(tower, [])
        assert empty.m == 0
        assert empty.coords(0) == [] and empty.contains(0)
        for x in (1, 5, tower.order - 1):
            assert empty.coords(x) is None and not empty.contains(x)


def test_to_parent_names_the_component_outside(tiny_sub):
    with pytest.raises(ValueError, match="component 2 lies outside"):
        tiny_sub.to_parent((1, 2, 8, 0))


def test_transfer_of_basis_prefix(tiny_sub):
    # (beta_1, ..., beta_m, 0, ..., 0) maps to (h_1, ..., h_m)
    h = tiny_sub.code.h
    assert tiny_sub.to_parent((1, 2, 4, 0)) == h[:3]
    assert tiny_sub.from_parent(h[:3]) == (1, 2, 4, 0)
    assert tiny_sub.to_parent((0, 0, 0, 0)) == (0, 0, 0)
    for word in (h[:2], h):
        with pytest.raises(ValueError, match="expected length 3"):
            tiny_sub.from_parent(word)


def test_transfer_linearity_bijectivity_rank(medium_sub, gf4096):
    rng = random.Random(51)
    basis = medium_sub.basis
    seen = set()
    for _ in range(1000):
        v = _rand_subspace_vector(rng, basis, 12)
        w = _rand_subspace_vector(rng, basis, 12)
        fv, fw = medium_sub.to_parent(v), medium_sub.to_parent(w)
        summed = tuple(gf4096.add(a, b) for a, b in zip(v, w))
        assert medium_sub.to_parent(summed) == tuple(
            gf4096.add(a, b) for a, b in zip(fv, fw))
        assert rank_of_vector(gf4096, fv) == rank_of_vector(gf4096, v)
        assert medium_sub.from_parent(fv) == v
        seen.add(fv)
    # forward and backward round-trips in the other direction
    for _ in range(200):
        y = tuple(gf4096.random_element(rng) for _ in range(8))
        assert medium_sub.to_parent(medium_sub.from_parent(y)) == y


def test_parent_code_shape(tiny_sub, medium_sub):
    assert (tiny_sub.parent.length, tiny_sub.parent.k, tiny_sub.parent.d) == (3, 1, 3)
    assert (medium_sub.parent.length, medium_sub.parent.k, medium_sub.parent.d) == (8, 4, 5)


def test_parent_single_row_when_d_is_two(gf16):
    # d = 2: the only declared parity row is beta itself ([n] is identity)
    code = GabidulinCode(gf16, 3, g=default_generator(gf16))
    assert code.d == 2
    sub = SubspaceSubcode(code, SubspaceBasis(gf16, (1, 2)))
    assert parent_parity_rows(sub) == [[1, 2]]
    assert (sub.parent.length, sub.parent.k, sub.parent.d) == (2, 1, 2)


def test_parent_parity_rows_match_moore_form(tiny_sub, medium_sub):
    # the declared rows beta^[n], ..., beta^[n-d+2] equal the parent's Moore
    # parity rows in reverse order, so the row spaces coincide exactly
    for sub in (tiny_sub, medium_sub):
        declared = parent_parity_rows(sub)
        built = moore_matrix(sub.tower, sub.parent.h, sub.d - 1)
        assert [list(r) for r in built] == [list(r) for r in reversed(declared)]


def test_subcode_membership_via_parent_parity(tiny_sub, gf16):
    # f_b(c) lands in the kernel of the parent parity rows for every subcode
    # word of the tiny instance, and only subcode words do
    rows = parent_parity_rows(tiny_sub)
    members = subcode_codewords(tiny_sub)
    assert len(members) == 16
    for c in members:
        v = tiny_sub.to_parent(c)
        for row in rows:
            acc = 0
            for a, b in zip(row, v):
                acc = gf16.add(acc, gf16.mul(a, b))
            assert acc == 0


def test_enumerations_agree(tiny_sub):
    assert sorted(subcode_encodings(tiny_sub)) == sorted(subcode_codewords(tiny_sub))


def test_parent_min_distance(tiny_sub):
    assert min_rank_distance(tiny_sub.parent) == tiny_sub.code.d


def test_image_of_subcode_is_parent_code(tiny_sub):
    image = sorted(tiny_sub.to_parent(c) for c in subcode_codewords(tiny_sub))
    assert image == sorted(codewords(tiny_sub.parent))


def test_cardinality_and_distance_small(tiny_code, gf16):
    sub3 = SubspaceSubcode(tiny_code, SubspaceBasis(gf16, (1, 2, 4)))
    words = subcode_codewords(sub3)
    assert len(words) == 16 == sub3.cardinality
    assert min(rank_of_vector(gf16, c) for c in words if any(c)) == 3
    # m = n recovers the whole code
    subn = SubspaceSubcode(tiny_code, SubspaceBasis(gf16, (1, 2, 4, 8)))
    assert len(subcode_codewords(subn)) == 16**2
    # m < d leaves only zero
    sub2 = SubspaceSubcode(tiny_code, SubspaceBasis(gf16, (1, 2)))
    assert sub2.is_trivial
    assert subcode_codewords(sub2) == [(0, 0, 0, 0)]
    assert subcode_encodings(sub2) == [(0, 0, 0, 0)]
    with pytest.raises(TrivialSubcodeError):
        sub2.encode(())
    with pytest.raises(TrivialSubcodeError, match="no parent decoder"):
        sub2.decode((0, 0, 0, 0), route="parent")
    assert sub2.decode((0, 0, 0, 0), route="ambient") == ((0,) * 4, (0,) * 4)


def test_subcode_additive_but_not_linear(tiny_sub, gf16):
    words = set(subcode_codewords(tiny_sub))
    wl = sorted(words)
    for a in wl:
        for b in wl[:6]:
            assert tuple(gf16.add(x, y) for x, y in zip(a, b)) in words
    # witness: some GF(q^n) scalar pushes a word's components out of V
    witness = next(c for c in wl if any(c))
    escaped = False
    for lam in range(2, 16):
        scaled = tuple(gf16.mul(lam, x) for x in witness)
        if not all(tiny_sub.basis.contains(x) for x in scaled):
            escaped = True
            break
    assert escaped


def test_encode_injective_and_in_subcode(medium_sub, gf4096):
    rng = random.Random(52)
    seen = set()
    for _ in range(100):
        msg = tuple(gf4096.random_element(rng) for _ in range(medium_sub.parent.k))
        c = medium_sub.encode(msg)
        assert medium_sub.code.is_codeword(c)
        assert all(medium_sub.basis.contains(x) for x in c)
        seen.add((msg, c))
    assert len({c for _, c in seen}) == len({m for m, _ in seen})


def test_encode_image_matches_cardinality(tiny_sub):
    image = {tiny_sub.encode(m) for m in messages(tiny_sub.parent)}
    assert len(image) == tiny_sub.cardinality == 16


def test_decode_routes_agree(medium_sub, gf4096):
    rng = random.Random(53)
    basis = medium_sub.basis
    for trial in range(300):
        msg = tuple(gf4096.random_element(rng) for _ in range(medium_sub.parent.k))
        c = medium_sub.encode(msg)
        t = trial % 3
        e = random_error(gf4096, 12, t, rng, support=basis.elements)
        y = tuple(gf4096.add(a, b) for a, b in zip(c, e))
        ca, ea = medium_sub.decode(y, route="ambient")
        cp, ep = medium_sub.decode(y, route="parent")
        assert (ca, ea) == (cp, ep) == (c, e)


def test_decode_routes_agree_exhaustively_tiny(tiny_sub, gf16):
    # every subcode word of the tiny instance plus every rank-<=1 error
    # with components in V: the two routes give identical results
    basis = tiny_sub.basis
    values = [x for x in span(basis) if x]
    errors = [(0, 0, 0, 0)]
    for value in values:
        for mask in range(1, 16):
            errors.append(tuple(value if (mask >> i) & 1 else 0
                                for i in range(4)))
    words = subcode_encodings(tiny_sub)
    for c in words:
        for e in errors:
            y = tuple(gf16.add(a, b) for a, b in zip(c, e))
            outcomes = []
            for route in ("ambient", "parent"):
                try:
                    outcomes.append(tiny_sub.decode(y, route=route))
                except DecodingFailure:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1]
            if rank_of_vector(gf16, e) <= tiny_sub.code.capability:
                assert outcomes[0] == (c, e)


def test_decode_clean_word_both_routes(tiny_sub):
    word = next(c for c in subcode_encodings(tiny_sub) if any(c))
    for route in ("ambient", "parent"):
        assert tiny_sub.decode(word, route=route) == (word, (0,) * 4)


def test_decode_route_validation(tiny_sub):
    with pytest.raises(ValueError, match="route"):
        tiny_sub.decode((0, 0, 0, 0), route="bogus")


def test_ambient_route_failure_names_the_subspace_stage(tiny_sub):
    # the full-length code decodes this word of V^4, but to a codeword
    # with a component outside V
    with pytest.raises(DecodingFailure, match="^subspace: ") as info:
        tiny_sub.decode((0, 0, 1, 6), route="ambient")
    assert info.value.stage == "subspace"


def test_decode_failure_beyond_capability(medium_sub, gf4096):
    rng = random.Random(54)
    failures = 0
    for _ in range(50):
        msg = tuple(gf4096.random_element(rng) for _ in range(medium_sub.parent.k))
        c = medium_sub.encode(msg)
        e = random_error(gf4096, 12, 3, rng, support=medium_sub.basis.elements)
        y = tuple(gf4096.add(a, b) for a, b in zip(c, e))
        outcomes = []
        for route in ("ambient", "parent"):
            try:
                got_c, _ = medium_sub.decode(y, route=route)
                assert medium_sub.code.is_codeword(got_c)
                outcomes.append(got_c)
            except DecodingFailure:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is None:
            failures += 1
    assert failures > 0


def test_subspace_subcode_requires_full_length_code(gf16):
    short = GabidulinCode(gf16, 1, g=(1, 2, 4))
    with pytest.raises(ValueError, match="full-length"):
        SubspaceSubcode(short, SubspaceBasis(gf16, (1, 2)))
