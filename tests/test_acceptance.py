"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime budget.  The conftest terminal hook prints one
PASS/FAIL line per criterion after the run.

Criterion 9 checks the exact product formula (pinned by criteria 7 and
8) against the leading-order figure that
success_probability(..., form="leading-order") reports, whose exponent is
the per-part sum (t - C) * sum(m_i - C).  The single exponent
(N - C)(t - C) with N = sum(m_i) holds only for one part: for u parts it
is larger by (u - 1)C(t - C), and the test records that difference too.
"""

import json
import math
import random
import time
from fractions import Fraction

from rankcodes import (DecodingFailure, DirectSumCode, FieldTower,
                       GabidulinCode, SubfieldEmbedding, SubspaceBasis,
                       SubspaceSubcode, block_diagonal,
                       compute_factorization, count_rank_matrices,
                       default_generator, dual_vector, ext_nullspace,
                       moore_matrix, random_error, rank_event_rate,
                       rank_of_vector, rank_q, success_probability)
from rankcodes.cli import main as cli_main

from gfq_reference import (annihilates, codewords, ext_rank, fixed_field, min_rank_distance,
                           subcode_codewords, subcode_encodings)


class _Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s over {self.limit}s budget"


def test_c01_mrd_parameters():
    """Exhaustive minimum rank distance equals n-k+1 for q=2, n=4, k=1..3."""
    budget = _Budget(10)
    tower = FieldTower(2, 4)
    g = default_generator(tower)
    for k in (1, 2, 3):
        code = GabidulinCode(tower, k, g=g)
        assert min_rank_distance(code) == 4 - k + 1
    budget.check()


def test_c02_duality():
    """100 random generators per n in {4,6,8}: orthogonality and a
    one-dimensional dual solution space."""
    budget = _Budget(30)
    rng = random.Random(9001)
    for n in (4, 6, 8):
        tower = FieldTower(2, n)
        for _ in range(100):
            while True:
                g = tuple(tower.random_element(rng) for _ in range(n))
                if rank_of_vector(tower, g) == n:
                    break
            k = rng.randrange(1, n)
            rows = [[tower.frobenius(gi, mu) for gi in g]
                    for mu in range(-(n - k - 1), k)]
            assert len(ext_nullspace(tower, rows)) == 1
            h = dual_vector(tower, g, k)
            for grow in moore_matrix(tower, g, k):
                for hrow in moore_matrix(tower, h, n - k):
                    acc = 0
                    for a, b in zip(grow, hrow):
                        acc = tower.add(acc, tower.mul(a, b))
                    assert acc == 0
    budget.check()


def test_c03_bounded_distance_decoding():
    """q=2, n=12, k=8 (d=5, C=2): 1000 seeded trials per t in {0,1,2} all
    recover (c, e) exactly; at t=3 there is never a silent non-codeword."""
    budget = _Budget(120)
    tower = FieldTower(2, 12)
    code = GabidulinCode(tower, 8, g=default_generator(tower))
    assert (code.d, code.capability) == (5, 2)
    rng = random.Random(31337)
    for t in (0, 1, 2):
        for _ in range(1000):
            msg = tuple(tower.random_element(rng) for _ in range(8))
            sent = code.encode(msg)
            err = random_error(tower, 12, t, rng)
            received = tuple(tower.add(a, b) for a, b in zip(sent, err))
            got_c, got_e = code.decode(received)
            assert got_c == sent and got_e == err
    for _ in range(1000):
        msg = tuple(tower.random_element(rng) for _ in range(8))
        sent = code.encode(msg)
        err = random_error(tower, 12, 3, rng)
        received = tuple(tower.add(a, b) for a, b in zip(sent, err))
        try:
            got_c, got_e = code.decode(received)
        except DecodingFailure:
            continue
        assert code.is_codeword(got_c)
        assert rank_of_vector(tower, got_e) <= 2
    budget.check()


def test_c04_transfer_map_suite():
    """Rank-preserving transfer: linearity, both round-trips, and exact rank
    preservation over 1000 random vectors (n=12, m=8); subcode image equals
    the parent code on the tiny instance."""
    budget = _Budget(60)
    tower = FieldTower(2, 12)
    code = GabidulinCode(tower, 8, g=default_generator(tower))
    basis = SubspaceBasis(tower, tuple(2**i for i in range(8)))
    sub = SubspaceSubcode(code, basis)
    rng = random.Random(4242)
    for _ in range(1000):
        v = tuple(basis.element([rng.randrange(2) for _ in range(8)])
                  for _ in range(12))
        w = tuple(basis.element([rng.randrange(2) for _ in range(8)])
                  for _ in range(12))
        fv = sub.to_parent(v)
        assert rank_of_vector(tower, fv) == rank_of_vector(tower, v)
        assert sub.from_parent(fv) == v
        fsum = sub.to_parent(tuple(tower.add(a, b) for a, b in zip(v, w)))
        assert fsum == tuple(tower.add(a, b) for a, b in zip(fv, sub.to_parent(w)))
    for _ in range(200):
        y = tuple(tower.random_element(rng) for _ in range(8))
        assert sub.to_parent(sub.from_parent(y)) == y

    tiny_tower = FieldTower(2, 4)
    tiny = GabidulinCode(tiny_tower, 2, g=default_generator(tiny_tower))
    tiny_sub = SubspaceSubcode(tiny, SubspaceBasis(tiny_tower, (1, 2, 4)))
    image = sorted(tiny_sub.to_parent(c) for c in subcode_codewords(tiny_sub))
    assert image == sorted(codewords(tiny_sub.parent))
    budget.check()


def test_c05_subcode_cardinality_and_distance():
    """Exhaustive subcode of the [4,2,3] code over a 3-dim subspace has
    exactly 16 words of minimum rank 3; a 2-dim subspace leaves {0}."""
    budget = _Budget(10)
    tower = FieldTower(2, 4)
    code = GabidulinCode(tower, 2, g=default_generator(tower))
    sub3 = SubspaceSubcode(code, SubspaceBasis(tower, (1, 2, 4)))
    words = subcode_codewords(sub3)
    assert len(words) == 16
    assert min(rank_of_vector(tower, c) for c in words if any(c)) == 3
    sub2 = SubspaceSubcode(code, SubspaceBasis(tower, (1, 2)))
    assert subcode_codewords(sub2) == [(0, 0, 0, 0)]
    budget.check()


def test_c06_route_equivalence():
    """Ambient and parent decoding agree on 1000 seeded decodable instances
    with errors confined to the m=8 subspace."""
    budget = _Budget(120)
    tower = FieldTower(2, 12)
    code = GabidulinCode(tower, 8, g=default_generator(tower))
    basis = SubspaceBasis(tower, tuple(2**i for i in range(8)))
    sub = SubspaceSubcode(code, basis)
    rng = random.Random(777)
    for trial in range(1000):
        msg = tuple(tower.random_element(rng) for _ in range(sub.parent.k))
        sent = sub.encode(msg)
        t = trial % 3
        err = random_error(tower, 12, t, rng, support=basis.elements)
        received = tuple(tower.add(a, b) for a, b in zip(sent, err))
        ambient = sub.decode(received, route="ambient")
        parent = sub.decode(received, route="parent")
        assert ambient == parent == (sent, err)
    budget.check()


def test_c07_beyond_capability():
    """Two 6-dim parts of the [12,8,5] code: a crafted rank-4 error with
    per-part ranks 2 decodes exactly; the exact t=3 success probability is
    the counted product and 1e5 Monte Carlo trials land within 3 sigma."""
    budget = _Budget(300)
    tower = FieldTower(2, 12)
    code = GabidulinCode(tower, 8, g=default_generator(tower))
    dsc = DirectSumCode(code, [tuple(2**i for i in range(6)),
                               tuple(2**i for i in range(6, 12))])
    assert dsc.capability == 2
    rng = random.Random(2718)
    msg = tuple(tower.random_element(rng) for _ in range(dsc.message_length))
    sent = dsc.encode(msg)
    err = [0] * 12
    err[0], err[1] = dsc.parts[0].elements[0], dsc.parts[0].elements[1]
    err[2], err[3] = dsc.parts[1].elements[0], dsc.parts[1].elements[1]
    err = tuple(err)
    assert rank_of_vector(tower, err) == 4
    assert [rank_of_vector(tower, p) for p in dsc.project(err)] == [2, 2]
    received = tuple(tower.add(a, b) for a, b in zip(sent, err))
    result = dsc.decode(received)
    assert result.ok and result.codeword == sent and result.error == err

    per_part = sum(count_rank_matrices(2, 6, 3, r) for r in range(3))
    expected = Fraction(per_part, 2**18) ** 2
    assert success_probability(2, [6, 6], 2, 3) == expected
    mc = rank_event_rate(2, [6, 6], 2, 3, 100_000, seed=1618)
    assert abs(mc.frequency - float(expected)) <= mc.half_width
    budget.check()


def test_c08_probability_cross_check():
    """q=2, parts {2,2}, C=1, t=2: exact 0.390625 from the enumerated matrix
    counts, Monte Carlo within +-0.005 at 1e5 trials."""
    counts = [count_rank_matrices(2, 2, 2, r) for r in (0, 1)]
    assert counts == [1, 9]
    exact = success_probability(2, [2, 2], 1, 2)
    assert exact == Fraction(sum(counts), 16) ** 2
    assert float(exact) == 0.390625
    mc = rank_event_rate(2, [2, 2], 1, 2, 100_000, seed=55)
    assert abs(mc.frequency - 0.390625) <= 0.005


def test_c09_leading_order_sanity():
    """|log_q(exact) - log_q(lead)| <= 2u/q for q=31, parts {3,3}, C=1,
    t=2, against the closed form that form="leading-order" reports.

    exact = (1 + N_1(3,2))^2 / 31^12 = q^(-3.9815...) and the reported
    exponent is (t-C) * sum(m_i-C) = 4, so the offset is ~0.0185 against
    a bound of 4/31 ~ 0.129.  The single exponent (N-C)(t-C) = 5 is off by
    (u-1)C(t-C) = 1, a whole power of q, which no 2u/q bound can absorb.
    """
    budget = _Budget(60)
    q, dims, cap, t = 31, [3, 3], 1, 2
    u = len(dims)
    n_total = sum(dims)
    exact = success_probability(q, dims, cap, t)
    lead = success_probability(q, dims, cap, t, form="leading-order")
    exponent = round(-math.log(lead, q))
    assert lead == float(q) ** -exponent
    offset = math.log(exact, q) + exponent
    budget.check()
    assert abs(offset) <= 2 * u / q, (
        f"|log_q(exact) + {exponent}| = {abs(offset):.4f} > {2 * u / q:.4f}")
    assert (n_total - cap) * (t - cap) - exponent == (u - 1) * cap * (t - cap)


def test_c10_subfield_theorem():
    """q=2, n=6, s=3, d=3: invertible transform, all 64 subcode words
    annihilated, parity rank 4 over GF(8), the block code is [3,1,3], and
    perturbing the transform breaks annihilation."""
    budget = _Budget(60)
    tower = FieldTower(2, 6)
    code = GabidulinCode(tower, 4, g=default_generator(tower))
    assert code.d == 3
    emb = SubfieldEmbedding(tower, 3)
    factz = compute_factorization(code, 3, embedding=emb)
    assert rank_q(factz.transform, 2) == 6

    sub = SubspaceSubcode(code, SubspaceBasis(tower, emb.poly_basis))
    words = subcode_encodings(sub)
    assert len(words) == 64
    for word in words:
        assert annihilates(tower, factz.parity, word)

    assert ext_rank(tower, factz.parity) == 4

    import itertools
    block_words = [w for w in itertools.product(fixed_field(tower, 3), repeat=3)
                   if annihilates(tower, factz.block, w)]
    assert len(block_words) == 8
    assert min(rank_of_vector(tower, w) for w in block_words if any(w)) == 3

    perturbed = [row[:] for row in factz.transform]
    perturbed[0][0] ^= 1
    big = block_diagonal(factz.block, emb.blocks)
    parity = []
    for row in big:
        out = []
        for c in range(6):
            acc = 0
            for j, w in enumerate(row):
                if w and perturbed[j][c]:
                    acc = tower.add(acc, tower.mul(perturbed[j][c], w))
            out.append(acc)
        parity.append(out)
    assert any(not annihilates(tower, parity, word) for word in words)
    budget.check()


def test_c11_cli_reproducibility(tmp_path):
    """Identical configs and seeds produce byte-identical JSON output."""
    cfg = {
        "field": {"q": 2, "n": 4},
        "code": {"k": 2},
        "parts": [[1, 2], [4, 8]],
        "channel": {"t_values": [1, 2], "trials": 20_000, "seed": 7},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    assert cli_main(["simulate", "--config", str(path), "--output", str(out1)]) == 0
    assert cli_main(["simulate", "--config", str(path), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes()  # nonempty
