import itertools
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import gfq_reference as ref
import pytest
from conftest import bounded, table_bytes

from rankcodes import (CoordinateSolver, DirectSumCode, FieldTower, GabidulinCode,
                       SubspaceBasis, SubspaceSubcode, TrivialSubcodeError, decode_experiment,
                       default_generator, direct_sum_violations,
                       random_error, rank_event_rate, rank_leq_probability,
                       rank_of_vector, sample_channel_error, success_probability)
from rankcodes import directsum


@pytest.fixture(scope="module")
def pair66(medium_code, gf4096):
    """[12,8,5] code split over two disjoint 6-dimensional subspaces."""
    return DirectSumCode(medium_code, [tuple(2**i for i in range(6)),
                                       tuple(2**i for i in range(6, 12))])


# -- direct sum validation -----------------------------------------------------

def test_violations_single_part(gf16):
    assert direct_sum_violations([SubspaceBasis(gf16, (1, 2))]) == []
    assert direct_sum_violations([]) == ["no subspaces given"]


def test_violations_shared_vector(gf16):
    a = SubspaceBasis(gf16, (1, 2))
    b = SubspaceBasis(gf16, (2, 4))
    report = direct_sum_violations([a, b])
    assert report and "overlap in dimension 1" in report[0]


def test_violations_disjoint_pair(gf16):
    a = SubspaceBasis(gf16, (1, 2))
    b = SubspaceBasis(gf16, (4, 8))
    assert direct_sum_violations([a, b]) == []


def test_violations_pairwise_ok_global_deficient(gf16):
    # three pairwise-disjoint lines that sum to only 2 dimensions
    a = SubspaceBasis(gf16, (1,))
    b = SubspaceBasis(gf16, (2,))
    c = SubspaceBasis(gf16, (3,))  # 3 = 1 + alpha
    report = direct_sum_violations([a, b, c])
    assert report and "rank deficient" in report[0]


def test_constructor_rejects_overlap(tiny_code, gf16):
    with pytest.raises(ValueError, match="overlap"):
        DirectSumCode(tiny_code, [(1, 2), (2, 4)])


# -- projection and the extended transfer ---------------------------------------

def test_project_zero_and_single_part(pair66, gf4096):
    zero = (0,) * 12
    assert pair66.project(zero) == [zero, zero]
    rng = random.Random(60)
    v1 = tuple(gf4096.contract([rng.randrange(2) for _ in range(6)], pair66.parts[0].elements)
               for _ in range(12))
    assert pair66.project(v1) == [v1, zero]


def test_project_sums_back(pair66, gf4096):
    rng = random.Random(61)
    for _ in range(100):
        y = tuple(gf4096.random_element(rng) for _ in range(12))
        parts = pair66.project(y)
        for p, basis in zip(parts, pair66.parts):
            assert all(basis.contains(x) for x in p)
        summed = tuple(0 for _ in range(12))
        for p in parts:
            summed = tuple(gf4096.add(a, b) for a, b in zip(summed, p))
        assert summed == y


def test_project_rejects_outside_sum(tiny_code, gf16):
    dsc = DirectSumCode(tiny_code, [(1,), (2,)])
    with pytest.raises(ValueError, match="component 0"):
        dsc.project((4, 0, 0, 0))


def test_extended_transfer_rank_preserved(pair66, gf4096):
    rng = random.Random(62)
    for _ in range(1000):
        y = tuple(gf4096.random_element(rng) for _ in range(12))
        folded = pair66.to_parents(y)
        concat = folded[0] + folded[1]
        assert rank_of_vector(gf4096, concat) == rank_of_vector(gf4096, y)
    assert pair66.to_parents((0,) * 12) == ((0,) * 6, (0,) * 6)


# -- coding ----------------------------------------------------------------------

def test_encode_single_part_reduces_to_subspace_encode(medium_code, gf4096):
    lone = DirectSumCode(medium_code, [tuple(2**i for i in range(8))])
    rng = random.Random(63)
    msg = tuple(gf4096.random_element(rng) for _ in range(lone.message_length))
    assert lone.encode(msg) == SubspaceSubcode(medium_code, lone.parts[0]).encode(msg)


def test_building_a_direct_sum_builds_no_subspace_subcode(monkeypatch, gf4096):
    """Each part's parent code is built in place; a SubspaceSubcode per
    part would build a fold and an unfold map for every part again."""
    def refuse(*args):
        raise AssertionError("a SubspaceSubcode was built")

    monkeypatch.setattr(SubspaceSubcode, "__init__", refuse)
    code = GabidulinCode(gf4096, 10, g=default_generator(gf4096))  # [12,10,3]
    dsc = DirectSumCode(code, [tuple(2**i for i in range(a, a + 4)) for a in (0, 4, 8)])
    assert [(p.length, p.k, p.d) for p in dsc.parents] == [(4, 2, 3)] * 3
    word = dsc.encode(range(1, 7))
    assert dsc.decode(word).codeword == word


def test_encode_injective_on_small_instance(gf64):
    code = GabidulinCode(gf64, 4, g=default_generator(gf64))  # [6,4,3]
    dsc = DirectSumCode(code, [tuple(2**i for i in range(3)),
                               tuple(2**i for i in range(3, 6))])
    assert dsc.message_length == 2
    assert dsc.cardinality == 64**2
    assert dsc.encode((0, 0)) == (0,) * 6
    words = {dsc.encode((a, b)) for a in range(64) for b in range(64)}
    assert len(words) == dsc.cardinality
    for w in list(words)[:50]:
        assert code.is_codeword(w)


def test_size_counts_only_parts_with_a_parent(gf64, tiny_code):
    """A part with m < d adds only the zero word, so it adds nothing to the
    message length, and the size is q^n to that length, an int."""
    code = GabidulinCode(gf64, 4, g=default_generator(gf64))  # [6,4,3]
    dsc = DirectSumCode(code, [(1, 2, 4, 8, 16), (32,)])  # m = 5 and 1
    assert [p and p.k for p in dsc.parents] == [3, None]
    assert dsc.message_length == 3 and dsc.cardinality == 64**3
    empty = SubspaceBasis(tiny_code.tower, ())
    for M in (DirectSumCode(tiny_code, [(1, 2), empty]), SubspaceSubcode(tiny_code, empty)):
        assert M.message_length == 0
        assert M.cardinality == 1 and type(M.cardinality) is int


def test_encode_rejects_trivial_part(tiny_code):
    dsc = DirectSumCode(tiny_code, [(1, 2), (4, 8)])  # m = 2 < d = 3
    with pytest.raises(TrivialSubcodeError):
        dsc.encode(())


def test_encode_rejects_wrong_message_length(pair66):
    assert pair66.message_length == 4
    for message in ((), (1, 2, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(ValueError, match=f"message length {len(message)} != 4"):
            pair66.encode(message)


def test_decode_within_capability(pair66, gf4096):
    rng = random.Random(64)
    for trial in range(1000):
        msg = tuple(gf4096.random_element(rng) for _ in range(pair66.message_length))
        c = pair66.encode(msg)
        e = sample_channel_error(pair66, trial % 3, rng)
        y = tuple(gf4096.add(a, b) for a, b in zip(c, e))
        result = pair66.decode(y)
        assert result.ok and result.codeword == c and result.error == e
        assert all(o.ok for o in result.components)


def test_decode_beyond_capability_crafted(pair66, gf4096):
    rng = random.Random(65)
    msg = tuple(gf4096.random_element(rng) for _ in range(pair66.message_length))
    c = pair66.encode(msg)
    v1, v2 = pair66.parts
    e = [0] * 12
    e[0], e[1] = v1.elements[0], v1.elements[1]
    e[2], e[3] = v2.elements[0], v2.elements[1]
    e = tuple(e)
    assert rank_of_vector(gf4096, e) == 4 > pair66.capability
    assert [rank_of_vector(gf4096, p) for p in pair66.project(e)] == [2, 2]
    y = tuple(gf4096.add(a, b) for a, b in zip(c, e))
    result = pair66.decode(y)
    assert result.ok and result.codeword == c and result.error == e


def test_decode_component_failure_reported(pair66, gf4096):
    rng = random.Random(66)
    msg = tuple(gf4096.random_element(rng) for _ in range(pair66.message_length))
    c = pair66.encode(msg)
    v1 = pair66.parts[0]
    e = [0] * 12
    e[0], e[1], e[2] = v1.elements[0], v1.elements[1], v1.elements[2]
    y = tuple(gf4096.add(a, b) for a, b in zip(c, tuple(e)))
    result = pair66.decode(y)
    assert not result.ok and result.codeword is None
    assert not result.components[0].ok
    assert result.components[0].reason.startswith("root-space: ")
    assert result.components[1].ok


def test_decode_trivial_part_raises_trivial_subcode_error(gf64):
    code = GabidulinCode(gf64, 4, g=default_generator(gf64))  # [6,4,3]
    dsc = DirectSumCode(code, [(1, 2, 4, 8), (16, 32)])  # m = 2 < d = 3
    rng = random.Random(68)
    for _ in range(20):
        w = tuple(gf64.random_element(rng) for _ in range(6))
        with pytest.raises(TrivialSubcodeError, match="no parent decoder"):
            dsc.decode(w)
        # the transfer needs no parent code, so it covers trivial parts too
        subs = [SubspaceSubcode(code, p) for p in dsc.parts]
        assert dsc.to_parents(w) == tuple(
            sub.to_parent(part) for sub, part in zip(subs, dsc.project(w)))


def test_transfers_reject_wrong_word_length(gf64):
    code = GabidulinCode(gf64, 4, g=default_generator(gf64))  # [6,4,3]
    dsc = DirectSumCode(code, [(1, 2, 4), (8, 16, 32)])
    sub = SubspaceSubcode(code, dsc.parts[0])
    # every component lies in V_1, so only the length is wrong
    for word in [(1, 2, 3), (1, 2, 3, 0, 0, 0, 0)]:
        for call in (dsc.project, dsc.to_parents, dsc.decode, sub.to_parent,
                     sub.decode, lambda w: ref.ambient_decode(sub, w)):
            with pytest.raises(ValueError, match="word length"):
                call(word)


# -- probabilities ----------------------------------------------------------------

def test_rank_leq_probability_enumerated():
    assert rank_leq_probability(2, 2, 2, 1) == Fraction(10, 16)
    assert rank_leq_probability(2, 6, 3, 2) == Fraction(1 + 441 + 27342, 2**18)


def test_success_probability_exact_values():
    assert success_probability(2, [2, 2], 1, 2) == Fraction(100, 256)
    assert float(success_probability(2, [2, 2], 1, 2)) == 0.390625
    assert success_probability(2, [6, 6], 2, 3) == Fraction(27784, 2**18) ** 2


def test_success_probability_trivial_and_monotone():
    for t in range(0, 2):
        assert success_probability(2, [3, 3], 2, t) == 1
    for t in range(0, 3):
        assert success_probability(2, [3, 3], 2, t, form="leading-order") == 1.0
    assert success_probability(2, [4], 1, 0, form="leading-order") == 1.0
    values = [success_probability(2, [4, 4], 1, t) for t in range(6)]
    assert all(0 < v <= 1 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_success_probability_single_part_leading_order():
    # with one part the leading-order exponent equals the per-part exponent
    q, m, cap, t = 31, 6, 1, 2
    exact = success_probability(q, [m], cap, t)
    lead = success_probability(q, [m], cap, t, form="leading-order")
    assert lead == float(q) ** (-(m - cap) * (t - cap))
    assert abs(math.log(exact, q) + (m - cap) * (t - cap)) <= 2 / q


def test_success_probability_per_part_exponent_sum():
    # the exact product tracks the SUM of per-part leading exponents
    # (m_i - C)(t - C); each factor contributes less than 2/q of slack.
    # purely combinatorial, so prime powers are fine here
    for q in (8, 31):
        for dims in ([3, 3], [4, 2], [3, 3, 3]):
            cap, t = 1, 2
            exact = success_probability(q, dims, cap, t)
            exponent = sum((m - cap) * (t - cap) for m in dims)
            assert abs(math.log(exact, q) + exponent) <= 2 * len(dims) / q
            lead = success_probability(q, dims, cap, t, form="leading-order")
            assert lead == float(q) ** -exponent


def test_success_probability_leading_order_small_parts():
    # a part with m_i <= C always decodes, so it adds nothing to the exponent
    q, cap, t = 31, 2, 3
    exact = success_probability(q, [1, 4], cap, t)
    assert exact == success_probability(q, [4], cap, t)
    lead = success_probability(q, [1, 4], cap, t, form="leading-order")
    assert lead == float(q) ** (-(4 - cap) * (t - cap))
    assert abs(math.log(exact, q) + (4 - cap) * (t - cap)) <= 2 / q


def test_success_probability_rejects_unknown_form():
    with pytest.raises(ValueError, match="form"):
        success_probability(2, [2], 1, 2, form="bogus")


# -- Monte Carlo -------------------------------------------------------------------

def test_rank_event_rate_trivial_t():
    mc = rank_event_rate(2, [2, 2], 1, 0, 500, seed=1)
    assert mc.frequency == 1.0 and mc.successes == 500
    mc1 = rank_event_rate(2, [2, 2], 1, 1, 500, seed=1)
    assert mc1.frequency == 1.0


def test_rank_event_rate_matches_exact():
    exact = float(success_probability(2, [2, 2], 1, 2))
    mc = rank_event_rate(2, [2, 2], 1, 2, 30_000, seed=7)
    assert abs(mc.frequency - exact) <= mc.half_width
    assert mc.half_width == pytest.approx(
        3 * math.sqrt(mc.frequency * (1 - mc.frequency) / 30_000))


def test_rank_event_rate_generic_q_path():
    exact = float(success_probability(3, [2, 2], 1, 2))
    mc = rank_event_rate(3, [2, 2], 1, 2, 10_000, seed=17)
    assert abs(mc.frequency - exact) <= max(mc.half_width, 0.02)


def test_rank_event_rate_deterministic():
    a = rank_event_rate(2, [3, 3], 1, 2, 5000, seed=123)
    b = rank_event_rate(2, [3, 3], 1, 2, 5000, seed=123)
    assert a == b


def test_rank_event_rate_exact_rank_channel():
    # conditioning on full rank can only hurt the success event
    uni = rank_event_rate(2, [2, 2], 1, 2, 20_000, seed=5)
    cond = rank_event_rate(2, [2, 2], 1, 2, 20_000, seed=5, channel="exact-rank")
    assert cond.frequency <= uni.frequency
    # a full-rank 2 x 2 block always exceeds capability 1
    for q in (2, 3):
        assert rank_event_rate(q, [2], 1, 2, 200, seed=5,
                               channel="exact-rank").successes == 0
    with pytest.raises(ValueError, match="channel"):
        rank_event_rate(2, [2, 2], 1, 2, 10, seed=5, channel="bogus")


def test_rank_event_rate_exact_rank_needs_t_within_dims():
    for q in (2, 3):
        with pytest.raises(ValueError, match="exact-rank"):
            rank_event_rate(q, [2], 1, 3, 10, seed=1, channel="exact-rank")
    # the uniform channel has no such limit: rank stays <= sum(dims)
    assert rank_event_rate(2, [2], 1, 3, 10, seed=1).trials == 10


def test_rank_event_rate_zero_dimension_parts():
    # no part, or parts of dimension 0: every block has rank 0, on either channel
    for q, dims in itertools.product((2, 3, 17), ([], [0], [0, 0])):
        for channel in ("uniform-matrix", "exact-rank"):
            assert rank_event_rate(q, dims, 0, 0, 7, seed=1, channel=channel).successes == 7
    # a zero-dimension part beside others counts as they do alone
    for q, channel in itertools.product((2, 3, 17), ("uniform-matrix", "exact-rank")):
        got = [rank_event_rate(q, dims, 1, 2, 300, seed=4, channel=channel).successes
               for dims in ([0, 2, 0, 3], [2, 3])]
        assert got[0] == got[1] == ref.rank_event_successes(q, [2, 3], 1, 2, 300, 4, channel)


def test_part_dimensions_read_once_from_an_iterator():
    # an iterator of part dimensions counts as its list, on both entries
    for q, dims, capability, t in [(2, [6, 6], 2, 3), (3, [3, 3, 3], 1, 2)]:
        assert (rank_event_rate(q, iter(dims), capability, t, 100, seed=1)
                == rank_event_rate(q, dims, capability, t, 100, seed=1))
        for form in ("exact", "leading-order"):
            assert (success_probability(q, iter(dims), capability, t, form)
                    == success_probability(q, dims, capability, t, form))
    assert rank_event_rate(2, iter([6, 6]), 2, 3, 100, seed=1).successes == 2
    assert success_probability(2, iter([6, 6]), 2, 3) < Fraction(12, 1000)


def _refuse_the_per_trial_loop(*args, **kwargs):
    raise AssertionError("rank_event_rate drew a trial by random_rows")


@pytest.mark.parametrize("q", [2, 3, 13])
def test_rank_event_rate_carries_its_count_over_passes(monkeypatch, q):
    # passes of 8 attempts: on the exact-rank channel about 2/3 of a q = 2
    # pass is of full rank, so each pass counts what it accepted, the next
    # carries on, and the last keeps only the trials still owed
    monkeypatch.setattr(directsum, "_pass_lanes", lambda q, t, n_total: 8)
    for channel in ("uniform-matrix", "exact-rank"):
        with monkeypatch.context() as lanes_only:
            lanes_only.setattr(directsum, "random_rows", _refuse_the_per_trial_loop)
            got = rank_event_rate(q, [1, 2], 1, 2, 200, seed=9, channel=channel).successes
        assert 0 < got < 200
        assert got == ref.rank_event_successes(q, [1, 2], 1, 2, 200, 9, channel)


def test_rank_event_rate_ranks_wide_blocks_trial_by_trial(monkeypatch):
    # 128 rows of 4 words: a pass holds 128 attempts, under 4 per column of
    # the 128-column block, where ranking on lanes would cost more per trial
    def refuse(*args):
        raise AssertionError("a wide block was ranked on lanes")

    monkeypatch.setattr(directsum, "_rank_reaches", refuse)
    for channel in ("uniform-matrix", "exact-rank"):
        got = rank_event_rate(2, [128], 127, 128, 4, seed=3, channel=channel).successes
        assert got == ref.rank_event_successes(2, [128], 127, 128, 4, 3, channel)


@pytest.mark.parametrize("q, dims, capability, t", [(2, [6, 6], 2, 3), (3, [3, 3, 3], 1, 2)])
def test_rank_event_rate_many_trials_in_bounded_time_and_memory(monkeypatch, q, dims,
                                                                capability, t):
    # passes of at most _PASS_WORDS random words: the peak does not grow with trials
    monkeypatch.setattr(directsum, "random_rows", _refuse_the_per_trial_loop)
    exact = float(success_probability(q, dims, capability, t))
    peaks = []
    for trials in (20_000, 300_000):
        tracemalloc.start()
        try:
            with bounded(20):
                mc = rank_event_rate(q, dims, capability, t, trials, seed=2024)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert abs(mc.frequency - exact) <= mc.half_width
    assert peaks[1] < 16e6 and peaks[1] < 1.5 * peaks[0] + 1e6, peaks


def test_sample_channel_error_rejects_t_beyond_n(gf64):
    code = GabidulinCode(gf64, 4, g=default_generator(gf64))  # [6,4,3] C=1
    dsc = DirectSumCode(code, [(1, 2, 4), (8, 16, 32)])
    with pytest.raises(ValueError, match="exceed n"):
        sample_channel_error(dsc, 7, random.Random(0))
    with pytest.raises(ValueError, match="exceed n"):
        decode_experiment(dsc, 7, 1, seed=0)


def test_sample_channel_error_exact_rank_needs_t_within_dims(gf16):
    code = GabidulinCode(gf16, 2, g=default_generator(gf16))
    dsc = DirectSumCode(code, [(1, 2)])
    rng = random.Random(0)
    with pytest.raises(ValueError, match="exact-rank"):
        sample_channel_error(dsc, 3, rng, channel="exact-rank")
    assert len(sample_channel_error(dsc, 3, rng)) == 4
    with pytest.raises(ValueError, match="channel"):
        sample_channel_error(dsc, 1, rng, channel="bogus")


def test_channel_map_is_built_on_first_sample(gf64):
    # only sample_channel_error reads the channel map, so a build leaves it out
    code = GabidulinCode(gf64, 4, g=default_generator(gf64))  # [6,4,3] C=1
    for M in (DirectSumCode(code, [(1, 2, 4), (8, 16, 32)]),
              SubspaceSubcode(code, SubspaceBasis(gf64, (1, 2, 4, 8)))):
        assert M._channel is None
        first = sample_channel_error(M, 1, random.Random(3))
        channel = M._channel
        assert channel is not None
        assert sample_channel_error(M, 1, random.Random(3)) == first
        assert M._channel is channel


def test_sample_channel_error_lands_in_sum_space(pair66, gf4096):
    rng = random.Random(67)
    for channel in ("uniform-matrix", "exact-rank"):
        # t = 12 fills the 12 x 12 matrix, which is often singular if uniform
        for t in (0, 1, 3, 12, 12, 12):
            e = sample_channel_error(pair66, t, rng, channel=channel)
            if channel == "exact-rank":
                assert rank_of_vector(gf4096, e) == t
            else:
                assert rank_of_vector(gf4096, e) <= t
            pair66.project(e)  # raises if outside the sum space


def test_decode_experiment_agrees_with_rank_event(gf64):
    code = GabidulinCode(gf64, 4, g=default_generator(gf64))  # [6,4,3] C=1
    dsc = DirectSumCode(code, [tuple(2**i for i in range(3)),
                               tuple(2**i for i in range(3, 6))])
    exp = decode_experiment(dsc, 2, 200, seed=29)
    assert exp.trials == 200
    assert exp.successes == exp.event_successes
    assert 0 < exp.successes < exp.trials
    assert exp.field_muls > 0


def test_direct_sum_entry_points_fail_fast(gf64):
    with pytest.raises(ValueError, match="not a prime"):
        rank_event_rate(4, [2, 2], 1, 1, 10, seed=1)
    with pytest.raises(ValueError, match="part dimension"):
        rank_event_rate(2, [-1, 2], 1, 1, 10, seed=1)
    with pytest.raises(ValueError, match="part dimension"):
        success_probability(2, [2, 2.5], 1, 1)
    with pytest.raises(ValueError, match="^t must"):
        success_probability(2, [2, 2], 1, -1)
    with pytest.raises(ValueError, match="capability"):
        success_probability(3, [2], -1, 1, form="leading-order")
    with pytest.raises(ValueError, match="not a prime power"):
        success_probability(6, [2], 1, 1)
    with pytest.raises(ValueError, match="not a prime power"):
        success_probability(True, [2], 1, 1)
    code = GabidulinCode(gf64, 4, g=default_generator(gf64))  # [6,4,3] C=1
    dsc = DirectSumCode(code, [(1, 2, 4), (8, 16, 32)])
    for trials in (-1, 0, True, False, 2.5):
        with pytest.raises(ValueError, match="trial"):
            rank_event_rate(3, [3], 1, 2, trials, 0)
        with pytest.raises(ValueError, match="trial"):
            decode_experiment(dsc, 1, trials, 0)


# -- the transfer maps against the per-position reference ----------------------

def _independent(tower, count, rng):
    while True:
        els = [tower.random_element(rng) for _ in range(count)]
        if ref.rank([tower.digits(x) for x in els], tower.q) == count:
            return els


# (q, n, k, part dimensions): q in {2, 3, 5}, table-backed and table-less
# (2^17, 2^18, 3^11 and 5^7 exceed 2^16), N = n and N < n
@pytest.mark.parametrize("q, n, k, dims", [
    (2, 6, 4, [3, 3]), (2, 8, 6, [3, 3]), (2, 18, 14, [9, 9]), (2, 17, 13, [6, 6]),
    (3, 6, 4, [3, 3]), (3, 9, 7, [3, 3, 3]), (3, 11, 9, [5, 6]), (3, 11, 9, [4, 4]),
    (5, 6, 4, [3, 3]), (5, 4, 2, [3]), (5, 7, 5, [3, 4])])
def test_transfers_match_per_position_reference(q, n, k, dims):
    rng = random.Random(f"transfers:{q}:{n}:{dims}")
    tower = FieldTower(q, n)
    code = GabidulinCode(tower, k, g=default_generator(tower))
    els = _independent(tower, sum(dims), rng)
    parts = [els[sum(dims[:i]):sum(dims[:i + 1])] for i in range(len(dims))]
    M = DirectSumCode(code, parts)
    h = code.h
    for _ in range(3):
        message = [tower.random_element(rng) for _ in range(M.message_length)]
        codeword = M.encode(message)
        blocks, off = [], 0
        for parent in M.parents:
            blocks.append(parent.encode(message[off:off + parent.k]))
            off += parent.k
        assert codeword == ref.unfold(blocks, parts, h, q, n)
        t = rng.randrange(min(n, sum(dims)) + 1)
        channel = rng.choice(["uniform-matrix", "exact-rank"])
        twin = random.Random()
        twin.setstate(rng.getstate())
        error = sample_channel_error(M, t, rng, channel=channel)
        values = random_error(tower, sum(dims), t, twin, mode=channel)
        assert rng.getstate() == twin.getstate()
        assert error == ref.spread(values, parts, q, n, n)
        received = tuple(tower.add(a, b) for a, b in zip(codeword, error))
        assert M.to_parents(received) == ref.fold(received, parts, h, q, n)
        assert M.project(received) == ref.project(received, parts, q, n)
        # each part alone is a subspace subcode with the same transfer
        for part, word, folded in zip(parts, M.project(received), M.to_parents(received)):
            sub = SubspaceSubcode(code, part)
            assert sub.to_parent(word) == ref.fold(word, [part], h, q, n)[0] == folded
            assert sub.from_parent(folded) == ref.unfold([folded], [part], h, q, n) == word
    if sum(dims) < n:
        outside = next(b for b in tower.basis
                       if ref.coordinates(b, els, q, n) is None)
        pos = rng.randrange(n)
        bad = received[:pos] + (outside,) + received[pos + 1:]
        message = f"component {pos} lies outside the subspace sum"
        with pytest.raises(ValueError, match=message):
            ref.fold(bad, parts, h, q, n)
        for call in (M.to_parents, M.project, M.decode):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(bad)


# (q, n, k): parents [32, 16, 17] and [15, 9, 7]
@pytest.mark.parametrize("q, n, k", [(2, 64, 48), (3, 30, 24)])
def test_direct_sum_maps_bounded_at_the_top_of_the_range(q, n, k):
    # the fold and the unfold read 4-bit chunks (q^k <= 16 digits), which
    # keeps each map at n = 64 under 10 MB
    tower = FieldTower(q, n)
    rng = random.Random(11)
    with bounded(30):
        code = GabidulinCode(tower, k, g=default_generator(tower))
        M = DirectSumCode(code, [tower.basis[:n // 2], tower.basis[n // 2:]])
        message = [tower.random_element(rng) for _ in range(M.message_length)]
        codeword = M.encode(message)
        error = sample_channel_error(M, M.capability, rng)
        result = M.decode(tuple(tower.add(a, b) for a, b in zip(codeword, error)))
    assert result.ok and result.codeword == codeword and result.error == error
    for linear_map in (M._fold, M._unfold, M._channel):
        assert table_bytes(linear_map) < 10 * 2**20


def test_odd_q_unfold_takes_byte_lanes():
    # the oddq-q3n9 unfold reads 81 digits; its tables hold each digit
    # multiple mod 3, so a lane sums to at most 81 * 2 = 162, in one byte
    tower = FieldTower(3, 9)
    code = GabidulinCode(tower, 7, g=default_generator(tower))
    M = DirectSumCode(code, [[1, 3, 9], [27, 81, 243], [729, 2187, 6561]])
    assert M._unfold.lane == 8


def test_direct_sum_trial_makes_no_solve_or_contract(monkeypatch, pair66, gf4096):
    """A paper-q2n12 trial (encode, sample, project, decode) runs the
    direct-sum transfers on their word maps alone: directsum.py calls
    neither CoordinateSolver.solve nor FieldTower.contract."""
    callers = []

    def spy(original):
        def wrapped(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_filename)
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(CoordinateSolver, "solve", spy(CoordinateSolver.solve))
    monkeypatch.setattr(FieldTower, "contract", spy(FieldTower.contract))
    rng = random.Random(3)
    message = [gf4096.random_element(rng) for _ in range(pair66.message_length)]
    codeword = pair66.encode(message)
    error = sample_channel_error(pair66, 4, rng)
    pair66.project(error)
    pair66.decode(tuple(a ^ b for a, b in zip(codeword, error)))
    assert callers  # the spies are live: the sampler and the parent decoders use both
    assert directsum.__file__ not in callers
