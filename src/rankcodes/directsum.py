"""Direct sums of subspace subcodes, decoded component by component.

When the subspaces pairwise intersect only in zero, a word is
w = sum_i beta^(i) U_i over the concatenated basis, and part i transfers
to the word h U_i^t of its shorter MRD parent code.  Both transfers are
GF(q)-linear on the q-ary expansion of w, so precomputed word maps fold w
into all u parent words and unfold parent codewords back.  Each part is a
`SubspaceBasis`, the public name of `CoordinateSolver`: the one
elimination that checks the basis also gives its coordinates.  Decoding
succeeds whenever every projected error has rank at most the capability
C, which can happen for total error ranks well above C; the exact success
probability of that event under the uniform matrix channel is a product
over the parts.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .field import LinearMap, _draw_lanes, _rank_reaches, int_digits, is_prime
from .gabidulin import DecodingFailure, GabidulinCode, dual_vector
from .qlinalg import (CoordinateSolver, _check_counts, count_rank_matrices,
                      random_error, random_rows, rank_of_vector, rank_rows)


_PASS_WORDS = 1 << 16  # random words a pass of `_lane_successes` draws: caps its lanes


class TrivialSubcodeError(Exception):
    """The subspace dimension is below the minimum distance, so the
    subcode contains only the zero word."""


SubspaceBasis = CoordinateSolver  # an ordered basis of a subspace of GF(q^n)


def direct_sum_violations(parts) -> list:
    """Reasons the given SubspaceBasis list fails to be a direct sum.

    Empty list means the concatenated basis has full q-ary rank; otherwise
    each offending subspace pair is reported with its overlap dimension.
    ValueError unless every part is a SubspaceBasis: a list has no tower.
    """
    if not all(isinstance(p, SubspaceBasis) for p in parts):
        raise ValueError("parts must be SubspaceBasis instances")
    if not parts:
        return ["no subspaces given"]
    out, tower = [], parts[0].tower
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            joint = parts[i].elements + parts[j].elements
            overlap = parts[i].m + parts[j].m - rank_of_vector(tower, joint)
            if overlap:
                out.append(f"subspaces {i} and {j} overlap in dimension {overlap}")
    concat = tuple(x for p in parts for x in p.elements)
    deficiency = sum(p.m for p in parts) - rank_of_vector(tower, concat)
    if deficiency and not out:
        out.append(f"concatenated basis is rank deficient by {deficiency}")
    return out


@dataclass
class ComponentOutcome:
    index: int
    ok: bool
    reason: str = ""


@dataclass
class DirectSumDecodeResult:
    ok: bool
    codeword: tuple | None
    error: tuple | None
    components: list


@dataclass
class MonteCarloResult:
    successes: int
    trials: int
    frequency: float
    half_width: float


@dataclass
class DecodeExperiment:
    successes: int
    event_successes: int
    trials: int
    frequency: float
    field_muls: int


def _spread_images(tower, columns, elements):
    """Images of the map sending digit e of input symbol a to the word
    (columns[e][j] * elements[a])_j, listed a-major: the symbols j where a
    column holds digit d, spread once as 1 at digit j*n, times d * x."""
    powers = [tower.order**j for j in range(len(columns[0]))]
    spreads = [[(d, sum([p for p, c in zip(powers, col) if c == d])) for d in set(col) - {0}]
               for col in columns]
    held, images = set().union(*columns) - {0, 1}, []
    for x in elements:
        times = {1: x, **{d: tower.from_digits([d * c for c in tower.digits(x)]) for d in held}}
        images += [sum([s * times[d] for d, s in spread]) for spread in spreads]
    return images


class DirectSumCode:
    """The sum of subspace subcodes over pairwise disjoint subspaces.

    Part i's parent [m_i, m_i-d+1, d] code, `parents[i]`, is materialized
    on the vector beta^[n-d+2], whose Moore rows reproduce the parent
    parity rows in reverse order; the ambient decoder is reused on it
    verbatim.  A part with m_i < d adds only the zero word and has no
    parent (None).  The transfers are `LinearMap`s built here, applied with
    no field product or coordinate solve.  The fold sends a word's L*n
    digits to its N parent symbols and, for N < n, to L check symbols: each
    position's complement coordinates, all zero exactly inside the sum.
    The unfold sends the N*n digits of the concatenated parent words to L
    symbols, the sum of each part's transfer back.  The channel's sampler is
    that spread with unit columns: digit p of value a to beta_a at position p,
    built on first use by `sample_channel_error`, its one reader (None before).
    """

    def __init__(self, code: GabidulinCode, parts):
        if not isinstance(code, GabidulinCode):
            raise ValueError(f"code {code!r} is not a GabidulinCode")
        try:  # as check_elements: ValueError, naming the list
            parts = list(parts)
        except TypeError:
            raise ValueError(f"part list {parts!r} is not iterable") from None
        parts = [p if isinstance(p, SubspaceBasis) else SubspaceBasis(code.tower, p)
                 for p in parts]
        problems = direct_sum_violations(parts)
        if problems:
            raise ValueError("; ".join(problems))
        if code.length != code.tower.n:
            raise ValueError("subspace subcodes need a full-length ambient code")
        t, n, L, d = code.tower, code.tower.n, code.length, code.d
        self.code, self.tower, self.parts, self.parents = code, t, parts, []
        for basis in parts:
            if basis.m >= d:
                parent_h = tuple(t.frobenius(b, n - d + 2) for b in basis.elements)
                parent_g = dual_vector(t, parent_h, d - 1)
                self.parents.append(GabidulinCode(t, basis.m - d + 1, g=parent_g, h=parent_h))
            else:
                self.parents.append(None)
        self.dims = [p.m for p in parts]
        self.total_dim = N = sum(self.dims)
        self.concat = tuple(x for p in parts for x in p.elements)
        self._slices = list(itertools.pairwise(itertools.accumulate(self.dims, initial=0)))
        # column e: alpha^e's coordinates over concat, then over its complement
        cols = [int_digits(c, t.q, n) for c in CoordinateSolver(t, self.concat).columns]
        fold = _spread_images(t, [c[:N] for c in cols], code.h)
        if N < n:
            fold = [img + t.from_digits(cols[e][N:]) * t.order**(N + p)
                    for img, (p, e) in zip(fold, itertools.product(range(L), range(n)))]
        self._fold = LinearMap(t.q, n, fold, N + L if N < n else N)
        unfold = _spread_images(t, [code.h_basis.solve(b) for b in t.basis], self.concat)
        self._unfold = LinearMap(t.q, n, unfold, L)
        self._channel = None  # the channel's sampler, built by its first call

    @property
    def capability(self) -> int:
        return self.code.capability

    @property
    def cardinality(self) -> int:
        return self.tower.order ** self.message_length

    @property
    def message_length(self) -> int:
        """Total parent dimension: a part with m < d adds only the zero word."""
        return sum(p.k for p in self.parents if p is not None)

    def project(self, word):
        """Split a word in (V_1 + ... + V_u)^n into its unique per-subspace
        parts, which sum back to the word componentwise: part i is the
        unfold of the fold's part i, the other parent words zero."""
        return [self._unfold.word((0,) * a + folded)
                for (a, _), folded in zip(self._slices, self.to_parents(word))]

    def to_parents(self, word):
        """Transfer each part to its parent code: for word = sum_i beta^(i) U_i
        part i goes to h U_i^t, read off one fold; ValueError unless the word
        lies in (V_1 + ... + V_u)^L.  Concatenated rank equals input rank."""
        word = self.tower.check_elements(word, "word symbol")
        if len(word) != self.code.length:
            raise ValueError(f"word length {len(word)} != {self.code.length}")
        folded = self._fold.word(word)
        outside = [p for p, c in enumerate(folded[self.total_dim:]) if c]
        if outside:
            raise ValueError(f"component {outside[0]} lies outside the subspace sum")
        return tuple(folded[a:b] for a, b in self._slices)

    def encode(self, message):
        """Encode u blocks of lengths m_i - d + 1, one per part, each in its
        parent code, and unfold the parent codewords in one pass."""
        if None in self.parents:
            idx = self.parents.index(None)
            raise TrivialSubcodeError(
                f"part {idx} has dimension {self.dims[idx]} < d = {self.code.d}")
        message = tuple(message)
        if len(message) != self.message_length:
            raise ValueError(
                f"message length {len(message)} != {self.message_length}")
        blocks = iter(message)
        return self._unfold.word([s for parent in self.parents for s in
                                  parent.encode(itertools.islice(blocks, parent.k))])

    def decode(self, received) -> DirectSumDecodeResult:
        """Per-component decoding: fold into the parent words, decode each,
        unfold the parent codewords.  The error is received - codeword, as
        each transfer is GF(q)-linear with the unfold as inverse, so the
        parts' errors sum to it.  Succeeds exactly when every projected
        error rank is within capability."""
        received = tuple(received)
        outcomes, parent_words = [], []  # the parent codewords, concatenated
        for idx, (parent, folded) in enumerate(zip(self.parents, self.to_parents(received))):
            if parent is None:
                raise TrivialSubcodeError("trivial subcode has no parent decoder")
            try:
                parent_words += parent.decode(folded)[0]
                outcomes.append(ComponentOutcome(idx, True))
            except DecodingFailure as exc:
                outcomes.append(ComponentOutcome(idx, False, reason=str(exc)))
        if not all(o.ok for o in outcomes):
            return DirectSumDecodeResult(False, None, None, outcomes)
        codeword = self._unfold.word(parent_words)
        error = tuple(self.tower.sub(y, c) for y, c in zip(received, codeword))
        return DirectSumDecodeResult(True, codeword, error, outcomes)


# ---------------------------------------------------------------------------
# success probability of per-part decodability

def rank_leq_probability(q: int, m: int, t: int, cap: int) -> Fraction:
    """Probability that a uniform t x m q-ary matrix has rank <= cap."""
    _check_counts(q, [("m", m), ("t", t)])
    if type(cap) is not int:  # any other int is a bound: below 0 none pass
        raise ValueError(f"rank bound {cap!r} is not an int")
    hits = sum(count_rank_matrices(q, m, t, r) for r in range(0, cap + 1))
    return Fraction(hits, q ** (t * m))


def success_probability(q: int, dims, capability: int, t: int,
                        form: str = "exact"):
    """Probability that every block of a uniform t x (sum dims) q-ary
    matrix has rank <= capability.

    form="exact" returns the product of per-part probabilities as a
    Fraction.  form="leading-order" returns the leading order of that
    product as a float: for t > C each part contributes
    q^(-(m_i - C)(t - C)), so the figure is q^(-(t - C) * sum(m_i - C)).
    It is 1.0 for t <= C, where the exact probability is 1, and a part
    with m_i <= C contributes 1 for the same reason.  The single exponent
    (N - C)(t - C) with N = sum(dims) agrees with it only for one part;
    for u parts it is larger by (u - 1) * C * (t - C).
    """
    dims = _check_counts(q, [("t", t), ("capability", capability)], dims)
    if form == "exact":
        p = Fraction(1)
        for m in dims:
            p *= rank_leq_probability(q, m, t, capability)
        return p
    if form == "leading-order":
        if t <= capability:
            return 1.0
        excess = sum(max(m - capability, 0) for m in dims)
        return float(q) ** (-(t - capability) * excess)
    raise ValueError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# Monte Carlo channels

def rank_event_rate(q: int, dims, capability: int, t: int, trials: int,
                    seed, channel: str = "uniform-matrix") -> MonteCarloResult:
    """Seeded frequency of the event "every block of the t x N coefficient
    matrix has rank <= capability", with a 3-sigma half-width.

    channel="uniform-matrix" samples the matrix uniformly (the model the
    exact product formula describes); channel="exact-rank" conditions it
    on full rank t.  The trials draw from random.Random(f"{seed}:0").
    """
    dims = _check_counts(q, [("t", t), ("capability", capability), ("trials", trials)], dims)
    if not is_prime(q):  # the draws and their ranks are taken mod q
        raise ValueError(f"q = {q} is not a prime")
    if channel not in ("uniform-matrix", "exact-rank"):
        raise ValueError(f"unknown channel {channel!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    n_total, full = sum(dims), channel == "exact-rank"
    if full and t > n_total:
        raise ValueError(
            f"exact-rank channel needs t <= sum(dims) = {n_total}, got t = {t}")
    # the column spans of the blocks that can fail: more than C columns and rows
    spans = [(a, b) for a, b in itertools.pairwise(itertools.accumulate(dims, initial=0))
             if min(t, b - a) > capability]
    rng = random.Random(f"{seed}:0")
    if not spans:
        successes = trials
    elif (q == 2 or q * q <= 256) and (
            _pass_lanes(q, t, n_total) >= 4 * max(b - a for a, b in spans)):
        successes = _lane_successes(q, spans, capability, t, n_total, trials, rng, full)
    else:  # block [a, b) of a packed row is (row // q**a) % q**(b - a)
        successes = 0
        for _ in range(trials):
            rows = random_rows(q, t, n_total, rng, full_rank=full)
            successes += all(rank_rows([r // q**a % q**(b - a) for r in rows], q) <= capability
                             for a, b in spans)
    freq = successes / trials
    half = 3.0 * math.sqrt(freq * (1.0 - freq) / trials)
    return MonteCarloResult(successes, trials, freq, half)


def _pass_lanes(q: int, t: int, n_total: int) -> int:
    """Attempts in a pass of at most _PASS_WORDS random words: q = 2 draws
    a row as whole words, odd q at least a word per entry.  The lanes pay
    where a pass holds at least 4 attempts per column of the widest ranked
    block, since a pass takes about t m^2 int operations to rank a t x m
    block and the per-trial loop t m; at 4 m the two tie on square q = 2
    blocks with C = m - 1, the lanes' worst case, where no scan stops early.
    q = 3 planes tie near 1 m there: on m = 8, 16, 32 a trial took 11-17,
    33-41 and 147-182 us at 3 m, 11-17, 32-34 and 123-163 us at 4 m, 8-12,
    24-25 and 90-95 us at 6 m, against 31-32, 111-114 and 568-617 us by
    the loop (best of 5, two runs).  4 m stays the one rule for every q: a
    pass holds 4 m attempts of a square q = 3 block up to m = 25, so only
    wider ones are left to the loop where the planes would win."""
    return max(1, _PASS_WORDS // (t * (-(-n_total // 32) if q == 2 else n_total)))


def _lane_successes(q, spans, capability, t, n_total, trials, rng, full) -> int:
    """`rank_event_rate`'s count on lanes: passes of attempts, one per lane,
    each pass drawn by one `_draw_lanes` and ranked by one `_rank_reaches`
    per span.  On the exact-rank channel the trials are the first `trials`
    attempts of full rank t, as `random_rows` redraws; a pass draws enough
    attempts for the trials left, with three standard deviations to spare,
    so another pass is rarely needed."""
    p = math.prod(1 - float(q) ** (i - n_total) for i in range(t)) if full else 1.0
    successes, left, lanes = 0, trials, _pass_lanes(q, t, n_total)
    while left:
        need = min(left, lanes)
        count = math.ceil((need + 3 * math.sqrt(need * (1 - p))) / p) if full else need
        columns = _draw_lanes(q, t, n_total, count, rng)
        accepted = _rank_reaches(columns, t, q, count) if full else (1 << count) - 1
        failed = 0
        for a, b in spans:
            failed |= _rank_reaches(columns[a:b], capability + 1, q, count)
        if accepted.bit_count() > left:  # keep the lowest `left` accepted lanes
            above = format(accepted, "b")[::-1].split("1", left)[-1]
            accepted &= (1 << accepted.bit_length() - len(above)) - 1
        successes += (accepted & ~failed).bit_count()
        left -= accepted.bit_count()
    return successes


def sample_channel_error(M: DirectSumCode, t: int, rng,
                         channel: str = "uniform-matrix"):
    """One error vector from the rank-t channel: independent values
    alpha_1..alpha_t combined by a t x N q-ary matrix, expressed over the
    concatenated subspace basis.  ValueError unless M is a DirectSumCode."""
    if not isinstance(M, DirectSumCode):
        raise ValueError(f"M = {M!r} is not a DirectSumCode")
    n, n_total = M.tower.n, M.total_dim
    if channel not in ("uniform-matrix", "exact-rank"):
        raise ValueError(f"unknown channel {channel!r}")
    if t > n:
        raise ValueError(f"t = {t} independent values exceed n = {n}")
    if channel == "exact-rank" and t > n_total:
        raise ValueError(
            f"exact-rank channel needs t <= total dimension {n_total}, got t = {t}")
    if M._channel is None:  # built whole, then published by one assignment
        units = [b * M.tower.order**p for b in M.concat for p in range(n)]
        M._channel = LinearMap(M.tower.q, n, units, M.code.length)
    # values v_j, one per concatenated-basis coordinate, to sum_j digit_p(v_j) beta_j at p
    return M._channel.word(random_error(M.tower, n_total, t, rng, mode=channel))


def decode_experiment(M: DirectSumCode, t: int, trials: int, seed,
                      channel: str = "uniform-matrix") -> DecodeExperiment:
    """End-to-end seeded experiment: encode a random message, add a channel
    error, decode per component, and count exact recoveries.  Also counts
    the per-part rank event, which coincides with exact recovery.
    ValueError unless M is a DirectSumCode."""
    if not isinstance(M, DirectSumCode):
        raise ValueError(f"M = {M!r} is not a DirectSumCode")
    tower = M.tower
    _check_counts(tower.q, [("trials", trials)])
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(f"{seed}:decode")
    successes = 0
    event = 0
    muls0 = tower.mul_count
    for _ in range(trials):
        message = tuple(tower.random_element(rng) for _ in range(M.message_length))
        codeword = M.encode(message)
        error = sample_channel_error(M, t, rng, channel=channel)
        received = tuple(tower.add(a, b) for a, b in zip(codeword, error))
        if all(rank_of_vector(tower, part) <= M.capability
               for part in M.project(error)):
            event += 1
        result = M.decode(received)
        if result.ok and result.codeword == codeword and result.error == error:
            successes += 1
    return DecodeExperiment(successes, event, trials, successes / trials,
                            tower.mul_count - muls0)
