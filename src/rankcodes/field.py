"""Arithmetic for the field tower GF(q) inside GF(q^n).

Elements of GF(q^n) are plain Python ints: the base-q encoding of the
coefficient vector over the polynomial basis (1, alpha, ..., alpha^(n-1)),
so x == sum(digit_i * q**i).  Elements of GF(q) are ints in [0, q).

A FieldTower's arithmetic is fixed at construction: every operation is a
pure function of its arguments.  See FieldTower for its mutable state:
the `mul_count` counter and three caches.
"""

from __future__ import annotations

import operator
import struct
from functools import cache

# Default moduli that `find_irreducible` would not pick, coefficients
# low-to-high, all monic: the classic q=2 primitive trinomials and
# pentanomials and the usual odd-q Conway choices.  Every other shape takes
# the search's modulus.  Each entry is re-checked for irreducibility at
# construction time.
_DEFAULT_MODULI = {
    (2, 1): (1, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
}

# Above this field size no discrete-log tables are built and arithmetic
# falls back to polynomial multiplication with modular reduction.
_TABLE_LIMIT = 1 << 16


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def int_digits(v: int, q: int, width: int) -> tuple:
    """The low `width` base-q digits of v, least significant first: the
    entries of a q-ary row packed as v = sum row[j] * q**j."""
    if q == 2:
        return tuple([v >> i & 1 for i in range(width)])
    out = []
    for _ in range(width):
        out.append(v % q)
        v //= q
    return tuple(out)


# ---------------------------------------------------------------------------
# lanes: GF(q) digits packed into one int, digit j at bits lane*j on, added
# without carry: XOR for q = 2, else int sums then taken mod q by the below.

@cache
def _lane_bits(q: int, top: int, carry: bool = False) -> int:
    """Bits per lane of GF(q) digits whose sums reach at most `top`: 1 for
    q = 2 unless the lanes `carry`, as an int product's do, otherwise the
    smallest of 8, 16, 32, 64, 128, ... that holds top.  ValueError
    unless q is prime."""
    if not is_prime(q):
        raise ValueError(f"q = {q!r} is not a prime")
    bits = 8
    while top >> bits:
        bits *= 2
    return 1 if q == 2 and not carry else bits


@cache
def _byte_mod(q: int) -> tuple:  # [s]: the translate table of a byte lane b -> s b mod q
    return tuple(bytes(s * b % q for b in range(256)) for s in range(q))


@cache
def _lane_struct(lane: int, count: int):
    """`count` lanes of 16, 32 or 64 bits; None past 64 (q in the billions)."""
    code = {16: "H", 32: "I", 64: "Q"}.get(lane)
    return code and struct.Struct(f"<{count}{code}")


def _lane_digits(v: int, q: int, lane: int, count: int):
    """The first `count` lanes of v, each taken mod q: bytes for 8-bit
    lanes, by one bytes.translate, and otherwise a list from one unpack."""
    if lane == 8:
        return v.to_bytes(count, "little").translate(_byte_mod(q)[1])
    size, lanes = lane // 8, _lane_struct(lane, count)
    raw = v.to_bytes(count * size, "little")
    if lanes:
        return [d % q for d in lanes.unpack(raw)]
    return [int.from_bytes(raw[i:i + size], "little") % q for i in range(0, len(raw), size)]


def _mod_lanes(v: int, q: int, lane: int, scale: int = 1) -> int:
    """scale * v with every lane taken mod q, for v >= 0 whose lanes have
    room for scale times their value (byte lanes scale in the translate)."""
    if lane == 8:  # inline: pivots, image sums and the exp-table fill reduce per step
        return int.from_bytes(v.to_bytes(-(-v.bit_length() // 8), "little").translate(
            _byte_mod(q)[scale]), "little")
    v *= scale
    count = -(-v.bit_length() // lane)
    digits, lanes = _lane_digits(v, q, lane, count), _lane_struct(lane, count)
    if lanes:
        return int.from_bytes(lanes.pack(*digits), "little")
    return int.from_bytes(b"".join(d.to_bytes(lane // 8, "little") for d in digits), "little")


def _alpha_steps(v: int, tops: int, low: int, q: int, lane: int, n: int, steps: int) -> list:
    """[v, alpha v, ..., alpha^steps v], digit i of each element packed in v in its lane i,
    lanes < q: a step shifts v a lane up, folds each overflowed top lane (marked
    in `tops`) back times low = alpha^n = -(f - x^n), and takes lanes mod q (q = 2: XOR)."""
    out = [v]
    for _ in range(steps):
        v <<= lane
        over = v & tops
        v = (v ^ over ^ (over >> n * lane) * low if q == 2
             else _mod_lanes(v - over + (over >> n * lane) * low, q, lane))
        out.append(v)
    return out


def _reduce_lanes(rows, q: int, bits: int, identity: bool, spread: bool = True):
    """The odd-q elimination: rows[j], spread to a digit per lane of `bits`
    unless already on them, each < q, over len(rows) identity lanes holding
    e_j if `identity`, reduced against one pivot per leading lane.  Pivots
    lead with 1; v - c p is v + (q - c) p, lanes taken mod q then: inline on
    bytes (lanes <= q (q - 1) < 256), else by `_mod_lanes`.  Returns the
    pivots and the rows left with no image digit; ValueError on a negative row."""
    shift = len(rows) * bits if identity else 0
    pivots, left, mask = {}, [], (1 << bits) - 1
    table = bits == 8 and _byte_mod(q)[1]
    for j, image in enumerate(rows):
        v, at = identity << j * bits, shift
        if not spread:
            v, image = v | image << at, 0
        while image > 0:  # inline: packed rows of any width, a negative one left as it is
            image, d = divmod(image, q)
            v |= d << at
            at += bits
        while v >> shift:
            top = (v.bit_length() - 1) // bits
            c = v >> top * bits & mask
            p = pivots.get(top)
            if p is None:
                pivots[top] = v if c == 1 else _mod_lanes(v, q, bits, pow(c, q - 2, q))
                break
            v += (q - c) * p
            v = (int.from_bytes(v.to_bytes(top + 1, "little").translate(table), "little")
                 if table else _mod_lanes(v, q, bits))
        else:
            if image < 0:  # a negative row skips the digit loop
                raise ValueError(f"packed row {image} is negative")
            left.append(v)
    return pivots, left


# Monte Carlo on lanes (bitslicing; Biham, FSE 1997): attempt j of a pass sits
# in lane j of every int, one bit for q = 2 and a byte for odd q <= 13, so one
# int operation acts on the same entry of every attempt's matrix.

@cache
def _digit_tables(q: int) -> tuple:
    """Byte translate tables for odd q, q^2 <= 256: a word's top byte to its
    getrandbits(q.bit_length()) value, the bytes that value rejects (>= q),
    nonzero to 0xff, b to 1 / b mod q, and a q + b to a b and to -a b mod q."""
    top = 8 - q.bit_length()
    return (bytes(b >> top for b in range(256)), bytes(b for b in range(256) if b >> top >= q),
            bytes(255 * (b > 0) for b in range(256)), bytes(pow(b, q - 2, q) for b in range(256)),
            bytes(b // q * (b % q) % q for b in range(256)),
            bytes(-(b // q) * (b % q) % q for b in range(256)))


def _draw_lanes(q: int, t: int, width: int, count: int, rng) -> list:
    """Entry (r, c) of `count` t x width q-ary matrices, t, width >= 1, as
    columns[c][r] with attempt j in lane j, drawn from rng exactly as that
    many random_rows(q, t, width, rng) calls draw them.  getrandbits(32 k) is
    the next k 32-bit words, word i at bits 32 i; getrandbits(w <= 32) is the
    top w bits of one word, and a wider draw its ceil(w / 32) words, the last
    shifted right (test_getrandbits_is_little_endian_words).  So for q = 2 a
    row is its words, and entry (r, c) of every attempt is one strided slice
    of their binary string.  Odd q draws a word per digit still owed, keeps
    each top byte shifted down and deletes those >= q, until none is owed:
    digit (j, r, c) is then byte j t width + r width + c."""
    if q == 2:  # entry (r, c) of attempt j: bit j stride + r row + c, + cut in the last word
        row = 32 * -(-width // 32)
        stride, cut = row * t, row - width  # the right shift of a row's last word
        bits = format(rng.getrandbits(stride * count), f"0{stride * count}b")  # bit i at -1 - i
        return [[int(bits[stride - 1 - r * row - c - cut * (c >= row - 32)::stride], 2)
                 for r in range(t)] for c in range(width)]
    high, reject = _digit_tables(q)[:2]
    chunks, owed = [], t * width * count
    while owed:
        chunks.append(rng.getrandbits(32 * owed).to_bytes(4 * owed, "little")[3::4]
                      .translate(high, reject))
        owed -= len(chunks[-1])
    digits = b"".join(chunks)
    return [[int.from_bytes(digits[r * width + c::t * width], "little") for r in range(t)]
            for c in range(width)]


def _rank_reaches(columns, k: int, q: int, count: int) -> int:
    """Bit j set where matrix j of `count` on lanes, columns[c][r] as
    `_draw_lanes` gives them, has rank >= k >= 1.  Column by column, each
    earlier pivot step is applied to the column first, then the pivot in
    each lane is the first row with a nonzero entry, found as masks, and
    the step is kept: every row with a nonzero entry there is reduced by the
    pivot row, which reduces itself to zero and is never picked again.
    ge[i] masks the lanes of rank >= i, and the scan stops once every lane
    reaches k.  q = 2 reduces by AND and XOR; odd q takes each product a b
    by one translate of a q + b, each inverse by a translate, and each sum
    mod q by a translate."""
    def lanes(v, table):
        return int.from_bytes(v.to_bytes(count, "little").translate(table), "little")

    if q != 2:
        nonzero, inverse, times, minus = _digit_tables(q)[2:]
        mod = _byte_mod(q)[1]
    done = (1 << count) - 1 if q == 2 else int.from_bytes(b"\xff" * count, "little")
    ge, steps = [-1] + [0] * k, []
    for i, col in enumerate(columns):
        for pivots, coefs in steps:
            p = 0  # the pivot row's entry in this column
            for m, y in zip(pivots, col):
                p |= m & y
            if p and q == 2:
                col = [y ^ c & p for c, y in zip(coefs, col)]
            elif p:
                col = [lanes(y + lanes(c * q + p, times), mod) if c else y
                       for c, y in zip(coefs, col)]
        masks = col if q == 2 else [y and lanes(y, nonzero) for y in col]
        pivots, taken = [], 0
        for m in masks:
            pivots.append(m & ~taken)
            taken |= m
        if not taken:
            continue
        for j in range(k, 0, -1):
            ge[j] |= ge[j - 1] & taken
        if ge[k] == done or i == len(columns) - 1:
            break
        if q != 2:  # -y / p, the pivot entry p in each lane
            inv = 0
            for m, y in zip(pivots, col):
                inv |= m & y
            inv = lanes(inv, inverse)
            col = [y and lanes(y * q + inv, minus) for y in col]
        steps.append((pivots, col))
    if q == 2:
        return ge[k]
    return int(ge[k].to_bytes(count, "big").translate(_byte_numerals(2)), 2)  # 0xff mod 2 = 1


@cache
def _byte_numerals(q: int) -> bytes:  # the translate table of a byte lane b -> numeral b mod q
    return bytes(b"0123456789abcdefghijklmnopqrstuvwxyz"[b % q] for b in range(256))


def _from_lanes(v: int, q: int, lane: int, count: int, powers) -> list:
    """Lanes 0..count-1 of v, each mod q, as base-q ints of len(powers) = size digits,
    powers[i] = q^i, size | count: byte lanes for q <= 36 by one int(numerals, q) each."""
    size = len(powers)
    if lane == 8 and q <= 36 and size <= 4300:  # CPython's int() digit limit
        raw = v.to_bytes(count, "big").translate(_byte_numerals(q))
        return [int(raw[i - size:i], q) for i in range(count, 0, -size)]
    digits = _lane_digits(v, q, lane, count)
    return [sum(map(operator.mul, digits[i:i + size], powers)) for i in range(0, count, size)]


@cache
def _leaf(q: int, lane: int) -> tuple:
    h0 = 1
    while q ** (2 * h0) <= 1024:
        h0 *= 2
    leaf = range(q)
    for j in range(1, h0):
        leaf = [s + (d << lane * j) for d in range(q) for s in leaf]
    return h0, leaf


def _to_lanes(images, q: int, lane: int, size: int) -> list:
    """Each base-q int of at most `size` digits with digit i moved to bits
    lane*i on: split at q^h for h = h0 * 2^j, top down, and spread each
    leaf of h0 digits (h0 a power of two, q^h0 <= 1024) by one lookup
    (Brent and Zimmermann, Modern Computer Arithmetic, section 1.7), not
    one division of the whole per digit."""
    h0, leaf = _leaf(q, lane)
    splits, h = [], h0  # (q^h, lane * h) for h = h0, 2 h0, ... below size
    while h < size:
        splits.append((q**h, lane * h))
        h *= 2

    def spread(v, i):
        if i < 0:
            return leaf[v]
        p, s = splits[i]
        hi, lo = divmod(v, p)
        return spread(hi, i - 1) << s | spread(lo, i - 1) if hi else spread(lo, i - 1)

    return [spread(v, len(splits) - 1) for v in images]


# ---------------------------------------------------------------------------
# GF(q)[x] on lanes, coefficient i in lane i: a product is one int product
# (Kronecker substitution; von zur Gathen and Gerhard, Modern Computer
# Algebra, ch. 8), taken mod q lane by lane after a remainder or Euclid run.

def _poly_lane(q: int, n: int) -> int:
    """Lane bits for GF(q)[x] modulo f of degree n: room for 2 (n + 1)
    (q - 1)^2, above the (2n - 1) (q - 1)^2 a lane reaches in `_prem` of a
    product of remainders and the (n + 2) (q - 1)^2 of a `_euclid` run.
    Bytes for q = 2 up to n = 126.  ValueError unless q is prime."""
    return _lane_bits(q, 2 * (n + 1) * (q - 1) ** 2, carry=True)


def _prem(v: int, f: int, q: int, lane: int) -> int:
    """v mod the monic f, both on lanes: the top lane c of v is cleared by
    one whole-int step, -c (f - x^d) x^(k-d) added below it (each lane
    takes at most d of them), and the lanes are taken mod q at the end."""
    d = (f.bit_length() - 1) // lane
    low = f ^ 1 << d * lane
    while (k := (v.bit_length() - 1) // lane) >= d:
        top = k * lane
        c = -(v >> top) % q
        v = (v & (1 << top) - 1) + (c * low << top - d * lane)
    return _mod_lanes(v, q, lane)


def _euclid(a: int, f: int, q: int, lane: int) -> tuple:
    """(g, s) with g = gcd(a, f) up to a unit and s a = g mod f, on lanes,
    for deg a < deg f: extended Euclid a coefficient per step, as the q = 2
    `inv`.  u and its cofactor are taken mod q only when u falls below v
    and they swap, so at most deg f + 1 steps add up in a lane."""
    u, v, su, sv = f, a, 0, 1  # su a = u and sv a = v mod f; v and sv reduced
    while v:
        dv = (v.bit_length() - 1) // lane
        iv, low = pow(v >> dv * lane, q - 2, q), v & (1 << dv * lane) - 1
        while (du := (u.bit_length() - 1) // lane) >= dv:
            top, at = du * lane, (du - dv) * lane
            c = -(u >> top) * iv % q
            u = (u & (1 << top) - 1) + (c * low << at)
            su += c * sv << at
        cut = dv * lane  # u is below lane dv: one reduction for u and su
        w = _mod_lanes(su << cut | u, q, lane)
        u, v, su, sv = v, w & (1 << cut) - 1, sv, w >> cut
    return u, su


def is_irreducible(modulus, q: int) -> bool:
    """Whether the polynomial with coefficients `modulus` mod q, low to
    high, is monic of degree n >= 1 and irreducible over GF(q); ValueError
    unless q is prime.

    Ben-Or's test (Ben-Or, FOCS 1981; Gao and Panario 1997): x^(q^j) - x
    is the product of the monic irreducibles of degree dividing j, so f is
    irreducible exactly when gcd(x^(q^j) - x, f) = 1 for j = 1..n/2.  It
    returns at the first j that fails, so most reducible f cost a power or
    two of x.  Powers are square and multiply on `_prem`, gcds `_euclid`.
    """
    lane = _poly_lane(q, len(modulus))
    f = sum(c % q << lane * i for i, c in enumerate(modulus))
    n = (f.bit_length() - 1) // lane
    if n < 1 or f >> n * lane != 1:
        return False
    h = 1 << lane  # x
    for _ in range(n // 2):
        p = h
        for bit in bin(q)[3:]:  # h = p^q, left to right
            h = _prem(h * h, f, q, lane)
            if bit == "1":
                h = _prem(h * p, f, q, lane)
        if _euclid(_mod_lanes(h + (q - 1 << lane), q, lane), f, q, lane)[0] >> lane:
            return False
    return True


class LinearMap:
    """A GF(q)-linear map from base-q ints to words of `width` symbols of
    GF(q^n), as sliced lookup tables.

    images[j] is the image of input digit j, a base-q int with output
    symbol i at digit i*n.  The input is read k digits at a time, k the
    largest with q^k <= 256 for one symbol (k = 8 for q = 2) and q^k <= 16
    for a word.  tables[c][r] is the image of the chunk r at chunk c,
    packed with one `lane`-bit lane per output digit (`_lane_bits`), and
    the image of x sums tables[c][chunk c of x] over c.  For q = 2 lanes
    are single bits combined by XOR.  For odd q a table adds the multiples
    d*images[j] with each lane already taken mod q, so an output lane sums
    to at most len(images) (q-1), and byte lanes go as far as that allows.
    Where one digit passes the bound (q > 256, or q > 16 for a word), k = 0
    and tables[c] is the packed image of digit c, which the digit multiplies.
    Lanes keep room for one digit q-1 more (the sums of `linearized_images`).

    m(x) is the image of x as one element, m.word(word) the image of a
    word (input symbol i at digit i*n) as `width` symbols, and m.digits(x)
    the image's width*n digits.  None of them checks its input or counts a
    field operation.
    """

    def __init__(self, q: int, n: int, images, width: int = 1):
        self.q, self.n, self.width, self._order = q, n, width, q**n
        self._basis = tuple(q**i for i in range(n))
        k = next((k for k in range(8, 0, -1) if q**k <= (256 if width == 1 else 16)), 0)
        # with no tables (k = 0) an output lane adds unreduced digit multiples
        self.lane = _lane_bits(q, len(images) * (q - 1) ** (1 + (not k)) + q - 1)
        packed = images if q == 2 else _to_lanes(images, q, self.lane, width * n)
        self.radix, self._bits, self._mask = q ** max(k, 1), k, q**k - 1
        if not k:
            self.tables = packed
            return
        self.tables = []
        for lo in range(0, len(packed), k):
            table = [0]
            for img in packed[lo:lo + k]:
                # extend by one digit: entry d*len + i = table[i] + d*img
                if q == 2:
                    table += [b ^ img for b in table]
                else:  # each lane of d*img taken mod q (q <= 256: a lane holds (q-1)^2)
                    table += [b + m for m in [img] + [_mod_lanes(img, q, self.lane, d)
                                                      for d in range(2, q)] for b in table]
            self.tables.append(table)

    def __call__(self, x: int) -> int:
        if self.lane == 1:  # q = 2, one call deep: table-less frobenius is per element
            w, bits, mask = 0, self._bits, self._mask
            for table in self.tables:
                w ^= table[x & mask]
                x >>= bits
            return w
        return _from_lanes(self._lanes(x), self.q, self.lane, self.n, self._basis)[0]

    def word(self, word) -> tuple:
        x, order = 0, self._order
        for s in reversed(word):
            x = x * order + s
        return tuple(self._symbols(self._lanes(x)))

    def _symbols(self, w: int) -> list:
        """The `width` symbols of the lane-packed w, each lane taken mod q."""
        if self.lane == 1:
            n, mask = self.n, self._order - 1
            return [w >> n * i & mask for i in range(self.width)]
        return _from_lanes(w, self.q, self.lane, self.width * self.n, self._basis)

    def digits(self, x: int):
        w, count = self._lanes(x), self.width * self.n
        return ([w >> i & 1 for i in range(count)] if self.lane == 1
                else _lane_digits(w, self.q, self.lane, count))

    def _lanes(self, x: int) -> int:
        """The lane-packed image of x: one lookup (k = 0: one product) per chunk."""
        w, radix = 0, self.radix
        if self.lane == 1:
            bits, mask = self._bits, self._mask
            for table in self.tables:
                w ^= table[x & mask]
                x >>= bits
        elif not self._bits:
            for image in self.tables:
                x, r = divmod(x, radix)
                w += image * r
        else:
            for table in self.tables:
                x, r = divmod(x, radix)
                w += table[r]
        return w


def _comb_window(b: int) -> tuple:
    """The unreduced carry-less products u * b for the 4-bit u = 0..15."""
    b2, b4, b8 = b << 1, b << 2, b << 3
    b3, b12 = b2 ^ b, b8 ^ b4
    return (0, b, b2, b3, b4, b4 ^ b, b4 ^ b2, b4 ^ b3,
            b8, b8 ^ b, b8 ^ b2, b8 ^ b3, b12, b12 ^ b, b12 ^ b2, b12 ^ b3)


def find_irreducible(q: int, n: int):
    """Smallest monic irreducible polynomial of degree n over GF(q)
    in the base-q integer order of its low coefficients; one exists for
    every n >= 1.  ValueError unless q is prime and n is an int >= 1."""
    if type(n) is not int or n < 1:  # a bool is no degree
        raise ValueError(f"degree n = {n!r} is not an int >= 1")
    for low in range(q**n):
        cand = int_digits(low, q, n) + (1,)
        if is_irreducible(cand, q):
            return cand


class FieldTower:
    """The pair GF(q) < GF(q^n) with a fixed modulus.

    Parameters
    ----------
    q : prime order of the base field (prime powers are out of scope here)
    n : extension degree, 1 <= n <= 64; q and n must be ints, not bools,
        or ValueError, so a caller passes config values through unchecked
    modulus : optional monic degree-n irreducible over GF(q), a list or
        tuple of int coefficients low-to-high; defaults to a fixed table
        entry or, failing that, the smallest irreducible polynomial in
        canonical order.

    `basis` is the polynomial basis (1, alpha, ..., alpha^(n-1)), whose
    coordinates are `digits`.

    Fields of order <= 2^16 work through tables fixed at construction
    with the generator g: `_exp` and `_log` for `mul`, `inv`, `pow` and
    `frobenius`, and for odd q `_zech`, zech[i] = log(1 + g^i) (None where
    1 + g^i = 0), which makes `add`, `neg`, `sub` and `axpy` lookups;
    both span two periods of i.  g is the smallest candidate with
    g^((q^n-1)/p) != 1 for every prime p | q^n - 1, so g has full order.
    Its powers fill `_exp` in bulk, as packed columns of about sqrt(q^n),
    each g times the one before by the alpha-steps of `_alpha_steps` and
    adds on the lanes of `_lane_bits`, sums taken mod q (`_build_tables`).
    Larger fields are table-less: odd-q `add` goes digit by digit, `mul`
    for odd q is one int product of the operands' lanes reduced by `_prem`
    (`_poly_lane` lanes, the modulus on them in `_mod_poly`), and for q = 2
    a comb over 4-bit windows whose high half is reduced through
    `_reduce`, byte tables of x^(n+j) mod the modulus built with every
    q = 2 tower, `inv` is extended Euclid (binary on ints for q = 2,
    `_euclid` on lanes for odd q), and `frobenius(x, i)` is the
    `LinearMap` x -> x^(q^i).  Two caches of maps fill lazily, a map built
    on first use and kept, at most n of each: `_frob`, those Frobenius maps
    (ceil(n/k) tables of at most 256 entries), and `_power_maps`, the word
    maps of `linearized_images` (ceil(n/k) tables of at most 16 entries,
    or n images for q > 16, of n^2 lanes each).  A map is built whole and
    then published by one dict assignment, so a tower can still be shared
    across threads; a race only builds a map twice.

    `axpy(ys, c, xs)` is the row primitive [y + c x] of the GF(q^n)
    elimination: table-backed towers add log c once per row, table-less
    q = 2 builds c's comb window once per row, and table-less odd q
    multiplies entry by entry.  A table-less tower of even n with q^(n/2)
    <= 2^16 eliminates in `_half`, its `_HalfField` GF(q^(n/2))[alpha],
    built on first use and published whole (False on other towers).

    `linearized_images(coeffs)` gives the basis images of a linearized
    polynomial with no field product: `_image_lanes` sums the lanes of the
    power map for p at each nonzero c_p, where the root space reads them.

    `word_map(rows)` builds the GF(q)-linear map u -> sum_i u_i rows_i on
    words as a `LinearMap`, applied with no field product: the encoder and
    the syndrome map of a Gabidulin code.  Its images, the alpha-multiples
    of each row, step the whole row on those lanes, table-less odd q too.

    `mul_count` counts one per `mul`, one per `axpy` entry, n per nonzero
    coefficient of `linearized_images` (one per image), one per `inv`,
    and one per `frobenius` that is not the identity (i = 0 mod n, or x in
    {0, 1}); table-backed `pow` counts one and table-less `pow` the
    products of its square and multiply, e.bit_length() + popcount(e).
    `_rref_ext` counts the `_HalfField`'s `axpy` and `inv` the same.  It
    depends only on the calls made: building tables, maps or `_half` never does.
    Table-less `mul`, `inv` and `frobenius` raise ValueError on an operand
    outside [0, q^n); `axpy` and `linearized_images` check nothing, so the
    library checks words with `check_elements` where they come in.
    """

    def __init__(self, q: int, n: int, modulus=None):
        if type(q) is not int or type(n) is not int:  # a bool is no size either
            raise ValueError(f"q = {q!r} and n = {n!r} must be ints")
        if not is_prime(q):
            raise ValueError(f"base field order {q} is not prime")
        if not 1 <= n <= 64:
            raise ValueError(f"extension degree {n} outside supported range 1..64")
        self.q = q
        self.n = n
        self.order = q**n
        if modulus is None:
            modulus = _DEFAULT_MODULI.get((q, n)) or find_irreducible(q, n)
        if not (isinstance(modulus, (list, tuple))
                and all(isinstance(c, int) and not isinstance(c, bool) for c in modulus)):
            raise ValueError(f"modulus must list integer coefficients, got {modulus!r}")
        modulus = tuple(c % q for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        if not is_irreducible(modulus, q):
            raise ValueError("modulus is reducible over GF(q)")
        self.modulus = modulus
        self._mod_int = self.from_digits(modulus)
        bits = _lane_bits(q, q * (q - 1))  # alpha^n = -(f - x^n) on the lanes of `_alpha_steps`
        self._alpha_n = sum(-c % q << bits * i for i, c in enumerate(modulus[:-1]))
        self._lane = lane = _poly_lane(q, n)  # and the modulus on its lanes:
        self._mod_poly = sum(c << lane * i for i, c in enumerate(modulus))
        self.mul_count = 0

        self._exp = None
        self._log = None
        self._zech = None
        self.basis = tuple(q**i for i in range(n))
        if q == 2:  # the comb's reduction tables: images of x^(n+j) mod the modulus
            self._nibbles = range(4 * ((n - 1) // 4), -1, -4)
            self._reduce = LinearMap(2, n, [_from_lanes(_prem(
                1 << (n + j) * lane, self._mod_poly, 2, lane), 2, lane, n, self.basis)[0]
                for j in range(n - 1)]).tables
        if self.order <= _TABLE_LIMIT:
            self._build_tables()
        self._frob = {}  # power i -> its LinearMap's bound image, table-less only
        self._power_maps = {}  # power p -> the word map of `linearized_images`
        self._half = None  # the `_HalfField` of `_rref_ext`, or False

    # -- encoding ----------------------------------------------------------

    def digits(self, x: int):
        """Base-q digit tuple of x over the polynomial basis, length n."""
        return int_digits(x, self.q, self.n)

    def from_digits(self, digits) -> int:
        v = 0
        for d in reversed(tuple(digits)):
            v = v * self.q + d % self.q
        return v

    def check_elements(self, elements, what: str = "element") -> tuple:
        """The elements as a tuple; ValueError unless iterable, each an int,
        not a bool, in [0, q^n).  The one element check at the library boundary."""
        try:  # caught, not tested for first: this runs per word
            elements = tuple(elements)
        except TypeError:
            raise ValueError(f"{what} list {elements!r} is not iterable") from None
        for x in elements:
            if isinstance(x, bool) or not (isinstance(x, int) and 0 <= x < self.order):
                raise ValueError(
                    f"{what} {x!r} is not an element of GF({self.q}^{self.n})")
        return elements

    def random_element(self, rng) -> int:
        return rng.randrange(self.order)

    # -- ring operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        if not a or not b:
            return a or b
        if self._zech is not None:  # g^i + g^j = g^(i + zech[j - i])
            log = self._log
            z = self._zech[log[b] - log[a]]
            return 0 if z is None else self._exp[log[a] + z]
        q, v, shift = self.q, 0, 1
        for _ in range(self.n):
            v += ((a + b) % q) * shift
            a //= q
            b //= q
            shift *= q
        return v

    def neg(self, a: int) -> int:
        if self.q == 2:
            return a
        if self._zech is not None:  # -1 = g^((q^n - 1) / 2)
            return self._exp[self._log[a] + (self.order - 1) // 2] if a else 0
        q, v, shift = self.q, 0, 1
        for _ in range(self.n):
            v += (-a % q) * shift
            a //= q
            shift *= q
        return v

    def sub(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        """The product with no count and no operand check: through the log
        tables once built, else the comb for q = 2 and otherwise one int
        product of lanes reduced by `_prem`."""
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.q == 2:
            return self._comb(_comb_window(b), a)
        if a < self.q or b < self.q:  # odd q: a GF(q) scalar scales digit-wise
            return self.from_digits([min(a, b) * d for d in self.digits(max(a, b))])
        q, n, lane = self.q, self.n, self._lane
        x, y = _to_lanes((a, b), q, lane, n)
        return _from_lanes(_prem(x * y, self._mod_poly, q, lane), q, lane, n, self.basis)[0]

    def _pow_raw(self, a: int, e: int) -> int:
        """a**e for e >= 0 by square and multiply on `_mul_raw`, no count."""
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _comb(self, window, a: int) -> int:
        """a * b for window = _comb_window(b): a left-to-right comb over the
        4-bit windows of a (Hankerson-Menezes-Vanstone, Alg. 2.36), its high
        half reduced a byte at a time through `_reduce` (their section 2.3.5)."""
        r = 0
        for s in self._nibbles:
            r = r << 4 ^ window[a >> s & 15]
        high = r >> self.n
        r ^= high << self.n
        for table in self._reduce:
            r ^= table[high & 255]
            high >>= 8
        return r

    def _outside(self, *xs):
        return ValueError(f"operand outside GF({self.q}^{self.n}): {xs}")

    def mul(self, a: int, b: int) -> int:
        self.mul_count += 1
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        if not (0 <= a < self.order and 0 <= b < self.order):
            raise self._outside(a, b)
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(q^n)")
        self.mul_count += 1
        if self._exp is not None:
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        if not 0 < a < self.order:
            raise self._outside(a)
        if self.q == 2:
            # binary extended Euclid (Hankerson-Menezes-Vanstone, Alg. 2.48):
            # g1*a = u and g2*a = v modulo the modulus, until u = 1
            u, v, g1, g2 = a, self._mod_int, 1, 0
            while u != 1:
                j = u.bit_length() - v.bit_length()
                if j < 0:
                    u, v, g1, g2, j = v, u, g2, g1, -j
                u ^= v << j
                g1 ^= g2 << j
            return g1
        q, n, lane = self.q, self.n, self._lane  # g = s a is a constant: a^-1 = s / g
        g, s = _euclid(_to_lanes([a], q, lane, n)[0], self._mod_poly, q, lane)
        return _from_lanes(s * pow(g, q - 2, q), q, lane, n, self.basis)[0]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self._exp is not None:
            self.mul_count += 1
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        if not 0 < a < self.order:
            raise self._outside(a)
        self.mul_count += e.bit_length() + e.bit_count()  # the products of _pow_raw
        return self._pow_raw(a, e)

    def frobenius(self, x: int, i: int) -> int:
        """x raised to q^[i], with [i] read modulo n (so [-1] means q^(n-1))."""
        i %= self.n
        if i == 0 or x == 0 or x == 1:
            return x
        self.mul_count += 1
        if self._exp is not None:
            return self._exp[(self._log[x] * pow(self.q, i, self.order - 1)) % (self.order - 1)]
        if not 0 <= x < self.order:
            raise self._outside(x)
        return (self._frob.get(i) or self._frobenius_map(i))(x)

    def linearized_images(self, coeffs) -> list:
        """The basis images [sum_p c_p (alpha^i)^(q^p) for i < n] of the
        linearized polynomial sum_p c_p x^[p], coeffs[p] = c_p with p read
        modulo n, with no field product; n counted per nonzero c_p."""
        w, m = self._image_lanes(coeffs)
        return m._symbols(w) if m else [0] * self.n

    def _image_lanes(self, coeffs):
        """(w, m): those images on the lanes of m, the last power map (None if
        every c_p is 0), image i from lane i n on; odd q sums mod q per add."""
        n, m, w = self.n, None, 0
        for p, c in enumerate(coeffs):
            if c:
                self.mul_count += n
                m = self._power_maps.get(p % n) or self._power_map(p % n)
                w = w ^ m._lanes(c) if m.lane == 1 else _mod_lanes(w + m._lanes(c), self.q, m.lane)
        return w, m

    def _power_map(self, p: int) -> LinearMap:
        """The word map c -> [c beta^i for i < n], beta = alpha^(q^p), published whole."""
        self._power_maps[p] = m = self.word_map([self._frobenius_images(p)])
        return m

    def _frobenius_images(self, i: int) -> list:
        """The basis images [beta^j for j < n] of x -> x^[i], beta = alpha^(q^i); no count."""
        beta, images = self._pow_raw(self.q, self.q**i) if self.n > 1 else 1, [1]
        for _ in range(self.n - 1):
            images.append(self._mul_raw(images[-1], beta))
        return images

    def _frobenius_map(self, i: int):
        """The image of the LinearMap x -> x^(q^i), published whole."""
        # bound once: a call through the instance costs more than a bound method's
        self._frob[i] = image = LinearMap(self.q, self.n, self._frobenius_images(i)).__call__
        return image

    # -- linear combinations --------------------------------------------------

    def contract(self, coeffs, elements=None) -> int:
        """GF(q)-linear combination sum c_i e_i of `elements` (default: the
        polynomial basis, so contract(digits(x)) == x).  For q = 2 it XORs
        the elements with odd coefficient and multiplies nothing."""
        if elements is None:
            elements = self.basis
        acc = 0
        if self.q == 2:
            for c, e in zip(coeffs, elements):
                if c & 1:
                    acc ^= e
            return acc
        for c, e in zip(coeffs, elements):
            c %= self.q
            if c:
                acc = self.add(acc, self.mul(c, e))
        return acc

    def axpy(self, ys, c: int, xs) -> list:
        """[y + c x for y, x in zip(ys, xs)], one counted mul per entry as
        through `mul`, with no element check (see the class docstring)."""
        if self._exp is not None and c:
            exp, log, lc = self._exp, self._log, self._log[c]
            if self.q == 2:
                out = [y ^ exp[lc + log[x]] if x else y for y, x in zip(ys, xs)]
            else:  # y + g^v = g^(log y + zech[v - log y])
                zech, out = self._zech, []
                for y, x in zip(ys, xs):
                    if x:
                        v = lc + log[x]
                        if not y:
                            y = exp[v]
                        else:
                            z = zech[v - log[y]]
                            y = 0 if z is None else exp[log[y] + z]
                    out.append(y)
        elif self.q == 2 and c:
            comb, window = self._comb, _comb_window(c)
            out = [y ^ comb(window, x) if x else y for y, x in zip(ys, xs)]
        else:
            out = [self.add(y, self._mul_raw(c, x)) for y, x in zip(ys, xs)]
        self.mul_count += len(out)
        return out

    def dot(self, xs, ys) -> int:
        """sum x_i y_i over GF(q^n); each nonzero product is one counted mul."""
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                acc = self.add(acc, self.mul(x, y))
        return acc

    def _half_field(self):
        """`_half`, built on first use; not a cached_property, whose write to
        `__dict__` slows every later attribute lookup on the tower."""
        if self._half is None:
            self._half = (self._exp is None and self.n % 2 == 0
                          and self.q ** (self.n // 2) <= _TABLE_LIMIT and _HalfField(self))
        return self._half

    # -- GF(q)-linear maps on words -------------------------------------------

    def word_map(self, rows) -> LinearMap:
        """The GF(q)-linear map u -> sum_i u_i rows_i, from words of
        len(rows) symbols to words of len(rows[0]).  Digit j of u_i maps to
        alpha^j rows_i, stepped by `_alpha_multiples` with no counted
        product."""
        rows = [tuple(row) for row in rows]
        images = [img for row in rows for img in self._alpha_multiples(row)]
        return LinearMap(self.q, self.n, images, len(rows[0]))

    def _alpha_multiples(self, row) -> list:
        """The words alpha^j row for j = 0..n-1, entry l at digit offset l*n:
        the row packed on lanes, entry l in lanes l*n on, stepped whole by
        `_alpha_steps`, each word read back by `_from_lanes` for odd q.
        Table-backed odd q looks each entry up, alpha^j x = g^(log x + j log
        alpha), as lanes are slower there (n = 1 takes no step)."""
        n, q, count, exp, log = self.n, self.q, len(row), self._exp, self._log
        if q != 2 and exp:
            offsets, size = [self.order**l for l in range(count)], self.order - 1
            step = log[q] if n > 1 else 0  # log alpha
            return [sum(exp[(log[x] + j * step) % size] * o for x, o in zip(row, offsets) if x)
                    for j in range(n)]
        lane = _lane_bits(q, q * (q - 1))
        row = row if q == 2 else _to_lanes(row, q, lane, n)
        word = sum(x << lane * n * l for l, x in enumerate(row))
        tops = ((1 << lane) - 1) * sum(1 << lane * n * l for l in range(1, count + 1))
        out = _alpha_steps(word, tops, self._alpha_n, q, lane, n, n - 1)
        if q == 2:
            return out
        powers = [q**i for i in range(count * n)]
        return [_from_lanes(w, q, lane, count * n, powers)[0] for w in out]

    # -- discrete-log tables --------------------------------------------------

    def _build_tables(self):
        q, n, size = self.q, self.n, self.order - 1
        primes = _prime_factors(size)
        # the smallest candidate of order q^n - 1, so g^(size/p) != 1 for
        # every prime p | size (GF(2) has generator 1)
        gen = next(c for c in range(min(2, size), self.order)
                   if all(self._pow_raw(c, size // p) != 1 for p in primes))
        # A vector of elements packs into one int, element e in slot e with
        # digit k in lane k: 1-bit lanes in 16-bit slots for q = 2, so that a
        # slot reads as the element, else the lanes of `_lane_bits` for the
        # (q-1)^2 + (q-1) a step leaves, each sum then taken mod q.
        lane = _lane_bits(q, q * (q - 1))
        slot = 16 if q == 2 else n * lane
        lane0 = ((1 << lane) - 1).to_bytes(slot // 8, "little")  # lane 0 of a slot
        add = operator.xor if q == 2 else lambda a, b: _mod_lanes(a + b, q, lane)

        def times(x, c, count):
            """c times each of the `count` elements packed in x: Horner over
            the digits of c, each alpha-step one of `_alpha_steps`."""
            tops = int.from_bytes(lane0 * count, "little") << n * lane
            acc = 0
            for d in reversed(int_digits(c, q, n)):
                if acc:  # no alpha-steps before the top nonzero digit
                    acc = _alpha_steps(acc, tops, self._alpha_n, q, lane, n, 1)[1]
                if d:  # x itself for a top digit of 1
                    acc = add(acc, x * d) if acc or d > 1 else x
            return acc

        # g^0..g^(size-1) as `cols` columns of `rows` slots, column j holding
        # g^(j + i cols) in slot i: column 0 by doubling [h^0..h^(m-1)] with
        # h^m for h = g^cols, then column j + 1 = g times column j
        cols = int(size**0.5) + 1
        rows = -(-size // cols)
        col, h, m = 1, self._pow_raw(gen, cols), 1
        while m < rows:
            col |= times(col, h, m) << m * slot
            h, m = self._mul_raw(h, h), 2 * m
        col &= (1 << rows * slot) - 1
        data = bytearray(col.to_bytes(rows * slot // 8, "little"))
        for _ in range(cols - 1):
            col = times(col, gen, rows)
            data += col.to_bytes(rows * slot // 8, "little")
        if q != 2:  # sum q^k plane_k in 16-bit lanes, by Horner
            wide, v = bytearray(2 * rows * cols), 0
            for k in reversed(range(n)):
                for b in range(1 + (q > 256)):  # a digit above 255 takes two bytes
                    wide[b::2] = data[k * lane // 8 + b::slot // 8]
                v = v * q + int.from_bytes(wide, "little")
            data = v.to_bytes(2 * rows * cols, "little")
        data, exp = struct.unpack(f"<{rows * cols}H", data), [0] * (rows * cols)
        for j in range(cols):  # to exponent order
            exp[j::cols] = data[j * rows:(j + 1) * rows]
        del exp[size:], data
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        if q != 2:
            # zech[i] = log(1 + g^i): adding 1 moves v to v + 1, or to
            # v - (q - 1) where digit 0 wraps; 1 + g^i = 0 only at i = size / 2
            zech = log[1:] + log[:1]  # log(v + 1) at v
            zech[q - 1::q] = log[::q]
            zech = list(map(zech.__getitem__, exp))
            zech[size // 2] = None
            zech += zech
            self._zech = zech
        exp += exp
        self._exp, self._log, self.generator = exp, log, gen

    def __repr__(self):
        return f"FieldTower(q={self.q}, n={self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldTower)
            and (self.q, self.n, self.modulus) == (other.q, other.n, other.modulus)
        )

    def __hash__(self):
        return hash((self.q, self.n, self.modulus))


class _HalfField:
    """GF(q^n), n = 2s, as H[alpha] over the table-backed H = GF(q^s) (De Win,
    Bosselaers, Vandenberghe, De Gersem and Vandewalle, ASIACRYPT '96; Paar,
    1994): x0 + x1 alpha is the int x0 + x1 q^s, x over the basis {theta^i,
    theta^i alpha} of `SubfieldEmbedding(tower, s)`, so `into` is its
    coordinate map and `out` the map back.  With alpha^2 = A0 + A1 alpha,
    c x = (u x0 + v x1) + (w x0 + z x1) alpha, u = c0, v = A0 c1, w = c1 and
    z = c0 + A1 c1: four log lookups, the logs fixed per row.  H's tables
    serve, padded in place: log[0] is a sentinel past exp's two periods,
    where exp reads 0.  Nothing here counts: the build undoes the
    embedding's counts, and `_rref_ext` counts `inv` and `axpy` as the
    tower's.  Negation is the tower's."""

    def __init__(self, tower: FieldTower):
        from .subfield import SubfieldEmbedding  # subfield imports qlinalg, which imports this
        count, q, s = tower.mul_count, tower.q, tower.n // 2
        emb = SubfieldEmbedding(tower, s)
        full, theta, alpha = emb._full_solver, emb.generator, emb.ext_basis[1]
        low = emb._sub_solver.solve(tower.pow(theta, s))  # H = GF(q)[x] / minpoly(theta)
        h = FieldTower(q, s, [-c for c in low] + [1])
        self.into, self.out = full._map.__call__, LinearMap(q, 2 * s, full.elements).__call__
        A1, A0 = divmod(full._map(tower.mul(alpha, alpha)), h.order)
        tower.mul_count = count
        self.q, self.s, self.order = q, s, h.order
        self.size = size = h.order - 1
        h._log[0], h._exp[2 * size:] = 2 * size, [0] * (2 * size + 1)  # h.add reads neither
        self.log, self.exp = h._log, h._exp
        self.lA = self.log[A0], self.log[A1]
        self.add, self.turn = (operator.xor, 0) if q == 2 else (h.add, size // 2)

    def inv(self, a: int) -> int:
        """conj(a) / N(a): conj(a) = t - a1 alpha for t = a0 + A1 a1, N(a) =
        a0 t - A0 a1^2, 1/N(a) = g^(size - log N(a)); turn is log(-1)."""
        exp, log, (lA0, lA1), turn, size = self.exp, self.log, self.lA, self.turn, self.size
        a1, a0 = divmod(a, self.order)
        la1 = log[a1]
        lt = log[self.add(a0, exp[lA1 + la1])]
        lr = size - log[self.add(exp[log[a0] + lt], exp[(lA0 + turn) % size + log[exp[2 * la1]]])]
        return exp[lt + lr] + self.order * exp[la1 + (lr + turn) % size]

    def axpy(self, ys, c: int, xs) -> list:
        """ys with each y replaced by y + c x, x from xs, in place."""
        exp, log, order, (lA0, lA1) = self.exp, self.log, self.order, self.lA
        c1, c0 = divmod(c, order)
        lc1 = log[c1]  # the logs of w = c1, u, v and z
        lu, lv, lz = log[c0], log[exp[lA0 + lc1]], log[self.add(c0, exp[lA1 + lc1])]
        s, mask, add, binary = self.s, order - 1, self.add, self.q == 2
        for j, x in enumerate(xs):  # a loop: a comprehension reads these locals as cells
            if x and binary:
                a, b = log[x & mask], log[x >> s]
                ys[j] ^= exp[lu + a] ^ exp[lv + b] ^ (exp[lc1 + a] ^ exp[lz + b]) << s
            elif x:
                (x1, x0), (y1, y0) = divmod(x, order), divmod(ys[j], order)
                a, b = log[x0], log[x1]
                ys[j] = (add(add(y0, exp[lu + a]), exp[lv + b])
                         + order * add(add(y1, exp[lc1 + a]), exp[lz + b]))
        return ys
