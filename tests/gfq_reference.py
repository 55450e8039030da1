"""Digit-list Gauss-Jordan elimination over GF(q), the reference the packed
kernel of rankcodes.qlinalg is checked against, a q-ary row sampler on
randrange, the reference for the odd-q draws of random_rows, a schoolbook
product in GF(q^n), the reference for the field multiplier, the stepping scan
for the multiplicative generator and its Zech table, trial division, the
reference for the irreducibility test, and the per-position direct-sum
transfers, the reference for the precomputed word maps of
rankcodes.directsum.

Matrices are lists of row lists with entries in [0, q); entries outside are
read modulo q.  Every step is plain modular arithmetic on one entry at a
time, with nothing shared with the library.  The exception is the last
section, oracles built on the library's tower, codes and `LinearizedPoly`:
a dot product over GF(q^n), coordinates over a subfield's extension basis,
the rank of a matrix over GF(q^n), the GF(q^n) elimination loop on the
tower's `axpy` and `inv`, a parity vector as the kernel of its dual
system, the alpha-multiples of a row stepped entry by entry, a direct
sum's channel word as the unfold of parity symbols, a rank-t error
confined to a subspace, drawn on the library's `random_rows`, a subfield
listed element by element,
the guarded enumerations of a code's messages and words, of a subspace
and of a subspace subcode, the minimum rank distance of a code and the
words of a subspace subcode, both by enumerating the code, the parity rows
that define a subcode's parent, the expansion of a parity vector over a
subfield, membership in a kernel of parity rows, the minimal subspace
polynomial, a check on the decoder's root spaces, the Gabidulin
decoder that solves every row of its locator system, the decoder on the
checked elimination wrappers, the root space by elimination at every
q-degree, and a subspace subcode decoded in its full-length code, the
oracle of its parent route.
"""

import itertools
import random

from rankcodes import (DecodingFailure, LinearizedPoly as _LibraryLinearizedPoly,
                       ext_nullspace, ext_solve, random_rows as _library_random_rows,
                       rank_of_vector, rank_rows)
from rankcodes.field import LinearMap, int_digits
from rankcodes.qlinalg import kernel_rows


def rref(rows, q):
    """In-place reduced row echelon form; returns the pivot column list."""
    if not rows:
        return []
    nrows = len(rows)
    pivots = []
    r = 0
    for col in range(len(rows[0])):
        for piv in range(r, nrows):
            if rows[piv][col]:
                break
        else:
            continue
        prow = rows[piv]
        rows[piv] = rows[r]
        inv = pow(prow[col], q - 2, q)
        prow = [v * inv % q for v in prow]
        rows[r] = prow
        for i in range(nrows):
            c = rows[i][col]
            if c and i != r:
                rows[i] = [(a - c * b) % q for a, b in zip(rows[i], prow)]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(matrix, q):
    return len(rref([[v % q for v in row] for row in matrix], q))


def nullspace(matrix, q):
    """Right nullspace basis: one vector per free column f, in ascending f,
    with 1 at f and minus the reduced entries at the pivot columns."""
    if not matrix:
        return []
    rows = [[v % q for v in row] for row in matrix]
    pivots = rref(rows, q)
    basis = []
    for f in range(len(rows[0])):
        if f in pivots:
            continue
        vec = [0] * len(rows[0])
        vec[f] = 1
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][f] % q
        basis.append(vec)
    return basis


def solve(matrix, rhs, q):
    """The unique x with matrix x = rhs for a matrix of full column rank,
    or None when the system is inconsistent."""
    ncols = len(matrix[0]) if matrix else 0
    rows = [[v % q for v in row] + [b % q] for row, b in zip(matrix, rhs)]
    pivots = rref(rows, q)
    if ncols in pivots:
        return None
    assert pivots == list(range(ncols)), "matrix is rank deficient"
    return [rows[r][ncols] for r in range(ncols)]


def digits(v, q, width):
    """The low `width` base-q digits of v, least significant first."""
    return [v // q**j % q for j in range(width)]


def pack(vec, q):
    """The base-q int with digit j = vec[j]."""
    return sum(d * q**j for j, d in enumerate(vec))


def random_rows(q, rows, width, rng, full_rank=False):
    """The odd-q draw of rankcodes' random_rows by randrange: entries in
    row-major order, one rng.randrange(q) each, entry j becoming digit j
    of its packed row; with full_rank the whole draw is repeated until the
    rank is min(rows, width)."""
    while True:
        out = [sum([rng.randrange(q) * q**j for j in range(width)]) for _ in range(rows)]
        if not full_rank or rank([digits(v, q, width) for v in out], q) == min(rows, width):
            return out


def field_mul(a, b, q, modulus):
    """a * b in GF(q)[x] / (modulus), on base-q encoded elements; modulus is
    monic, coefficients low-to-high.  For q = 2 a carry-less product, one
    shifted XOR per set bit of b, reduced one bit at a time from the top;
    otherwise the same schoolbook product and reduction on digit lists."""
    n = len(modulus) - 1
    if q == 2:
        f = sum(c << i for i, c in enumerate(modulus))
        p = 0
        for i in range(b.bit_length()):
            if b >> i & 1:
                p ^= a << i
        for i in range(p.bit_length() - 1, n - 1, -1):
            if p >> i & 1:
                p ^= f << i - n
        return p
    prod = [0] * (2 * n)
    for i, x in enumerate(digits(a, q, n)):
        for j, y in enumerate(digits(b, q, n)):
            prod[i + j] = (prod[i + j] + x * y) % q
    for i in range(2 * n - 1, n - 1, -1):
        c = prod[i]
        for j, m in enumerate(modulus):
            prod[i - n + j] = (prod[i - n + j] - c * m) % q
    return pack(prod[:n], q)


def field_add(a, b, q, n):
    """a + b in GF(q^n), digit by digit."""
    return pack([(x + y) % q for x, y in zip(digits(a, q, n), digits(b, q, n))], q)


def log_tables(q, modulus, known=None):
    """(g, exp, log) of GF(q^n) = GF(q)[x] / (modulus), by the stepping scan:
    each candidate g = 2, 3, ... (1 for GF(2)) is multiplied by itself with
    `field_mul` until its powers cycle, and the first whose cycle covers
    all of GF(q^n)* is the generator.  Given `known`, only that candidate
    is stepped (None unless it generates).  exp spans two periods."""
    order = q ** (len(modulus) - 1)
    for gen in range(min(2, order - 1), order) if known is None else (known,):
        powers, x = [1], field_mul(1, gen, q, modulus)
        while x != 1:
            powers.append(x)
            x = field_mul(x, gen, q, modulus)
        if len(powers) == order - 1:
            log = [0] * order
            for i, v in enumerate(powers):
                log[v] = i
            return gen, powers + powers, log


def zech_table(q, n, exp, log):
    """zech[i] = log(1 + g^i), None where 1 + g^i = 0, with the sum taken
    digit by digit; spans two periods like exp."""
    size = q**n - 1
    zech = []
    for v in exp[:size]:
        w = field_add(1, v, q, n)
        zech.append(log[w] if w else None)
    return zech + zech


def poly_rem(a, b, q):
    """Remainder of the coefficient list a (low-to-high) by the monic b."""
    a = [c % q for c in a]
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i]
        for j, m in enumerate(b):
            a[i - len(b) + 1 + j] = (a[i - len(b) + 1 + j] - c * m) % q
    return a[:len(b) - 1]


def is_irreducible(f, q):
    """Whether the monic f of degree n >= 1 has no monic factor of degree
    1..n/2, by trial division with every such polynomial."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for low in range(q**d):
            if not any(poly_rem(f, digits(low, q, d) + [1], q)):
                return False
    return True


# ---------------------------------------------------------------------------
# direct-sum transfers, one position at a time
#
# A direct sum has parts (lists of independent elements of GF(q^n)) whose
# concatenation beta_1..beta_N is independent, and the parity vector h of
# the ambient code.  A word w transfers to part i's parent word h U_i^t,
# where column p of U = (U_1; ...; U_u) holds w_p's coordinates over beta.


def combine(coeffs, elements, q, n):
    """sum c_j e_j in GF(q^n) for GF(q) coefficients c_j, digit by digit."""
    acc = 0
    for c, e in zip(coeffs, elements):
        acc = field_add(acc, pack([c * d % q for d in digits(e, q, n)], q), q, n)
    return acc


def coordinates(x, elements, q, n):
    """The GF(q) coordinates of x over independent elements, or None."""
    matrix = [[digits(e, q, n)[i] for e in elements] for i in range(n)]
    return solve(matrix, digits(x, q, n), q)


def _columns(word, parts, q, n):
    concat = [x for part in parts for x in part]
    cols = []
    for p, x in enumerate(word):
        c = coordinates(x, concat, q, n)
        if c is None:
            raise ValueError(f"component {p} lies outside the subspace sum")
        cols.append(c)
    return cols


def _offsets(parts):
    return [sum(len(part) for part in parts[:i]) for i in range(len(parts))]


def fold(word, parts, h, q, n):
    """Each part's parent word: symbol a of part i is sum_p U_i[a][p] h_p."""
    cols = _columns(word, parts, q, n)
    return tuple(tuple(combine([c[off + a] for c in cols], h, q, n) for a in range(len(part)))
                 for off, part in zip(_offsets(parts), parts))


def project(word, parts, q, n):
    """The per-part words part_i U_i, recomposed position by position."""
    cols = _columns(word, parts, q, n)
    return [tuple(combine(c[off:off + len(part)], part, q, n) for c in cols)
            for off, part in zip(_offsets(parts), parts)]


def unfold(parent_words, parts, h, q, n):
    """The word whose part i folds to parent_words[i]: row a of U_i holds
    the coordinates over h of parent symbol a."""
    rows = [coordinates(x, h, q, n) for word in parent_words for x in word]
    concat = [x for part in parts for x in part]
    return tuple(combine([r[p] for r in rows], concat, q, n) for p in range(len(h)))


def spread(values, parts, q, n, length):
    """The channel error sum_j digit_p(v_j) beta_j at each position p."""
    concat = [x for part in parts for x in part]
    return tuple(combine([digits(v, q, n)[p] for v in values], concat, q, n)
                 for p in range(length))


# ---------------------------------------------------------------------------
# oracles on the library's tower


def dot(tower, xs, ys):
    """sum x_i y_i over GF(q^n); each nonzero product is one counted `mul`."""
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc = tower.add(acc, tower.mul(x, y))
    return acc


def ext_coords(emb, x):
    """Subfield coordinates of x over the extension basis of a
    `SubfieldEmbedding`, read off its combined basis; x is checked."""
    digits, s = emb.full_basis.coords(x), emb.s
    return tuple(emb.tower.contract(digits[r * s:(r + 1) * s], emb.poly_basis)
                 for r in range(emb.blocks))


def ext_rank(tower, matrix):
    """Rank over GF(q^n) by Gaussian elimination, one field operation of
    the tower at a time."""
    rows, rank = [list(row) for row in matrix], 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = tower.inv(rows[rank][col])
        for i in range(rank + 1, len(rows)):
            c = tower.mul(rows[i][col], inv)
            rows[i] = [tower.sub(a, tower.mul(c, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rref_ext(tower, rows):
    """Gauss-Jordan elimination over GF(q^n) in place, returning the pivot
    columns: the loop of `rankcodes.qlinalg._rref_ext` before it eliminated
    in a half field, a row step at a time through the tower's own `axpy`
    and `inv`, so it counts exactly as the library must."""
    ncols, pivots, r = len(rows[0]), [], 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = tower.axpy([0] * ncols, tower.inv(rows[r][col]), rows[r])
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                rows[i] = tower.axpy(rows[i], tower.neg(rows[i][col]), rows[r])
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def dual_vector_by_elimination(tower, g, k):
    """The parity vector of `rankcodes.dual_vector` as it was found before
    full-length codes took the trace-dual basis: the one kernel vector of
    sum_i g_i^[mu] h_i = 0, mu = -(L-k-1)..k-1, over GF(q^n), scaled to
    lead with 1."""
    rows = [[tower.frobenius(gi, mu) for gi in g] for mu in range(-(len(g) - k - 1), k)]
    (h,) = ext_nullspace(tower, rows)
    scale = tower.inv(next(x for x in h if x))
    return tuple(tower.mul(scale, x) for x in h)


def alpha_multiples_by_entry(tower, row):
    """The words alpha^j row for j < n, entry l at digit offset l n, as
    `FieldTower._alpha_multiples` stepped odd q before lanes: each entry
    times alpha = q by the tower's `_mul_raw`."""
    offsets, out = [tower.order**l for l in range(len(row))], []
    for j in range(tower.n):
        if j:
            row = [tower._mul_raw(x, tower.q) for x in row]
        out.append(sum(x * o for x, o in zip(row, offsets)))
    return out


def unfold_of_parity_symbols(M, values):
    """The channel word of the values v_j composed of two library maps:
    each v_j to the parent symbol sum_p digit_p(v_j) h_p by a `LinearMap`
    of the parity vector h, then the direct sum's unfold of those symbols."""
    to_h = LinearMap(M.tower.q, M.tower.n, M.code.h)
    return M._unfold.word([to_h(x) for x in values])


def rank_event_successes(q, dims, capability, t, trials, seed, channel="uniform-matrix"):
    """The successes of `rankcodes.rank_event_rate` by its per-trial loop
    before it ranked a pass of trials on lanes: each t x N matrix drawn by
    the library's `random_rows`, each column block ranked by `rank_rows`."""
    n_total = sum(dims)
    # block i of a packed row is (row // q**offset_i) % q**m_i
    blocks = [(q**sum(dims[:i]), q**m, m) for i, m in enumerate(dims)]
    successes = 0
    rng = random.Random(f"{seed}:0")
    for _ in range(trials):
        rows = _library_random_rows(q, t, n_total, rng, full_rank=channel == "exact-rank")
        for low, span, m in blocks:
            if rank_rows([r // low % span for r in rows], q) > capability:
                break
        else:
            successes += 1
    return successes


def random_support_error(tower, length, t, rng, support):
    """A rank-t error with its values in span(support), drawn as
    `rankcodes.random_error` in exact-rank mode draws over the whole field:
    a full-rank t x m `random_rows` whose rows, contracted with the m
    support elements, are the values, then a rank-t t x length matrix A,
    and e = values * A.  ValueError unless the support is independent
    field elements (labelled "support element") and t <= min(m, length)."""
    support = tower.check_elements(support, "support element")
    q, m = tower.q, len(support)
    if rank_of_vector(tower, support) != m:
        raise ValueError("support elements are not linearly independent")
    if not 0 <= t <= min(m, length):
        raise ValueError(f"target rank {t} exceeds support dimension {m} or length {length}")
    if t == 0:
        return (0,) * length
    values = [tower.contract(int_digits(v, q, m), support)
              for v in _library_random_rows(q, t, m, rng, full_rank=True)]
    a = _library_random_rows(q, t, length, rng, full_rank=True)
    return tuple(tower.contract(col, values) for col in zip(*(int_digits(r, q, length) for r in a)))


def fixed_field(tower, s):
    """GF(q^s) inside the tower from its definition: every x with
    x^(q^s) = x, in ascending order."""
    return [x for x in range(tower.order) if tower.pow(x, tower.q**s) == x]


# most elements or codewords an exhaustive enumeration may produce
ENUM_GUARD = 1 << 20


def messages(code):
    """Every message of a code with a generator vector (guarded)."""
    if code.g is None:
        raise ValueError("enumeration needs a generator vector")
    if code.tower.order**code.k > ENUM_GUARD:
        raise ValueError("code is too large to enumerate")
    return itertools.product(range(code.tower.order), repeat=code.k)


def codewords(code):
    """All codewords, by brute-force encoding (guarded)."""
    return (code.encode(m) for m in messages(code))


def span(basis):
    """All q^m elements of a `SubspaceBasis` (guarded)."""
    q = basis.tower.q
    if q**basis.m > ENUM_GUARD:
        raise ValueError("subspace too large to enumerate")
    return [basis.tower.contract(int_digits(idx, q, basis.m), basis.elements)
            for idx in range(q**basis.m)]


def subcode_encodings(sub):
    """All subcode words, constructively: encode every parent message and
    transfer (guarded by the subcode cardinality)."""
    if sub.is_trivial:
        return [(0,) * sub.code.length]
    if sub.cardinality > ENUM_GUARD:
        raise ValueError("subcode is too large to enumerate")
    return [sub.encode(m) for m in messages(sub.parent)]


def min_rank_distance(code):
    """Minimum nonzero rank over a whole code, by enumeration."""
    return min(rank_of_vector(code.tower, c) for c in codewords(code) if any(c))


def parent_parity_rows(sub):
    """The rows beta^[n], beta^[n-1], ..., beta^[n-d+2] that define the
    parent code of a subspace subcode."""
    t, n = sub.tower, sub.tower.n
    return [[t.frobenius(b, n - i) for b in sub.basis.elements] for i in range(sub.d - 1)]


def subcode_codewords(sub):
    """The words of a subspace subcode by filtering every ambient codeword
    for componentwise membership in V (guarded by the ambient code size)."""
    return [c for c in codewords(sub.code) if all(sub.basis.contains(x) for x in c)]


def expand_parity(code, emb):
    """The (n/s) x n subfield matrix whose column j holds the coordinates
    of h_j over the extension basis; contracting a column restores h_j."""
    cols = [ext_coords(emb, x) for x in code.h]
    return [[cols[j][r] for j in range(code.length)] for r in range(emb.blocks)]


def annihilates(tower, parity_rows, word):
    """Whether every parity row is orthogonal to the word."""
    return not any(dot(tower, row, word) for row in parity_rows)


def _error_values(code, synd):
    """The key equation solved by `ext_nullspace` and its lowest kernel
    vector's root space, as `GabidulinCode.decode` found the error values
    before it reduced its systems by `_rref_ext` itself."""
    t, cap, r = code.tower, code.capability, code.d - 1
    kernel = ext_nullspace(t, [[t.frobenius(synd[l - p], p) for p in range(cap + 1)]
                               for l in range(cap, r)])
    if not kernel or not any(kernel[0][1:]):
        raise DecodingFailure("key-equation", f"no error of rank <= {cap} fits the syndromes")
    sigma = LinearizedPoly(t, kernel[0])
    values = sigma.root_space_basis()
    if len(values) != sigma.q_degree:
        raise DecodingFailure("root-space", f"{len(values)} roots for q-degree {sigma.q_degree}")
    return values


def _corrected(code, y, values, x):
    """(codeword, error) from the locator solution x over the values; the
    "locator" stage if a locator lies outside the span of h."""
    t = code.tower
    locators = [code.h_basis.coords(xj) for xj in x]
    if None in locators:
        raise DecodingFailure("locator", "error locator outside the span of h")
    error = tuple(t.contract(col, values) for col in zip(*locators))
    return tuple(t.sub(yi, ei) for yi, ei in zip(y, error)), error


def decode_full_locator(code, received):
    """`GabidulinCode.decode` with the locator system solved on all d - 1
    rows and no residual check: the syndromes, the key equation and the
    root space as in the library, then the r x f system sum_j
    values_j^[-l] x_j = synd_l^[-l] for l = 0..d-2, which is inconsistent
    ("locator" stage) whenever the word is beyond the decoding radius."""
    y = tuple(received)
    synd = code.syndromes(y)
    if not any(synd):
        return y, (0,) * code.length
    t, r = code.tower, code.d - 1
    values = _error_values(code, synd)
    sol = ext_solve(t, [[t.frobenius(v, -l) for v in values] for l in range(r)],
                    [t.frobenius(synd[l], -l) for l in range(r)])
    if sol is None:
        raise DecodingFailure("locator", "locator system is inconsistent")
    return _corrected(code, y, values, sol[0])


def decode_by_wrappers(code, received):
    """`GabidulinCode.decode` as it was before it read its systems off
    `_rref_ext`: the key equation through `ext_nullspace`, the f x f
    locator block through `ext_solve`, then the residual check."""
    y = tuple(received)
    synd = code.syndromes(y)
    if not any(synd):
        return y, (0,) * code.length
    t = code.tower
    values = _error_values(code, synd)
    f = len(values)
    x, _ = ext_solve(t, [[t.frobenius(v, -l) for v in values] for l in range(f)],
                     [t.frobenius(synd[l], -l) for l in range(f)])
    codeword, error = _corrected(code, y, values, x)
    if not code.is_codeword(codeword):
        raise DecodingFailure("residual", "corrected word has nonzero syndromes")
    return codeword, error


def root_space_by_elimination(f):
    """`LinearizedPoly.root_space_basis` by its elimination alone, as every
    q-degree took it before table-backed towers answered q-degree 1 by a
    discrete log: one `kernel_rows` over the basis images f(alpha^i), on the
    lanes `FieldTower._image_lanes` sums them in, n counted per nonzero
    coefficient."""
    t = f.tower
    w, m = t._image_lanes(f.coeffs)
    size = t.n * m.lane
    return kernel_rows([w >> i * size & (1 << size) - 1 for i in range(t.n)], t.q, m.lane)


def ambient_decode(sub, received):
    """Decode a word of V^n in the full-length code directly: the fold
    checks that every component lies in V, then `sub.code.decode`, and a
    nearest codeword that leaves V fails at the "subspace" stage."""
    received = tuple(received)
    sub.to_parent(received)  # the fold enforces the V^n precondition
    codeword, error = sub.code.decode(received)
    if not all(sub.basis.contains(x) for x in codeword):
        raise DecodingFailure("subspace", "nearest codeword leaves the subspace")
    return codeword, error


class LinearizedPoly(_LibraryLinearizedPoly):
    """The library's linearized polynomial with the algebra the oracle
    below needs: the identity and zero maps, sums and scalar multiples."""

    @classmethod
    def identity(cls, tower):
        return cls(tower, (1,))

    @classmethod
    def zero(cls, tower):
        return cls(tower, ())

    def add(self, other):
        t = self.tower
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = t.add(out[i], c)
        return LinearizedPoly(t, out)

    def scale(self, c):
        t = self.tower
        return LinearizedPoly(t, (t.mul(c, v) for v in self.coeffs))


def min_subspace_poly(tower, elements):
    """Monic linearized polynomial of minimal q-degree vanishing on the
    GF(q)-span of `elements`, built iteratively: adjoin one value v at a
    time via sigma' = sigma^(q) - sigma(v)^(q-1) * sigma; values already in
    the kernel are skipped, so dependent inputs are fine."""
    sigma = LinearizedPoly.identity(tower)
    for v in elements:
        w = sigma.evaluate(v)
        if w == 0:
            continue
        shifted = LinearizedPoly(tower, (0,) + tuple(tower.frobenius(c, 1) for c in sigma.coeffs))
        sigma = shifted.add(sigma.scale(tower.neg(tower.pow(w, tower.q - 1))))
    return sigma
