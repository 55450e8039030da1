"""Digit-list Gauss-Jordan elimination over GF(q), the reference the packed
kernel of rankcodes.qlinalg is checked against, and a schoolbook product
in GF(q^n), the reference for the field multiplier, the stepping scan
for the multiplicative generator, and the per-position direct-sum
transfers, the reference for the precomputed word maps of
rankcodes.directsum.

Matrices are lists of row lists with entries in [0, q); entries outside are
read modulo q.  Every step is plain modular arithmetic on one entry at a
time, with nothing shared with the library.
"""


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


def log_tables(q, modulus):
    """(g, exp, log) of GF(q^n) = GF(q)[x] / (modulus), by the stepping scan:
    each candidate g = 2, 3, ... (1 for GF(2)) is multiplied by itself with
    `field_mul` until its powers cycle, and the first whose cycle covers
    all of GF(q^n)* is the generator.  exp spans two periods."""
    order = q ** (len(modulus) - 1)
    for gen in range(min(2, order - 1), order):
        powers, x = [1], field_mul(1, gen, q, modulus)
        while x != 1:
            powers.append(x)
            x = field_mul(x, gen, q, modulus)
        if len(powers) == order - 1:
            log = [0] * order
            for i, v in enumerate(powers):
                log[v] = i
            return gen, powers + powers, log


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
