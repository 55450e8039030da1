"""Linear algebra over GF(q) and GF(q^n).

q-ary matrices are lists of packed rows: a row of width w is the base-q
int sum row[j] * q**j, as field elements are rows of width n.  One odd-q
elimination loop, `field._reduce_lanes`, gives `kernel_rows` its kernels,
coordinate maps and root spaces and `rank_rows` its ranks; for q = 2 each
keeps an XOR loop; Monte Carlo ranks a pass of matrices at once, one per
lane, by `field._rank_reaches`.  `_rref_ext` eliminates matrices over
GF(q^n), whose entries are integer-encoded elements, by the tower's row
step `axpy` or its half field's.  Also here: the rank-matrix counting
formula and the rank-t error sampler used by the decoding experiments.
"""

from __future__ import annotations

import random

from .field import (FieldTower, LinearMap, _from_lanes, _is_prime_power, _lane_bits,
                    _reduce_lanes, int_digits)


# ---------------------------------------------------------------------------
# packed q-ary rows

def random_rows(q: int, rows: int, width: int, rng, full_rank: bool = False):
    """`rows` uniform q-ary rows of the given width, packed.  For q = 2
    each row is one getrandbits(width); otherwise entries are drawn in
    row-major order, entry j becoming digit j, each as randrange(q) draws
    it: getrandbits(q.bit_length()) until below q.  Seeded streams rely on
    randrange being that loop: test_randrange_is_the_getrandbits_rejection_loop.
    With full_rank the draw is repeated until the rank is min(rows, width).
    ValueError unless q is prime, the shape is two ints >= 0 and rng is a
    random.Random."""
    if type(rows) is not int or type(width) is not int:  # a bool is no shape
        raise ValueError(f"shape {rows!r} x {width!r} is not two ints")
    _check_rng(rng)
    if rows < 0 or width < 0:
        raise ValueError(f"negative shape {rows} x {width}")
    if q != 2:
        _lane_bits(q, q * (q - 1))  # kernel_rows' cached check: ValueError unless q is prime
        powers, bits, draw = [q**j for j in range(width)], q.bit_length(), rng.getrandbits
    while True:
        if q == 2:
            out = [rng.getrandbits(width) for _ in range(rows)]
        else:
            out = []
            for _ in range(rows):
                v = 0
                for p in powers:
                    d = draw(bits)
                    while d >= q:
                        d = draw(bits)
                    v += d * p
                out.append(v)
        if not full_rank or rank_rows(out, q) == min(rows, width):
            return out


def _check_rng(rng) -> None:  # once per call: the draws then read rng.getrandbits unchecked
    if not isinstance(rng, random.Random):
        raise ValueError(f"rng {rng!r} is not a random.Random")


def rank_rows(rows, q: int) -> int:
    """Rank over GF(q) of packed rows: for q = 2 by XOR against one pivot per
    leading bit, otherwise the pivot count of `_reduce_lanes` with no identity
    lanes, so no kernel vector is gathered.  ValueError on a negative row, and
    unless q is an int and rows an iterable of ints, bools excluded."""
    if type(rows) not in (list, tuple) and hasattr(rows, "__iter__"):  # read an iterator once
        rows = list(rows)
    if type(q) is not int or type(rows) not in (list, tuple) or {*map(type, rows)} - {int}:
        raise ValueError(f"need packed int rows and an int q, got {rows!r} and {q!r}")
    # q = 2 inline: random_rows' full-rank check and rank_of_vector run it per channel
    # draw and per decode check, on a few short rows.  Odd q shares kernel_rows' loop
    if q == 2:
        pivots = {}
        for v in rows:
            while v > 0:
                h = v.bit_length()
                p = pivots.get(h)
                if p is None:
                    pivots[h] = v
                    break
                v ^= p
            else:
                if v:  # reduction keeps a row >= 0, so only a negative row gets here
                    raise ValueError(f"packed row {v} is negative")
        return len(pivots)
    return len(_reduce_lanes(rows, q, _lane_bits(q, q * (q - 1)), False)[0])


def kernel_rows(images, q: int, lane: int = 0):
    """Packed kernel basis of the GF(q)-linear map e_j -> images[j]: the
    RREF free-column basis, in ascending free column.

    Each row [image_j | e_j] is reduced against one pivot row per leading
    image digit, and leaves a kernel vector if its image part vanishes: 1
    at j, the rest at earlier pivot columns.  For q = 2 a row is the int
    image_j << m | 1 << j, reduced by XOR.  For odd q `_reduce_lanes` does
    it on images already on `lane`-bit lanes, or spread onto `_lane_bits`
    (8 bits to q = 13).  ValueError unless q is prime, or on a negative row.
    """
    m = len(images)
    if q == 2:
        pivots, kernel = {}, []
        top = 1 << m  # v >= top: the image part is nonzero and v positive
        for j, image in enumerate(images):
            v = image << m | 1 << j
            while v >= top:
                p = pivots.get(v.bit_length())
                if p is None:
                    pivots[v.bit_length()] = v
                    break
                v ^= p
            else:
                if v < 0:
                    raise ValueError(f"packed row {image} is negative")
                kernel.append(v)
        return kernel
    bits = lane or _lane_bits(q, q * (q - 1))
    kernel = _reduce_lanes(images, q, bits, True, not lane)[1]
    return [_from_lanes(v, q, bits, m, [q**i for i in range(m)])[0] for v in kernel]


def rank_q(matrix, q: int) -> int:
    """Rank over GF(q) of a matrix given as row lists, by `rank_rows`.  ValueError unless
    its rows are iterables of one length of ints (not bools) in [0, q)."""
    try:
        rows = [tuple(row) for row in matrix]
    except TypeError:
        raise ValueError(f"matrix {matrix!r} or one of its rows is not iterable") from None
    if len(set(map(len, rows))) > 1 or not all(type(v) is int and 0 <= v < q
                                               for row in rows for v in row):
        raise ValueError(f"need rows of one length of ints in [0, {q!r}), got {rows!r}")
    return rank_rows([sum(v * q**j for j, v in enumerate(row)) for row in rows], q)


def rank_of_vector(tower: FieldTower, vec) -> int:
    """q-ary rank of (the expansion of) a vector over GF(q^n).  ValueError
    unless each entry is an element of the tower."""
    return rank_rows(tower.check_elements(vec), tower.q)


class CoordinateSolver:
    """GF(q)-coordinates of field elements over fixed independent elements
    b_1..b_m of a tower, kept as `elements`: solve(x) is the u with
    sum u_j b_j = x.  It is also the public `SubspaceBasis`, an ordered
    basis of a subspace of GF(q^n): its one elimination gives both the
    rank test and the coordinates.

    One `kernel_rows` over [b_1..b_m, alpha^0..alpha^(n-1)] checks the
    rank and completes the b_j by the pivot powers alpha^p to a basis, and
    writes each free power over it.  E, the coordinate map of that basis,
    holds u in the first m entries of E x and zeros below exactly when x
    lies in the span.  E is stored as a `LinearMap`, and its columns
    E alpha^i as base-q ints in `columns`.  The elements pass one
    `check_elements`, labelled "basis element"; ValueError if they are
    dependent.  `coords` and `contains` check x, `solve` does not.
    """

    def __init__(self, tower: FieldTower, elements):
        q, n = tower.q, tower.n
        elements = tower.check_elements(elements, "basis element")
        self.tower, self.elements, self.m = tower, elements, len(elements)
        r = self.m
        # each kernel vector keyed by its free column, its top nonzero digit
        kernel = [int_digits(v, q, r + n) for v in kernel_rows(elements + tower.basis, q)]
        free = {max(i for i, d in enumerate(vec) if d): vec for vec in kernel}
        if any(f < r for f in free):  # a free column among the b_j: they are dependent
            raise ValueError(f"basis elements are linearly dependent: "
                             f"rank {r - sum(f < r for f in free)} < {r} over GF({q})")
        basis = [c for c in range(r + n) if c not in free]
        self.columns = [tower.from_digits([-free[r + i][c] for c in basis]) if r + i in free
                        else q**basis.index(r + i) for i in range(n)]
        self._map = LinearMap(q, n, self.columns)

    def solve(self, x: int):
        """The coordinates of x over the elements as a list, or None if x
        is outside their span.  Checks nothing: x must be an element."""
        digits = self._map.digits(x)
        return None if any(digits[self.m:]) else list(digits[:self.m])

    def coords(self, x: int):
        """`solve` after a check that x is an element."""
        return self.solve(*self.tower.check_elements((x,)))

    def contains(self, x: int) -> bool:
        return self.coords(x) is not None


# ---------------------------------------------------------------------------
# matrices over GF(q^n)

def _free_basis(rows, pivots, ncols, neg):
    """Nullspace basis of the first ncols columns of a reduced matrix whose
    pivots all lie among them: one vector per free column f, with 1 at f
    and neg(rows[r][f]) at the r-th pivot column."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for r, col in enumerate(pivots):
            vec[col] = neg(rows[r][f])
        basis.append(vec)
    return basis


def _rref_ext(tower: FieldTower, rows):
    """The pivot columns of `rows`, lists over GF(q^n) reduced in place to
    reduced row echelon form by `inv` and the row step `axpy`: the tower's,
    or its `_HalfField`'s, with the entries converted in and out once and
    the count added as the tower's would be."""
    half, q = tower._half_field(), tower.q
    ring, ncols, pivots, r, steps = half or tower, len(rows[0]), [], 0, 0
    if half:
        rows[:] = [list(map(half.into, row)) for row in rows]
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = ring.axpy([0] * ncols, ring.inv(rows[r][col]), rows[r])
        for i in range(len(rows)):
            if i != r and rows[i][col]:  # row i - c * row r
                rows[i] = ring.axpy(rows[i], tower.neg(rows[i][col]), rows[r])
                steps += 1
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    if half:  # one per pivot's inv, one per entry of each axpy; GF(q) is fixed by both maps
        tower.mul_count += len(pivots) * (1 + ncols) + steps * ncols
        rows[:] = [[half.out(x) if x >= q else x for x in row] for row in rows]
    return pivots


def _ext_rows(tower: FieldTower, matrix) -> list:
    """The rows as lists of checked entries; ValueError on a non-element or a ragged row."""
    try:
        rows = [list(tower.check_elements(row, "matrix entry")) for row in matrix]
    except TypeError:  # each row's own check raises ValueError: the matrix is no iterable
        raise ValueError(f"matrix {matrix!r} is not iterable") from None
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"matrix rows differ in length: {[len(row) for row in rows]}")
    return rows


def ext_nullspace(tower: FieldTower, matrix):
    """Nullspace basis over GF(q^n); ValueError on a non-element or a ragged row."""
    rows = _ext_rows(tower, matrix)
    if not rows:
        return []
    pivots = _rref_ext(tower, rows)
    return _free_basis(rows, pivots, len(rows[0]), tower.neg)


def ext_solve(tower: FieldTower, matrix, rhs):
    """Solve matrix * x = rhs, one rhs entry per row; None if inconsistent.
    ValueError on a non-element, a ragged row or a rhs of another length."""
    rhs, rows = tower.check_elements(rhs, "right-hand side"), _ext_rows(tower, matrix)
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    if not rows:
        return [], []
    ncols, rows = len(rows[0]), [row + [b] for row, b in zip(rows, rhs)]
    pivots = _rref_ext(tower, rows)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, col in enumerate(pivots):
        x[col] = rows[r][ncols]
    return x, _free_basis(rows, pivots, ncols, tower.neg)


# ---------------------------------------------------------------------------
# sampling

def random_error(tower: FieldTower, length: int, t: int, rng, mode: str = "exact-rank"):
    """Error vector e = (E_1,...,E_t) A: E_j sampled linearly independent
    over GF(q), A a t x length q-ary matrix.  With mode="exact-rank" A is
    resampled until it has rank t, so rank(e) = t exactly, which needs
    t <= length; with mode="uniform-matrix" A is uniform and rank(e) <= t.
    ValueError on a negative length or t, t > n, or an rng that is not a
    random.Random.
    """
    if mode not in ("exact-rank", "uniform-matrix"):
        raise ValueError(f"unknown error mode {mode!r}")
    _check_rng(rng)
    if type(length) is not int or type(t) is not int:
        raise ValueError(f"length {length!r} and rank {t!r} must be ints")
    if t < 0 or length < 0:
        raise ValueError(f"length {length} or target rank {t} is negative")
    if mode == "exact-rank" and t > length:
        raise ValueError(f"exact rank {t} exceeds the length {length}")
    if t == 0:
        return (0,) * length
    q, n = tower.q, tower.n
    if t > n:
        raise ValueError(f"target rank {t} exceeds the degree n = {n}")
    # a full-rank t x n matrix; over the polynomial basis its rows are the values
    values = random_rows(q, t, n, rng, full_rank=True)
    a = random_rows(q, t, length, rng, full_rank=mode == "exact-rank")
    cols = zip(*(int_digits(row, q, length) for row in a))
    return tuple(tower.contract(col, values) for col in cols)


# ---------------------------------------------------------------------------
# counting

def _check_counts(q, counts, dims=()) -> tuple:
    """`dims` as a tuple, read once; ValueError unless q is a prime power, dims
    is iterable and each (what, value) and dimension in dims is an int >= 0."""
    if not (isinstance(q, int) and _is_prime_power(q)):
        raise ValueError(f"q = {q!r} is not a prime power")
    try:
        dims = tuple(dims)
    except TypeError:
        raise ValueError(f"part dimension list {dims!r} is not iterable") from None
    for what, v in [*counts, *(("part dimension", m) for m in dims)]:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValueError(f"{what} must be a nonnegative integer, got {v!r}")
    return dims


def count_rank_matrices(q: int, m: int, t: int, r: int) -> int:
    """Number of t x m q-ary matrices of rank exactly r, 0 outside 0..min(m, t).
    ValueError unless q is a prime power and m and t are ints >= 0."""
    _check_counts(q, [("m", m), ("t", t)])
    if type(r) is not int:  # any other int is a rank that counts 0
        raise ValueError(f"rank {r!r} is not an int")
    if r < 0 or r > min(m, t):
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= (q**m - q**i) * (q**t - q**i)
        den *= q**r - q**i
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError("rank count is not integral")  # pragma: no cover
    return quotient
