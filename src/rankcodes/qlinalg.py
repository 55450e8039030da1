"""Linear algebra over GF(q) and GF(q^n).

q-ary matrices are plain lists of row lists with entries in [0, q);
vectors over the extension field are tuples of integer-encoded elements.
Random q-ary matrices are lists of packed rows: a row of width w is the
base-q int sum row[j] * q**j, the encoding field elements use (an element
is a row of width n).  Everything here is exact Gaussian elimination at
desk scale, plus the rank-matrix counting formula and the rank-t error
sampler used by the decoding experiments.
"""

from __future__ import annotations

from .field import FieldTower, int_digits, linear_map_tables


# ---------------------------------------------------------------------------
# GF(q) matrices

def _rref_q(rows, q):
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
        if inv != 1:
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


def rank_q(matrix, q: int) -> int:
    rows = [[v % q for v in row] for row in matrix]
    return len(_rref_q(rows, q))


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


def nullspace_q(matrix, q: int):
    """Basis of the right nullspace of a q-ary matrix, as row vectors."""
    if not matrix:
        return []
    rows = [[v % q for v in row] for row in matrix]
    pivots = _rref_q(rows, q)
    return _free_basis(rows, pivots, len(rows[0]), lambda v: -v % q)


class CoordinateSolver:
    """Repeated GF(q)-coordinates of field elements over fixed independent
    elements b_1..b_r: solve(x) is the u with sum u_j b_j = x.

    [B | I], with B the n x r digit matrix of the b_j, is eliminated once.
    The right block is then an invertible E with E B = [I; 0], so E
    digits(x) holds u in its first r entries and is zero below them
    exactly when x lies in the span.  E is stored as the sliced lookup
    tables of `linear_map_tables`, one lane per row of E.
    """

    def __init__(self, tower: FieldTower, elements):
        q, n = tower.q, tower.n
        cols = [tower.digits(x) for x in tower.check_elements(elements)]
        ncols = len(cols)
        rows = [[c[i] for c in cols] + [0] * n for i in range(n)]
        for i in range(n):
            rows[i][ncols + i] = 1
        # pivots beyond the left block land in the identity columns
        pivots = _rref_q(rows, q)
        rank = sum(1 for p in pivots if p < ncols)
        if rank != ncols:
            raise ValueError(f"columns have rank {rank} < {ncols} over GF({q})")
        self.q, self.n, self.rank = q, n, rank
        # radix 256 for q = 2, read off x a byte at a time
        self._radix, self._lane, self._tables = linear_map_tables(
            q, list(zip(*rows))[ncols:])

    def solve(self, x: int):
        """The coordinates of x over the elements as a list, or None if x
        is outside their span."""
        w = 0
        if self.q == 2:
            for table in self._tables:
                w ^= table[x & 255]
                x >>= 8
            if w >> self.rank:
                return None
            return [(w >> i) & 1 for i in range(self.rank)]
        q, radix, lane = self.q, self._radix, self._lane
        for table in self._tables:
            x, r = divmod(x, radix)
            w += table[r]
        mask = (1 << lane) - 1
        lanes = [(w >> (lane * i) & mask) % q for i in range(self.n)]
        if any(lanes[self.rank:]):
            return None
        return lanes[:self.rank]


# ---------------------------------------------------------------------------
# packed q-ary rows

def random_rows(q: int, rows: int, width: int, rng, full_rank: bool = False):
    """`rows` uniform q-ary rows of the given width, packed.  For q = 2
    each row is one getrandbits(width); otherwise entries are drawn with
    randrange(q) in row-major order, entry j becoming digit j.  With
    full_rank the draw is repeated until the rank is min(rows, width)."""
    if rows < 0 or width < 0:
        raise ValueError(f"negative shape {rows} x {width}")
    while True:
        if q == 2:
            out = [rng.getrandbits(width) for _ in range(rows)]
        else:
            powers = [q**j for j in range(width)]
            out = [sum([rng.randrange(q) * p for p in powers])
                   for _ in range(rows)]
        if not full_rank or rank_rows(out, q, width) == min(rows, width):
            return out


def rank_rows(rows, q: int, width: int) -> int:
    """Rank over GF(q) of packed rows of the given width.  For q = 2 the
    rows are reduced by XOR against one pivot per leading bit."""
    # inline, not shared with kernel_rows: a helper slowed rank_event_rate 4-18%
    if q == 2:
        pivots = {}
        for v in rows:
            while v:
                h = v.bit_length()
                p = pivots.get(h)
                if p is None:
                    pivots[h] = v
                    break
                v ^= p
        return len(pivots)
    return len(_rref_q([int_digits(v, q, width) for v in rows if v], q))


def kernel_rows(images, q: int, width: int):
    """Packed kernel basis of the GF(q)-linear map e_j -> images[j], rows of
    the given width: `nullspace_q`'s free-column basis, in its order.  For
    q = 2, rows image_j << m | 1 << j whose image part XORs to 0 leave kernel
    vectors, already reduced: pivot rows hold only pivot columns' bits."""
    m = len(images)
    if q != 2:
        matrix = list(zip(*(int_digits(v, q, width) for v in images)))
        return [sum(d * q**j for j, d in enumerate(vec))
                for vec in nullspace_q(matrix or [[0] * m], q)]
    pivots, kernel = {}, []
    for j, image in enumerate(images):
        v = image << m | 1 << j
        while v >> m:
            p = pivots.get(v.bit_length())
            if p is None:
                pivots[v.bit_length()] = v
                break
            v ^= p
        else:
            kernel.append(v)
    return kernel


def rank_of_vector(tower: FieldTower, vec) -> int:
    """q-ary rank of (the expansion of) a vector over GF(q^n)."""
    return rank_rows(vec, tower.q, tower.n)


# ---------------------------------------------------------------------------
# matrices over GF(q^n)

def _rref_ext(tower: FieldTower, rows):
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = tower.inv(rows[r][col])
        rows[r] = [tower.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [tower.sub(a, tower.mul(c, b))
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def ext_rank(tower: FieldTower, matrix) -> int:
    rows = [list(row) for row in matrix]
    return len(_rref_ext(tower, rows))


def ext_nullspace(tower: FieldTower, matrix):
    if not matrix:
        return []
    rows = [list(row) for row in matrix]
    pivots = _rref_ext(tower, rows)
    return _free_basis(rows, pivots, len(rows[0]), tower.neg)


def ext_solve(tower: FieldTower, matrix, rhs):
    """Solve matrix * x = rhs over GF(q^n); None when inconsistent."""
    if not matrix:
        return ([], []) if not any(rhs) else None
    ncols = len(matrix[0])
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = _rref_ext(tower, rows)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, col in enumerate(pivots):
        x[col] = rows[r][ncols]
    return x, _free_basis(rows, pivots, ncols, tower.neg)


# ---------------------------------------------------------------------------
# sampling

def random_error(tower: FieldTower, length: int, t: int, rng,
                 support=None, mode: str = "exact-rank"):
    """Error vector e = (E_1,...,E_t) A with values in span(support).

    The E_j are sampled linearly independent over GF(q) inside the support
    space (default: the whole field); A is a t x length q-ary matrix.  With
    mode="exact-rank" A is resampled until it has rank t, so rank(e) = t
    exactly, which needs t <= length; with mode="uniform-matrix" A is
    uniform and rank(e) <= t.
    """
    if mode not in ("exact-rank", "uniform-matrix"):
        raise ValueError(f"unknown error mode {mode!r}")
    if t < 0:
        raise ValueError(f"target rank {t} is negative")
    if mode == "exact-rank" and t > length:
        raise ValueError(f"exact rank {t} exceeds the length {length}")
    if t == 0:
        return (0,) * length
    q, dim = tower.q, tower.n
    if support is not None:
        support = tower.check_elements(support, "support element")
        dim = len(support)
        if rank_of_vector(tower, support) != dim:
            raise ValueError("support elements are not linearly independent")
    if t > dim:
        raise ValueError(f"target rank {t} exceeds support dimension {dim}")
    # a full-rank t x dim matrix; over the polynomial basis its rows are the values
    values = random_rows(q, t, dim, rng, full_rank=True)
    if support is not None:
        values = [tower.contract(int_digits(v, q, dim), support) for v in values]
    a = random_rows(q, t, length, rng, full_rank=mode == "exact-rank")
    cols = zip(*(int_digits(row, q, length) for row in a))
    return tuple(tower.contract(col, values) for col in cols)


# ---------------------------------------------------------------------------
# counting

def count_rank_matrices(q: int, m: int, t: int, r: int) -> int:
    """Number of t x m q-ary matrices of rank exactly r (exact integer)."""
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
