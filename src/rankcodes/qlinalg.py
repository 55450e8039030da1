"""Linear algebra over GF(q) and GF(q^n).

q-ary matrices are plain lists of row lists with entries in [0, q);
vectors over the extension field are tuples of integer-encoded elements.
Everything here is exact Gaussian elimination at desk scale, plus the
rank-matrix counting formula and the rank-t error sampler used by the
decoding experiments.
"""

from __future__ import annotations

from .field import FieldTower


# ---------------------------------------------------------------------------
# GF(q) matrices

def _rref_q(rows, q):
    """In-place reduced row echelon form; returns the pivot column list."""
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
        inv = pow(rows[r][col], q - 2, q)
        if inv != 1:
            rows[r] = [v * inv % q for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % q for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank_q(matrix, q: int) -> int:
    rows = [[v % q for v in row] for row in matrix]
    return len(_rref_q(rows, q))


def nullspace_q(matrix, q: int):
    """Basis of the right nullspace of a q-ary matrix, as row vectors."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [[v % q for v in row] for row in matrix]
    pivots = _rref_q(rows, q)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][f] % q
        basis.append(vec)
    return basis


def solve_q(matrix, rhs, q: int):
    """Solve matrix * x = rhs over GF(q).

    Returns (particular_solution, nullspace_basis), or None when the
    system is inconsistent.
    """
    if not matrix:
        return ([], []) if not any(v % q for v in rhs) else None
    ncols = len(matrix[0])
    rows = [[v % q for v in row] + [b % q] for row, b in zip(matrix, rhs)]
    pivots = _rref_q(rows, q)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, col in enumerate(pivots):
        x[col] = rows[r][ncols]
    return x, nullspace_q(matrix, q)


def mat_mul_q(a, b, q: int):
    nk = len(b)
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * ncols
        for k in range(nk):
            c = row[k] % q
            if c:
                bk = b[k]
                for j in range(ncols):
                    acc[j] = (acc[j] + c * bk[j]) % q
        out.append(acc)
    return out


def mat_inv_q(matrix, q: int):
    """Inverse of a square q-ary matrix; raises ValueError if singular."""
    n = len(matrix)
    rows = [[v % q for v in row] + [1 if i == j else 0 for j in range(n)]
            for i, row in enumerate(matrix)]
    pivots = _rref_q(rows, q)
    # a singular left block lets elimination pivot into the identity columns
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over GF(q)")
    return [row[n:] for row in rows]


class CoordinateSolver:
    """Repeated GF(q)-coordinates of field elements over fixed independent
    elements b_1..b_r: solve(x) is the u with sum u_j b_j = x.

    [B | I], with B the n x r digit matrix of the b_j, is eliminated once.
    The right block is then an invertible E with E B = [I; 0], so E
    digits(x) holds u in its first r entries and is zero below them
    exactly when x lies in the span.  E is stored as one lookup table per
    chunk of k digits (q^k <= 256), each entry packing E's image of the
    chunk with one lane per row of E: 1-bit lanes combined by XOR for
    q = 2, otherwise lanes wide enough to add n (q-1)^2 without carry.
    """

    def __init__(self, tower: FieldTower, elements):
        q, n = tower.q, tower.n
        cols = [tower.digits(x) for x in elements]
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
        self._lane = lane = 1 if q == 2 else (n * (q - 1) ** 2).bit_length()
        images = []
        for col in list(zip(*rows))[ncols:]:
            img = 0
            for e in reversed(col):
                img = img << lane | e
            images.append(img)
        chunk = next(k for k in range(8, 0, -1) if q**k <= 256 or k == 1)
        self._radix = q**chunk  # 256 for q = 2, read off x a byte at a time
        self._tables = []
        for lo in range(0, n, chunk):
            table = [0]
            for img in images[lo:lo + chunk]:
                # extend by one digit: entry d*len + i = table[i] + d*img
                block = table
                for _ in range(q - 1):
                    block = ([b ^ img for b in block] if q == 2
                             else [b + img for b in block])
                    table += block
            self._tables.append(table)

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
# rank of extension-field vectors (Definition: q-ary rank of the expansion)

def _bit_rank(values) -> int:
    pivots = {}
    rank = 0
    for v in values:
        while v:
            h = v.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                rank += 1
                break
            v ^= p
    return rank


def rank_of_vector(tower: FieldTower, vec) -> int:
    """q-ary rank of (the expansion of) a vector over GF(q^n)."""
    if tower.q == 2:
        return _bit_rank(vec)
    rows = [list(tower.digits(x)) for x in vec if x]
    return len(_rref_q(rows, tower.q))


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
    ncols = len(matrix[0])
    rows = [list(row) for row in matrix]
    pivots = _rref_ext(tower, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, col in enumerate(pivots):
            vec[col] = tower.neg(rows[r][f])
        basis.append(vec)
    return basis


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
    return x, ext_nullspace(tower, matrix)


# ---------------------------------------------------------------------------
# sampling

def random_matrix_q(q: int, rows: int, cols: int, rng):
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def random_full_rank_q(q: int, rows: int, cols: int, rng):
    """Uniform q-ary matrix conditioned on full rank min(rows, cols),
    by rejection (cheap whenever the matrix is not nearly square)."""
    target = min(rows, cols)
    while True:
        m = random_matrix_q(q, rows, cols, rng)
        if rank_q(m, q) == target:
            return m


def random_error(tower: FieldTower, length: int, t: int, rng,
                 support=None, mode: str = "exact-rank"):
    """Error vector e = (E_1,...,E_t) A with values in span(support).

    The E_j are sampled linearly independent over GF(q) inside the support
    space; A is a t x length q-ary matrix.  With mode="exact-rank" A is
    resampled until it has rank t, so rank(e) = t exactly, which needs
    t <= length; with mode="uniform-matrix" A is uniform and rank(e) <= t.
    """
    if mode not in ("exact-rank", "uniform-matrix"):
        raise ValueError(f"unknown error mode {mode!r}")
    if t < 0:
        raise ValueError(f"target rank {t} is negative")
    if mode == "exact-rank" and t > length:
        raise ValueError(f"exact rank {t} exceeds the length {length}")
    if t == 0:
        return (0,) * length
    support = tuple(support) if support is not None else tower.basis
    dim = len(support)
    if rank_of_vector(tower, support) != dim:
        raise ValueError("support elements are not linearly independent")
    if t > dim:
        raise ValueError(f"target rank {t} exceeds support dimension {dim}")
    coeffs = random_full_rank_q(tower.q, t, dim, rng)
    values = [tower.contract(row, support) for row in coeffs]
    if mode == "exact-rank":
        a = random_full_rank_q(tower.q, t, length, rng)
    else:
        a = random_matrix_q(tower.q, t, length, rng)
    return tuple(tower.contract(col, values) for col in zip(*a))


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
