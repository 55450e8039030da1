"""Digit-list Gauss-Jordan elimination over GF(q), the reference the packed
kernel of rankcodes.qlinalg is checked against.

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
