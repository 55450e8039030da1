"""Subfield subcodes (codewords with components in GF(q^s), s | n).

The subfield is realized inside GF(q^n) as the fixed field of the s-th
Frobenius power, with a canonical polynomial basis.  The parity-check
matrix of the subfield subcode factors as blockdiag(A, ..., A) * S where
A is the Moore matrix of the subfield basis and S is an invertible q-ary
matrix, unique once A, the subfield basis, and the extension basis are
fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .field import FieldTower, int_digits
from .gabidulin import GabidulinCode, moore_matrix
from .linpoly import LinearizedPoly
from .qlinalg import CoordinateSolver, kernel_rows, rank_of_vector


def _check_degree(tower: FieldTower, s) -> int:
    if isinstance(s, bool) or not isinstance(s, int) or s < 1 or tower.n % s:
        raise ValueError(f"subfield degree {s!r} does not divide n = {tower.n}")
    return s


class SubfieldEmbedding:
    """GF(q^s) sitting inside GF(q^n) as the fixed field of x -> x^[s].

    Carries a canonical polynomial basis (1, theta, ..., theta^(s-1)) of
    the subfield over GF(q) and a basis (1, alpha, ..., alpha^(n/s - 1))
    of the big field over the subfield, plus the coordinate maps for both.

    theta is the smallest element, as an int, of degree s, found by counting.
    The fixed field is the root space of x^[s] - x, whose `root_space_basis`
    v_j comes in ascending free column f_j: v_j has 1 at f_j, 0 at every
    other f_i and its other digits at earlier pivot columns.  So sum c_j v_j
    has digit c_j at f_j, and integer order on the subfield is the order of
    the count sum c_j q^j.  The proper subfields hold at most
    sum_(d <= s/2) q^d < q^(s//2 + 1) elements, so a count below q^(s//2 + 1)
    lies outside them all and has degree s.
    """

    def __init__(self, tower: FieldTower, s: int, ext_basis=None):
        self.tower = tower
        self.s = _check_degree(tower, s)
        self.blocks = tower.n // s
        q, n = tower.q, tower.n

        # root space of the linearized polynomial x^[s] - x
        fixed = LinearizedPoly(tower, (tower.neg(1),) + (0,) * (s - 1) + (1,))
        kernel = fixed.root_space_basis()
        if len(kernel) != s:  # pragma: no cover
            raise RuntimeError("fixed field has unexpected dimension")
        counted = (tower.contract(int_digits(c, q, s), kernel)
                   for c in range(1, q ** (s // 2 + 1)))
        theta = next(x for x in counted if rank_of_vector(
            tower, tuple(tower.pow(x, i) for i in range(s))) == s)
        self.generator = theta
        self.poly_basis = tuple(tower.pow(theta, i) for i in range(s))
        self._sub_solver = CoordinateSolver(tower, self.poly_basis)

        if ext_basis is None:
            alpha = q if n > 1 else 1
            ext_basis = tuple(tower.pow(alpha, r) for r in range(self.blocks))
        else:
            ext_basis = tower.check_elements(ext_basis, "extension basis element")
            if len(ext_basis) != self.blocks:
                raise ValueError(f"extension basis needs {self.blocks} elements")
        self.ext_basis = ext_basis
        # combined q-ary basis a_e * gamma_r, block-major in r
        combined = [tower.mul(a, g) for g in ext_basis for a in self.poly_basis]
        self._full_solver = CoordinateSolver(tower, combined)

    def contains(self, x: int) -> bool:
        x, = self.tower.check_elements((x,))
        return self.tower.frobenius(x, self.s) == x

    def subfield_coords(self, x: int):
        """GF(q) coordinates of a subfield element over the polynomial
        basis, or None when x is not in the subfield."""
        return self._sub_solver.coords(x)

    def ext_coords(self, x: int):
        """Subfield coordinates of any x over the extension basis."""
        digits = self._full_solver.coords(x)
        t, s = self.tower, self.s
        return tuple(t.contract(digits[r * s:(r + 1) * s], self.poly_basis)
                     for r in range(self.blocks))

    def __repr__(self):
        return f"SubfieldEmbedding(q={self.tower.q}, n={self.tower.n}, s={self.s})"


def _qary_expansion(emb: SubfieldEmbedding, rows):
    """Blow up a subfield matrix s-fold rowwise: each entry becomes its
    GF(q) coordinate column over the subfield polynomial basis."""
    out = []
    for row in rows:
        coords = [emb._sub_solver.solve(x) for x in row]
        if None in coords:
            raise ValueError("entry is not a subfield element")
        out.extend([c[e] for c in coords] for e in range(emb.s))
    return out


@dataclass
class SubfieldFactorization:
    """Parity factorization blockdiag(block, ..., block) * transform of the
    subfield subcode, together with the basis choices it is relative to."""
    s: int
    subfield_basis: tuple
    ext_basis: tuple
    block: list           # (d-1) x s Moore matrix of the subfield basis
    transform: list       # n x n invertible q-ary matrix
    parity: list = field(repr=False)  # ((d-1) n/s) x n over the subfield
    embedding: SubfieldEmbedding = field(repr=False)


def block_diagonal(block, copies: int):
    cols = len(block[0]) if block else 0
    return [[0] * cols * b + list(row) + [0] * cols * (copies - 1 - b)
            for b in range(copies) for row in block]


def compute_factorization(code: GabidulinCode, s: int,
                          embedding: SubfieldEmbedding = None) -> SubfieldFactorization:
    """Construct the unique q-ary transform S for the fixed canonical
    choices, so blockdiag(A,...,A) * S annihilates exactly the subfield
    subcode among subfield vectors.

    Requires s | n and d - 2 < s.  Column j of S holds the GF(q)
    coordinates of h_j over the combined basis a_e * gamma_r, block-major
    in r, so the first row of block r of blockdiag(A,...,A) * S holds the
    coordinates of h over gamma_r.
    """
    tower = code.tower
    _check_degree(tower, s)
    if code.length != tower.n:
        raise ValueError("subfield factorization needs a full-length code")
    emb = embedding if embedding is not None else SubfieldEmbedding(tower, s)
    if emb.tower != tower:
        raise ValueError("embedding and code are over different field towers")
    if emb.s != s:
        raise ValueError("embedding degree disagrees with s")
    if code.d - 2 >= s:
        raise ValueError(f"need d - 2 < s (d = {code.d}, s = {s})")

    cols = [emb._full_solver.solve(x) for x in code.h]
    transform = [list(row) for row in zip(*cols)]
    block = moore_matrix(tower, emb.poly_basis, code.d - 1)
    big = block_diagonal(block, emb.blocks)
    parity = [[tower.contract(col, row) for col in cols] for row in big]
    return SubfieldFactorization(s, emb.poly_basis, emb.ext_basis,
                                 block, transform, parity, emb)


def verify_uniqueness(code: GabidulinCode, factz: SubfieldFactorization):
    """Check that the q-ary system blockdiag(A,...,A) * X = parity has the
    single solution X = transform, by one elimination of [coeff | rhs]:
    its kernel is spanned by the columns of (-S; I) exactly when S is the
    unique solution.  Returns (True, None) on success, else (False,
    description); a distinct solution would contradict the uniqueness
    theorem and must fail loudly.
    """
    emb, tower = factz.embedding, code.tower
    if emb.tower != tower:
        raise ValueError("embedding and code are over different field towers")
    q, n = tower.q, tower.n
    coeff = _qary_expansion(emb, block_diagonal(factz.block, emb.blocks))
    rhs = _qary_expansion(emb, factz.parity)
    # the columns of [coeff | rhs], packed with digit i from row i
    cols = [tower.from_digits(col) for col in zip(*(a + b for a, b in zip(coeff, rhs)))]
    # one basis vector per free column, in ascending order, with 1 there
    kernel = kernel_rows(cols, q)
    null = sum(1 for v in kernel if v < q**n)
    if null:
        return False, f"solution space has dimension {null}"
    for j in range(n):  # the first column n + j that is not free is inconsistent
        if j == len(kernel) or kernel[j] // q**n != q**j:
            return False, f"column {j}: system inconsistent"
    for j, v in enumerate(kernel):
        if v % q**n != tower.from_digits(-row[j] for row in factz.transform):
            return False, f"column {j}: distinct solution found"
    return True, None


def subfield_success_probability(code: GabidulinCode, s: int, t: int,
                                 form: str = "exact"):
    """Probability of decoding t errors in the subfield subcode: the
    direct-sum formula with n/s parts of dimension s."""
    from .directsum import success_probability

    tower = code.tower
    _check_degree(tower, s)
    return success_probability(tower.q, [s] * (tower.n // s),
                               code.capability, t, form=form)
