"""Subspace subcodes of a Gabidulin code.

For an m-dimensional GF(q)-subspace V of GF(q^n), the subcode keeps the
codewords whose components all lie in V.  It is additive, not linear, and
is carried bijectively onto a shorter [m, m-d+1, d] "parent" code by a
rank-preserving coordinate transfer; en/decoding run through the parent.
"""

from __future__ import annotations

from .field import FieldTower
from .gabidulin import DecodingFailure, GabidulinCode, dual_vector
from .qlinalg import CoordinateSolver


class TrivialSubcodeError(Exception):
    """The subspace dimension is below the minimum distance, so the
    subcode contains only the zero word."""


class SubspaceBasis(CoordinateSolver):
    """Ordered basis (beta_1, ..., beta_m) of a subspace of GF(q^n): a
    `CoordinateSolver` over the betas, whose one element check labels
    them "basis element" and whose one elimination gives both the rank
    test and the coordinates.  `coords` and `contains` check x."""

    def __init__(self, tower: FieldTower, elements):
        super().__init__(tower, elements, "basis element")

    def element(self, coords) -> int:
        return self.tower.contract(coords, self.elements)

    def decompose(self, vector):
        """The unique m x len(vector) q-ary matrix U with vector = basis * U."""
        cols = [self.solve(x) for x in self.tower.check_elements(vector, "word symbol")]
        if None in cols:
            raise ValueError(f"component {cols.index(None)} lies outside the subspace")
        return [[col[i] for col in cols] for i in range(self.m)]

    def recompose(self, u_matrix):
        """Vector basis * U for an m x L coefficient matrix U."""
        return tuple(self.tower.contract(col, self.elements)
                     for col in zip(*u_matrix))

    def __repr__(self):
        return f"SubspaceBasis(m={self.m}, elements={self.elements})"


class SubspaceSubcode:
    """The subcode of `code` over the subspace spanned by `basis`.

    When m >= d the parent [m, m-d+1, d] code is materialized on the
    vector beta^[n-d+2], whose Moore rows reproduce the parent parity
    rows in reverse order; the ambient decoder is reused on it verbatim.
    For m < d the subcode is just the zero word and has no parent.
    """

    def __init__(self, code: GabidulinCode, basis: SubspaceBasis):
        if code.length != code.tower.n:
            raise ValueError("subspace subcodes need a full-length ambient code")
        self.code = code
        self.basis = basis
        self.tower = code.tower
        self.d = code.d
        m, d, n = basis.m, code.d, code.tower.n
        if m >= d:
            parent_h = tuple(self.tower.frobenius(b, n - d + 2)
                             for b in basis.elements)
            parent_g = dual_vector(self.tower, parent_h, d - 1)
            self.parent = GabidulinCode(self.tower, m - d + 1,
                                        g=parent_g, h=parent_h)
        else:
            self.parent = None

    @property
    def is_trivial(self) -> bool:
        return self.parent is None

    @property
    def cardinality(self) -> int:
        if self.is_trivial:
            return 1
        return self.tower.order ** (self.basis.m - self.d + 1)

    # -- the rank-preserving transfer map ------------------------------------

    def to_parent(self, vector):
        """Transfer a vector with components in V onto GF(q^n)^m: with
        vector = basis * U this is h * U^t.  Preserves q-ary rank."""
        if len(vector) != self.code.length:
            raise ValueError(f"word length {len(vector)} != {self.code.length}")
        return tuple(self.tower.contract(row, self.code.h) for row in self.basis.decompose(vector))

    def from_parent(self, vector):
        """Inverse transfer: expand each component over the parity basis h
        to recover U, then return basis * U."""
        if len(vector) != self.basis.m:
            raise ValueError(f"expected length {self.basis.m}")
        return self.basis.recompose([self.code.parity_coordinates(x) for x in vector])

    # -- coding ---------------------------------------------------------------

    def encode(self, message):
        """Encode in the parent code, then transfer into the subcode."""
        if self.is_trivial:
            raise TrivialSubcodeError(
                f"m = {self.basis.m} < d = {self.d}: only the zero word")
        return self.from_parent(self.parent.encode(message))

    def decode(self, received, route: str = "parent"):
        """Decode a received word with components in V.

        route="parent" maps through the transfer and decodes in the parent
        code; route="ambient" decodes in the full-length code directly.
        Both return the same (codeword, error) whenever the error rank is
        within capability.
        """
        if route not in ("parent", "ambient"):
            raise ValueError(f"unknown decoding route {route!r}")
        received = self.tower.check_elements(received, "word symbol")
        if route == "ambient":
            self.basis.decompose(received)  # enforce the V^n precondition
            codeword, error = self.code.decode(received)
            if not all(self.basis.contains(x) for x in codeword):
                raise DecodingFailure("subspace", "nearest codeword leaves the subspace")
            return codeword, error
        if self.is_trivial:
            raise TrivialSubcodeError("trivial subcode has no parent decoder")
        folded = self.to_parent(received)
        pc, pe = self.parent.decode(folded)
        return self.from_parent(pc), self.from_parent(pe)

    def __repr__(self):
        return f"SubspaceSubcode(m={self.basis.m}, code={self.code!r})"
