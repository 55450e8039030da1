"""Subspace subcodes of a Gabidulin code.

For an m-dimensional GF(q)-subspace V of GF(q^n), the subcode keeps the
codewords whose components all lie in V.  It is additive, not linear, and
is carried bijectively onto a shorter [m, m-d+1, d] "parent" code by a
rank-preserving coordinate transfer; en/decoding run through the parent.
A subspace subcode is the direct sum of one part, so the transfer is the
fold and unfold of `DirectSumCode`, where `SubspaceBasis` lives too.
"""

from __future__ import annotations

from .directsum import DirectSumCode, SubspaceBasis, TrivialSubcodeError
from .gabidulin import DecodingFailure, GabidulinCode


class SubspaceSubcode(DirectSumCode):
    """The subcode of `code` over the subspace spanned by `basis`: the
    one-part `DirectSumCode`, whose parent code is `parent`.  For m < d
    the subcode is just the zero word and has no parent.
    """

    def __init__(self, code: GabidulinCode, basis: SubspaceBasis):
        super().__init__(code, [basis])
        self.basis, self.parent, self.d = self.parts[0], self.parents[0], code.d

    @property
    def is_trivial(self) -> bool:
        return self.parent is None

    # -- the rank-preserving transfer map ------------------------------------

    def to_parent(self, vector):
        """Transfer a vector with components in V onto GF(q^n)^m: with
        vector = basis * U this is h * U^t.  Preserves q-ary rank."""
        return self.to_parents(vector)[0]

    def from_parent(self, vector):
        """Inverse transfer: the unfold of a parent word, basis * U where
        row a of U holds the coordinates of symbol a over the parity basis h."""
        if len(vector) != self.basis.m:
            raise ValueError(f"expected length {self.basis.m}")
        return self._unfold.word(self.tower.check_elements(vector))

    # -- coding ---------------------------------------------------------------

    def decode(self, received, route: str = "parent"):
        """Decode a received word with components in V.

        route="parent" maps through the transfer and decodes in the parent
        code; route="ambient" decodes in the full-length code directly.
        Both return the same (codeword, error) whenever the error rank is
        within capability.
        """
        if route not in ("parent", "ambient"):
            raise ValueError(f"unknown decoding route {route!r}")
        received = tuple(received)
        if route == "ambient":
            self.to_parent(received)  # the fold enforces the V^n precondition
            codeword, error = self.code.decode(received)
            if not all(self.basis.contains(x) for x in codeword):
                raise DecodingFailure("subspace", "nearest codeword leaves the subspace")
            return codeword, error
        if self.is_trivial:
            raise TrivialSubcodeError("trivial subcode has no parent decoder")
        pc, pe = self.parent.decode(self.to_parent(received))
        return self.from_parent(pc), self.from_parent(pe)

    def __repr__(self):
        return f"SubspaceSubcode(m={self.basis.m}, code={self.code!r})"
