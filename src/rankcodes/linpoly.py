"""Linearized polynomials f(x) = sum_p f_p x^(q^p) over GF(q^n).

These are the GF(q)-linear maps of the extension field; the decoder's
error-span polynomial lives here.  Coefficients are stored low-to-high
with the trailing coefficient nonzero (the zero polynomial stores none);
anything but field elements raises ValueError (`check_elements`).
"""

from __future__ import annotations

from .field import FieldTower
from .qlinalg import kernel_rows


class LinearizedPoly:
    def __init__(self, tower: FieldTower, coeffs):
        coeffs = list(tower.check_elements(coeffs, "coefficient"))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.tower = tower
        self.coeffs = tuple(coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def q_degree(self) -> int:
        """Index of the highest nonzero coefficient; -1 for the zero map."""
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        t = self.tower
        x, = t.check_elements((x,))
        acc = 0
        for p, c in enumerate(self.coeffs):
            if c:
                acc = t.add(acc, t.mul(c, t.frobenius(x, p)))
        return acc

    def root_space_basis(self):
        """q-ary basis of the kernel {x : f(x) = 0}; size <= q_degree: one
        `kernel_rows` over the basis images f(alpha^i), taken with no field
        product and left on the lanes `FieldTower._image_lanes` sums them in; at
        q-degree 1 a table-backed tower's `_degree_one_roots`, by one discrete log."""
        if self.is_zero:
            raise ValueError("zero polynomial vanishes everywhere")
        t = self.tower
        roots = t._degree_one_roots(*self.coeffs) if len(self.coeffs) == 2 else None
        if roots is not None:
            return roots
        w, m = t._image_lanes(self.coeffs)
        size = t.n * m.lane
        return kernel_rows([w >> i * size & (1 << size) - 1 for i in range(t.n)], t.q, m.lane)

    def __eq__(self, other):
        return (isinstance(other, LinearizedPoly)
                and self.tower == other.tower and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.tower, self.coeffs))

    def __repr__(self):
        return f"LinearizedPoly({self.coeffs})"

