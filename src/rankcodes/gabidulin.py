"""Gabidulin maximum-rank-distance codes.

A code of length L <= n and dimension k over GF(q^n) is defined by a
generator vector g (rows of the generator matrix are the Frobenius powers
g, g^[1], ..., g^[k-1]) or a parity vector h (rows h, h^[1], ..., h^[d-2]
with d = L - k + 1).  Decoding is bounded-rank-distance syndrome decoding
through the error-span polynomial.
"""

from __future__ import annotations

import functools
from collections.abc import Sized

from .field import FieldTower
from .linpoly import LinearizedPoly
from .qlinalg import CoordinateSolver, ext_nullspace, ext_solve, rank_of_vector


class DecodingFailure(Exception):
    """No codeword within the guaranteed decoding radius.  `stage` names
    the step that gave up, and the message starts with it."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage


def moore_matrix(tower: FieldTower, vector, rows: int):
    """Matrix whose row i is the componentwise Frobenius power [i] of vector.
    ValueError unless rows is an int >= 1 and each entry is an element."""
    if type(rows) is not int or rows < 1:
        raise ValueError(f"a Moore matrix needs at least one row, got {rows!r}")
    vector = tower.check_elements(vector)
    return [[tower.frobenius(x, i) for x in vector] for i in range(rows)]


def dual_vector(tower: FieldTower, g, k: int):
    """Parity vector h of the code with generator vector g and dimension k.

    h is the unique (up to scalar) solution of sum_i g_i^[mu] h_i = 0 for
    mu = -(L-k-1), ..., k-1, scaled to lead with 1: for L < n the system's
    kernel over GF(q^n).  For L = n it is (g*)^[k], as sum_i g_i^[mu] g*_i is
    1 for mu = 0 mod n and 0 otherwise for g* the trace-dual basis, Tr(g_i
    g*_j) = delta_ij (Lidl and Niederreiter, Finite Fields, 2.3).  g*_j has
    the digits of column j of (D H)^-1, D the digits of g and H[l][m] =
    Tr(alpha^(l+m)) from Newton's identities on the modulus: column m of D H
    contracts tr[m:m+n] with D's columns, and one CoordinateSolver inverts it.
    """
    g = tower.check_elements(g)
    length, n, q = len(g), tower.n, tower.q
    if rank_of_vector(tower, g) != length:
        raise ValueError("generator vector components are linearly dependent")
    if type(k) is not int or not 1 <= k <= length - 1:
        raise ValueError(f"dimension {k!r} outside 1..{length - 1}")
    if length == n:
        f, tr = tower.modulus, [n % q]  # tr[e] = Tr(alpha^e), the power sums of f's roots
        for e in range(1, 2 * n - 1):
            s = sum(f[n - i] * tr[e - i] for i in range(1, min(e, n + 1)))
            tr.append(-(s + (e * f[n - e] if e <= n else 0)) % q)
        cols = [tower.from_digits(col) for col in zip(*map(tower.digits, g))]
        solver = CoordinateSolver(tower, [tower.contract(tr[m:m + n], cols) for m in range(n)])
        h = [tower.frobenius(tower.contract(solver.solve(q**j)), k) for j in range(n)]
    else:
        basis = ext_nullspace(tower, [[tower.frobenius(gi, mu) for gi in g]
                                      for mu in range(-(length - k - 1), k)])
        if len(basis) != 1:
            raise ValueError("dual system is degenerate")  # pragma: no cover
        h = basis[0]
    scale = tower.inv(next(x for x in h if x))
    h = tuple(tower.mul(scale, x) for x in h)
    if rank_of_vector(tower, h) != length:
        raise ValueError("dual vector is rank deficient")  # pragma: no cover
    return h


def default_generator(tower: FieldTower):
    """Canonical generator vector: the Frobenius orbit of the smallest
    normal element.  A normal element has nonzero trace, the sum of its
    orbit (a basis).  With k the first index where Tr(alpha^k) != 0, every
    element below q^k has trace 0, so the orbit-rank scan starts at q^k;
    for n > 1 it starts at q or above, since the orbit of an element of
    GF(q) has rank 1."""
    n = tower.n
    k = next(i for i, b in enumerate(tower.basis)
             if functools.reduce(tower.add, [tower.frobenius(b, j) for j in range(n)]))
    for cand in range(max(tower.q**k, tower.q if n > 1 else 1), tower.order):
        orbit = tuple(tower.frobenius(cand, i) for i in range(n))
        if rank_of_vector(tower, orbit) == n:
            return orbit
    return tower.basis  # pragma: no cover


class GabidulinCode:
    """[L, k, d = L-k+1] maximum-rank-distance code over GF(q^n), L <= n.

    Built from a generator vector (the parity vector is derived by
    `dual_vector`, for L = n from the trace-dual basis of g), from a
    parity vector (decode-only), or from both (checked for consistency).
    ValueError unless k is an int (not a bool) in 1..L-1 and each vector
    given has a length.

    Encoding, m -> sum_i m_i g^[i], and the syndromes, w -> (sum_l w_l
    h_l^[i])_i, are GF(q)-linear maps on the q-ary expansion of a word.
    Both are built once, in the constructor, as `LinearMap`s
    (`FieldTower.word_map`) and applied with no field product, so they
    leave `mul_count` alone.  `encode`, `syndromes` and `is_codeword` check
    their input with `check_elements`; the checks of words the code built
    itself (the duality check and decode's residual check) skip it.
    """

    def __init__(self, tower: FieldTower, k: int, g=None, h=None):
        if g is None and h is None:
            raise ValueError("need a generator vector, a parity vector, or both")
        if not all(v is None or isinstance(v, Sized) for v in (g, h)):
            raise ValueError(f"g and h must each have a length, got {g!r} and {h!r}")
        length = len(g) if g is not None else len(h)
        if type(k) is not int or not 1 <= k <= length - 1:
            raise ValueError(f"dimension {k!r} outside 1..{length - 1}")
        if length > tower.n:
            raise ValueError("code length exceeds the extension degree")
        self.tower = tower
        self.length = length
        self.k = k
        self.d = length - k + 1
        self.capability = (self.d - 1) // 2
        if g is not None:
            g = tower.check_elements(g, "generator component")
            if len(g) != length or rank_of_vector(tower, g) != length:
                raise ValueError("generator vector must have full q-ary rank")
        if h is None:
            h = dual_vector(tower, g, k)
        else:
            h = tower.check_elements(h, "parity component")
            if len(h) != length or rank_of_vector(tower, h) != length:
                raise ValueError("parity vector must have full q-ary rank")
        self.g = g
        self.h = h
        gen_rows = moore_matrix(tower, g, k) if g is not None else None
        self._encoder = tower.word_map(gen_rows) if g is not None else None
        self._syndrome_map = tower.word_map(zip(*moore_matrix(tower, h, self.d - 1)))
        self._h_solver = CoordinateSolver(tower, h)
        if g is not None and any(any(self._syndrome_map.word(row)) for row in gen_rows):
            raise ValueError("generator and parity vectors are not dual")

    def encode(self, message):
        if self._encoder is None:
            raise ValueError("encoding needs a generator vector")
        message = self.tower.check_elements(message, "message symbol")
        if len(message) != self.k:
            raise ValueError(f"message length {len(message)} != k = {self.k}")
        return self._encoder.word(message)

    def syndromes(self, word):
        """The syndromes word H^T, the d - 1 sums sum_l word_l h_l^[i]."""
        word = self.tower.check_elements(word, "word symbol")
        if len(word) != self.length:
            raise ValueError(f"word length {len(word)} != {self.length}")
        return self._syndrome_map.word(word)

    def is_codeword(self, word) -> bool:
        return not any(self.syndromes(word))

    def parity_coordinates(self, x: int):
        """q-ary coordinates of x over the parity basis (h_1, ..., h_L),
        or None when x lies outside their span (possible only for L < n)."""
        return self._h_solver.coords(x)

    def decode(self, received):
        """Return (codeword, error) with rank(error) <= capability.

        The key equation gives the error-span polynomial, its root space the
        error values, and a square f x f solve (f the error rank) their
        locators.  Raises DecodingFailure when no codeword lies within the
        decoding radius; its `stage` names the step that gave up:
        "key-equation", "root-space", "locator" (a locator outside the span
        of h) or "residual", the one consistency test, which rejects a
        corrected word with nonzero syndromes.
        """
        y = tuple(received)
        synd = self.syndromes(y)
        if not any(synd):
            return y, (0,) * self.length
        t, cap, r = self.tower, self.capability, self.d - 1
        # Key equation sum_p sigma_p synd[l-p]^[p] = 0 for l = C..d-2.  The
        # matrix factors as X E^T through the Moore matrices of the error
        # locators and values, so for error rank <= C its rank is the error
        # rank f and its lowest kernel vector is the monic error-span
        # polynomial of q-degree f.
        kernel = ext_nullspace(t, [[t.frobenius(synd[l - p], p) for p in range(cap + 1)]
                                   for l in range(cap, r)])
        if not kernel or not any(kernel[0][1:]):
            raise DecodingFailure("key-equation",
                                  f"no error of rank <= {cap} fits the syndromes")
        sigma = LinearizedPoly(t, kernel[0])
        values = sigma.root_space_basis()
        if len(values) != sigma.q_degree:
            raise DecodingFailure("root-space",
                                  f"{len(values)} roots for q-degree {sigma.q_degree}")
        # Solve sum_j values_j^[-l] x_j = synd_l^[-l] on rows l = 0..f-1; x_j
        # is the h-expansion of the error locator combination for value j.
        # Those rows are the inverse-Frobenius Moore matrix of the f
        # GF(q)-independent values, so the block is invertible and always
        # solves.  The error then has syndromes sum_j values_j x_j^[l], so
        # rows f..d-2 hold exactly when the corrected word's syndromes are
        # zero: the residual check is the one consistency test.
        f = len(values)
        x, _ = ext_solve(t, [[t.frobenius(v, -l) for v in values] for l in range(f)],
                         [t.frobenius(synd[l], -l) for l in range(f)])
        locators = [self._h_solver.solve(xj) for xj in x]
        if None in locators:
            raise DecodingFailure("locator", "error locator outside the span of h")
        error = tuple(t.contract(col, values) for col in zip(*locators))
        codeword = tuple(t.sub(yi, ei) for yi, ei in zip(y, error))
        if any(self._syndrome_map.word(codeword)):
            raise DecodingFailure("residual", "corrected word has nonzero syndromes")
        return codeword, error

    def __repr__(self):
        return (f"GabidulinCode(q={self.tower.q}, n={self.tower.n}, "
                f"length={self.length}, k={self.k}, d={self.d})")
