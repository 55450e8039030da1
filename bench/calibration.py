"""Host-speed calibration for the benchmark's time metrics.

On a shared host the interpreter's speed drifts by up to half between runs
of identical code (frequency and neighbours), and every time metric of a
run moves with it.  The kernel below is owned by the benchmark, uses no
rankcodes code, and does the same kinds of work the library does: table
lookups with XOR, and modular row elimination on small lists.  Its speed,
measured in windows interleaved with the workload's own, gives the run's
host speed; time metrics are reported at REFERENCE_CALLS_PER_S.  A change
to the library cannot move the kernel, so the scaled figures compare
commits; the unscaled ones are printed beside them.
"""

from __future__ import annotations

# calls per second of kernel() on the reference host (a typical figure on
# the 2-vCPU machine where the benchmark was defined)
REFERENCE_CALLS_PER_S = 6500.0

_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _EXP[_i + 255] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 256:
        _x ^= 0x11D
del _x, _i


def kernel() -> int:
    """One unit of calibration work: GF(2^8) log-table products and a
    GF(3) row reduction of a fixed 8 x 12 matrix."""
    acc = 0
    for a in range(1, 256):
        for b in (3, 7, 29, 113, 201):
            acc ^= _EXP[_LOG[a] + _LOG[b]]
    rows = [[(i * 7 + j * 13 + i * j) % 3 for j in range(12)] for i in range(8)]
    r = 0
    for col in range(12):
        piv = next((i for i in range(r, 8) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if rows[r][col] == 2:  # 2 is its own inverse mod 3
            rows[r] = [2 * v % 3 for v in rows[r]]
        for i in range(8):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % 3 for a, b in zip(rows[i], rows[r])]
        r += 1
    return acc + r
