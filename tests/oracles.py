"""Per-point reference loops that the fast transforms are checked against."""

from gfwigner.phasespace import BinaryPoint, wedge
from gfwigner.wigner import all_points


def autocorrelation(grid, beta: BinaryPoint):
    """sum_alpha W(alpha) W(alpha + beta)."""
    total = 0
    for (qb, pb), w in grid.values.items():
        total += w * grid.values[(qb ^ beta.qbits, pb ^ beta.pbits)]
    return total


def purity_identity_residual_loop(grid):
    """Max over beta of |sum_a W(a)(-1)^<a,b>|^2 - N sum_a W(a)W(a+b)|, one
    beta at a time: O(N^4)."""
    field = grid.field
    worst = 0.0
    for beta in all_points(field):
        s = sum(
            w * (-1) ** wedge(BinaryPoint(qb, pb, field.n), beta)
            for (qb, pb), w in grid.values.items()
        )
        worst = max(worst, abs(s * s - field.N * autocorrelation(grid, beta)))
    return worst
