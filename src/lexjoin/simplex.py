"""Exact simplex over rationals for small dense packing programs.

The linear programs solved here (fractional edge covers and independent
sets) have at most a few dozen variables, so a dense tableau with
``fractions.Fraction`` entries is fast enough and, unlike floating point,
gives exactly the optimal value.  Each program is a packing program: ``<=``
rows with nonnegative right-hand sides, so the origin is a feasible vertex
and the simplex starts from the slack basis, with no search for a first
vertex.  Bland's rule (always pick the lowest eligible index) prevents
cycling on degenerate tableaus, and makes the returned optimal vertex
deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError

ZERO = Fraction(0)
ONE = Fraction(1)


class Unbounded(Exception):
    """Raised when the objective is unbounded over the feasible region."""


def solve_min(
    costs: list[Fraction],
    constraints: list[tuple[list[Fraction], Fraction]],
) -> tuple[Fraction, list[Fraction]]:
    """Minimize ``costs . x`` subject to ``coeffs . x <= rhs`` and x >= 0.

    ``constraints`` holds ``(coeffs, rhs)`` pairs, each with ``rhs >= 0`` so
    that x = 0 is feasible.  Returns the exact optimal value and one optimal
    basic solution.  Raises :class:`Unbounded` when the objective is
    unbounded below.
    """
    n = len(costs)
    m = len(constraints)
    # One row per constraint, then the reduced costs; the last column is the
    # rhs.  Column n + r is row r's slack, basic at the start.
    tableau: list[list[Fraction]] = []
    for r, (coeffs, rhs) in enumerate(constraints):
        if len(coeffs) != n:
            raise InternalError("constraint width mismatch")
        if rhs < 0:
            raise InternalError(f"constraint {r} has negative rhs {rhs}; x = 0 must be feasible")
        line = [Fraction(c) for c in coeffs] + [ZERO] * m + [Fraction(rhs)]
        line[n + r] = ONE
        tableau.append(line)
    tableau.append([Fraction(c) for c in costs] + [ZERO] * (m + 1))
    basis = list(range(n, n + m))

    # Entering: the lowest column with negative reduced cost.  Leaving: the
    # minimum-ratio row whose basic column is lowest.  Both are Bland's rule.
    while True:
        obj = tableau[m]
        col = next((j for j in range(n + m) if obj[j] < 0), None)
        if col is None:
            break
        ratios = [(t[-1] / t[col], basis[r], r) for r, t in enumerate(tableau[:m]) if t[col] > 0]
        if not ratios:
            raise Unbounded
        row = min(ratios)[2]
        inv = ONE / tableau[row][col]
        prow = tableau[row] = [a * inv for a in tableau[row]]
        for r, line in enumerate(tableau):
            factor = line[col]
            if r != row and factor != 0:
                tableau[r] = [a - factor * b for a, b in zip(line, prow)]
        basis[row] = col

    x = [ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = tableau[r][-1]
    value = sum((c * xi for c, xi in zip(costs, x)), ZERO)
    return value, x


def solve_max(
    gains: list[Fraction],
    constraints: list[tuple[list[Fraction], Fraction]],
) -> tuple[Fraction, list[Fraction]]:
    """Maximize ``gains . x`` under the same constraint conventions."""
    value, x = solve_min([-Fraction(g) for g in gains], constraints)
    return -value, x
