from fractions import Fraction as F

import pytest

from lexjoin.errors import InternalError
from lexjoin.simplex import Unbounded, solve_max, solve_min


def test_simple_max():
    # max x + y subject to x + 2y <= 4, 3x + y <= 6
    value, x = solve_max(
        [F(1), F(1)],
        [
            ([F(1), F(2)], F(4)),
            ([F(3), F(1)], F(6)),
        ],
    )
    assert value == F(14, 5)
    assert x == [F(8, 5), F(6, 5)]


def test_unbounded():
    with pytest.raises(Unbounded):
        solve_min([F(-1)], [([F(0)], F(1))])


def test_negative_rhs_is_an_internal_error():
    # The slack basis is feasible only when every rhs is nonnegative.
    with pytest.raises(InternalError):
        solve_min([F(1)], [([F(-1)], F(-1))])


def test_degenerate_does_not_cycle():
    # Classic degenerate instance; Bland's rule must terminate.
    value, _ = solve_min(
        [F(-3, 4), F(150), F(-1, 50), F(6)],
        [
            ([F(1, 4), F(-60), F(-1, 25), F(9)], F(0)),
            ([F(1, 2), F(-90), F(-1, 50), F(3)], F(0)),
            ([F(0), F(0), F(1), F(0)], F(1)),
        ],
    )
    assert value == F(-1, 20)
