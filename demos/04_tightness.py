#!/usr/bin/env python3
"""Preprocessing grows as |D| ** iota: the largest bag, measured.

The incompatibility number iota of a (query, order) pair is the exponent of
the preprocessing the paper shows to be sufficient, and, under the
Zero-Clique Conjecture, necessary.  The engine's largest bag is its
preprocessing cost, and its row count is deterministic, so the exponent can
be read off without timing anything: double the database a few times and fit
the log-log slope of the largest bag against |D|.

Two families of instances:
- the 3-star under three orders whose iota is 1, 2 and 3, on hub databases
  where z = 0 joins every arm value, so the bag of all three arms and z holds
  m ** 3 rows;
- the Loomis-Whitney joins LW_3 (the triangle) and LW_4 on full grids, where
  the largest bag is the whole join, which no order can avoid materialising.
"""

import math
from itertools import product

from lexjoin import VariableOrder, build_database, build_index, decompose
from lexjoin import hardness as hd


def star_hub(m: int):
    """Every arm holds (x, 0) and (x, x + 1) for x < m."""
    rows = sorted({(x, 0) for x in range(m)} | {(x, x + 1) for x in range(m)})
    return build_database({f"R{i}": (["int", "int"], rows) for i in (1, 2, 3)})


def lw_grid(k: int, s: int):
    """Every relation of LW_k holds all s ** (k - 1) tuples over range(s)."""
    rows = list(product(range(s), repeat=k - 1))
    return build_database({f"R{i}": (["int"] * (k - 1), rows) for i in range(1, k + 1)})


def fitted_slope(points) -> float:
    """Least-squares slope of log(rows) against log(|D|)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(rows) for _, rows in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def report(label, q, order, databases) -> None:
    iota = decompose(q, order).iota
    points = [(db.size, max(build_index(q, order, db).stats["bag_rows"])) for db in databases]
    series = "  ".join(f"{size}:{rows}" for size, rows in points)
    print(f"{label:<34} iota = {str(iota):<4} |D|:largest bag  {series}")
    print(f"{'':<34} fitted slope {fitted_slope(points):.3f}  (iota = {float(iota):.3f})")


star, _ = hd.star_query(3)
hubs = [star_hub(m) for m in (8, 16, 32)]
for variables in (("z", "x1", "x2", "x3"), ("x1", "x2", "z", "x3"), ("x1", "x2", "x3", "z")):
    order = VariableOrder(variables)
    report(f"3-star, order {', '.join(variables)}", star, order, hubs)

for k, sides in ((3, (4, 8, 16)), (4, (2, 4, 8))):
    q = hd.lw_query(k)
    report(f"LW_{k}, order {', '.join(q.variables)}", q, VariableOrder(q.variables),
           [lw_grid(k, s) for s in sides])
