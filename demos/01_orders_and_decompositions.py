#!/usr/bin/env python3
"""Walk through the structural side: orders, trios, bags and their covers.

The running query joins four binary relations over five variables.  Its
graph is a path (x1 - x5 - x3 - x4 - x2), so the query itself is as tame as
they come; asking for answers sorted by (x1, x2, x3, x4, x5) is what makes
it expensive, because that order keeps jumping across the path.
"""

from lexjoin import (
    check_decomposition,
    decompose,
    disruptive_trios,
    gyo_reduce,
    hypergraph_of,
    parse_query,
)

TEXT = "Q(x1,x2,x3,x4,x5) :- R1(x1,x5), R2(x2,x4), R3(x3,x4), R4(x3,x5)."

query, order = parse_query(TEXT)
print("query:", TEXT)
print("variables:", ", ".join(query.variables))

# The query hypergraph is acyclic; a join tree exists.
h = hypergraph_of(query)
report = gyo_reduce(h)
print("\nacyclic:", report.acyclic)
print("one elimination order:", " -> ".join(report.elimination_order))

# But the requested order clashes with the shape.  A disruptive trio is a
# pair of non-adjacent variables that must both be fixed before a shared
# later neighbor; each one forces extra joining work at preprocessing.
trios = disruptive_trios(query, order)
print("\ndisruptive trios under", order.variables, ":")
for a, b, c in trios:
    print(f"  {a} and {b} never meet in an atom, yet both precede their neighbor {c}")

# The order-induced decomposition adds one bag per variable: the variable
# plus its earlier neighbors once everything after it is fused together.
decomp = decompose(query, order)
print("\nbags (own variable last), parents, exact cover numbers:")
for i, bag in enumerate(decomp.bags):
    parent = "root" if decomp.parent[i] is None else f"under bag {decomp.parent[i]}"
    print(f"  bag {i}: {{{', '.join(bag)}}}  rho* = {decomp.bag_cover[i].total}  ({parent})")

print("\nincompatibility number:", decomp.iota, "(witness bag", str(decomp.witness) + ")")
print("preprocessing for this order costs about |D| **", decomp.iota)

# Any trio-free decomposition must contain these bags, so none can be
# cheaper.  Check a user-supplied alternative: one giant bag.
verdict = check_decomposition(h, [frozenset(query.variables)], order)
print("\none-big-bag alternative:", verdict)

# A friendlier order for the same query: walk the path end to end.
friendly = parse_query(TEXT + " ORDER x1, x5, x3, x4, x2")[1]
decomp2 = decompose(query, friendly)
print("\nsame query ordered along the path:", friendly.variables)
print("trios:", disruptive_trios(query, friendly))
print("incompatibility number:", decomp2.iota, "(linear preprocessing)")
