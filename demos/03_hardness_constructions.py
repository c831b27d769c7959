#!/usr/bin/env python3
"""The hardness lab: set disjointness through stars, and zero cliques.

Two constructions are shown.  First, a family-of-sets workload is encoded
as a star-query database, so asking "do these k sets intersect?" becomes
one walk down the index over the k set indices.  Second, a weighted complete
tripartite graph is searched for a zero-weight triangle purely through
set-intersection queries, with the answers verified against the original
weights.
"""

import random

from lexjoin import build_index
from lexjoin import hardness as hd

rng = random.Random(2024)

# ---------------------------------------------------------------- stars
print("== set disjointness as a projected star ==")
inst = hd.random_set_family(rng, k=2, sets_per_family=4, universe_size=9, max_set_size=5)
print("family sizes:", [len(fam) for fam in inst.families], "universe:", len(inst.universe))

db = hd.encode_set_disjointness(inst)
print("encoded database tuples:", db.size, "(equals total set weight", str(inst.input_size) + ")")

query, order = hd.star_query(2)
ix = build_index(query, order, db)
print("star index answers:", ix.count())

for js in inst.queries[:6]:
    via_index = hd.projected_star_test(ix, js)
    via_sets = not inst.disjoint(js)
    mark = "intersect" if via_index else "disjoint"
    assert via_index == via_sets
    print(f"  sets {js}: {mark}")

# ------------------------------------------------------- zero triangles
print("\n== zero-triangle search through set intersection ==")
g, planted = hd.random_partite_instance(rng, parts=3, part_size=8, weight_bound=10**4, plant=True)
print("parts:", [len(p) for p in g.parts], "planted zero triangle:", planted)

found = hd.find_zero_clique_via_reduction(
    g, rng=random.Random(5), backend=hd.DirectAccessBackend()
)
print("reduction (direct-access backend) returned:", found)
assert found is not None and g.is_zero_clique(found)

check = hd.brute_zero_clique(g)
print("brute force agrees a zero triangle exists:", check)

# The reduction pieces, visible one at a time: prime, rerandomized
# weights, interval tuples, and one emitted intersection instance.
bound = max(abs(w) for w in g.weights.values())
p = hd.sample_prime(10 * 9 * bound, 100 * 9 * bound, random.Random(1))
reduced = hd.WeightedCliqueInstance(g.parts, {e: w % p for e, w in g.weights.items()}, p)
randomized, rnd = hd.randomize_weights(reduced, p, random.Random(2))
print("\nfield size p =", p, "; multiplier x =", rnd.x)

clique = tuple(part[0] for part in g.parts)
print(
    "clique weight scales exactly:",
    randomized.clique_weight(clique) == rnd.x * reduced.clique_weight(clique) % p,
)

tuples = list(hd.interval_tuples(p, n=randomized.n, rho=0.25, k=2))
print("interval tuples that can hold a zero sum:", len(tuples))

inst, cap = next(hd.build_intersection_instances(randomized, rho=0.25))
print(
    "first instance: families of sizes",
    [len(fam) for fam in inst.families],
    "with", len(inst.queries), "queries, cap T =", cap,
)

# ------------------------------------------------------ unique recovery
print("\n== recovering a unique witness from yes/no answers ==")
single = hd.SetFamilyInstance(
    tuple(range(16)),
    ((frozenset({5, 11}),), (frozenset({5, 12}),)),
    ((1, 1),),
)
value = hd.unique_via_bit_probing(hd.brute_disjointness_oracle, single, (1, 1))
print("bits spell out the single common element:", value)
