import hashlib
import math
import random
from fractions import Fraction as F
from itertools import product

import pytest

from lexjoin import hardness as hd
from lexjoin.access import build_index
from lexjoin.decomposition import fractional_edge_cover, incompatibility_number
from lexjoin.errors import InputError
from lexjoin.query import hypergraph_of


# --------------------------------------------------------------------- #
# query templates


def test_star_query_shapes():
    q, order = hd.star_query(2)
    assert [sym for sym, _ in q.atoms] == ["R1", "R2"]
    assert order.variables == ("x1", "x2", "z")
    q3, _ = hd.star_query(3)
    assert len(q3.atoms) == 3
    with pytest.raises(InputError):
        hd.star_query(0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_star_incompatibility_is_k(k):
    assert incompatibility_number(*hd.star_query(k))[0] == k


def test_lw_query_golden():
    q = hd.lw_query(3)
    assert q.atoms == (
        ("R1", ("x2", "x3")),
        ("R2", ("x1", "x3")),
        ("R3", ("x1", "x2")),
    )
    q4 = hd.lw_query(4)
    assert len(q4.atoms) == 4
    assert all(len(vs) == 3 for _, vs in q4.atoms)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_lw_cover_number(k):
    q = hd.lw_query(k)
    assert fractional_edge_cover(hypergraph_of(q)).total == 1 + F(1, k - 1)


def test_lw_iota_matches_global_cover():
    from lexjoin.query import VariableOrder

    for k in (3, 4):
        q = hd.lw_query(k)
        iota, _ = incompatibility_number(q, VariableOrder(q.variables))
        assert iota == 1 + F(1, k - 1)


# --------------------------------------------------------------------- #
# set families and the star encoding


def test_encode_tiny_intersecting():
    inst = hd.SetFamilyInstance(
        (7,), ((frozenset({7}),), (frozenset({7}),)), ((1, 1),)
    )
    db = hd.encode_set_disjointness(inst)
    assert db.size == inst.input_size == 2
    q, order = hd.star_query(2)
    ix = build_index(q, order, db)
    assert hd.projected_star_test(ix, (1, 1))


def test_encode_disjoint_singletons():
    inst = hd.SetFamilyInstance(
        (1, 2), ((frozenset({1}),), (frozenset({2}),)), ((1, 1),)
    )
    ix = build_index(*hd.star_query(2), hd.encode_set_disjointness(inst))
    assert not hd.projected_star_test(ix, (1, 1))


def test_prefix_block_rejects_more_values_than_variables():
    inst = hd.SetFamilyInstance(
        (7,), ((frozenset({7}),), (frozenset({7}),)), ((1, 1),)
    )
    ix = build_index(*hd.star_query(2), hd.encode_set_disjointness(inst))
    assert hd.prefix_block(ix, (1, 1, 7)) == (0, 1)
    with pytest.raises(InputError, match="expected at most 3 values, got 4"):
        hd.prefix_block(ix, (1, 1, 1, 1))


@pytest.mark.parametrize("k", [2, 3])
def test_disjointness_agreement_random(k):
    rng = random.Random(100 + k)
    for _ in range(12):
        inst = hd.random_set_family(rng, k, 4, 9, 5)
        ix = build_index(*hd.star_query(k), hd.encode_set_disjointness(inst))
        for query in inst.queries:
            assert hd.projected_star_test(ix, query) == (not inst.disjoint(query))


def test_set_family_validation():
    with pytest.raises(InputError):
        hd.SetFamilyInstance((1,), ((frozenset({2}),),), ())
    with pytest.raises(InputError):
        hd.SetFamilyInstance((1,), ((frozenset({1}),),), ((2,),))


# --------------------------------------------------------------------- #
# weighted cliques


def small_instance(seed=0, parts=3, size=3, bound=50, plant=False):
    rng = random.Random(seed)
    return hd.random_partite_instance(rng, parts, size, bound, plant=plant)


def test_brute_zero_clique_planted():
    g, planted = small_instance(seed=4, plant=True)
    found = hd.brute_zero_clique(g)
    assert found is not None
    assert g.is_zero_clique(found)
    assert g.is_zero_clique(planted)


def test_brute_zero_clique_all_ones():
    parts = ((1,), (2,), (3,))
    weights = {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    assert hd.brute_zero_clique(hd.WeightedCliqueInstance(parts, weights)) is None


def test_brute_zero_clique_two_parts():
    parts = ((1,), (2,))
    weights = {(1, 2): 0}
    assert hd.brute_zero_clique(hd.WeightedCliqueInstance(parts, weights)) == (1, 2)


def test_to_complete_k_partite_triangle():
    # A zero triangle on 3 vertices becomes a partite instance with zeros.
    edges = {(1, 2): 5, (1, 3): -2, (2, 3): -3}
    g = hd.to_complete_k_partite(3, edges, 3)
    assert hd.brute_zero_clique(g) is not None


def test_to_complete_k_partite_edgeless():
    g = hd.to_complete_k_partite(3, {}, 3)
    assert hd.brute_zero_clique(g) is None


def test_to_complete_k_partite_count_preserved():
    rng = random.Random(6)
    for _ in range(10):
        n, parts = 6, 3
        edges = {}
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.8:
                    edges[(u, v)] = rng.randint(-3, 3)
        unordered = 0
        for combo in product(range(1, n + 1), repeat=parts):
            if len(set(combo)) < parts or list(combo) != sorted(combo):
                continue
            ok = True
            total = 0
            for a in range(parts):
                for b in range(a + 1, parts):
                    e = (combo[a], combo[b])
                    if e not in edges:
                        ok = False
                        break
                    total += edges[e]
                if not ok:
                    break
            if ok and total == 0:
                unordered += 1
        g = hd.to_complete_k_partite(n, edges, parts)
        assert hd.count_zero_cliques(g) == unordered * 6  # 3! orderings


# --------------------------------------------------------------------- #
# primes and weight randomization


def test_sample_prime_in_range():
    rng = random.Random(7)
    for _ in range(20):
        p = hd.sample_prime(10, 20, rng)
        assert p in (11, 13, 17, 19)
    big = hd.sample_prime(10**6, 2 * 10**6, rng)
    assert hd.is_prime(big)


def test_sample_prime_empty_range():
    with pytest.raises(InputError):
        hd.sample_prime(24, 28, random.Random(0))


def test_is_prime_basics():
    primes = {2, 3, 5, 7, 11, 13, 9973}
    for m in range(2, 100):
        assert hd.is_prime(m) == all(m % d for d in range(2, m))
    assert all(hd.is_prime(p) for p in primes)


def test_identity_weight_randomization_is_noop():
    g, _ = small_instance(seed=8)
    p = 10007
    reduced = hd.WeightedCliqueInstance(
        g.parts, {e: w % p for e, w in g.weights.items()}, p
    )
    y_last = {(v, j): 0 for v in g.parts[-1] for j in range(1, len(g.parts) - 1)}
    same = hd.apply_weight_randomization(reduced, p, 1, y_last, {}, hd.VARIANT_INTERSECTION)
    assert same.weights == reduced.weights


@pytest.mark.parametrize("variant", [hd.VARIANT_INTERSECTION, hd.VARIANT_ENUMERATION])
@pytest.mark.parametrize("k", [2, 3])
def test_randomization_scales_every_clique(k, variant):
    rng = random.Random(70 + k)
    g, _ = hd.random_partite_instance(rng, k + 1, 4, 200)
    p = hd.sample_prime(10 * (k + 1) ** 2 * 201, 100 * (k + 1) ** 2 * 201, rng)
    reduced = hd.WeightedCliqueInstance(g.parts, {e: w % p for e, w in g.weights.items()}, p)
    state = rng.getstate()
    randomized, rnd = hd.randomize_weights(reduced, p, rng, variant)
    assert rnd.x != 0
    rng.setstate(state)
    assert hd.randomize_weights(g, p, rng, variant) == (randomized, rnd)  # integer weights
    for clique in product(*g.parts):
        assert randomized.clique_weight(clique) == (rnd.x * reduced.clique_weight(clique)) % p


def test_zero_clique_set_invariant_under_randomization():
    rng = random.Random(9)
    g, _ = hd.random_partite_instance(rng, 3, 4, 30, plant=True)
    p = hd.sample_prime(10 * 9 * 1000, 100 * 9 * 1000, rng)
    reduced = hd.WeightedCliqueInstance(g.parts, {e: w % p for e, w in g.weights.items()}, p)
    randomized, _ = hd.randomize_weights(reduced, p, rng)
    before = {c for c in product(*g.parts) if reduced.is_zero_clique(c)}
    after = {c for c in product(*g.parts) if randomized.is_zero_clique(c)}
    assert before == after and before


# --------------------------------------------------------------------- #
# interval tuples


def test_interval_partition_sizes():
    cells = hd.interval_partition(17, 5)
    assert cells[0] == (0, 4)
    assert cells[-1] == (14, 17)
    sizes = {stop - start for start, stop in cells}
    assert sizes <= {3, 4}
    assert cells[-1][1] == 17


def test_interval_tuples_defining_property():
    p = 101
    for tup in hd.interval_tuples(p, n=16, rho=0.5, k=2):
        assert tup.sum_contains_zero()


@pytest.mark.parametrize(
    "p, n, rho, k",
    [
        (23, 9, 0.5, 2),
        (29, 16, 0.5, 2),
        (31, 27, 2 / 3, 2),
        (101, 18, 0.25, 2),
        (37, 64, 0.5, 3),
        (7, 100, 1.0, 2),
    ],
)
def test_interval_tuples_complete_for_zero_sums(p, n, rho, k):
    # Brute force over a small field: the emitted tuples are exactly the cell
    # tuples of the value combinations summing to zero, each emitted once.
    # Every case splits the field into more cells than k.
    tuples = list(hd.interval_tuples(p, n, rho, k))
    cells = hd.interval_partition(p, min(math.ceil(n**rho), p))
    assert len(cells) > k
    cell_of = {x: cell for cell in cells for x in range(*cell)}
    expected = set()
    for head in product(range(p), repeat=k):
        combo = head + (-sum(head) % p,)
        expected.add(hd.IntervalTuple(tuple(cell_of[x] for x in combo), p))
    assert len(tuples) == len(set(tuples)) == len(expected)
    assert set(tuples) == expected


def test_interval_tuple_count_bound():
    for n, rho, k in [(16, 0.5, 2), (27, 1 / 3, 3), (36, 0.25, 2)]:
        p = hd.sample_prime(10**4, 10**5, random.Random(1))
        count = sum(1 for _ in hd.interval_tuples(p, n, rho, k))
        cells = max(1, math.ceil(n**rho))
        assert count <= 4 * k * cells**k


# --------------------------------------------------------------------- #
# the reduction


def test_query_cap_formula():
    assert hd.query_cap(2, 36, 0.25) == 5400
    for k, n, rho in [(2, 100, 0.25), (3, 27, 1 / 6)]:
        assert hd.query_cap(k, n, rho) == math.ceil(100 * 3**k * n ** (1 - k * rho))


def test_build_instances_contain_planted_witness():
    rng = random.Random(11)
    g, planted = hd.random_partite_instance(rng, 3, 5, 100, plant=True)
    p = hd.sample_prime(10 * 9 * 10**4, 100 * 9 * 10**4, rng)
    reduced = hd.WeightedCliqueInstance(g.parts, {e: w % p for e, w in g.weights.items()}, p)
    randomized, _ = hd.randomize_weights(reduced, p, rng)
    v1, v2, u = planted
    seen = False
    for inst, cap in hd.build_intersection_instances(randomized, rho=0.25):
        assert cap == hd.query_cap(2, g.n, 0.25)
        j1 = g.parts[0].index(v1) + 1
        j2 = g.parts[1].index(v2) + 1
        if (j1, j2) in inst.queries and u in inst.intersection((j1, j2)):
            seen = True
    assert seen


def test_empty_part_gives_empty_families():
    g = hd.WeightedCliqueInstance(((1,), (2,), ()), {(1, 2): 0}, p=10007)
    out = list(hd.build_intersection_instances(g, rho=0.5))
    assert out
    for inst, _ in out:
        assert all(s == frozenset() for fam in inst.families for s in fam)


@pytest.mark.parametrize("backend_cls", [hd.BruteForceBackend, hd.DirectAccessBackend])
def test_reduction_finds_planted_clique(backend_cls):
    g, _ = small_instance(seed=12, parts=3, size=6, bound=500, plant=True)
    found = hd.find_zero_clique_via_reduction(
        g, rng=random.Random(1), backend=backend_cls()
    )
    assert found is not None
    assert g.is_zero_clique(found)


def test_reduction_never_fabricates():
    for seed in range(5):
        rng = random.Random(1000 + seed)
        g, _ = hd.random_partite_instance(rng, 3, 5, 10**6)
        if hd.brute_zero_clique(g) is not None:
            continue
        assert hd.find_zero_clique_via_reduction(g, rng=random.Random(seed)) is None


def test_reduction_rejects_field_mode():
    g, _ = small_instance()
    reduced = hd.WeightedCliqueInstance(
        g.parts, {e: w % 101 for e, w in g.weights.items()}, 101
    )
    with pytest.raises(InputError):
        hd.find_zero_clique_via_reduction(reduced)


# SHA-256 over every intersection instance of _digest_graphs and both
# backends' reduction results, recorded with the per-tuple weight loops and
# the arc-walk interval tuples that the per-graph tables replaced.
REDUCTION_DIGEST = "16dec8203cf6dd9e5af66a9a51c02a438e42df4392d77bbe0d0d087a36b87095"


def _digest_graphs():
    """The benchmark stream's first graphs, then a planted and a zero-dense graph, per part size."""
    for size in (6, 8):
        for i in range(2):
            rng = random.Random(f"graph/1/{i}")
            yield hd.random_partite_instance(rng, 4, size, 10**6)[0], rng.randrange(2**32)
        for bound, plant in ((10**6, True), (2, False)):
            rng = random.Random(f"digest/{size}/{bound}")
            g, _ = hd.random_partite_instance(rng, 4, size, bound, plant=plant)
            yield g, rng.randrange(2**32)


def test_reduction_stream_digest():
    digest = hashlib.sha256()
    for g, seed in _digest_graphs():
        k = len(g.parts) - 1
        rng = random.Random(seed)
        bound = max(1, max(abs(w) for w in g.weights.values()))
        p = hd.sample_prime(10 * (k + 1) ** 2 * bound, 100 * (k + 1) ** 2 * bound, rng)
        randomized, _ = hd.randomize_weights(g, p, rng)
        for inst, cap in hd.build_intersection_instances(randomized, 1 / (2 * k)):
            families = tuple(tuple(tuple(sorted(s)) for s in fam) for fam in inst.families)
            digest.update(repr((inst.universe, families, inst.queries, cap)).encode())
        for backend in (hd.BruteForceBackend(), hd.DirectAccessBackend()):
            found = hd.find_zero_clique_via_reduction(g, rng=random.Random(seed), backend=backend)
            digest.update(repr(found).encode())
    assert digest.hexdigest() == REDUCTION_DIGEST


# --------------------------------------------------------------------- #
# bit probing


def test_bit_probing_hand_run():
    inst = hd.SetFamilyInstance(
        tuple(range(8)),
        ((frozenset({5, 3}),), (frozenset({5, 6}),)),
        ((1, 1),),
    )
    assert hd.unique_via_bit_probing(hd.brute_disjointness_oracle, inst, (1, 1)) == 5


def test_bit_probing_empty_intersection():
    inst = hd.SetFamilyInstance(
        tuple(range(8)),
        ((frozenset({1}),), (frozenset({2}),)),
        ((1, 1),),
    )
    assert hd.unique_via_bit_probing(hd.brute_disjointness_oracle, inst, (1, 1)) is None


def test_bit_probing_never_unverified():
    rng = random.Random(13)
    for _ in range(60):
        inst = hd.random_set_family(rng, 2, 3, 16, 8)
        for query in inst.queries:
            got = hd.unique_via_bit_probing(hd.brute_disjointness_oracle, inst, query)
            truth = inst.intersection(query)
            if len(truth) == 1:
                assert got == next(iter(truth))
            elif got is not None:
                assert got in truth


# --------------------------------------------------------------------- #
# graph file IO


def test_partite_graph_roundtrip(tmp_path):
    graphs = [
        small_instance(seed=14)[0],
        hd.WeightedCliqueInstance((), {}),  # written with the header "parts "
        hd.WeightedCliqueInstance(((1, 2, 3),), {}),
    ]
    for g in graphs:
        path = tmp_path / "graph.txt"
        hd.write_partite_graph(path, g)
        again = hd.read_partite_graph(path)
        assert again.parts == g.parts
        assert again.weights == g.weights


def test_partite_graph_leading_bom_is_ignored(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("\ufeffparts 1 1\n1 2 -4\n", encoding="utf-8")
    g = hd.read_partite_graph(path)
    assert g.parts == ((1,), (2,))
    assert g.weights == {(1, 2): -4}


def test_partite_graph_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(InputError):
        hd.read_partite_graph(path)


# Each writes one bad graph file (or none) and gives the expected message.
BAD_GRAPHS = {
    "missing-file": (None, "cannot read graph file"),
    "not-utf8": (b"parts 1 1\n\xff 2 1\n", "not valid UTF-8"),
    "vertex-outside-parts": (b"parts 1 1 1\n1 2 1\n1 3 1\n2 3 1\n1 9 3\n", "outside every part"),
    "edge-inside-part": (b"parts 2 1\n1 2 1\n1 3 1\n2 3 1\n", "inside one part"),
    "negative-part-size": (b"parts -1 2\n", "negative part size"),
    "repeated-edge": (b"parts 1 1\n1 2 1\n2 1 5\n", "repeated edge"),
}


@pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
def test_partite_graph_bad_input(tmp_path, case):
    content, message = BAD_GRAPHS[case]
    path = tmp_path / "graph.txt"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(InputError, match=message):
        hd.read_partite_graph(path)
