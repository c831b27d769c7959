import copy
import hashlib
import math
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from itertools import product

import pytest

from lexjoin import hardness as hd
from lexjoin.access import build_index
from lexjoin.decomposition import fractional_edge_cover, incompatibility_number
from lexjoin.errors import InputError
from lexjoin.query import hypergraph_of
from tests import src_env


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
    assert hd.star_query(True)[1].variables == ("x1", "z")


@pytest.mark.parametrize("make, k", [(hd.star_query, 2.5), (hd.lw_query, "3")])
def test_query_templates_reject_non_int_k(make, k):
    with pytest.raises(InputError, match="k must be an integer"):
        make(k)


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
    assert hd.prefix_block(ix, (1, [1])) == (0, 0)  # no dictionary holds an unhashable value


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
    families = ((frozenset({1, 2}), frozenset({3})), (frozenset({1}),))
    with pytest.raises(InputError, match="must be integers"):
        hd.SetFamilyInstance((1, 2, 3), families, ((1.5, 1),))
    with pytest.raises(InputError, match="one set per family"):
        hd.SetFamilyInstance((1, 2, 3), families, ((1, 1), (1,)))
    with pytest.raises(InputError, match="index 0 out of range for family 2"):
        hd.SetFamilyInstance((1, 2, 3), families, ((2, 1), (1, 0)))
    with pytest.raises(InputError, match="at least one set family"):
        hd.SetFamilyInstance((1, 2), (), ((),))


def test_checked_query_tuple_is_checked_again_under_other_family_sizes():
    wide = ((frozenset({1}), frozenset({2})), (frozenset({1}), frozenset({2})))
    narrow = ((frozenset({1}),), (frozenset({1}),))
    checked = hd._CheckedQueries([(1, 1), (2, 2)], (2, 2))
    assert checked == ((1, 1), (2, 2)) and checked.sizes == (2, 2)
    for copied in (copy.deepcopy(checked), pickle.loads(pickle.dumps(checked))):
        assert (type(copied), copied, copied.sizes) == (hd._CheckedQueries, checked, (2, 2))
    assert hd.SetFamilyInstance((1, 2), wide, checked).queries is checked
    with pytest.raises(InputError, match="index 2 out of range for family 1"):
        hd.SetFamilyInstance((1, 2), narrow, checked)
    with pytest.raises(InputError, match="must be integers"):
        hd._CheckedQueries([(1.0, 1)], (2, 2))


def test_reduction_checks_each_query_tuple_once(monkeypatch):
    # The instances of one graph share a few query tuples: each is checked once, where it is made.
    made = []

    class Counted(hd._CheckedQueries):
        def __new__(cls, queries, sizes):
            made.append(sizes)
            return super().__new__(cls, queries, sizes)

    monkeypatch.setattr(hd, "_CheckedQueries", Counted)
    g, _ = hd.random_partite_instance(random.Random(3), 4, 8, 10**6)
    randomized, _ = hd.randomize_weights(g, hd.sample_prime(10**8, 10**9, random.Random(4)), random.Random(5))
    instances = [inst for inst, _ in hd.build_intersection_instances(randomized, 1 / 6)]
    shared = {id(inst.queries) for inst in instances}
    assert len(instances) > len(shared) > 1
    assert len(made) == len(shared) and all(type(inst.queries) is Counted for inst in instances)


@pytest.mark.parametrize("k", [0, -1, 2.5])
def test_random_set_family_rejects_bad_k_before_drawing(k):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InputError, match="at least one set family|k must be an integer"):
        hd.random_set_family(rng, k, 3, 8, 4)
    assert rng.getstate() == state


def test_random_set_family_refuses_more_values_than_the_cap_before_drawing(monkeypatch):
    # 8 universe values, then per family 1 + 3 sets of 1 + 4 values + 9 queries: 8 + 2 * 25 = 58.
    rng = random.Random(0)
    state = rng.getstate()
    monkeypatch.setattr(hd, "MAX_INSTANCE_VALUES", 57)
    with pytest.raises(InputError, match="the instance would hold more than 57 values"):
        hd.random_set_family(rng, 2, 3, 8, 4)
    assert rng.getstate() == state
    monkeypatch.setattr(hd, "MAX_INSTANCE_VALUES", 58)
    assert len(hd.random_set_family(rng, 2, 3, 8, 4).queries) == 9


def test_random_set_family_refuses_a_large_k_without_its_power():
    # 2**20000 has more digits than an int may print; the message shows the power instead.
    with pytest.raises(InputError, match=r"every index combination is 2\*\*20000 queries"):
        hd.random_set_family(random.Random(0), 20000, 2, 8, 4)


@pytest.mark.parametrize("size", ["sets_per_family", "universe_size", "max_set_size", "queries"])
def test_random_set_family_rejects_non_int_sizes_before_drawing(size):
    args = {"sets_per_family": 2, "universe_size": 8, "max_set_size": 4, "queries": 3}
    args[size] = 2.5
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InputError, match=f"{size} must be an integer, got 2.5"):
        hd.random_set_family(rng, 2, **args)
    assert rng.getstate() == state
    assert hd.random_set_family(rng, True, True, 8, 4, queries=True).queries == ((1,),)


# --------------------------------------------------------------------- #
# weighted cliques


def small_instance(seed=0, parts=3, size=3, bound=50, plant=False):
    rng = random.Random(seed)
    return hd.random_partite_instance(rng, parts, size, bound, plant=plant)


@pytest.mark.parametrize("size", ["parts", "part_size", "weight_bound"])
def test_random_partite_instance_rejects_non_int_sizes_before_drawing(size):
    args = {"parts": 3, "part_size": 2, "weight_bound": 10}
    args[size] = 2.5
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InputError, match=f"{size} must be an integer, got 2.5"):
        hd.random_partite_instance(rng, **args)
    assert rng.getstate() == state


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


@pytest.mark.parametrize(
    "n_vertices, parts, message",
    [
        (2.5, 3, "n_vertices must be an integer, got 2.5"),
        (3, 2.5, "parts must be an integer, got 2.5"),
        (-1, 3, "the vertex count must be non-negative"),
    ],
)
def test_to_complete_k_partite_rejects_bad_sizes(n_vertices, parts, message):
    with pytest.raises(InputError, match=message):
        hd.to_complete_k_partite(n_vertices, {}, parts)


@pytest.mark.parametrize(
    "edges, message",
    [
        ({("a", 2): 1}, r"an edge must be a pair of integers, got \['str', 'int'\]"),
        ({(1,): 1}, r"an edge must be a pair of integers, got \['int'\]"),
        ({(1, 2): "5"}, r"edge weights must be integers, got \['str'\]"),
        # Past 4,300 digits an int cannot be printed, so the messages name no values.
        ({(10**5000,): 1}, r"an edge must be a pair of integers, got \['int'\]"),
        ({(10**5000, 1): 1}, r"bad edge: its ends must be distinct vertices in 1\.\.n_vertices"),
    ],
    ids=["text-vertex", "one-vertex", "text-weight", "huge-one-vertex", "huge-vertex"],
)
def test_to_complete_k_partite_rejects_bad_edges(edges, message):
    with pytest.raises(InputError, match=message):
        hd.to_complete_k_partite(3, edges, 3)


def test_to_complete_k_partite_refuses_more_edges_than_the_cap(monkeypatch):
    # Three copies of three vertices: 3 pairs of parts times 9 edges.
    monkeypatch.setattr(hd, "MAX_PARTITE_EDGES", 26)
    with pytest.raises(InputError, match="the graph would have 27 edges, more than 26"):
        hd.to_complete_k_partite(3, {(1, 2): 1}, 3)
    monkeypatch.setattr(hd, "MAX_PARTITE_EDGES", 27)
    assert len(hd.to_complete_k_partite(3, {(1, 2): 1}, 3).weights) == 27


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


@pytest.mark.parametrize("lo, hi, bad", [(10, 20.5, "hi"), (10.0, 20, "lo"), ("10", 20, "lo")])
def test_sample_prime_rejects_non_int_bounds_before_drawing(lo, hi, bad):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InputError, match=f"{bad} must be an integer"):
        hd.sample_prime(lo, hi, rng)
    assert rng.getstate() == state


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
    same = hd.apply_weight_randomization(reduced, p, 1, y_last)
    assert same.weights == reduced.weights


@pytest.mark.parametrize("k", [2, 3, 4])
def test_randomization_offsets_telescope_per_edge(k):
    # With x = 1 only the offsets move a weight: the edge from part i to a
    # last-part vertex v gains y(v, i) - y(v, i - 1) with y(v, 0) = y(v, k) = 0,
    # and every edge between the first k parts keeps its weight.
    rng = random.Random(80 + k)
    p = 10007
    g, _ = hd.random_partite_instance(rng, k + 1, 3, 10**4)
    reduced = hd.WeightedCliqueInstance(g.parts, {e: w % p for e, w in g.weights.items()}, p)
    y_last = {(v, j): rng.randrange(p) for v in g.parts[k] for j in range(1, k)}

    def y(v, j):
        return y_last[(v, j)] if 0 < j < k else 0

    out = hd.apply_weight_randomization(reduced, p, 1, y_last)
    assert out.weights.keys() == reduced.weights.keys()
    last = set(g.parts[k])
    moved = 0
    for (a, b), w in reduced.weights.items():
        u, v = (a, b) if b in last else (b, a)
        if v in last:
            i = g.part_index[u]
            w = (w + y(v, i) - y(v, i - 1)) % p
            moved += 1
        assert out.weights[(a, b)] == w
    assert moved == k * 3 * 3


class _BoundedRandom(random.Random):
    """Raises after 1,000 randrange calls, so that a draw loop that never ends fails."""

    calls = 0

    def randrange(self, *args):
        self.calls += 1
        if self.calls > 1000:
            raise RuntimeError("more than 1,000 randrange calls")
        return super().randrange(*args)


@pytest.mark.parametrize("p", [1, 0, -7, 2.5, None])
def test_randomization_rejects_bad_field_size(p):
    g, _ = small_instance(seed=15)
    zeros = {e: 0 for e in g.weights}
    rng = _BoundedRandom(0)
    with pytest.raises(InputError, match="field size must be an integer at least 2"):
        hd.randomize_weights(g, p, rng)
    assert rng.calls == 0
    with pytest.raises(InputError, match="field size must be an integer at least 2"):
        hd.apply_weight_randomization(g, p, 1, {(v, 1): 0 for v in g.parts[-1]})
    if p is not None:
        with pytest.raises(InputError, match="field size must be an integer at least 2"):
            hd.WeightedCliqueInstance(g.parts, zeros, p)


@pytest.mark.parametrize("k", [2, 3])
def test_randomization_scales_every_clique(k):
    rng = random.Random(70 + k)
    g, _ = hd.random_partite_instance(rng, k + 1, 4, 200)
    p = hd.sample_prime(10 * (k + 1) ** 2 * 201, 100 * (k + 1) ** 2 * 201, rng)
    reduced = hd.WeightedCliqueInstance(g.parts, {e: w % p for e, w in g.weights.items()}, p)
    state = rng.getstate()
    randomized, rnd = hd.randomize_weights(reduced, p, rng)
    assert rnd.x != 0
    rng.setstate(state)
    assert hd.randomize_weights(g, p, rng) == (randomized, rnd)  # integer weights
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


@pytest.mark.parametrize("p, pieces, bad", [(2.5, 2, "p"), (17, 5.0, "pieces")])
def test_interval_partition_rejects_non_int_sizes(p, pieces, bad):
    with pytest.raises(InputError, match=f"{bad} must be an integer"):
        hd.interval_partition(p, pieces)
    assert hd.interval_partition(True, True) == [(0, 1)]


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


@pytest.mark.parametrize("rho", [math.nan, "a", math.inf, -0.1])
def test_interval_tuples_rejects_bad_rho(rho):
    with pytest.raises(InputError, match="rho must be"):
        next(hd.interval_tuples(101, 16, rho, 2))


def test_interval_tuple_count_bound():
    for n, rho, k in [(16, 0.5, 2), (27, 1 / 3, 3), (36, 0.25, 2)]:
        p = hd.sample_prime(10**4, 10**5, random.Random(1))
        count = sum(1 for _ in hd.interval_tuples(p, n, rho, k))
        cells = max(1, math.ceil(n**rho))
        assert count <= 4 * k * cells**k


def test_interval_tuples_take_p_cells_past_a_large_float_rho():
    # 24**1000.0 overflows a float; any n**rho of at least p = 7 gives 7 cells.
    assert list(hd.interval_tuples(7, 24, 1000.0, 2)) == list(hd.interval_tuples(7, 24, 1.0, 2))


def test_interval_tuples_take_p_cells_past_a_large_int_rho():
    # 24**(10**400) as an exact int never finishes: in a subprocess with a timeout.
    code = "from lexjoin import hardness as hd; print(len(list(hd.interval_tuples(7, 24, 10**400, 2))))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(list(hd.interval_tuples(7, 24, 1, 2))) == 49


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


@pytest.mark.parametrize("rho", [math.nan, "a", math.inf, 1 / 2 + 0.01])
def test_reduction_rejects_bad_rho(rho):
    # 1/k + 0.01 would make query_cap's exponent 1 - k * rho negative.
    g, _ = small_instance()
    with pytest.raises(InputError, match="rho must be"):
        hd.find_zero_clique_via_reduction(g, rho=rho)


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


def _instance_stream(g, seed):
    """The instances that the reduction with rng random.Random(seed) draws for g."""
    k = len(g.parts) - 1
    rng = random.Random(seed)
    bound = max(1, max(abs(w) for w in g.weights.values()))
    p = hd.sample_prime(10 * (k + 1) ** 2 * bound, 100 * (k + 1) ** 2 * bound, rng)
    randomized, _ = hd.randomize_weights(g, p, rng)
    return hd.build_intersection_instances(randomized, 1 / (2 * k))


def test_reduction_stream_digest():
    digest = hashlib.sha256()
    for g, seed in _digest_graphs():
        for inst, cap in _instance_stream(g, seed):
            families = tuple(tuple(tuple(sorted(s)) for s in fam) for fam in inst.families)
            digest.update(repr((inst.universe, families, inst.queries, cap)).encode())
        for backend in (hd.BruteForceBackend(), hd.DirectAccessBackend()):
            found = hd.find_zero_clique_via_reduction(g, rng=random.Random(seed), backend=backend)
            digest.update(repr(found).encode())
    assert digest.hexdigest() == REDUCTION_DIGEST


def test_candidate_check_matches_is_zero_clique():
    # The reduction checks each witness against its weight tables and calls
    # is_zero_clique only on a candidate that passes.  A backend returning the
    # whole last part for every query, and an is_zero_clique that records its
    # candidate and says no, expose that verdict on every combination and
    # every last-part vertex.
    passed, asked = set(), set()

    class Recording(hd.WeightedCliqueInstance):
        def is_zero_clique(self, vertices):
            passed.add(tuple(vertices))
            return False

    class EveryVertex:
        def prepare(self, inst):
            return inst

        def intersect(self, inst, query, limit):
            asked.add(query)
            return inst.universe

    for g, seed in _digest_graphs():
        passed.clear()
        asked.clear()
        spy = Recording(g.parts, g.weights)
        found = hd.find_zero_clique_via_reduction(spy, rng=random.Random(seed), backend=EveryVertex())
        assert found is None
        assert asked == set(product(*(range(1, len(part) + 1) for part in g.parts[:-1])))
        assert passed == {c for c in product(*g.parts) if g.is_zero_clique(c)}


def test_reduction_prepares_each_family_tuple_once():
    # Replaying each graph's instance stream gives the calls a backend should
    # see: one prepare at the first instance of each distinct (universe,
    # families), then every instance's queries, in stream order, against the
    # handle prepared for its families.  The reduction stops at the first
    # confirmed clique, so the calls seen must be a prefix of that script
    # that ends on an intersect, and all of it when nothing is found.
    calls = []

    class Recording(hd.BruteForceBackend):
        def prepare(self, inst):
            calls.append(("prepare", inst.universe, inst.families))
            return next(handle_ids), inst

        def intersect(self, handle, query, limit):
            calls.append(("intersect", handle[0], query))
            return super().intersect(handle[1], query, limit)

    early = 0
    for g, seed in _digest_graphs():
        script, handles, instances = [], {}, 0
        for inst, _ in _instance_stream(g, seed):
            instances += 1
            key = inst.universe, tuple(tuple(tuple(sorted(s)) for s in fam) for fam in inst.families)
            if key not in handles:
                handles[key] = len(handles)
                script.append(("prepare", inst.universe, inst.families))
            script.extend(("intersect", handles[key], query) for query in inst.queries)
        assert len(handles) < instances
        calls.clear()
        handle_ids = iter(range(instances))
        found = hd.find_zero_clique_via_reduction(g, rng=random.Random(seed), backend=Recording())
        assert calls == script[: len(calls)]
        if found is None:
            assert len(calls) == len(script)
        else:
            early += 1
            assert calls[-1][0] == "intersect"
    assert early


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
    "missing-cross-edge": (b"parts 1 1 1\n1 2 1\n1 3 1\n", "missing cross edge"),
}


@pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
def test_partite_graph_bad_input(tmp_path, case):
    content, message = BAD_GRAPHS[case]
    path = tmp_path / "graph.txt"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(InputError, match=message):
        hd.read_partite_graph(path)


def test_partite_graph_header_is_checked_against_the_edge_lines_first(tmp_path):
    # Two million cross pairs and no edge line: refused before a part is built.
    path = tmp_path / "graph.txt"
    path.write_text("parts 2000000 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="missing cross edge"):
            hd.read_partite_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def read_parts_header(tmp_path, sizes):
    path = tmp_path / "graph.txt"
    path.write_text("parts " + " ".join(map(str, sizes)) + "\n")
    return hd.read_partite_graph(path)


# Each builds an edgeless graph of one part of n vertices, or of n empty parts.
EDGELESS_GRAPHS = {
    "read-one-part": lambda tmp_path, rng, n: read_parts_header(tmp_path, [n]),
    "read-empty-parts": lambda tmp_path, rng, n: read_parts_header(tmp_path, [0] * n),
    "random-one-part": lambda tmp_path, rng, n: hd.random_partite_instance(rng, 1, n, 5)[0],
    "random-empty-parts": lambda tmp_path, rng, n: hd.random_partite_instance(rng, n, 0, 5)[0],
    "complete-empty-parts": lambda tmp_path, rng, n: hd.to_complete_k_partite(0, {}, n),
}


@pytest.mark.parametrize("case", list(EDGELESS_GRAPHS))
def test_edgeless_graphs_stop_at_the_vertex_cap(tmp_path, monkeypatch, case):
    monkeypatch.setattr(hd, "MAX_PARTITE_VERTICES", 10)
    rng = random.Random(0)
    state = rng.getstate()
    g = EDGELESS_GRAPHS[case](tmp_path, rng, 10)
    assert max(len(g.parts), g.n) == 10 and g.weights == {}
    with pytest.raises(InputError, match="the graph would have more than 10 parts or vertices"):
        EDGELESS_GRAPHS[case](tmp_path, rng, 11)
    assert rng.getstate() == state


# Each would build millions of parts or vertices, or hundreds of billions of edges.
HUGE_GRAPHS = {
    "read-one-part": lambda tmp_path, rng: read_parts_header(tmp_path, [2000000]),
    "random-one-part": lambda tmp_path, rng: hd.random_partite_instance(rng, 1, 400000, 5),
    "random-empty-parts": lambda tmp_path, rng: hd.random_partite_instance(rng, 10**8, 0, 5),
    "complete-empty-parts": lambda tmp_path, rng: hd.to_complete_k_partite(0, {}, 10**8),
    "complete-two-copies": lambda tmp_path, rng: hd.to_complete_k_partite(400000, {}, 2),
}


@pytest.mark.parametrize("case", list(HUGE_GRAPHS))
def test_huge_graphs_are_refused_before_a_part_is_built(tmp_path, monkeypatch, case):
    # The cap is patched low so that code without it fails here, before building anything.
    monkeypatch.setattr(hd, "MAX_PARTITE_VERTICES", 10)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="more than 10 parts or vertices"):
            HUGE_GRAPHS[case](tmp_path, random.Random(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_partite_graph_write_under_missing_directory(tmp_path):
    path = tmp_path / "missing" / "graph.txt"
    with pytest.raises(InputError, match="cannot write graph file") as exc:
        hd.write_partite_graph(path, small_instance(seed=14)[0])
    assert str(path) in str(exc.value)


# Each graph would read back as another graph, or fail to read back.
UNWRITABLE_GRAPHS = {
    "parts-swapped": (((3, 4), (1, 2)), {(1, 3): 1, (1, 4): 2, (2, 3): 3, (2, 4): 4}, None),
    "parts-interleaved": (
        ((1, 4), (2, 5), (3, 6)),
        {(u, v): 1 for u in range(1, 7) for v in range(u + 1, 7) if (v - u) % 3},
        None,
    ),
    "not-from-one": (((10, 11), (20, 21)), {(u, v): 1 for u in (10, 11) for v in (20, 21)}, None),
    "field-mode": (((1,), (2,), (3,)), {(1, 2): 1, (1, 3): 2, (2, 3): 4}, 7),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_GRAPHS))
def test_partite_graph_write_refuses_graphs_it_cannot_store(tmp_path, case):
    parts, weights, p = UNWRITABLE_GRAPHS[case]
    g = hd.WeightedCliqueInstance(parts, weights, p)
    path = tmp_path / "graph.txt"
    with pytest.raises(InputError, match="cannot write graph file"):
        hd.write_partite_graph(path, g)
    assert not path.exists()


# A str weight "3" would be written as 3 and read back as another graph; 1.5 and
# None would be written as text that reading rejects; in field mode "3" meets < p.
@pytest.mark.parametrize(
    "weight, p, stray",
    [("3", None, "str"), (1.5, None, "float"), (None, None, "NoneType"), ("3", 7, "str")],
    ids=["str", "float", "none", "str-field-mode"],
)
def test_weighted_clique_rejects_non_int_weights(weight, p, stray):
    with pytest.raises(InputError, match=rf"edge weights must be integers, got \['{stray}'\]"):
        hd.WeightedCliqueInstance(((1,), (2,), (3,)), {(1, 2): weight, (1, 3): 0, (2, 3): 4}, p)


def test_bool_weights_are_written_as_zero_and_one(tmp_path):
    g = hd.WeightedCliqueInstance(((1,), (2,), (3,)), {(1, 2): True, (1, 3): False, (2, 3): 5})
    path = tmp_path / "graph.txt"
    hd.write_partite_graph(path, g)
    assert path.read_text(encoding="utf-8") == "parts 1 1 1\n1 2 1\n1 3 0\n2 3 5\n"
    again = hd.read_partite_graph(path)
    assert again.weights == {(1, 2): 1, (1, 3): 0, (2, 3): 5} == g.weights
    assert hd.brute_zero_clique(again) == hd.brute_zero_clique(g) is None
