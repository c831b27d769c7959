import random
from fractions import Fraction as F
from itertools import islice, permutations

import pytest

from lexjoin import VariableOrder, build_database
from lexjoin import hypergraph as hg
from lexjoin.access import build_index
from lexjoin.cli import main
from lexjoin.decomposition import (
    check_decomposition,
    decompose,
    disruption_free_closed_form,
    disruption_free_iterative,
    fractional_edge_cover,
    fractional_independent_set,
    incompatibility_number,
    join_forest,
)
from lexjoin.errors import InputError
from lexjoin.hypergraph import Hypergraph
from lexjoin.query import disruptive_trios, hypergraph_of, parse_query
from tests.randgen import random_hypergraph, random_query

FIVE_TEXT = "Q(x1,x2,x3,x4,x5) :- R1(x1,x5), R2(x2,x4), R3(x3,x4), R4(x3,x5)."
FIVE_BAGS = [
    {"x1"},
    {"x1", "x2"},
    {"x1", "x2", "x3"},
    {"x2", "x3", "x4"},
    {"x1", "x3", "x5"},
]


def five():
    return parse_query(FIVE_TEXT)


def test_iterative_bags_golden():
    q, order = five()
    assert [set(b) for b in disruption_free_iterative(q, order)] == FIVE_BAGS


def test_closed_form_bags_golden():
    q, order = five()
    bags = disruption_free_closed_form(q, order)
    assert [set(b) for b in bags] == FIVE_BAGS
    assert set(bags[2]) == {"x1", "x2", "x3"}
    assert set(bags[1]) == {"x1", "x2"}


def test_single_variable_bag():
    q, order = parse_query("Q(x) :- R(x).")
    assert disruption_free_iterative(q, order) == [frozenset({"x"})]
    assert disruption_free_closed_form(q, order) == [frozenset({"x"})]


def test_star_two_bad_order_bags():
    q, order = parse_query("Q(x1,x2,z) :- R1(x1,z), R2(x2,z).")
    bags = disruption_free_iterative(q, order)
    assert [set(b) for b in bags] == [{"x1"}, {"x1", "x2"}, {"x1", "x2", "z"}]


def test_first_bag_is_always_singleton():
    rng = random.Random(1)
    for _ in range(30):
        q, order = random_query(rng)
        bags = disruption_free_closed_form(q, order)
        assert bags[0] == frozenset({order.variables[0]})


def test_cover_triangle_half_weights():
    h = Hypergraph.build([["a", "b"], ["b", "c"], ["a", "c"]])
    cover = fractional_edge_cover(h)
    assert cover.total == F(3, 2)
    assert all(w == F(1, 2) for w in cover.weights.values())


def test_cover_single_edge():
    h = Hypergraph.build([["a", "b", "c"]])
    assert fractional_edge_cover(h).total == 1


def test_cover_three_singletons():
    h = hg.induced(hypergraph_of(five()[0]), {"x1", "x2", "x3"})
    assert fractional_edge_cover(h).total == 3


def test_cover_feasibility_on_randoms():
    rng = random.Random(2)
    for _ in range(60):
        h = random_hypergraph(rng, 7, 7)
        cover = fractional_edge_cover(h)
        for w in cover.weights.values():
            assert 0 <= w <= 1
        for v in h.vertices:
            incident = sum(
                (w for e, w in cover.weights.items() if v in e), start=F(0)
            )
            assert incident >= 1
        assert cover.total == sum(cover.weights.values())


def test_cover_uncoverable_vertex():
    h = Hypergraph.build([["a"]], vertices=("a", "b"))
    with pytest.raises(InputError):
        fractional_edge_cover(h)


def test_independent_set_values():
    triangle = Hypergraph.build([["a", "b"], ["b", "c"], ["a", "c"]])
    assert fractional_independent_set(triangle)[0] == F(3, 2)
    one_edge = Hypergraph.build([["a", "b", "c", "d"]])
    assert fractional_independent_set(one_edge)[0] == 1
    singletons = Hypergraph.build([["a"], ["b"], ["c"]])
    assert fractional_independent_set(singletons)[0] == 3


def test_duality_on_random_hypergraphs():
    rng = random.Random(3)
    for _ in range(80):
        h = random_hypergraph(rng, 7, 7)
        assert fractional_edge_cover(h).total == fractional_independent_set(h)[0]


def test_cover_and_independent_set_certify_each_other():
    # A feasible cover and a feasible independent set with equal totals are
    # both optimal, by weak duality.
    rng = random.Random(4)
    for _ in range(80):
        h = random_hypergraph(rng, 7, 7)
        cover = fractional_edge_cover(h)
        total, y = fractional_independent_set(h)
        assert all(w >= 0 for w in cover.weights.values())
        for v in h.vertices:
            assert sum((w for e, w in cover.weights.items() if v in e), start=F(0)) >= 1
        assert all(yv >= 0 for yv in y.values())
        for e in h.edges:
            assert sum((y[v] for v in e), start=F(0)) <= 1
        assert cover.total == total
        assert cover.total == sum(cover.weights.values())
        assert total == sum(y.values())


def test_independent_set_counts_a_vertex_in_no_edge():
    # Its own cap row bounds it: y_b = 1.
    assert fractional_independent_set(Hypergraph.build([["a"]], vertices=("a", "b")))[0] == 2


def test_incompatibility_golden():
    q, order = five()
    iota, witness = incompatibility_number(q, order)
    assert iota == 3
    assert witness == 2
    decomp = decompose(q, order)
    assert [c.total for c in decomp.bag_cover] == [1, 2, 3, 2, 2]


def test_incompatibility_path_is_one():
    q, order = parse_query("Q(x1,x2,x3) :- R(x1,x2), S(x2,x3).")
    assert incompatibility_number(q, order)[0] == 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_incompatibility_star_bad_order(k):
    from lexjoin.hardness import star_query

    q, order = star_query(k)
    assert incompatibility_number(q, order)[0] == k


def test_join_forest_golden():
    q, order = five()
    bags = disruption_free_iterative(q, order)
    assert join_forest(bags, order) == {0: None, 1: 0, 2: 1, 3: 2, 4: 2}


def test_join_forest_cross_product_roots():
    q, order = parse_query("Q(x,y) :- R(x), S(y).")
    bags = disruption_free_iterative(q, order)
    assert join_forest(bags, order) == {0: None, 1: None}


def test_join_forest_chain_is_a_path():
    q, order = parse_query("Q(a,b,c,d) :- R(a,b), S(b,c), T(c,d).")
    bags = disruption_free_iterative(q, order)
    parents = join_forest(bags, order)
    assert parents == {0: None, 1: 0, 2: 1, 3: 2}


def test_check_decomposition_self():
    q, order = five()
    h = hypergraph_of(q)
    decomp = decompose(q, order)
    report = check_decomposition(h, decomp.bags, order)
    assert report.covers_all_edges
    assert report.acyclic
    assert report.trio_free
    assert report.width == decomp.iota
    assert report.contains_disruption_free


def test_check_decomposition_one_big_bag():
    q, order = five()
    h = hypergraph_of(q)
    report = check_decomposition(h, [frozenset(h.vertices)], order)
    assert report.covers_all_edges
    assert report.acyclic
    assert report.trio_free
    assert report.contains_disruption_free


def test_check_decomposition_cyclic_original_edges():
    h = Hypergraph.build([["a", "b"], ["b", "c"], ["a", "c"]])
    order = parse_query("Q(a,b,c) :- R(a,b), S(b,c), T(a,c).")[1]
    report = check_decomposition(h, list(h.edges), order)
    assert report.covers_all_edges
    assert not report.acyclic


def test_definitions_agree_on_random_pairs():
    rng = random.Random(4)
    for _ in range(150):
        q, order = random_query(rng)
        assert disruption_free_iterative(q, order) == disruption_free_closed_form(q, order)


def test_structural_soundness_on_random_pairs():
    rng = random.Random(5)
    for _ in range(100):
        q, order = random_query(rng)
        h = hypergraph_of(q)
        bags = disruption_free_iterative(q, order)
        bag_h = Hypergraph.build(
            [h.sorted_vertices(b) for b in bags], vertices=h.vertices
        )
        assert hg.gyo_reduce(bag_h).acyclic
        assert hg.disruptive_trios(bag_h, order.variables) == []
        join_forest(bags, order)  # raises on violated running intersection
        pos = {v: i for i, v in enumerate(order.variables)}
        for _, vs in q.atoms:
            top = max(pos[v] for v in vs)
            assert set(vs) <= bags[top]


def test_trio_forces_iota_at_least_two_and_converse():
    rng = random.Random(6)
    seen_trio = seen_clean = 0
    for _ in range(120):
        q, order = random_query(rng, max_vars=6, max_atoms=6)
        iota, _ = incompatibility_number(q, order)
        trios = disruptive_trios(q, order)
        acyclic = hg.gyo_reduce(hypergraph_of(q)).acyclic
        if trios:
            seen_trio += 1
            assert iota >= 2
        if acyclic and not trios:
            seen_clean += 1
            assert iota == 1
    assert seen_trio > 10 and seen_clean > 10


def test_acyclic_queries_have_integral_bag_covers():
    rng = random.Random(7)
    checked = 0
    for _ in range(150):
        q, order = random_query(rng, max_vars=6, max_atoms=6)
        if not hg.gyo_reduce(hypergraph_of(q)).acyclic:
            continue
        checked += 1
        decomp = decompose(q, order)
        for cover in decomp.bag_cover:
            assert cover.total.denominator == 1
    assert checked > 30


def test_contained_bag_is_its_covering_childs_interface():
    # The build reads a bag inside a later bag off the keys of its first child
    # with one more variable; running intersection makes that child's interface the bag.
    contained = several = 0
    for seed in range(200):
        q, _ = random_query(random.Random(seed))
        for variables in islice(permutations(q.variables), 24):
            d = decompose(q, VariableOrder(variables))
            bags, links = d.bags, d.links
            for i, bag in enumerate(bags):
                later = [j for j in range(i + 1, len(bags)) if set(bag) <= set(bags[j])]
                covering = [c for c, _ in links[i] if len(bags[c]) == len(bag) + 1]
                assert bool(later) == bool(covering), (seed, variables, i)
                if covering:
                    contained += 1
                    several += len(covering) > 1
                    assert covering[0] == later[0], (seed, variables, i)
                    assert all(bags[c][:-1] == bag for c in covering), (seed, variables, i)
    assert contained > 5000 and several > 300  # 6,042 and 344


def test_decompose_cached_and_left_unchanged(tmp_path, capsys):
    q, order = parse_query(FIVE_TEXT)
    d = decompose(q, order)
    assert decompose(q, order) is d
    assert decompose(*parse_query(FIVE_TEXT)) is d  # equal query and order hit too
    parent = dict(d.parent)
    covers = [(dict(c.weights), c.total) for c in d.bag_cover]
    rng = random.Random(5)
    db = build_database(
        {
            sym: (["int"] * 2, sorted({(rng.randrange(5), rng.randrange(5)) for _ in range(20)}))
            for sym, _ in q.atoms
        }
    )
    for _ in range(2):
        build_index(q, order, db)
    qfile = tmp_path / "five.jq"
    qfile.write_text(FIVE_TEXT)
    assert main(["analyze", str(qfile), "--format", "json"]) == 0
    capsys.readouterr()
    assert decompose(q, order) is d
    assert d.parent == parent
    assert [(c.weights, c.total) for c in d.bag_cover] == covers
    other = decompose(q, VariableOrder(tuple(reversed(order.variables))))
    assert other is not d
    assert other.bags != d.bags
