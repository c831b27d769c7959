import random
from fractions import Fraction as F
from itertools import permutations, product
from operator import lt

import pytest

from lexjoin import SubQuery, agm_bound_holds, build_database, generic_join, naive_join, wcoj
from lexjoin.decomposition import fractional_edge_cover
from lexjoin.errors import InputError
from lexjoin.hypergraph import Hypergraph
from lexjoin.storage import Relation
from tests.randgen import random_subquery_instance


def triangle_db():
    return build_database(
        {
            "R": (["int", "int"], [(1, 2)]),
            "S": (["int", "int"], [(2, 3)]),
            "T": (["int", "int"], [(1, 3)]),
        }
    )


def views(db, output, atoms):
    """The subquery whose atoms are views of ``db``'s relations named in ``atoms``."""
    return SubQuery(output, tuple((db.relation(sym), vs) for sym, vs in atoms))


def triangle(db):
    return views(db, ("a", "b", "c"), (("R", ("a", "b")), ("S", ("b", "c")), ("T", ("a", "c"))))


def test_triangle_single_answer():
    sq = triangle(triangle_db())
    out = generic_join(sq)
    assert len(out) == 1
    assert naive_join(sq) == out


def test_empty_relation_gives_empty_join():
    db = build_database(
        {"R": (["int", "int"], [(1, 2)]), "S": (["int", "int"], []), "T": (["int", "int"], [(1, 3)])}
    )
    assert generic_join(triangle(db)) == []


def test_nullary_atom_is_a_condition():
    # E() holds no row, T() holds the empty row: joined with R(a) they give nothing and R.
    db = build_database({"R": (["int"], [(1,), (2,)]), "E": ([], []), "T": ([], [()])})
    for symbol, expected in (("E", 0), ("T", 2)):
        sq = views(db, ("a",), (("R", ("a",)), (symbol, ())))
        out = generic_join(sq)
        assert len(out) == expected
        assert out == naive_join(sq)


def test_unbound_symbol():
    # Symbols resolve to views in the database, never in the join.
    with pytest.raises(InputError, match="'Missing' not bound in the database"):
        triangle_db().relation("Missing")


def test_repeated_variable_atom():
    db = build_database({"R": (["int", "int"], [(1, 1), (1, 2), (3, 3)])})
    sq = views(db, ("x",), (("R", ("x", "x")),))
    out = generic_join(sq)
    assert out == naive_join(sq)
    assert len(out) == 2


def test_collapsed_views_match_rowwise_filter():
    # A view over distinct variables keeps the rows whose repeated columns agree, its
    # columns the first of each variable; checked against a filter over the rows.
    rng = random.Random(21)
    for _ in range(300):
        vs = tuple(rng.choice("xyz") for _ in range(rng.randint(1, 4)))
        rows = [tuple(rng.randrange(3) for _ in vs) for _ in range(rng.randrange(40))]
        rel, distinct = wcoj._collapse_repeats(Relation(len(vs), rows), vs)
        first = [vs.index(v) for v in distinct]
        expected = sorted({
            tuple(row[c] for c in first) for row in rows if all(row[i] == row[vs.index(v)] for i, v in enumerate(vs))
        })
        assert distinct == tuple(dict.fromkeys(vs)), vs
        assert (rel.arity, list(rel.rows)) == (len(distinct), expected), (vs, rows)
        assert rel.columns == [[row[k] for row in expected] for k in range(len(distinct))]


def in_order(rows, output, order):
    """``rows`` over ``output`` with their columns permuted into ``order``, sorted."""
    cols = [output.index(v) for v in order]
    return sorted(tuple(row[c] for c in cols) for row in rows)


def assert_every_order_matches_naive(sq):
    """Joined with each permutation of its output as the join order, ``sq`` gives the naive rows in that order."""
    expected = naive_join(sq)
    for order in permutations(sq.output):
        assert generic_join(SubQuery(order, sq.atoms)) == in_order(expected, sq.output, order), order


def test_join_order_does_not_change_result():
    rng = random.Random(12)
    for _ in range(30):
        assert_every_order_matches_naive(random_subquery_instance(rng))


def test_one_relation_behind_several_atoms():
    # R(a,b), R(b,c), R(c,a): each atom reads the one relation in its own column order.
    rng = random.Random(15)
    for _ in range(20):
        rows = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(1, 14))}
        r = build_database({"R": (["int", "int"], rows)}).relation("R")
        assert_every_order_matches_naive(
            SubQuery(("a", "b", "c"), ((r, ("a", "b")), (r, ("b", "c")), (r, ("c", "a"))))
        )


def random_views(rng, scopes, domain=4, max_rows=12):
    """The subquery over all variables of ``scopes``, one random int view per scope."""
    raw = {}
    for a, vs in enumerate(scopes):
        rows = {tuple(rng.randrange(domain) for _ in vs) for _ in range(rng.randint(1, max_rows))}
        raw[f"R{a}"] = (["int"] * len(vs), rows)
    output = tuple(dict.fromkeys(v for vs in scopes for v in vs))
    return views(build_database(raw), output, [(f"R{a}", vs) for a, vs in enumerate(scopes)])


# Scopes whose last variables, under some orders, each end one view of their own:
# the join emits the rest of a row as a product.
PRODUCT_TAILS = {
    "star3": [("z", "x1"), ("z", "x2"), ("z", "x3")],
    "star4": [("z", "x1"), ("z", "x2"), ("z", "x3"), ("z", "x4")],
    "repeated-variable": [("z", "x"), ("z", "y", "y")],
    "unary-arms": [("x",), ("y",), ("z", "x")],
}
# Tails that are no product: a view branching on two trailing variables, a
# trailing variable shared by two views, and the triangle LW3.
JOINED_TAILS = {
    "one-view-branches": [("z", "x", "y"), ("z",)],
    "shared-trailing": [("z", "x"), ("y", "x"), ("z", "y")],
    "lw3": [("x2", "x3"), ("x1", "x3"), ("x1", "x2")],
}


@pytest.mark.parametrize("case", sorted(PRODUCT_TAILS) + sorted(JOINED_TAILS))
def test_tails_match_naive_under_every_order(case):
    rng = random.Random(case)
    scopes = {**PRODUCT_TAILS, **JOINED_TAILS}[case]
    for _ in range(15):
        assert_every_order_matches_naive(random_views(rng, scopes))


def test_product_tail_is_one_call_per_head(monkeypatch):
    # The 3-star joined z first: one product of the three arms per z.
    calls = []

    def counted(*nodes):
        calls.append(len(nodes))
        return product(*nodes)

    arms = {i: [(z, x) for z in range(3) for x in range(i + 2)] for i in (1, 2, 3)}
    db = build_database({f"R{i}": (["int", "int"], rows) for i, rows in arms.items()})
    sq = views(db, ("z", "x1", "x2", "x3"), [(f"R{i}", ("z", f"x{i}")) for i in (1, 2, 3)])
    monkeypatch.setattr(wcoj, "product", counted)
    assert len(generic_join(sq)) == 3 * 3 * 4 * 5
    assert calls == [3, 3, 3]


def test_nullary_view_inside_a_tail():
    db = build_database(
        {
            "R": (["int", "int"], [(1, 2), (1, 3), (2, 4)]),
            "S": (["int"], [(5,), (6,)]),
            "E": ([], []),
            "T": ([], [()]),
        }
    )
    for symbol, expected in (("E", 0), ("T", 6)):
        sq = views(db, ("z", "x", "y"), (("R", ("z", "x")), (symbol, ()), ("S", ("y",))))
        assert len(naive_join(sq)) == expected
        assert_every_order_matches_naive(sq)


def test_rows_come_in_join_order_before_any_sort():
    # Each trie is filled in join order, so the join returns its rows strictly
    # increasing in its output: nothing sorts them, here or in the build.
    rng = random.Random(16)
    for _ in range(60):
        sq = random_subquery_instance(rng)
        for order in permutations(sq.output):
            out = generic_join(SubQuery(order, sq.atoms))
            assert type(out) is list, order
            assert all(map(lt, out, out[1:])), order
        expected = naive_join(sq)
        assert type(expected) is list
        assert all(map(lt, expected, expected[1:]))


def test_random_instances_match_naive():
    rng = random.Random(13)
    for _ in range(150):
        sq = random_subquery_instance(rng)
        assert generic_join(sq) == naive_join(sq)


def _agm_inputs(sq):
    # Optimal cover of the subquery's scope hypergraph; per edge take the
    # smallest relation realizing that scope.
    scopes = []
    for _, vs in sq.atoms:
        scope = []
        for v in vs:
            if v not in scope:
                scope.append(v)
        scopes.append(scope)
    h = Hypergraph.build(scopes, vertices=sq.output)
    cover = fractional_edge_cover(h)
    weights, sizes = [], []
    for edge, w in cover.weights.items():
        weights.append(w)
        sizes.append(min(len(rel) for rel, vs in sq.atoms if frozenset(vs) == edge))
    return weights, sizes


def test_agm_bound_on_random_instances():
    rng = random.Random(14)
    checked = 0
    for _ in range(120):
        sq = random_subquery_instance(rng)
        out = generic_join(sq)
        weights, sizes = _agm_inputs(sq)
        assert agm_bound_holds(len(out), weights, sizes)
        checked += 1
    assert checked == 120


def test_agm_bound_detects_violation():
    assert not agm_bound_holds(10, [F(1, 2), F(1, 2)], [3, 3])
    assert agm_bound_holds(3, [F(1, 2), F(1, 2)], [3, 3])


def test_subquery_validation():
    unary, binary = Relation(1, [(1,)]), Relation(2, [(1, 2)])
    with pytest.raises(InputError, match="no output variables"):
        SubQuery((), ())
    with pytest.raises(InputError, match=r"\['b'\] appear in no atom"):
        SubQuery(("a", "b"), ((unary, ("a",)),))
    with pytest.raises(InputError, match=r"\['b'\] missing from the output"):
        SubQuery(("a",), ((binary, ("a", "b")),))
    with pytest.raises(InputError, match="repeat a variable"):
        SubQuery(("a", "a"), ((unary, ("a",)),))
    with pytest.raises(InputError, match="does not match relation arity 1"):
        SubQuery(("a", "b"), ((unary, ("a", "b")),))
    with pytest.raises(InputError, match="not a relation view"):
        SubQuery(("a",), (("R", ("a",)),))


def test_triangle_decoded_values():
    db = triangle_db()
    out = generic_join(triangle(db))
    decoded = [tuple(db.dictionary.decode(c) for c in row) for row in out]
    assert decoded == [(1, 2, 3)]
