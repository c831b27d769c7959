import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from lexjoin import SubQuery, agm_bound_holds, build_database, generic_join, naive_join
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
    out = generic_join(sq, ("a", "b", "c"))
    assert len(out) == 1
    assert naive_join(sq).rows == out.rows


def test_empty_relation_gives_empty_join():
    db = build_database(
        {"R": (["int", "int"], [(1, 2)]), "S": (["int", "int"], []), "T": (["int", "int"], [(1, 3)])}
    )
    assert len(generic_join(triangle(db), ("a", "b", "c"))) == 0


def test_nullary_atom_is_a_condition():
    # E() holds no row, T() holds the empty row: joined with R(a) they give nothing and R.
    db = build_database({"R": (["int"], [(1,), (2,)]), "E": ([], []), "T": ([], [()])})
    for symbol, expected in (("E", 0), ("T", 2)):
        sq = views(db, ("a",), (("R", ("a",)), (symbol, ())))
        out = generic_join(sq, ("a",))
        assert len(out) == expected
        assert out.rows == naive_join(sq).rows


def test_unbound_symbol():
    # Symbols resolve to views in the database, never in the join.
    with pytest.raises(InputError, match="'Missing' not bound in the database"):
        triangle_db().relation("Missing")


def test_repeated_variable_atom():
    db = build_database({"R": (["int", "int"], [(1, 1), (1, 2), (3, 3)])})
    sq = views(db, ("x",), (("R", ("x", "x")),))
    out = generic_join(sq, ("x",))
    assert out.rows == naive_join(sq).rows
    assert len(out) == 2


def test_join_order_does_not_change_result():
    rng = random.Random(12)
    for _ in range(30):
        sq = random_subquery_instance(rng)
        expected = naive_join(sq).rows
        for order in permutations(sq.output):
            assert generic_join(sq, order).rows == expected


def test_one_relation_behind_several_atoms():
    # R(a,b), R(b,c), R(c,a): each atom reads the one relation in its own column order.
    rng = random.Random(15)
    for _ in range(20):
        rows = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(1, 14))}
        r = build_database({"R": (["int", "int"], rows)}).relation("R")
        sq = SubQuery(("a", "b", "c"), ((r, ("a", "b")), (r, ("b", "c")), (r, ("c", "a"))))
        expected = naive_join(sq).rows
        for order in permutations(sq.output):
            assert generic_join(sq, order).rows == expected


def test_random_instances_match_naive():
    rng = random.Random(13)
    for _ in range(150):
        sq = random_subquery_instance(rng)
        assert generic_join(sq, sq.output).rows == naive_join(sq).rows


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
        out = generic_join(sq, sq.output)
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
    out = generic_join(triangle(db), ("a", "b", "c"))
    decoded = [tuple(db.dictionary.decode(c) for c in row) for row in out.rows]
    assert decoded == [(1, 2, 3)]
