import random

import pytest

from lexjoin import SubQuery, build_database, naive_join
from lexjoin.errors import InputError
from lexjoin.oracle import materialize_codes, materialize_sorted
from lexjoin.query import parse_query
from tests.randgen import random_database, random_query


def test_cross_product_sorted():
    q, order = parse_query("Q(x,y) :- R(x), S(y).")
    db = build_database({"R": (["int"], [(2,), (1,)]), "S": (["int"], [(1,), (2,)])})
    result = materialize_sorted(q, order, db)
    assert result.rows == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert result.count == 4


def test_empty_relation():
    q, order = parse_query("Q(x,y) :- R(x), S(y).")
    db = build_database({"R": (["int"], []), "S": (["int"], [(1,)])})
    assert materialize_sorted(q, order, db).count == 0


def test_result_strictly_increasing_under_order():
    rng = random.Random(21)
    for _ in range(40):
        q, order = random_query(rng, max_vars=4, max_atoms=4)
        db = random_database(rng, q, domain=4, max_rows=12)
        codes = materialize_codes(q, order, db)
        for a, b in zip(codes, codes[1:]):
            assert a < b


def test_order_clause_changes_sort():
    q, order = parse_query("Q(x,y) :- R(x,y). ORDER y, x")
    db = build_database({"R": (["int", "int"], [(1, 9), (2, 5), (3, 9)])})
    result = materialize_sorted(q, order, db)
    # Sorted by y first, then x; rows still reported as (x, y).
    assert result.rows == ((2, 5), (1, 9), (3, 9))


def test_agreement_with_domain_product_filter():
    rng = random.Random(22)
    for _ in range(60):
        q, order = random_query(rng, max_vars=4, max_atoms=4)
        db = random_database(rng, q, domain=4, max_rows=12)
        via_hash = set(materialize_codes(q, order, db))
        sq = SubQuery(q.variables, tuple((db.relation(sym), vs) for sym, vs in q.atoms))
        pos = {v: i for i, v in enumerate(q.variables)}
        via_product = {
            tuple(row[pos[v]] for v in order.variables)
            for row in naive_join(sq)
        }
        assert via_hash == via_product


def test_cap_is_loud():
    q, order = parse_query("Q(x,y) :- R(x), S(y).")
    db = build_database(
        {"R": (["int"], [(i,) for i in range(40)]), "S": (["int"], [(i,) for i in range(40)])}
    )
    with pytest.raises(InputError):
        materialize_sorted(q, order, db, cap=100)


def test_self_join_uses_one_relation():
    q, order = parse_query("Q(a,b,c) :- R(a,b), R(b,c).")
    db = build_database({"R": (["int", "int"], [(1, 2), (2, 3)])})
    result = materialize_sorted(q, order, db)
    assert result.rows == ((1, 2, 3),)
