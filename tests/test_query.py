import random

import pytest

from lexjoin import JoinQuery, VariableOrder
from lexjoin.errors import InputError, LexjoinError, ParseError
from lexjoin.query import (
    disruptive_trios,
    format_query,
    hypergraph_of,
    parse_query,
)
from tests.randgen import mutate, random_query

FIVE_TEXT = "Q(x1,x2,x3,x4,x5) :- R1(x1,x5), R2(x2,x4), R3(x3,x4), R4(x3,x5)."


def test_parse_five_variable_query():
    q, order = parse_query(FIVE_TEXT)
    assert q.name == "Q"
    assert q.variables == ("x1", "x2", "x3", "x4", "x5")
    assert q.atoms[0] == ("R1", ("x1", "x5"))
    assert order.variables == q.variables


def test_parse_single_atom():
    q, order = parse_query("Q(x) :- R(x).")
    assert q.atoms == (("R", ("x",)),)
    assert order.variables == ("x",)


def test_projection_rejected():
    with pytest.raises(ParseError) as err:
        parse_query("Q(x) :- R(x,y).")
    assert "projection" in str(err.value)


def test_head_variable_must_occur():
    with pytest.raises(ParseError):
        parse_query("Q(x,y) :- R(x).")


def test_arity_conflict_on_repeated_symbol():
    with pytest.raises(ParseError):
        parse_query("Q(a,b,c) :- R(a,b), R(c).")


def test_self_join_accepted():
    q, _ = parse_query("Q(a,b,c) :- R(a,b), R(b,c).")
    assert len(q.atoms) == 2
    assert not q.is_self_join_free()
    assert len(hypergraph_of(q).edges) == 2


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_query("Q(x) :-\n R(x)")
    assert err.value.line == 2


def test_comments_and_whitespace():
    text = "# header\nQ(x, y) :- R(x, y). # trailing\n# done\n"
    q, _ = parse_query(text)
    assert q.atoms == (("R", ("x", "y")),)


def test_order_clause_overrides_head():
    q, order = parse_query("Q(x,y) :- R(x,y). ORDER y, x")
    assert q.variables == ("x", "y")
    assert order.variables == ("y", "x")


def test_order_clause_must_be_permutation():
    with pytest.raises(ParseError):
        parse_query("Q(x,y) :- R(x,y). ORDER y, y")
    with pytest.raises(ParseError):
        parse_query("Q(x,y) :- R(x,y). ORDER x")


def test_duplicate_scope_atoms_collapse_in_hypergraph():
    q, _ = parse_query("Q(a,b) :- R(a,b), S(b,a).")
    assert len(hypergraph_of(q).edges) == 1


def test_roundtrip_random_queries():
    rng = random.Random(17)
    for _ in range(80):
        q, order = random_query(rng)
        text = format_query(q, order)
        q2, order2 = parse_query(text)
        assert q2 == q
        assert order2 == order


def test_fuzzed_query_text_fails_cleanly():
    # Only LexjoinError may escape the parser, whatever the text.
    seeds = [
        FIVE_TEXT,
        "Q(x,y,z) :- R(x,y), S(y,z), R(z,z).\nORDER z, y, x  # c",
        "A(_é) :- B(_é).",
    ]
    tokens = [b"(", b")", b",", b".", b":-", b"ORDER", b"#", b"\n", b" ", b"x", "é".encode()]
    rng = random.Random(5)
    parsed = 0
    for _ in range(5000):
        data = mutate(rng, rng.choice(seeds).encode("utf-8"), tokens)
        try:
            parse_query(data.decode("utf-8", errors="replace"))
        except LexjoinError:
            continue
        parsed += 1
    assert 0 < parsed < 5000


def test_trio_definition_instance():
    q, order = parse_query("Q(x1,x2,x3) :- R(x1,x3), S(x2,x3).")
    assert disruptive_trios(q, order) == [("x1", "x2", "x3")]


def test_five_variable_query_has_expected_trio():
    q, order = parse_query(FIVE_TEXT)
    assert ("x1", "x3", "x5") in disruptive_trios(q, order)


def test_path_query_has_no_trio():
    q, order = parse_query("Q(x1,x2,x3) :- R(x1,x2), S(x2,x3).")
    assert disruptive_trios(q, order) == []


def _naive_trios(q: JoinQuery, order: VariableOrder):
    # Independent reference: scan atoms directly per variable pair.
    def share(u, v):
        return any(u in vs and v in vs for _, vs in q.atoms)

    vs = order.variables
    out = []
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            for k in range(j + 1, len(vs)):
                a, b, c = vs[i], vs[j], vs[k]
                if not share(a, b) and share(a, c) and share(b, c):
                    out.append((a, b, c))
    return out


def test_trios_agree_with_naive_scan():
    rng = random.Random(23)
    for _ in range(120):
        q, order = random_query(rng)
        assert disruptive_trios(q, order) == _naive_trios(q, order)


def test_query_validation_direct_construction():
    with pytest.raises(InputError):
        JoinQuery("Q", (), ("x",))
    with pytest.raises(InputError):
        JoinQuery("Q", (("R", ("x",)),), ("x", "x"))
