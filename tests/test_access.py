import random
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction as F
from functools import partial
from itertools import permutations
from operator import itemgetter

import pytest

from lexjoin import VariableOrder, access, build_database, storage
from lexjoin.access import build_index
from lexjoin.errors import InputError, NotAnAnswerError, OutOfBoundsError
from lexjoin.hardness import prefix_block
from lexjoin.index_io import load_index, save_index
from lexjoin.oracle import materialize_codes, materialize_sorted
from lexjoin.query import parse_query
from tests.randgen import random_database, random_query

FIVE_TEXT = "Q(x1,x2,x3,x4,x5) :- R1(x1,x5), R2(x2,x4), R3(x3,x4), R4(x3,x5)."


def cross_index():
    q, order = parse_query("Q(x,y) :- R(x), S(y).")
    db = build_database({"R": (["int"], [(1,), (2,)]), "S": (["int"], [(1,), (2,)])})
    return build_index(q, order, db)


def built_random(seed, **kwargs):
    rng = random.Random(seed)
    q, order = random_query(rng, **kwargs)
    db = random_database(rng, q, domain=5, max_rows=15)
    return q, order, db, build_index(q, order, db)


def test_cross_product_golden():
    ix = cross_index()
    assert ix.count() == 4
    assert ix.access(0) == (1, 1)
    assert ix.access(2) == (2, 1)
    assert list(ix.enumerate_range(0, 4)) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_access_out_of_bounds():
    ix = cross_index()
    with pytest.raises(OutOfBoundsError):
        ix.access(4)
    with pytest.raises(OutOfBoundsError):
        ix.access(-1)


def test_code_calls_reject_malformed_arguments():
    ix = cross_index()
    for j in ("1", 1.0, None):
        with pytest.raises(InputError, match="answer index must be an integer"):
            ix.access_codes(j)
    for codes in ([], [1], [1, 1, 1]):
        with pytest.raises(InputError, match=f"expected 2 values, got {len(codes)}"):
            ix.rank_codes(codes)
    with pytest.raises(InputError, match="answer codes must be integers"):
        ix.rank_codes(["a", "b"])
    with pytest.raises(InputError, match="answer codes must be integers"):
        ix.prefix_range(["a"])
    for call, codes in ((ix.rank_codes, [0.0, 1.0]), (ix.prefix_range, [0.5])):
        with pytest.raises(InputError, match="answer codes must be integers"):
            call(codes)
    q, order = parse_query("Q(x) :- R(x).")
    empty = build_index(q, order, build_database({"R": (["int"], [])}))
    for call in (empty.prefix_range, empty.rank_codes):
        with pytest.raises(InputError, match="answer codes must be integers"):
            call(["a"])
    for index in (ix, empty):
        for call in (index.rank, index.rank_codes, index.prefix_range, index.test_membership, partial(prefix_block, index)):
            for arg in (5, None):
                with pytest.raises(InputError, match="expected a sequence of values"):
                    call(arg)


def test_empty_result_count_zero():
    q, order = parse_query("Q(x,y) :- R(x,y), S(y).")
    db = build_database({"R": (["int", "int"], [(1, 2)]), "S": (["int"], [])})
    ix = build_index(q, order, db)
    assert ix.count() == 0
    with pytest.raises(OutOfBoundsError):
        ix.access(0)


def test_oracle_equivalence_random_instances():
    for seed in range(25):
        q, order, db, ix = built_random(seed, max_vars=5, max_atoms=5)
        expected = materialize_sorted(q, order, db)
        assert ix.count() == expected.count
        for j, row in enumerate(expected.rows):
            assert ix.access(j) == row
            assert ix.rank(row) == j


def test_prefix_range_matches_oracle(tmp_path):
    # Built and loaded copies walk alike.  Every stored span is read by the
    # rank walk of some answer, as every group extends to one, so the spans
    # count the child steps of both kinds that the walks below take.
    absent, steps = 0, Counter()
    for seed in range(200):
        q, order, db, built = built_random(seed, max_vars=5, max_atoms=5)
        save_index(built, tmp_path / "ix.idx")
        loaded = load_index(tmp_path / "ix.idx")
        rows = materialize_codes(q, order, db)
        n = len(order.variables)
        steps.update(type(span).__name__ for spans in built.spans if spans for span in spans)
        for ix in (built, loaded):
            rng = random.Random(seed)
            pool = range(-1, len(db.dictionary) + 1)
            for w in range(n + 1):
                heads = [row[:w] for row in rows]
                probes = set(heads) | {tuple(rng.choice(pool) for _ in range(w)) for _ in range(20)}
                for p in probes:
                    start, stop = bisect_left(heads, p), bisect_right(heads, p)
                    assert ix.prefix_range(p) == (start, stop)
                    absent += start == stop
            for j, row in enumerate(rows):
                assert ix.rank_codes(row) == ix.prefix_range(row)[0] == j
            with pytest.raises(InputError):
                ix.prefix_range((0,) * (n + 1))
    assert absent > 0
    assert steps["int"] >= 20 and steps["tuple"] >= 20, steps  # a slice's start; a shared head's union


def test_strict_monotonicity():
    q, order, db, ix = built_random(99, max_vars=4, max_atoms=4)
    previous = None
    for j in range(ix.count()):
        codes = ix.access_codes(j)
        assert previous is None or previous < codes
        previous = codes


def test_rank_rejects_non_answers():
    ix = cross_index()
    with pytest.raises(NotAnAnswerError):
        ix.rank((1, 99))
    with pytest.raises(NotAnAnswerError):
        ix.rank((99, 1))
    with pytest.raises(NotAnAnswerError):  # no dictionary holds an unhashable value
        ix.rank(([1], 1))
    with pytest.raises(InputError):
        ix.rank((1,))


def assert_rank_walk(ix, t, answers):
    """rank_codes, prefix_range and test_membership agree with the answer set on codes t."""
    start, stop = ix.prefix_range(t)
    member = ix.test_membership(tuple(ix.dictionary.decode(t[c]) for c in ix.head_cols))
    if t in answers:
        assert ix.rank_codes(t) == start == stop - 1 and member
    else:
        with pytest.raises(NotAnAnswerError):
            ix.rank_codes(t)
        assert start == stop and not member
    return t in answers


def test_rank_rejects_non_answers_whose_values_are_encoded(tmp_path):
    # Change one value of an answer, at the first, a middle or the last
    # variable, to another code of its type: every value stays in the
    # dictionary, so rank gets past encoding and the walk must reject it.
    members = non_members = 0
    for seed in range(60):
        q, order, db, ix = built_random(seed)
        save_index(ix, tmp_path / "ix.idx")
        loaded = load_index(tmp_path / "ix.idx")
        rows = materialize_codes(q, order, db)
        answers = set(rows)
        n = len(order.variables)
        rng = random.Random(seed)
        for row in rng.sample(rows, min(5, len(rows))):
            for p in sorted({0, n // 2, n - 1}):
                pool = db.dictionary.pool_codes(ix.var_types[order.variables[p]])
                others = [c for c in pool if c != row[p]]
                if not others:
                    continue
                t = (*row[:p], rng.choice(others), *row[p + 1 :])
                for index in (ix, loaded):
                    if assert_rank_walk(index, t, answers):
                        members += 1
                    else:
                        non_members += 1
    assert members >= 20 and non_members >= 200, (members, non_members)


def test_rank_rejects_encoded_tuple_when_one_root_is_empty(tmp_path):
    # Two roots, S empty: no answer, although 1 and 2 are encoded (from R).
    q, order = parse_query("Q(x,y) :- R(x), S(y).")
    db = build_database({"R": (["int"], [(1,), (2,)]), "S": (["int"], [])})
    ix = build_index(q, order, db)
    save_index(ix, tmp_path / "zero.idx")
    for index in (ix, load_index(tmp_path / "zero.idx")):
        assert index.count() == 0
        for t in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert not assert_rank_walk(index, t, set())
        with pytest.raises(NotAnAnswerError):
            index.rank((1, 2))


def test_rank_of_cross_product_pair():
    ix = cross_index()
    assert ix.rank((1, 2)) == 1


def test_enumerate_slices():
    ix = cross_index()
    assert list(ix.enumerate_range(1, 3)) == [(1, 2), (2, 1)]
    assert list(ix.enumerate_range(2, 2)) == []
    with pytest.raises(InputError):
        list(ix.enumerate_range(0, 5))


def test_sample_whole_result_is_the_answer_set():
    ix = cross_index()
    sample = ix.sample_without_replacement(4, seed=1)
    assert sorted(sample) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert ix.sample_without_replacement(0, seed=1) == []
    with pytest.raises(InputError):
        ix.sample_without_replacement(5, seed=1)


def test_sample_is_seed_deterministic():
    q, order, db, ix = built_random(3, max_vars=4, max_atoms=4)
    if ix.count() >= 2:
        a = ix.sample_without_replacement(2, seed=42)
        b = ix.sample_without_replacement(2, seed=42)
        assert a == b


def test_quantile_endpoints_and_median():
    ix = cross_index()
    assert ix.quantile(0) == ix.access(0)
    assert ix.quantile(1) == ix.access(3)
    assert ix.quantile(F(1, 2)) == ix.access(1)
    with pytest.raises(InputError):
        ix.quantile(2)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda ix: ix.quantile(float("nan")), id="quantile-nan"),
        pytest.param(lambda ix: ix.quantile(float("inf")), id="quantile-inf"),
        pytest.param(lambda ix: ix.quantile("abc"), id="quantile-text"),
        pytest.param(lambda ix: ix.quantile(f"1e-{sys.get_int_max_str_digits() + 1}"), id="quantile-exponent"),
        pytest.param(lambda ix: ix.sample_without_replacement(1.5, 0), id="sample-float"),
        pytest.param(lambda ix: ix.sample_without_replacement("2", 0), id="sample-text"),
        pytest.param(lambda ix: ix.sample_without_replacement(1, [1]), id="sample-seed"),
        pytest.param(lambda ix: ix.enumerate_range(-1, 5), id="enumerate-negative-uniterated"),
    ],
)
def test_conveniences_reject_bad_arguments(call):
    # Each raises InputError at the call, as access_codes does, not a bare
    # ValueError, OverflowError or TypeError, and not only once iterated.
    with pytest.raises(InputError):
        call(cross_index())


def test_quantile_empty_result():
    q, order = parse_query("Q(x) :- R(x).")
    db = build_database({"R": (["int"], [])})
    ix = build_index(q, order, db)
    with pytest.raises(OutOfBoundsError):
        ix.quantile(F(1, 2))


def test_membership_accepts_answers_and_rejects_others():
    q, order, db, ix = built_random(5, max_vars=4, max_atoms=4)
    expected = set(materialize_sorted(q, order, db).rows)
    for row in list(expected)[:50]:
        assert ix.test_membership(row)
    assert not ix.test_membership(tuple([999] * len(q.variables)))
    assert not ix.test_membership(({2: 2},) * len(q.variables))  # no dictionary holds an unhashable value
    rng = random.Random(0)
    for _ in range(50):
        t = tuple(rng.randrange(5) for _ in q.variables)
        assert ix.test_membership(t) == (t in expected)


def test_counting_consistency_at_the_top_level():
    q, order, db, ix = built_random(8, max_vars=5, max_atoms=5)
    total = 1
    for i in ix.roots:  # a root has one group or none
        total *= sum(prefix[-1] for _, prefix in ix.tables[i].groups.values())
    assert total == ix.count()


def test_full_reduction_keeps_exactly_the_answer_projections():
    # Every stored bag row extends to an answer, and every answer's projection
    # onto a bag is stored.  Empty results are left out: with several roots,
    # a tree keeps its rows even when another tree has no answers.
    checked = 0
    for seed in range(120):
        q, order, db, ix = built_random(seed)
        rows = materialize_codes(q, order, db)
        if not rows:
            continue
        checked += 1
        for bag, table in zip(ix.bags, ix.tables):
            cols = [order.position(v) for v in bag]
            stored = {key + (v,) for key, (values, _) in table.groups.items() for v in values}
            assert stored == {tuple(row[c] for c in cols) for row in rows}, (seed, bag)
    assert checked >= 40


def assert_weights_count_answer_projections(ix, rows):
    """Each candidate weighs the distinct answers it extends to below its bag.

    Bag i owns order position i, and its subtree the positions of the bags
    under it.  Given the bag's values, a candidate's weight is the number of
    distinct projections of the answers onto the positions its subtree owns,
    and the stored bag rows are exactly the answers' projections.
    """
    owned = [[i] for i in range(len(ix.bags))]
    for i in reversed(range(len(ix.bags))):
        for c, _ in ix.links[i]:
            owned[i] += owned[c]
    for i, (bag, table) in enumerate(zip(ix.bags, ix.tables)):
        cols = [ix.order.position(v) for v in bag]  # both hold i, so the getter makes tuples
        ends = set(map(itemgetter(*cols, *owned[i]), rows))
        stored = {}
        for key, (values, prefix) in table.groups.items():
            for v, before, after in zip(values, [0, *prefix], prefix):
                stored[(*key, v)] = after - before
        assert stored == Counter(end[: len(cols)] for end in ends), bag
    assert ix.stats["bag_rows"] == [sum(map(len, (vs for vs, _ in t.groups.values()))) for t in ix.tables]
    assert ix.count() == len(rows)


def test_count_and_prune_match_per_candidate_reference(monkeypatch):
    # Build drops a candidate with no group in some child bag, leaves up, and
    # takes only the child groups its parents reach, roots down.  Both occur.
    real_filter, real_derive, dropped, pruned = access._in_child, access.derive_index, [], []

    def filter_spy(groups, cols, child):
        kept = real_filter(groups, cols, child)
        dropped.append(sum(map(len, kept.values())) < sum(map(len, groups.values())))
        return kept

    def take_spy(take):  # asks build's take for a bag's whole map, then picks the reached keys
        def whole_then_reached(i, keys):
            groups = take(i, None)
            pruned.append(keys is not None and len(keys) < len(groups))
            return groups if keys is None else {key: groups[key] for key in keys}

        return whole_then_reached

    monkeypatch.setattr(access, "_in_child", filter_spy)
    monkeypatch.setattr(access, "derive_index", lambda decomp, take, *rest: real_derive(decomp, take_spy(take), *rest))
    checked = builds_dropping = builds_pruning = 0
    for seed in range(150):
        dropped.clear()
        pruned.clear()
        q, order, db, ix = built_random(seed)
        rows = materialize_codes(q, order, db)
        if rows:  # with several roots, a tree keeps its groups when another has none
            checked += 1
            assert_weights_count_answer_projections(ix, rows)
        else:
            assert ix.count() == 0, seed
        builds_dropping += any(dropped)
        builds_pruning += any(pruned)
    assert checked >= 40 and builds_dropping >= 10 and builds_pruning >= 10, (checked, builds_dropping, builds_pruning)


def test_prune_drops_unreached_groups_in_cascade(tmp_path):
    # y = 9 is in S but in no R row: bag {y, z}'s group 9 is reached by no
    # candidate of bag {x, y}, and bag {z, w}'s group 10 only through it.
    q, order = parse_query("Q(x,y,z,w) :- R(x,y), S(y,z), T(z,w).")
    db = build_database(
        {
            "R": (["int", "int"], [(1, 2), (1, 3), (4, 3)]),
            "S": (["int", "int"], [(2, 5), (3, 5), (3, 6), (9, 10)]),
            "T": (["int", "int"], [(5, 7), (6, 7), (6, 8), (10, 11)]),
        }
    )
    ix = build_index(q, order, db)
    assert ix.bags == (("x",), ("x", "y"), ("y", "z"), ("z", "w"))
    c = lambda *vs: [db.dictionary.encode("int", v) for v in vs]  # noqa: E731
    assert [t.groups for t in ix.tables] == [
        {(): (c(1, 4), [4, 7])},
        {(*c(1),): (c(2, 3), [1, 4]), (*c(4),): (c(3), [3])},
        {(*c(2),): (c(5), [1]), (*c(3),): (c(5, 6), [1, 3])},
        {(*c(5),): (c(7), [1]), (*c(6),): (c(7, 8), [1, 2])},
    ]
    assert_weights_count_answer_projections(ix, materialize_codes(q, order, db))
    path = tmp_path / "q.idx"
    save_index(ix, path)
    loaded = load_index(path)
    assert loaded.tables == ix.tables
    assert loaded.stats["bag_rows"] == ix.stats["bag_rows"] == [2, 3, 3, 3]


def test_reached_merges_candidates_per_head():
    # cols (1,) are not a prefix of the parent key, so heads 5, 6, 3 arrive
    # out of key order; head 5 is named by two parent keys with overlapping
    # candidates, and a head named once gets that key's own list.
    once = [7, 9]
    groups = [((1, 5), [7, 8]), ((1, 6), once), ((2, 3), [1]), ((2, 5), [6, 8])]
    heads = access.reached(groups, (1,))
    assert heads == {(5,): ([6, 7, 8], [0, 3]), (6,): ([7, 9], [1]), (3,): ([1], [2])}
    assert list(heads) == [(5,), (6,), (3,)]
    assert heads[(6,)][0] is once
    assert access.reached(groups, ()) == {(): ([1, 6, 7, 8, 9], [0, 1, 2, 3])}
    assert access.reached(groups, (0, 1)) == {key: (values, [g]) for g, (key, values) in enumerate(groups)}


def test_reached_keys_for_build_and_load(tmp_path):
    # Bag (a, b, c) links to bag (b, c, d) at column 1 of its key (a, b), so
    # heads b arrive out of key order, and b = 5 gets c from a = 1 and a = 2.
    # S's (b, c) pairs (3, 2), (4, 7) and (5, 9) are in no R row: unreached.
    q, order = parse_query("Q(a,b,c,d) :- R(a,b,c), S(b,c,d).")
    r = [(1, 5, 7), (1, 5, 8), (1, 6, 7), (1, 6, 9), (2, 3, 1), (2, 5, 6), (2, 5, 8)]
    s = [(5, 6, 0), (5, 7, 0), (5, 8, 1), (6, 7, 2), (6, 9, 2), (3, 1, 3)]
    unreached = [(3, 2, 4), (4, 7, 5), (5, 9, 6)]
    db = build_database({"R": (["int"] * 3, r), "S": (["int"] * 3, s + unreached)})
    ix = build_index(q, order, db)
    assert ix.bags[2:] == (("a", "b", "c"), ("b", "c", "d")) and ix.links[2] == ((3, (1,)),)
    code = lambda v: db.dictionary.encode("int", v)  # noqa: E731
    named = sorted({(code(b), code(c)) for _, b, c in r})
    heads = access.reached(((k, vs) for k, (vs, _) in ix.tables[2].groups.items()), (1,))
    assert list(heads) != sorted(heads)
    assert [(*head, v) for head, (vs, _) in sorted(heads.items()) for v in vs] == named
    assert list(ix.tables[3].groups) == named
    assert ix.stats["bag_rows"] == [2, 4, 7, 6]
    assert_weights_count_answer_projections(ix, materialize_codes(q, order, db))
    save_index(ix, tmp_path / "q.idx")
    loaded = load_index(tmp_path / "q.idx")
    assert list(loaded.tables[3].groups) == named
    assert loaded.tables == ix.tables
    assert loaded.stats["bag_rows"] == ix.stats["bag_rows"]
    assert materialize_codes(q, order, db) == list(map(ix.access_codes, range(ix.count())))


# A joined bag takes a view of every atom inside it, as well as of each atom
# meeting it in a positive cover edge: the two atoms of a self-join share one
# Relation yet are two views.  Under four orders, such as (a, c, x, b), the
# last case's bag {a, c, x} has the cover edge {a, x}, which only R spans.
# In "two-atoms-one-variable" the joined bag has no interface: every row
# falls under the empty head.
SEMIJOIN_CASES = {
    "self-join": (
        "Q(x,y) :- R(x,y), R(y,x).",
        {"R": [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 4), (4, 5), (5, 1)]},
    ),
    "atom-inside-wider-atom": (
        "Q(x,y,z) :- R(x,y,z), S(x,y).",
        {
            "R": [(1, 1, 1), (1, 2, 3), (2, 1, 1), (2, 2, 2), (3, 1, 2)],
            "S": [(1, 2), (2, 2), (3, 3)],
        },
    ),
    "two-atoms-one-scope": (
        "Q(x,y) :- R(x,y), S(x,y).",
        {"R": [(1, 1), (1, 2), (2, 1), (3, 3)], "S": [(1, 2), (2, 1), (2, 2), (3, 1)]},
    ),
    "two-atoms-one-variable": (
        "Q(x) :- R(x), S(x).",
        {"R": [(1,), (2,), (3,)], "S": [(2,), (3,), (4,)]},
    ),
    "partial-atom-covers": (
        "Q(a,b,c,x) :- R(a,b,x), S(x,c).",
        {
            "R": [(1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 3), (3, 3, 2)],
            "S": [(1, 1), (1, 2), (2, 3), (4, 1)],
        },
    ),
}


@pytest.mark.parametrize("case", sorted(SEMIJOIN_CASES))
def test_semijoin_rule_matches_oracle(case):
    text, relations = SEMIJOIN_CASES[case]
    q, _ = parse_query(text)
    db = build_database({sym: (["int"] * len(rows[0]), rows) for sym, rows in relations.items()})
    for variables in permutations(q.variables):
        order = VariableOrder(variables)
        ix = build_index(q, order, db)
        expected = materialize_codes(q, order, db)
        assert expected, (case, variables)
        assert [ix.access_codes(j) for j in range(ix.count())] == expected, (case, variables)
        if variables == q.variables:  # the one maximal bag joins both atoms
            assert ix.stats["multiatom_joins"] == 1, case


def test_randgen_builds_call_no_semijoin(monkeypatch):
    calls = []
    real = storage.semijoin
    monkeypatch.setattr(storage, "semijoin", lambda *args: calls.append(args) or real(*args))
    for seed in range(400):
        rng = random.Random(seed)
        q, order = random_query(rng)
        db = random_database(rng, q)
        ix = build_index(q, order, db)
        if seed % 20 == 0:
            expected = materialize_codes(q, order, db)
            assert [ix.access_codes(j) for j in range(ix.count())] == expected, seed
    assert calls == []


# A bag inside a later bag takes its rows from the keys of its first child
# with one more variable, and is filtered against its other children.  In
# "container-not-next" under order (a, d, b, c), bag {a, d} lies inside the
# joined bag {a, c, d}, its child, rather than inside the next bag {b, d}.  In
# "two-covering-children" under (a, b, c), root {a} has two such children,
# and R holds an a that S lacks, so the second child's filter drops a row.
CONTAINED_CASES = {
    "star3": "Q(x1,x2,x3,z) :- R1(x1,z), R2(x2,z), R3(x3,z).",
    "self-join-triangle": "Q(x,y,z) :- R(x,y), R(y,z), R(z,x).",
    "container-not-next": "Q(a,b,c,d) :- R(a,c), S(b,d), T(c,d).",
    "two-covering-children": "Q(a,b,c) :- R(a,b), S(a,c).",
}


@pytest.mark.parametrize("case", sorted(CONTAINED_CASES))
def test_contained_bags_match_oracle(case):
    q, _ = parse_query(CONTAINED_CASES[case])
    rng = random.Random(case)
    db = build_database(
        {
            sym: (["int"] * len(vs), sorted({(rng.randrange(4), rng.randrange(4)) for _ in range(10)}))
            for sym, vs in q.atoms
        }
    )
    for variables in permutations(q.variables):
        order = VariableOrder(variables)
        ix = build_index(q, order, db)
        expected = materialize_codes(q, order, db)
        assert expected, (case, variables)
        assert [ix.access_codes(j) for j in range(ix.count())] == expected, (case, variables)
    if case == "container-not-next":
        ix = build_index(q, VariableOrder(("a", "d", "b", "c")), db)
        assert ix.bags == (("a",), ("a", "d"), ("d", "b"), ("a", "d", "c"))
    if case == "two-covering-children":
        ix = build_index(q, VariableOrder(("a", "b", "c")), db)
        assert ix.links[0] == ((1, ()), (2, ()))
        assert {a for a, _ in db.relation("R").rows} - {a for a, _ in db.relation("S").rows}
    if case == "star3":
        # Worst order: only the maximal bag {x1, x2, x3, z} is joined.
        ix = build_index(q, VariableOrder(("x1", "x2", "x3", "z")), db)
        assert ix.stats["multiatom_joins"] == 1


def test_cyclic_query_with_trios_full_walk():
    q, order = parse_query(FIVE_TEXT)
    rng = random.Random(31)
    raw = {}
    for sym, vs in q.atoms:
        rows = {tuple(rng.randrange(5) for _ in vs) for _ in range(30)}
        raw[sym] = (["int"] * len(vs), sorted(rows))
    db = build_database(raw)
    ix = build_index(q, order, db)
    expected = materialize_sorted(q, order, db)
    assert ix.count() == expected.count
    for j, row in enumerate(expected.rows):
        assert ix.access(j) == row
        assert ix.rank(row) == j
    assert ix.stats["multiatom_joins"] > 0


def test_acyclic_trio_free_build_avoids_multiatom_joins():
    q, order = parse_query("Q(x1,x2,x3) :- R(x1,x2), S(x2,x3).")
    rng = random.Random(77)
    db = build_database(
        {
            "R": (["int", "int"], sorted({(rng.randrange(9), rng.randrange(9)) for _ in range(40)})),
            "S": (["int", "int"], sorted({(rng.randrange(9), rng.randrange(9)) for _ in range(40)})),
        }
    )
    ix = build_index(q, order, db)
    assert ix.stats["multiatom_joins"] == 0
    expected = materialize_sorted(q, order, db)
    assert ix.count() == expected.count
    for j, row in enumerate(expected.rows):
        assert ix.access(j) == row


def test_order_clause_respected_by_access():
    q, order = parse_query("Q(x,y) :- R(x,y). ORDER y, x")
    db = build_database({"R": (["int", "int"], [(1, 9), (2, 5), (3, 9)])})
    ix = build_index(q, order, db)
    assert list(ix.enumerate_range(0, 3)) == [(2, 5), (1, 9), (3, 9)]
    assert ix.rank((1, 9)) == 1


def test_variable_type_conflict_is_input_error():
    q, order = parse_query("Q(x,y) :- R(x), S(x,y).")
    db = build_database(
        {"R": (["int"], [(1,)]), "S": (["string", "int"], [("1", 2)])}
    )
    with pytest.raises(InputError):
        build_index(q, order, db)


def test_every_group_has_positive_increasing_prefix_sums():
    # Full reduction must leave no dead tuples: every group's completion
    # counts are positive, so prefix sums increase strictly.
    for seed in range(8):
        _, _, _, ix = built_random(seed, max_vars=5, max_atoms=5)
        for table in ix.tables:
            for values, prefix in table.groups.values():
                assert len(values) == len(prefix) > 0
                assert prefix[0] > 0
                assert all(a < b for a, b in zip(prefix, prefix[1:]))
                assert all(a < b for a, b in zip(values, values[1:]))


def test_concurrent_readers():
    from concurrent.futures import ThreadPoolExecutor

    q, order, db, ix = built_random(13, max_vars=4, max_atoms=4)
    if ix.count() == 0:
        q, order, db, ix = built_random(7, max_vars=4, max_atoms=4)
    n = ix.count()
    expected = [ix.access(j) for j in range(n)]

    def worker(offset):
        got = []
        for j in range(n):
            row = ix.access((j + offset) % n)
            got.append(ix.rank(row))
        return got

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, range(8)))
    for offset, ranks in enumerate(results):
        assert ranks == [(j + offset) % n for j in range(n)]
    assert [ix.access(j) for j in range(n)] == expected


def test_repeated_variable_atom_end_to_end():
    q, order = parse_query("Q(x,y) :- R(x,x,y), S(y).")
    db = build_database(
        {
            "R": (["int", "int", "int"], [(1, 1, 5), (1, 2, 6), (3, 3, 5), (2, 2, 9)]),
            "S": (["int"], [(5,), (6,), (9,)]),
        }
    )
    ix = build_index(q, order, db)
    expected = materialize_sorted(q, order, db)
    assert expected.rows == ((1, 5), (2, 9), (3, 5))
    assert ix.count() == 3
    assert list(ix.enumerate_range(0, 3)) == list(expected.rows)


def test_join_empty_despite_nonempty_relations():
    q, order = parse_query("Q(x,y) :- R(x), T(x,y), S(y).")
    db = build_database(
        {"R": (["int"], [(2,)]), "T": (["int", "int"], [(1, 5)]), "S": (["int"], [(5,)])}
    )
    ix = build_index(q, order, db)
    assert ix.count() == 0
    with pytest.raises(NotAnAnswerError):
        ix.rank((2, 5))


def test_counts_beyond_64_bits():
    # Seven-way cross product of 1000-value columns: 10**21 answers, far
    # past any machine word; index arithmetic must stay exact.
    raw = {f"R{i}": (["int"], [(v,) for v in range(1000)]) for i in range(7)}
    head = ",".join(f"x{i}" for i in range(7))
    body = ", ".join(f"R{i}(x{i})" for i in range(7))
    q, order = parse_query(f"Q({head}) :- {body}.")
    db = build_database(raw)
    ix = build_index(q, order, db)
    assert ix.count() == 10**21
    j = 123456789012345678901
    digits = f"{j:021d}"
    expected = tuple(int(digits[i * 3 : i * 3 + 3]) for i in range(7))
    assert ix.access(j) == expected
    assert ix.rank(expected) == j
    assert ix.quantile(1) == tuple([999] * 7)


def test_long_chain_and_wide_star_against_oracle():
    rng = random.Random(314)
    # chain over 8 variables
    atoms = ", ".join(f"E{i}(y{i},y{i+1})" for i in range(7))
    q, order = parse_query(f"Q({','.join(f'y{i}' for i in range(8))}) :- {atoms}.")
    raw = {
        f"E{i}": (
            ["int", "int"],
            sorted({(rng.randrange(7), rng.randrange(7)) for _ in range(22)}),
        )
        for i in range(7)
    }
    db = build_database(raw)
    ix = build_index(q, order, db)
    expected = materialize_sorted(q, order, db)
    assert ix.count() == expected.count
    for j, row in enumerate(expected.rows):
        assert ix.access(j) == row
        assert ix.rank(row) == j

    # five-armed star under its worst order
    from lexjoin.hardness import star_query

    q, order = star_query(5)
    raw = {
        f"R{i}": (
            ["int", "int"],
            sorted({(rng.randrange(4), rng.randrange(4)) for _ in range(10)}),
        )
        for i in range(1, 6)
    }
    db = build_database(raw)
    ix = build_index(q, order, db)
    expected = materialize_sorted(q, order, db)
    assert ix.count() == expected.count
    for j, row in enumerate(expected.rows):
        assert ix.access(j) == row
