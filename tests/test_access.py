import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from itertools import permutations
from math import prod

import pytest

from lexjoin import VariableOrder, access, build_database
from lexjoin.access import GroupTable, build_index
from lexjoin.errors import InputError, NotAnAnswerError, OutOfBoundsError
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


def test_prefix_range_matches_oracle():
    absent = 0
    for seed in range(25):
        q, order, db, ix = built_random(seed, max_vars=5, max_atoms=5)
        rows = materialize_codes(q, order, db)
        n = len(order.variables)
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
    with pytest.raises(InputError):
        ix.rank((1,))


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
    rng = random.Random(0)
    for _ in range(50):
        t = tuple(rng.randrange(5) for _ in q.variables)
        assert ix.test_membership(t) == (t in expected)


def test_counting_consistency_at_the_top_level():
    q, order, db, ix = built_random(8, max_vars=5, max_atoms=5)
    total = 1
    for i in ix.roots:
        total *= ix.tables[i].total(())
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


def reference_count_groups(decomp, candidates):
    """count_groups one candidate at a time, looking up each child key."""
    tables = [None] * len(decomp.bags)
    for i in reversed(range(len(decomp.bags))):
        groups = {}
        for key, values in candidates[i].items():
            kept, prefix = [], []
            for value in values:
                w = 1
                for c, cols in decomp.links[i]:
                    w *= tables[c].total(tuple(key[k] for k in cols) + (value,))
                if w:
                    kept.append(value)
                    prefix.append((prefix[-1] if prefix else 0) + w)
            if kept:
                groups[key] = (kept, prefix)
        tables[i] = GroupTable(groups)
    return tuple(tables), prod(tables[i].total(()) for i in decomp.roots)


def reference_prune(decomp, tables):
    """prune_unreached with the set of reached child keys of each link."""
    pruned = []
    for i, links in enumerate(decomp.links):
        for c, cols in links:
            parent = tables[i].groups.items()
            reached = {tuple(key[k] for k in cols) + (v,) for key, (vs, _) in parent for v in vs}
            kept = {k: e for k, e in tables[c].groups.items() if k in reached}
            if len(kept) < len(tables[c].groups):
                pruned.append(c)
            tables[c].groups = kept
    return pruned


def test_count_and_prune_match_per_candidate_reference(monkeypatch):
    seen = []
    real = access.count_groups
    monkeypatch.setattr(access, "count_groups", lambda d, c: seen.append((d, c)) or real(d, c))
    dropped = pruned = 0
    for seed in range(150):
        *_, ix = built_random(seed)
        decomp, candidates = seen[-1]
        tables, total = real(decomp, candidates)
        expected, expected_total = reference_count_groups(decomp, candidates)
        assert (tables, total) == (expected, expected_total), seed
        dropped += any(sum(map(len, c.values())) > t.rows() for c, t in zip(candidates, tables))
        lost = access.prune_unreached(decomp, tables)
        assert lost == reference_prune(decomp, expected), seed
        assert tables == expected == ix.tables, seed
        pruned += bool(lost)
    assert dropped >= 10 and pruned >= 10, (dropped, pruned)


def test_prune_drops_unreached_groups_in_cascade(tmp_path, monkeypatch):
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
    real, pruned = access.prune_unreached, []
    monkeypatch.setattr(access, "prune_unreached", lambda d, t: pruned.append(real(d, t)))
    ix = build_index(q, order, db)
    assert ix.bags == (("x",), ("x", "y"), ("y", "z"), ("z", "w"))
    assert pruned == [[2, 3]]
    rows = materialize_codes(q, order, db)
    for bag, table, n in zip(ix.bags, ix.tables, ix.stats["bag_rows"]):
        cols = [order.position(v) for v in bag]
        stored = {key + (v,) for key, (values, _) in table.groups.items() for v in values}
        assert stored == {tuple(row[c] for c in cols) for row in rows}
        assert n == len(stored)
    path = tmp_path / "q.idx"
    save_index(ix, path)
    loaded = load_index(path)
    assert loaded.tables == ix.tables
    assert loaded.stats["bag_rows"] == ix.stats["bag_rows"] == [2, 3, 3, 3]


# A bag skips the semijoin only with the atoms that own one of its cover edges,
# told apart by position: both atoms of a self-join share one Relation.
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


# A bag inside a later bag is built as that bag's projection.  In the third
# case under order (a, d, b, c), bag {a, d} lies inside the joined bag
# {a, c, d} rather than inside the next bag {b, d}.
CONTAINED_CASES = {
    "star3": "Q(x1,x2,x3,z) :- R1(x1,z), R2(x2,z), R3(x3,z).",
    "self-join-triangle": "Q(x,y,z) :- R(x,y), R(y,z), R(z,x).",
    "container-not-next": "Q(a,b,c,d) :- R(a,c), S(b,d), T(c,d).",
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
