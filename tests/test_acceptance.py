"""Acceptance suite: one test per shipping criterion, each timed.

Run ``pytest tests/test_acceptance.py -v`` for the per-criterion verdicts;
add ``-s`` to also see the PASS lines with elapsed times.  Criteria with a
stated soft threshold (criterion 9) assert at that threshold; all others
assert at their stated budget.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import permutations, product

import pytest

from lexjoin import hardness as hd
from lexjoin import hypergraph as hg
from lexjoin.access import build_index
from lexjoin.decomposition import (
    decompose,
    disruption_free_closed_form,
    disruption_free_iterative,
    fractional_edge_cover,
    fractional_independent_set,
    incompatibility_number,
    join_forest,
)
from lexjoin.errors import InputError, OutOfBoundsError
from lexjoin.hypergraph import Hypergraph
from lexjoin.index_io import load_index, save_index
from lexjoin.oracle import materialize_sorted
from lexjoin.query import VariableOrder, disruptive_trios, hypergraph_of, parse_query
from lexjoin.storage import build_database
from lexjoin.wcoj import agm_bound_holds, generic_join, naive_join
from tests.randgen import (
    random_database,
    random_hypergraph,
    random_query,
    random_subquery_instance,
)

FIVE_TEXT = "Q(x1,x2,x3,x4,x5) :- R1(x1,x5), R2(x2,x4), R3(x3,x4), R4(x3,x5)."


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} blew its {budget_s}s budget ({elapsed:.1f}s)"
    print(f"criterion {num:02d} {name}: PASS ({elapsed:.2f}s)")


_CORPUS: list | None = None


def corpus():
    """1000 seeded random (query, order) pairs, <= 7 variables / 8 atoms."""
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(20240)
        _CORPUS = [random_query(rng, max_vars=7, max_atoms=8) for _ in range(1000)]
    return _CORPUS


def test_c01_golden_decomposition():
    with criterion(1, "golden decomposition", 1.0):
        q, order = parse_query(FIVE_TEXT)
        bags = disruption_free_iterative(q, order)
        assert [set(b) for b in bags] == [
            {"x1"},
            {"x1", "x2"},
            {"x1", "x2", "x3"},
            {"x2", "x3", "x4"},
            {"x1", "x3", "x5"},
        ]
        iota, witness = incompatibility_number(q, order)
        assert iota == 3
        assert set(bags[witness]) == {"x1", "x2", "x3"}


def test_c02_definitional_equivalence():
    with criterion(2, "iterative vs closed-form bags on 1000 pairs", 30.0):
        for q, order in corpus():
            assert disruption_free_iterative(q, order) == disruption_free_closed_form(q, order)


def test_c03_structural_soundness():
    with criterion(3, "bag structure sound on 1000 pairs", 30.0):
        for q, order in corpus():
            h = hypergraph_of(q)
            bags = disruption_free_iterative(q, order)
            bag_h = Hypergraph.build(
                [h.sorted_vertices(b) for b in bags], vertices=h.vertices
            )
            assert hg.gyo_reduce(bag_h).acyclic
            assert hg.disruptive_trios(bag_h, order.variables) == []
            join_forest(bags, order)  # raises if running intersection fails
            pos = {v: i for i, v in enumerate(order.variables)}
            for _, vs in q.atoms:
                assert set(vs) <= bags[max(pos[v] for v in vs)]


def test_c04_incompatibility_laws():
    with criterion(4, "incompatibility number laws", 30.0):
        clean = trio_cases = acyclic_cases = 0
        for q, order in corpus()[:400]:
            acyclic = hg.gyo_reduce(hypergraph_of(q)).acyclic
            trios = disruptive_trios(q, order)
            decomp = decompose(q, order)
            if acyclic and not trios:
                clean += 1
                assert decomp.iota == 1
            if trios:
                trio_cases += 1
                assert decomp.iota >= 2
            if acyclic:
                acyclic_cases += 1
                for cover in decomp.bag_cover:
                    assert cover.total.denominator == 1
        assert clean > 20 and trio_cases > 20 and acyclic_cases > 20
        for k in (2, 3, 4):
            assert incompatibility_number(*hd.star_query(k))[0] == k
        for k in (3, 4, 5):
            lw = hd.lw_query(k)
            assert fractional_edge_cover(hypergraph_of(lw)).total == 1 + F(1, k - 1)


def test_c05_lp_duality():
    with criterion(5, "cover equals independent set on 500 hypergraphs", 30.0):
        rng = random.Random(20241)
        for _ in range(500):
            h = random_hypergraph(rng, max_vertices=8, max_edges=8)
            assert fractional_edge_cover(h).total == fractional_independent_set(h)[0]


def test_c06_join_correctness():
    with criterion(6, "generic join vs naive join plus output bound on 500 subqueries", 60.0):
        rng = random.Random(20242)
        for _ in range(500):
            sq = random_subquery_instance(rng, max_vars=4)
            out = generic_join(sq)
            assert out == naive_join(sq)

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
            assert agm_bound_holds(len(out), weights, sizes)


def _spiced_query(rng, flavor: str):
    """Random query, optionally forced to be cyclic or to carry a trio."""
    from lexjoin import JoinQuery, VariableOrder

    q, order = random_query(rng, max_vars=5, max_atoms=4)
    variables = list(q.variables)
    if flavor == "cyclic" and len(variables) >= 3:
        a, b, c = rng.sample(variables, 3)
        atoms = q.atoms + (("C1", (a, b)), ("C2", (b, c)), ("C3", (a, c)))
        q = JoinQuery(q.name, atoms, q.variables)
    elif flavor == "trio" and len(variables) >= 3:
        a, b, c = rng.sample(variables, 3)
        atoms = q.atoms + (("T1", (a, c)), ("T2", (b, c)))
        q = JoinQuery(q.name, atoms, q.variables)
        tail = [v for v in order.variables if v != c] + [c]
        order = VariableOrder(tuple(tail))
    return q, order


def _capped_instance(rng, cap=10**4, flavor="plain"):
    while True:
        q, order = _spiced_query(rng, flavor)
        db = random_database(rng, q, domain=6, max_rows=30, min_rows=6)
        try:
            expected = materialize_sorted(q, order, db, cap=cap)
        except InputError:
            continue
        return q, order, db, expected


def test_c07_direct_access_oracle_equivalence():
    with criterion(7, "access equals oracle on 200 instances", 300.0):
        rng = random.Random(20243)
        cyclic_seen = trio_seen = 0
        flavors = ["plain", "plain", "plain", "cyclic", "trio"]
        for trial in range(200):
            q, order, db, expected = _capped_instance(rng, flavor=flavors[trial % 5])
            if not hg.gyo_reduce(hypergraph_of(q)).acyclic:
                cyclic_seen += 1
            if disruptive_trios(q, order):
                trio_seen += 1
            ix = build_index(q, order, db)
            assert ix.count() == expected.count
            previous = None
            for j, row in enumerate(expected.rows):
                assert ix.access(j) == row
                assert ix.rank(row) == j
                codes = ix.access_codes(j)
                assert previous is None or previous < codes
                previous = codes
            with pytest.raises(OutOfBoundsError):
                ix.access(expected.count)
        assert cyclic_seen >= 10, f"corpus too tame: {cyclic_seen} cyclic"
        assert trio_seen >= 10, f"corpus too tame: {trio_seen} with trios"


def test_c08_order_sensitive_tasks():
    with criterion(8, "quantile, exhaustive sample, sampling uniformity", 60.0):
        from scipy.stats import chisquare

        rng = random.Random(20244)
        checked = 0
        while checked < 20:
            q, order, db, expected = _capped_instance(rng)
            if expected.count == 0:
                continue
            ix = build_index(q, order, db)
            median = expected.rows[(expected.count - 1) // 2]
            assert ix.quantile(F(1, 2)) == median
            assert sorted(ix.sample_without_replacement(expected.count, seed=7)) == sorted(
                expected.rows
            )
            checked += 1

        q, order = parse_query("Q(x) :- R(x).")
        db = build_database({"R": (["int"], [(i,) for i in range(20)])})
        ix = build_index(q, order, db)
        assert ix.count() == 20
        counts = [0] * 20
        for draw in range(10**4):
            (sample,) = ix.sample_without_replacement(1, seed=draw)
            counts[sample[0]] += 1
        result = chisquare(counts)
        assert result.pvalue > 0.001, f"chi-square p={result.pvalue}"


def test_c09_easy_case_fast_path():
    with criterion(9, "single-projection build and access speed at 1e5 tuples", 90.0):
        rng = random.Random(20245)
        q, order = parse_query("Q(x1,x2,x3) :- R(x1,x2), S(x2,x3).")
        domain = 320
        rows_r = sorted(divmod(i, domain) for i in rng.sample(range(domain * domain), 50000))
        rows_s = sorted(divmod(i, domain) for i in rng.sample(range(domain * domain), 50000))
        db = build_database(
            {"R": (["int", "int"], rows_r), "S": (["int", "int"], rows_s)}
        )
        assert db.size == 10**5

        start = time.perf_counter()
        ix = build_index(q, order, db)
        build_elapsed = time.perf_counter() - start
        assert ix.stats["multiatom_joins"] == 0
        assert build_elapsed < 20.0, f"build took {build_elapsed:.2f}s (soft 5s x4)"

        total = ix.count()
        assert total > 0
        indices = [rng.randrange(total) for _ in range(10**4)]
        start = time.perf_counter()
        for j in indices:
            ix.access(j)
        per_access = (time.perf_counter() - start) / len(indices)
        assert per_access < 0.004, f"access averaged {per_access * 1000:.3f}ms (soft 1ms x4)"


def test_c10_set_disjointness_encoding():
    with criterion(10, "projected star equals brute disjointness on 100 instances", 60.0):
        rng = random.Random(20246)
        for trial in range(100):
            k = 2 if trial % 2 == 0 else 3
            sets_per_family = rng.randint(2, 5) if k == 2 else rng.randint(2, 3)
            inst = hd.random_set_family(rng, k, sets_per_family, rng.randint(4, 12), 6)
            db = hd.encode_set_disjointness(inst)
            assert db.size == inst.input_size
            ix = build_index(*hd.star_query(k), db)
            for query in inst.queries:
                assert hd.projected_star_test(ix, query) == (not inst.disjoint(query))


def test_c11_weight_randomization_identity():
    with criterion(11, "rerandomized weights scale cliques exactly", 30.0):
        for k in (2, 3):
            rng = random.Random(20247 + k)
            g, _ = hd.random_partite_instance(rng, k + 1, 5, 10**4, plant=True)
            bound = max(abs(w) for w in g.weights.values())
            p = hd.sample_prime(10 * (k + 1) ** 2 * bound, 100 * (k + 1) ** 2 * bound, rng)
            reduced = hd.WeightedCliqueInstance(
                g.parts, {e: w % p for e, w in g.weights.items()}, p
            )
            randomized, rnd = hd.randomize_weights(reduced, p, rng)
            zeros_before = set()
            zeros_after = set()
            for clique in product(*g.parts):
                want = (rnd.x * reduced.clique_weight(clique)) % p
                assert randomized.clique_weight(clique) == want
                if reduced.is_zero_clique(clique):
                    zeros_before.add(clique)
                if randomized.is_zero_clique(clique):
                    zeros_after.add(clique)
            assert zeros_before == zeros_after
            assert zeros_before, "planted clique lost"


def test_c12_reduction_end_to_end():
    with criterion(12, "zero-clique search through set intersection", 300.0):
        backends = {
            "brute": hd.BruteForceBackend(),
            "engine": hd.DirectAccessBackend(),
        }
        for name, backend in backends.items():
            found = 0
            for trial in range(100):
                rng = random.Random(31000 + trial)
                g, planted = hd.random_partite_instance(rng, 3, 12, 10**5, plant=True)
                result = hd.find_zero_clique_via_reduction(
                    g, rng=random.Random(61000 + trial), backend=backend
                )
                if result is not None:
                    assert g.is_zero_clique(result)
                    found += 1
            assert found >= 95, f"{name} backend found only {found}/100"

        # Unplanted instances, verified clique-free by brute force: the
        # reduction must never fabricate a clique.
        clean = 0
        trial = 0
        while clean < 100:
            rng = random.Random(41000 + trial)
            trial += 1
            g, _ = hd.random_partite_instance(rng, 3, 12, 10**6)
            if hd.brute_zero_clique(g) is not None:
                continue
            clean += 1
            backend = backends["engine"] if clean % 10 == 0 else backends["brute"]
            assert (
                hd.find_zero_clique_via_reduction(
                    g, rng=random.Random(51000 + trial), backend=backend
                )
                is None
            )


def test_c13_bit_probing_recovery():
    with criterion(13, "unique element recovery from disjointness bits", 30.0):
        rng = random.Random(20249)
        singles = 0
        while singles < 200:
            universe_size = rng.randint(2, 256)
            k = rng.randint(2, 3)
            target = rng.randrange(universe_size)
            families = []
            for _ in range(k):
                extra_count = rng.randint(0, min(5, universe_size - 1))
                extra = {
                    v for v in rng.sample(range(universe_size), extra_count) if v != target
                }
                families.append((frozenset({target}) | frozenset(extra),))
            inst = hd.SetFamilyInstance(
                tuple(range(universe_size)), tuple(families), ((1,) * k,)
            )
            truth = inst.intersection((1,) * k)
            got = hd.unique_via_bit_probing(hd.brute_disjointness_oracle, inst, (1,) * k)
            if len(truth) == 1:
                singles += 1
                assert got == target
            elif got is not None:
                assert got in truth


def test_c14_persistence():
    with criterion(14, "save, load, byte-stable rebuild", 30.0):
        rng = random.Random(20250)
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for trial in range(10):
                q, order, db, expected = _capped_instance(rng)
                ix = build_index(q, order, db)
                p1, p2 = tmp / f"{trial}_a.idx", tmp / f"{trial}_b.idx"
                save_index(ix, p1)
                save_index(build_index(q, order, db), p2)
                assert p1.read_bytes() == p2.read_bytes()
                loaded = load_index(p1)
                assert loaded.count() == ix.count()
                for j in range(min(expected.count, 400)):
                    assert loaded.access(j) == ix.access(j)


def _largest_bag_slope(q, order, small, large) -> float:
    """Log-log slope of the largest bag's rows against |D| between two databases."""
    (d1, r1), (d2, r2) = (
        (db.size, max(build_index(q, order, db).stats["bag_rows"])) for db in (small, large)
    )
    return math.log(r2 / r1) / math.log(d2 / d1)


def _star_hub(m: int):
    """Every arm holds (x, 0) and (x, x + 1) for x < m: z = 0 is a hub of all m**3 triples."""
    rows = sorted({(x, 0) for x in range(m)} | {(x, x + 1) for x in range(m)})
    return build_database({f"R{i}": (["int", "int"], rows) for i in (1, 2, 3)})


def _lw_grid(k: int, s: int):
    """Every relation of LW_k holds all s**(k - 1) tuples: the join is all s**k tuples."""
    rows = list(product(range(s), repeat=k - 1))
    return build_database({f"R{i}": (["int"] * (k - 1), rows) for i in range(1, k + 1)})


def test_c15_preprocessing_grows_as_iota():
    with criterion(15, "largest bag grows as |D|**iota under every star-3 order and LW", 60.0):
        q, _ = hd.star_query(3)
        small, large = _star_hub(16), _star_hub(32)
        for perm in permutations(q.variables):
            order = VariableOrder(perm)
            iota = decompose(q, order).iota
            slope = _largest_bag_slope(q, order, small, large)
            assert abs(slope - iota) <= 0.1, (perm, iota, slope)
        for k, (s1, s2), iota in ((3, (8, 16), F(3, 2)), (4, (5, 7), F(4, 3))):
            q = hd.lw_query(k)
            order = VariableOrder(q.variables)
            assert decompose(q, order).iota == iota
            slope = _largest_bag_slope(q, order, _lw_grid(k, s1), _lw_grid(k, s2))
            assert abs(slope - iota) <= 0.1, (k, slope)
