"""Hard-instance constructions: star queries, set families, weighted cliques.

This module is the executable counterpart of the engine's cost story.  It
can encode set-disjointness workloads as star-query databases, answer
k-wise intersection queries either by brute force or through the
direct-access index, and run the randomized reduction that turns a
zero-clique search over a complete multipartite graph into a stream of
set-intersection instances.  Everything is driven by explicit ``Random``
instances, so runs are reproducible from a seed.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, product
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .access import AccessIndex, build_index, value_count
from .errors import InputError
from .query import JoinQuery, VariableOrder
from .storage import Database, build_database, read_text

# --------------------------------------------------------------------- #
# query templates


def _check_sizes(least: int, message: str, **sizes) -> None:
    """Reject a size that is not an int (a bool is one), then any below ``least`` with ``message``."""
    for name, value in sizes.items():
        if not isinstance(value, int):
            raise InputError(f"{name} must be an integer, got {value!r}")
    if min(sizes.values()) < least:
        raise InputError(message)


def star_query(k: int) -> tuple[JoinQuery, VariableOrder]:
    """The k-armed star R_1(x_1, z), ..., R_k(x_k, z) with its worst order.

    The returned order puts the shared variable z last, which makes every
    arm's variable pairwise independent ahead of it; the incompatibility
    number of the pair is exactly k.
    """
    _check_sizes(1, "a star needs at least one arm", k=k)
    xs = [f"x{i}" for i in range(1, k + 1)]
    atoms = tuple((f"R{i}", (f"x{i}", "z")) for i in range(1, k + 1))
    q = JoinQuery(f"Star{k}", atoms, tuple(xs) + ("z",))
    return q, VariableOrder(tuple(xs) + ("z",))


def lw_query(k: int) -> JoinQuery:
    """The k-variable join with one atom omitting each variable.

    For k = 3 this is the triangle R_1(x2, x3), R_2(x1, x3), R_3(x1, x2);
    its optimal fractional cover totals 1 + 1/(k - 1).
    """
    _check_sizes(2, "needs at least two variables", k=k)
    xs = [f"x{i}" for i in range(1, k + 1)]
    atoms = tuple(
        (f"R{i}", tuple(x for j, x in enumerate(xs, start=1) if j != i))
        for i in range(1, k + 1)
    )
    return JoinQuery(f"LW{k}", atoms, tuple(xs))


# --------------------------------------------------------------------- #
# set families


@dataclass(frozen=True)
class SetFamilyInstance:
    """k families of subsets of a universe, plus the queries to ask of them.

    A query names one set per family (1-based indices, matching positions in
    the family).  ``n`` counts the sets, ``input_size`` their total weight.
    """

    universe: tuple[int, ...]
    families: tuple[tuple[frozenset[int], ...], ...]
    queries: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if not self.families:
            raise InputError("an instance needs at least one set family")
        uni = set(self.universe)
        if not all(uni.issuperset(chain.from_iterable(fam)) for fam in self.families):
            raise InputError("set element outside the universe")
        if self.queries and set(map(len, self.queries)) != {self.k}:
            raise InputError("query must name one set per family")
        for i, column in enumerate(zip(*self.queries)):
            if not all(issubclass(t, int) for t in set(map(type, column))):
                raise InputError(f"query indices for family {i + 1} must be integers")
            values = set(column)
            for j in (min(values), max(values)):
                if not 1 <= j <= len(self.families[i]):
                    raise InputError(f"query index {j} out of range for family {i + 1}")

    @property
    def k(self) -> int:
        return len(self.families)

    @property
    def n(self) -> int:
        return sum(len(fam) for fam in self.families)

    @property
    def input_size(self) -> int:
        return sum(len(s) for fam in self.families for s in fam)

    def intersection(self, query: Sequence[int]) -> set[int]:
        sets = sorted(
            (self.families[i][j - 1] for i, j in enumerate(query)), key=len
        )
        out = set(sets[0])
        for s in sets[1:]:
            out &= s
            if not out:
                break
        return out

    def disjoint(self, query: Sequence[int]) -> bool:
        return not self.intersection(query)


def set_family_rows(inst: SetFamilyInstance) -> dict[str, list[tuple[int, int]]]:
    """Relation ``R<i>`` of the k-star holds family i's (set index, element) pairs."""
    return {
        f"R{i}": [(j, v) for j, s in enumerate(fam, start=1) for v in sorted(s)]
        for i, fam in enumerate(inst.families, start=1)
    }


def encode_set_disjointness(inst: SetFamilyInstance) -> Database:
    """Database for the k-star, rows as in :func:`set_family_rows`.

    A query (j_1, ..., j_k) has a non-empty intersection exactly when some z
    completes it to a star answer; the database size equals the instance's
    input size.
    """
    return build_database(
        {sym: (("int", "int"), rows) for sym, rows in set_family_rows(inst).items()}
    )


def prefix_block(ix: AccessIndex, values: Sequence) -> tuple[int, int]:
    """Index range [lo, hi) of answers whose first order positions equal ``values``.

    Answers sharing a fixed prefix on the leading variables of the order are
    contiguous; one index walk over the prefix's variables locates the block.
    """
    if value_count(values) > len(ix.order.variables):
        raise InputError(f"expected at most {len(ix.order.variables)} values, got {len(values)}")
    codes = []
    for i, v in enumerate(values):
        var = ix.order.variables[i]
        code = ix.dictionary.try_encode(ix.var_types[var], v)
        if code is None:
            return (0, 0)
        codes.append(code)
    return ix.prefix_range(codes)


def projected_star_test(ix: AccessIndex, indices: Sequence[int]) -> bool:
    """Does some z complete (j_1, ..., j_k)?  One walk over the star's index."""
    if value_count(indices) != len(ix.order.variables) - 1:
        raise InputError("expected one index per star arm")
    lo, hi = prefix_block(ix, indices)
    return hi > lo


# --------------------------------------------------------------------- #
# weighted multipartite cliques


def _check_field_size(p) -> None:
    """Reject a field size that is not an int of at least 2."""
    if not (isinstance(p, int) and p >= 2):
        raise InputError(f"field size must be an integer at least 2, got {p!r}")


@dataclass(frozen=True)
class WeightedCliqueInstance:
    """Complete multipartite graph with integer or residue edge weights.

    ``weights`` maps every cross pair (u, v) with u < v to an int (a bool is
    one); ``p`` is None for plain integer weights, otherwise all weights are
    residues in [0, p).
    """

    parts: tuple[tuple[int, ...], ...]
    weights: dict[tuple[int, int], int]
    p: int | None = None
    part_index: dict[int, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        idx: dict[int, int] = {}
        for pi, part in enumerate(self.parts, start=1):
            for v in part:
                if v in idx:
                    raise InputError(f"vertex {v} in two parts")
                idx[v] = pi
        object.__setattr__(self, "part_index", idx)
        for u, v in self.weights:
            if u not in idx or v not in idx:
                raise InputError(f"edge ({u}, {v}) has a vertex outside every part")
            if idx[u] == idx[v]:
                raise InputError(f"edge ({u}, {v}) lies inside one part")
        for a_part, b_part in product(range(len(self.parts)), repeat=2):
            if a_part >= b_part:
                continue
            for u in self.parts[a_part]:
                for v in self.parts[b_part]:
                    if (min(u, v), max(u, v)) not in self.weights:
                        raise InputError(f"missing cross edge ({u}, {v})")
        stray = set(map(type, self.weights.values())) - {int, bool}
        if stray:
            raise InputError(f"edge weights must be integers, got {sorted(t.__name__ for t in stray)}")
        if self.p is not None:
            _check_field_size(self.p)
            for w in self.weights.values():
                if not 0 <= w < self.p:
                    raise InputError("field-mode weights must be residues in [0, p)")

    @property
    def n(self) -> int:
        return sum(len(part) for part in self.parts)

    def weight(self, u: int, v: int) -> int:
        return self.weights[(min(u, v), max(u, v))]

    def clique_weight(self, vertices: Sequence[int]) -> int:
        total = 0
        vs = list(vertices)
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                total += self.weight(vs[a], vs[b])
        return total % self.p if self.p is not None else total

    def is_zero_clique(self, vertices: Sequence[int]) -> bool:
        return self.clique_weight(vertices) == 0


def brute_zero_clique(g: WeightedCliqueInstance) -> tuple[int, ...] | None:
    """Exhaustive scan of one vertex per part; test oracle only."""
    for combo in product(*g.parts):
        if g.is_zero_clique(combo):
            return combo
    return None


def count_zero_cliques(g: WeightedCliqueInstance) -> int:
    return sum(1 for combo in product(*g.parts) if g.is_zero_clique(combo))


def to_complete_k_partite(
    n_vertices: int, edge_weights: dict[tuple[int, int], int], parts: int
) -> WeightedCliqueInstance:
    """Spread a graph on vertices 1..n over ``parts`` copies of its vertex set.

    Copies of a real edge keep its weight; pairs without an edge (including
    both copies of one vertex) get a weight too large for any zero sum to
    absorb, so zero cliques correspond exactly to zero cliques of the input.
    """
    if parts < 2:
        raise InputError("need at least two parts")
    for (u, v) in edge_weights:
        if not (1 <= u <= n_vertices and 1 <= v <= n_vertices and u != v):
            raise InputError(f"bad edge ({u}, {v})")
    norm = {(min(u, v), max(u, v)): w for (u, v), w in edge_weights.items()}
    max_w = max((abs(w) for w in norm.values()), default=0)
    big = parts * parts * (max_w + 1)
    part_lists = tuple(
        tuple(c * n_vertices + i for i in range(1, n_vertices + 1)) for c in range(parts)
    )
    weights: dict[tuple[int, int], int] = {}
    for a_part in range(parts):
        for b_part in range(a_part + 1, parts):
            for i in range(1, n_vertices + 1):
                for j in range(1, n_vertices + 1):
                    u = a_part * n_vertices + i
                    v = b_part * n_vertices + j
                    if i == j:
                        w = big
                    else:
                        w = norm.get((min(i, j), max(i, j)), big)
                    weights[(u, v)] = w
    return WeightedCliqueInstance(part_lists, weights)


# --------------------------------------------------------------------- #
# randomized weight machinery


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; the witness set is exact below 3.3e24."""
    if m < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for sp in small:
        if m % sp == 0:
            return m == sp
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def sample_prime(lo: int, hi: int, rng: random.Random) -> int:
    """A prime in [lo, hi] by rejection sampling; error if the range has none."""
    _check_sizes(lo, "empty prime range", lo=lo, hi=hi)  # only hi can fall below lo
    span = hi - lo + 1
    for _ in range(200 * max(1, span.bit_length())):
        candidate = lo + rng.randrange(span)
        if is_prime(candidate):
            return candidate
    for candidate in range(lo, hi + 1):  # tiny ranges: fall back to a scan
        if is_prime(candidate):
            return candidate
    raise InputError(f"no prime in [{lo}, {hi}]")


def _randomizable(g: WeightedCliqueInstance, p) -> int:
    """k, the index of the last part, once ``g`` and ``p`` admit a randomization."""
    _check_field_size(p)
    k = len(g.parts) - 1
    if k < 2:
        raise InputError("weight randomization needs at least three parts")
    return k


@dataclass(frozen=True)
class WeightRandomness:
    """The sampled multiplier and offsets behind a re-randomized instance."""

    x: int
    y_last: dict[tuple[int, int], int]


def apply_weight_randomization(
    g: WeightedCliqueInstance,
    p: int,
    x: int,
    y_last: dict[tuple[int, int], int],
) -> WeightedCliqueInstance:
    """Rescale by x and add telescoping offsets; every clique weight becomes x times its old value (mod p).

    Each last-part vertex v carries offsets y(v, j) = ``y_last[(v, j)]`` for
    0 < j < k, padded with y(v, 0) = y(v, k) = 0.  The edge from part i to v
    gains y(v, i) - y(v, i - 1); every other edge is only rescaled.  A
    clique's k edges into v sum these over i = 1..k, which telescopes to
    y(v, k) - y(v, 0) = 0.  ``g`` may hold integer weights or residues:
    x * w = x * (w mod p) mod p.
    """
    k = _randomizable(g, p)
    offsets: dict[tuple[int, int], int] = {}
    for v in g.parts[k]:
        y = (0, *(y_last[(v, j)] for j in range(1, k)), 0)
        for i, part in enumerate(g.parts[:k], start=1):
            for u in part:
                offsets[(min(u, v), max(u, v))] = y[i] - y[i - 1]
    new_weights = {e: (x * w + offsets.get(e, 0)) % p for e, w in g.weights.items()}
    return WeightedCliqueInstance(g.parts, new_weights, p)


def randomize_weights(
    g: WeightedCliqueInstance, p: int, rng: random.Random
) -> tuple[WeightedCliqueInstance, WeightRandomness]:
    """Sample x != 0 and the offsets y(v, j), 0 < j < k, uniformly from the field, then apply them.

    x is drawn first, by rejection, then the offsets of each last-part vertex
    in part order, j ascending.  The draws depend only on the parts, so
    integer or residue weights give the same instance.
    """
    k = _randomizable(g, p)
    x = 0
    while x == 0:
        x = rng.randrange(p)
    y_last = {(v, j): rng.randrange(p) for v in g.parts[k] for j in range(1, k)}
    return apply_weight_randomization(g, p, x, y_last), WeightRandomness(x, y_last)


# --------------------------------------------------------------------- #
# interval tuples


@dataclass(frozen=True)
class IntervalTuple:
    """k+1 cells of an equal split of [0, p), one per partial weight."""

    intervals: tuple[tuple[int, int], ...]  # half-open (start, stop)
    p: int

    def sum_contains_zero(self) -> bool:
        lo = sum(start for start, _ in self.intervals)
        hi = sum(stop - 1 for _, stop in self.intervals)
        return (-lo) % self.p <= hi - lo


def interval_partition(p: int, pieces: int) -> list[tuple[int, int]]:
    """Split [0, p) into ``pieces`` near-equal half-open cells."""
    message = f"cannot split a field of size {p} into {pieces} cells"
    _check_sizes(1, message, p=p, pieces=pieces)
    if pieces > p:
        raise InputError(message)
    q, rem = divmod(p, pieces)
    cells = []
    start = 0
    for i in range(pieces):
        size = q + 1 if i < rem else q
        cells.append((start, start + size))
        start += size
    return cells


def interval_tuples(p: int, n: int, rho: float, k: int) -> Iterator[IntervalTuple]:
    """All (k+1)-tuples of about n**rho cells of [0, p) whose sum can hit 0 mod p.

    Tuples come in ``product`` order.  Filtering the whole product is enough:
    a tuple costs a few additions, never an index build.  rho must be a
    finite real number, at least 0.
    """
    if not (isinstance(rho, numbers.Real) and 0 <= rho < math.inf):
        raise InputError(f"rho must be a finite real number at least 0, got {rho!r}")
    pieces = max(1, math.ceil(n**rho))
    cells = interval_partition(p, min(pieces, p))
    for chosen in product(cells, repeat=k + 1):
        tup = IntervalTuple(chosen, p)
        if tup.sum_contains_zero():
            yield tup


# --------------------------------------------------------------------- #
# the reduction to set intersection


def query_cap(k: int, n: int, rho: float) -> int:
    """How many witnesses to request per intersection query.

    The exponent 1 - k * rho must not be negative: rho is a real number with
    0 <= rho <= 1/k.
    """
    if not (isinstance(rho, numbers.Real) and 0 <= rho and k * rho <= 1):
        raise InputError(f"rho must be a real number in [0, 1/{k}], got {rho!r}")
    return math.ceil(100 * 3**k * n ** (1 - k * rho))


def weight_tables(g: WeightedCliqueInstance) -> tuple[dict, list]:
    """A graph's first-k clique weights and its edge weights to the last part.

    ``combos`` maps each combination of 1-based indices into the first k
    parts to its clique weight; ``to_last[i][j - 1]`` maps each last-part
    vertex u to the weight of its edge from the j-th vertex of part i + 1.
    A combination and u form a clique of weight ``combos[combo]`` plus the k
    entries for u (mod p in field mode).
    """
    *firsts, last = g.parts
    combos = {
        combo: g.clique_weight([firsts[i][j - 1] for i, j in enumerate(combo)])
        for combo in product(*(range(1, len(part) + 1) for part in firsts))
    }
    to_last = [[{u: g.weight(v, u) for u in last} for v in part] for part in firsts]
    return combos, to_last


def build_intersection_instances(
    g: WeightedCliqueInstance, rho: float
) -> Iterator[tuple[SetFamilyInstance, int]]:
    """One set-intersection instance per viable interval tuple, in tuple order.

    Family i holds one set per vertex of part i: the last-part vertices whose
    connecting edge weight falls in the tuple's cell i.  Queries are the
    first-k vertex combinations whose mutual weight falls in cell 0.  Both
    filter the graph's :func:`weight_tables`, built once.  Each arm's family
    is built once per cell, and each query cell's combinations once.
    Instances that share cells share these objects, so a lookup keyed on an
    instance's families compares them by identity.  The stream is the same
    as if every instance were built afresh.
    """
    if g.p is None:
        raise InputError("instance must be in field mode (weights mod p)")
    k = len(g.parts) - 1
    if k < 1:
        raise InputError("need at least two parts")
    n = g.n
    cap = query_cap(k, n, rho)
    combos, to_last = weight_tables(g)

    @cache
    def family(i: int, lo: int, hi: int) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(u for u, w in edges.items() if lo <= w < hi) for edges in to_last[i])

    @cache
    def queries(lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
        return tuple(combo for combo, w in combos.items() if lo <= w < hi)

    for tup in interval_tuples(g.p, n, rho, k):
        (lo0, hi0), *arms = tup.intervals
        families = tuple(family(i, lo, hi) for i, (lo, hi) in enumerate(arms))
        yield SetFamilyInstance(g.parts[k], families, queries(lo0, hi0)), cap


class BruteForceBackend:
    """Answers intersection queries straight off the set families.

    The handle is the instance itself, read only for its families: like
    every backend's, it serves any instance with the same universe and
    families, whatever its queries.
    """

    def prepare(self, inst: SetFamilyInstance) -> SetFamilyInstance:
        return inst

    def intersect(self, handle: SetFamilyInstance, query: Sequence[int], limit: int) -> list[int]:
        return sorted(handle.intersection(query))[:limit]


class DirectAccessBackend:
    """Answers intersection queries through the direct-access engine.

    The instance is encoded as a star-query database; a query's witnesses
    are the contiguous block of answers sharing the index prefix, located by
    one index walk.  Each witness is one ``access_codes`` call, of which only
    the last code, z's, is decoded.  The handle is the star's index, which
    depends only on the instance's universe and families, so it serves every
    instance that differs only in its queries.
    """

    def prepare(self, inst: SetFamilyInstance) -> AccessIndex:
        q, order = star_query(inst.k)
        return build_index(q, order, encode_set_disjointness(inst))

    def intersect(self, handle: AccessIndex, query: Sequence[int], limit: int) -> list[int]:
        lo, hi = prefix_block(handle, tuple(query))
        decode = handle.dictionary.decode
        return [decode(handle.access_codes(j)[-1]) for j in range(lo, min(hi, lo + limit))]


def find_zero_clique_via_reduction(
    g: WeightedCliqueInstance,
    rho: float | None = None,
    rng: random.Random | None = None,
    backend=None,
) -> tuple[int, ...] | None:
    """Search for a zero clique through the set-intersection reduction.

    A witness u of query (j_1, ..., j_k) is a candidate clique.  It is
    checked against :func:`weight_tables` of the original integer weights,
    built once per graph: the query's clique weight plus its k edge weights
    to u must sum to 0.  Only a candidate that passes becomes a vertex tuple,
    and it is confirmed with ``g.is_zero_clique`` before it is returned, so
    the answer is one-sided: 'found' is always correct, while a present
    zero clique is missed only with small probability.  rho defaults to
    1 / (2k).

    The set families are preprocessed once and the queries arrive online:
    the backend prepares one handle per distinct universe and families, at
    its first instance, and every later instance with the same families
    asks its queries of that handle.  The handles, at most one per tuple of
    arm cells, are released when the search returns.
    """
    if g.p is not None:
        raise InputError("reduction expects integer weights")
    k = len(g.parts) - 1
    if k < 2:
        raise InputError("reduction needs at least three parts")
    if rho is None:
        rho = 1.0 / (2 * k)
    if rng is None:
        rng = random.Random(0)
    if backend is None:
        backend = BruteForceBackend()
    bound = max(1, max((abs(w) for w in g.weights.values()), default=1))
    p = sample_prime(10 * (k + 1) ** 2 * bound, 100 * (k + 1) ** 2 * bound, rng)
    randomized, _ = randomize_weights(g, p, rng)
    combos, to_last = weight_tables(g)
    handles = {}
    for inst, cap in build_intersection_instances(randomized, rho):
        key = inst.universe, inst.families
        if key not in handles:
            handles[key] = backend.prepare(inst)
        handle = handles[key]
        for query in inst.queries:
            for u in backend.intersect(handle, query, cap):
                if combos[query] + sum(to_last[i][j - 1][u] for i, j in enumerate(query)) == 0:
                    candidate = tuple(g.parts[i][j - 1] for i, j in enumerate(query)) + (u,)
                    if g.is_zero_clique(candidate):
                        return candidate
    return None


# --------------------------------------------------------------------- #
# unique recovery by bit probing


def bit_slice(inst: SetFamilyInstance, bit: int) -> SetFamilyInstance:
    """Drop every universe element whose given bit is zero."""
    keep = {u for u in inst.universe if (u >> bit) & 1}
    return SetFamilyInstance(
        tuple(u for u in inst.universe if u in keep),
        tuple(tuple(s & keep for s in fam) for fam in inst.families),
        inst.queries,
    )


def brute_disjointness_oracle(inst: SetFamilyInstance, query: Sequence[int]) -> bool:
    return inst.disjoint(query)


def unique_via_bit_probing(
    oracle: Callable[[SetFamilyInstance, Sequence[int]], bool],
    inst: SetFamilyInstance,
    query: Sequence[int],
):
    """Recover the element of a singleton intersection from disjointness bits.

    One sliced sub-instance per bit of the universe keeps only elements with
    that bit set; the oracle's answers spell out the element.  The assembled
    value is verified before being returned, so a non-singleton intersection
    yields either a true member or None, never garbage.
    """
    if any(u < 0 for u in inst.universe):
        raise InputError("bit probing needs a non-negative integer universe")
    bits = max((u.bit_length() for u in inst.universe), default=1)
    value = 0
    for j in range(bits):
        if not oracle(bit_slice(inst, j), query):
            value |= 1 << j
    member = all(value in inst.families[i][j - 1] for i, j in enumerate(query))
    return value if member else None


# --------------------------------------------------------------------- #
# instance generators and graph file IO


MAX_QUERY_COMBINATIONS = 10**5
MAX_PARTITE_EDGES = 10**5


def random_set_family(
    rng: random.Random,
    k: int,
    sets_per_family: int,
    universe_size: int,
    max_set_size: int,
    queries: int | None = None,
) -> SetFamilyInstance:
    """Random instance; queries default to every index combination.

    The default lists all ``sets_per_family ** k`` combinations, so above
    MAX_QUERY_COMBINATIONS of them it raises InputError before drawing
    anything: pass ``queries`` to draw that many at random instead.
    """
    _check_sizes(1, "an instance needs at least one set family", k=k)
    _check_sizes(
        0,
        "set counts, sizes and query counts must be non-negative",
        sets_per_family=sets_per_family,
        universe_size=universe_size,
        max_set_size=max_set_size,
        queries=0 if queries is None else queries,
    )
    if queries and not sets_per_family:
        raise InputError("cannot draw queries from families without sets")
    if queries is None and sets_per_family**k > MAX_QUERY_COMBINATIONS:
        raise InputError(
            f"every index combination is {sets_per_family**k} queries, more than "
            f"{MAX_QUERY_COMBINATIONS}: pass queries to draw that many at random"
        )
    universe = tuple(range(universe_size))
    families = tuple(
        tuple(
            frozenset(rng.sample(universe, rng.randint(0, min(max_set_size, universe_size))))
            for _ in range(sets_per_family)
        )
        for _ in range(k)
    )
    if queries is None:
        qs = tuple(product(*(range(1, sets_per_family + 1) for _ in range(k))))
    else:
        qs = tuple(
            tuple(rng.randint(1, sets_per_family) for _ in range(k)) for _ in range(queries)
        )
    return SetFamilyInstance(universe, families, qs)


def random_partite_instance(
    rng: random.Random,
    parts: int,
    part_size: int,
    weight_bound: int,
    plant: bool = False,
) -> tuple[WeightedCliqueInstance, tuple[int, ...] | None]:
    """Complete multipartite instance with uniform weights, optionally planted.

    The graph has ``parts choose 2`` times ``part_size ** 2`` edges; above
    MAX_PARTITE_EDGES of them it raises InputError before drawing anything.
    Planting picks one vertex per part and rewrites a single edge so the
    clique sums to zero.
    """
    message = "part count, part size and weight bound must be non-negative"
    _check_sizes(0, message, parts=parts, part_size=part_size, weight_bound=weight_bound)
    edges = parts * (parts - 1) // 2 * part_size**2
    if edges > MAX_PARTITE_EDGES:
        raise InputError(f"the graph would have {edges} edges, more than {MAX_PARTITE_EDGES}")
    if plant and (parts < 2 or part_size == 0):
        raise InputError("planting a clique needs at least two non-empty parts")
    part_lists = tuple(
        tuple(c * part_size + i for i in range(1, part_size + 1)) for c in range(parts)
    )
    weights: dict[tuple[int, int], int] = {}
    for a in range(parts):
        for b in range(a + 1, parts):
            for u in part_lists[a]:
                for v in part_lists[b]:
                    weights[(u, v)] = rng.randint(-weight_bound, weight_bound)
    planted = None
    if plant:
        planted = tuple(part[rng.randrange(part_size)] for part in part_lists)
        pairs = [
            (min(planted[a], planted[b]), max(planted[a], planted[b]))
            for a in range(parts)
            for b in range(a + 1, parts)
        ]
        rest = sum(weights[e] for e in pairs[:-1])
        weights[pairs[-1]] = -rest
    return WeightedCliqueInstance(part_lists, weights), planted


def write_partite_graph(path: str | Path, g: WeightedCliqueInstance) -> None:
    """Text form: a ``parts`` header with part sizes, then ``u v w`` lines.

    The header stores only the part sizes and no field size, so the file reads
    back as the same graph only when its vertices are 1..n in part order and
    ``p`` is None; any other graph raises InputError before a byte is written.
    """
    if [v for part in g.parts for v in part] != list(range(1, g.n + 1)):
        raise InputError(f"cannot write graph file {path}: vertices are not 1..n in part order")
    if g.p is not None:
        raise InputError(f"cannot write graph file {path}: it stores no field size (p = {g.p})")
    lines = ["parts " + " ".join(str(len(part)) for part in g.parts)]
    for (u, v) in sorted(g.weights):
        lines.append(f"{u} {v} {g.weights[(u, v)]:d}")  # a bool as 0 or 1
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write graph file {path}: {exc.strerror}") from None


def read_partite_graph(path: str | Path) -> WeightedCliqueInstance:
    text = read_text(path, "graph file")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    header = lines[0].split() if lines else []
    if header[:1] != ["parts"]:
        raise InputError(f"{path}: expected a 'parts' header line")
    try:
        sizes = [int(tok) for tok in header[1:]]
    except ValueError:
        raise InputError(f"{path}: bad parts header") from None
    if any(size < 0 for size in sizes):
        raise InputError(f"{path}: negative part size in the parts header")
    part_lists = []
    start = 1
    for size in sizes:
        part_lists.append(tuple(range(start, start + size)))
        start += size
    weights: dict[tuple[int, int], int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        toks = line.split()
        if len(toks) != 3:
            raise InputError(f"{path}:{lineno}: expected 'u v w'")
        try:
            u, v, w = int(toks[0]), int(toks[1]), int(toks[2])
        except ValueError:
            raise InputError(f"{path}:{lineno}: expected integers") from None
        edge = (min(u, v), max(u, v))
        if edge in weights:
            raise InputError(f"{path}:{lineno}: repeated edge {edge}")
        weights[edge] = w
    return WeightedCliqueInstance(tuple(part_lists), weights)
