"""Hypergraphs and the structural primitives used throughout the engine.

A hypergraph is a fixed, ordered vertex list plus a list of vertex sets.
Normalization drops empty edges and duplicate edges; all functions here are
pure and the type is immutable after construction, so concurrent reads are
safe.  Vertex identity is the vertex name; deterministic tie-breaking always
uses the vertex's position in ``vertices`` (the interning order), never the
hash order of a set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InputError


def _edge_members(edge: Iterable[str]) -> list[str]:
    # Sequences keep their given order; unordered sets are sorted so that
    # interning never depends on hash randomization.
    if isinstance(edge, (list, tuple)):
        return list(edge)
    return sorted(edge)


@dataclass(frozen=True)
class Hypergraph:
    """Ordered vertices plus deduplicated, non-empty edges over them.

    ``vertices`` fixes the deterministic vertex order; every member of every
    edge must appear in it.
    """

    vertices: tuple[str, ...]
    edges: tuple[frozenset[str], ...]
    _position: dict[str, int] = field(repr=False, compare=False, hash=False, default_factory=dict)

    def __post_init__(self):
        seen = set()
        pos: dict[str, int] = {}
        for v in self.vertices:
            if v in seen:
                raise InputError(f"duplicate vertex {v!r}")
            seen.add(v)
            pos[v] = len(pos)
        for e in self.edges:
            for v in e:
                if v not in seen:
                    raise InputError(f"edge vertex {v!r} not among hypergraph vertices")
        object.__setattr__(self, "_position", pos)

    @classmethod
    def build(cls, edges: Iterable[Iterable[str]], vertices: Sequence[str] | None = None) -> "Hypergraph":
        """Normalize ``edges`` into a hypergraph.

        Empty edges are dropped and duplicates collapse to their first
        occurrence.  When ``vertices`` is omitted, vertices are interned in
        order of first appearance while scanning the edges.
        """
        norm: list[frozenset[str]] = []
        seen_edges: set[frozenset[str]] = set()
        interned: list[str] = []
        interned_set: set[str] = set()
        for edge in edges:
            members = _edge_members(edge)
            for v in members:
                if v not in interned_set:
                    interned.append(v)
                    interned_set.add(v)
            fs = frozenset(members)
            if not fs or fs in seen_edges:
                continue
            seen_edges.add(fs)
            norm.append(fs)
        if vertices is None:
            verts = tuple(interned)
        else:
            verts = tuple(vertices)
            missing = interned_set - set(verts)
            if missing:
                raise InputError(f"edge vertices {sorted(missing)} not among given vertices")
        return cls(verts, tuple(norm))

    def position(self, v: str) -> int:
        try:
            return self._position[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def sorted_vertices(self, vs: Iterable[str]) -> list[str]:
        return sorted(vs, key=self.position)


@dataclass(frozen=True)
class AcyclicityReport:
    """Outcome of running the two elimination rules to a fixed point."""

    acyclic: bool
    elimination_order: tuple[str, ...]
    witness: Hypergraph | None


def gyo_reduce(h: Hypergraph) -> AcyclicityReport:
    """Decide acyclicity by exhaustive edge-containment / private-vertex elimination.

    The two rules: delete an edge contained in a different edge; delete a
    vertex contained in at most one edge (together with its occurrence).  The
    hypergraph is acyclic iff the vertex set empties; the result does not
    depend on the order in which applicable rules fire, but for reproducible
    elimination orders ties go to the lowest edge index / earliest vertex.
    """
    vertices = list(h.vertices)
    # Edges carry a stable id so that two edges whose sets become equal during
    # reduction still count as distinct (one may absorb the other).
    edges: list[tuple[int, set[str]]] = [(i, set(e)) for i, e in enumerate(h.edges)]
    order: list[str] = []

    while True:
        contained = None
        for ei, (ida, ea) in enumerate(edges):
            for idb, eb in edges:
                if ida != idb and ea <= eb:
                    contained = ei
                    break
            if contained is not None:
                break
        if contained is not None:
            del edges[contained]
            continue

        private = None
        for vi, v in enumerate(vertices):
            holders = [e for _, e in edges if v in e]
            if len(holders) <= 1:
                private = (vi, v, holders)
                break
        if private is None:
            break
        vi, vname, holders = private
        order.append(vname)
        del vertices[vi]
        for e in holders:
            e.discard(vname)

    if not vertices:
        return AcyclicityReport(True, tuple(order), None)
    kernel = Hypergraph.build([sorted(e, key=h.position) for _, e in edges if e], vertices=tuple(vertices))
    return AcyclicityReport(False, tuple(order), kernel)


def induced(h: Hypergraph, s: Iterable[str]) -> Hypergraph:
    """Restrict to ``s``: intersect every edge with ``s``, drop empties, dedup."""
    sset = set(s)
    for v in sset:
        h.position(v)  # raises on unknown vertices
    verts = tuple(v for v in h.vertices if v in sset)
    projected = [[v for v in h.vertices if v in (e & sset)] for e in h.edges]
    return Hypergraph.build(projected, vertices=verts)


def neighbors(h: Hypergraph, s: Iterable[str]) -> frozenset[str]:
    """Vertices outside ``s`` sharing an edge with some member of ``s``."""
    sset = set(s)
    for v in sset:
        h.position(v)
    out: set[str] = set()
    for e in h.edges:
        if e & sset:
            out |= e
    return frozenset(out - sset)


def component_from(h: Hypergraph, v: str, allowed: Iterable[str]) -> frozenset[str]:
    """Connected component of ``v`` in the hypergraph induced by ``allowed``."""
    allowed_set = set(allowed)
    for u in allowed_set:
        h.position(u)
    if v not in allowed_set:
        raise InputError(f"vertex {v!r} not in the allowed set")
    comp = {v}
    frontier = [v]
    clipped = [e & allowed_set for e in h.edges]
    while frontier:
        u = frontier.pop()
        for e in clipped:
            if u in e:
                for w in e:
                    if w not in comp:
                        comp.add(w)
                        frontier.append(w)
    return frozenset(comp)


def disruptive_trios(h: Hypergraph, order: Sequence[str]) -> list[tuple[str, str, str]]:
    """All trios (a, b, c): c after both in ``order``, a-b not adjacent, c adjacent to both.

    ``order`` must enumerate every vertex of ``h`` exactly once.  Output is
    canonical: a precedes b in ``order``; trios are listed in lexicographic
    position order.
    """
    seq = list(order)
    if sorted(seq) != sorted(h.vertices):
        raise InputError("order must be a permutation of the hypergraph vertices")
    adj: dict[str, set[str]] = {v: set() for v in seq}
    for e in h.edges:
        for u in e:
            adj[u] |= e
    for v in seq:
        adj[v].discard(v)
    trios = []
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = seq[i], seq[j]
            if b in adj[a]:
                continue
            for k in range(j + 1, n):
                c = seq[k]
                if a in adj[c] and b in adj[c]:
                    trios.append((a, b, c))
    return trios
