"""Seeded instance generators shared by the unit and acceptance suites."""

from __future__ import annotations

import random
from typing import Sequence

from lexjoin import JoinQuery, VariableOrder, build_database
from lexjoin.hypergraph import Hypergraph
from lexjoin.storage import Database


def random_hypergraph(rng: random.Random, max_vertices: int = 8, max_edges: int = 8) -> Hypergraph:
    """Random hypergraph where every vertex sits in at least one edge."""
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        size = rng.randint(1, nv)
        edges.append(rng.sample(vertices, size))
    covered = {v for e in edges for v in e}
    for v in vertices:
        if v not in covered:
            edges.append([v])
    return Hypergraph.build(edges, vertices=vertices)


def random_query(
    rng: random.Random,
    max_vars: int = 7,
    max_atoms: int = 8,
    max_arity: int = 3,
    self_join_prob: float = 0.15,
) -> tuple[JoinQuery, VariableOrder]:
    """Random join query plus a random order over its variables."""
    nv = rng.randint(1, max_vars)
    variables = [f"x{i}" for i in range(nv)]
    natoms = rng.randint(1, max_atoms)
    atoms: list[tuple[str, tuple[str, ...]]] = []
    arities: dict[str, int] = {}
    for a in range(natoms):
        arity = rng.randint(1, min(max_arity, nv))
        scope = tuple(rng.sample(variables, arity))
        reusable = [s for s, ar in arities.items() if ar == arity]
        if reusable and rng.random() < self_join_prob:
            sym = rng.choice(reusable)
        else:
            sym = f"R{a}"
            arities[sym] = arity
        atoms.append((sym, scope))
    covered = {v for _, vs in atoms for v in vs}
    for i, v in enumerate(variables):
        if v not in covered:
            sym = f"U{i}"
            arities[sym] = 1
            atoms.append((sym, (v,)))
    q = JoinQuery("Q", tuple(atoms), tuple(variables))
    order_vars = variables[:]
    rng.shuffle(order_vars)
    return q, VariableOrder(tuple(order_vars))


def random_database(
    rng: random.Random,
    q: JoinQuery,
    domain: int = 6,
    max_rows: int = 25,
    min_rows: int = 0,
) -> Database:
    """Random integer database binding every symbol of the query."""
    raw = {}
    for sym, vs in q.atoms:
        if sym in raw:
            continue
        arity = len(vs)
        rows = {
            tuple(rng.randrange(domain) for _ in range(arity))
            for _ in range(rng.randrange(min_rows, max_rows + 1))
        }
        raw[sym] = (["int"] * arity, sorted(rows))
    return build_database(raw)


def random_subquery_instance(rng: random.Random, max_vars: int = 4):
    """A SubQuery-shaped instance: atoms may repeat variables inside a scope."""
    from lexjoin import SubQuery

    nv = rng.randint(1, max_vars)
    variables = [f"v{i}" for i in range(nv)]
    natoms = rng.randint(1, 4)
    raw = {}
    atoms = []
    for a in range(natoms):
        arity = rng.randint(1, 3)
        vs = tuple(rng.choice(variables) for _ in range(arity))
        sym = f"R{a}"
        rows = {
            tuple(rng.randrange(5) for _ in range(arity))
            for _ in range(rng.randrange(0, 14))
        }
        raw[sym] = (["int"] * arity, sorted(rows))
        atoms.append((sym, vs))
    covered = {v for _, vs in atoms for v in vs}
    for i, v in enumerate(variables):
        if v not in covered:
            sym = f"U{i}"
            raw[sym] = (["int"], [(x,) for x in range(5)])
            atoms.append((sym, (v,)))
    db = build_database(raw)
    return SubQuery(tuple(variables), tuple(atoms)), db


def mutate(rng: random.Random, data: bytes, tokens: Sequence[bytes], edits: int = 3) -> bytes:
    """data after 1..edits random edits: overwrite, insert or delete bytes, or splice a token."""
    out = bytearray(data)
    for _ in range(rng.randint(1, edits)):
        pos = rng.randrange(len(out) + 1)
        op = rng.randrange(4)
        if op == 0 and pos < len(out):
            out[pos] = rng.randrange(256)
        elif op == 1:
            out.insert(pos, rng.randrange(256))
        elif op == 2:
            del out[pos : pos + rng.randint(1, 4)]
        else:
            out[pos:pos] = rng.choice(tokens)
    return bytes(out)
