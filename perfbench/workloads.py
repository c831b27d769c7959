"""Seeded inputs for the benchmark and the benchmark's own ground truth.

Every workload has a primary join query whose database is written as a
manifest plus headerless CSV files before any timer starts, so the timed
set-up pays CSV parsing exactly as ``lexjoin build`` does.  Each workload
also has a stream of complete 4-partite weighted graphs for the
zero-clique reduction.

Nothing here calls into the engine except the public instance generators of
``lexjoin.hardness``.  Answer counts are computed independently (a dynamic
program for chains, a sum over z of products of degrees for stars) and
answer tuples are checked against the benchmark's own row sets.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import Callable, Iterator

from lexjoin import hardness


@dataclass(frozen=True)
class Instance:
    """A generated primary database plus what the checks need to know of it."""

    query_text: str
    manifest: Path
    head: tuple[str, ...]
    atoms: tuple[tuple[str, tuple[str, ...]], ...]
    rows: dict[str, frozenset[tuple[int, ...]]]
    domains: dict[str, tuple[int, ...]]
    expected_count: int

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def satisfies(self, t: tuple) -> bool:
        """Does the head-order tuple t satisfy every atom?"""
        if len(t) != len(self.head):
            return False
        binding = dict(zip(self.head, t))
        return all(tuple(binding[v] for v in vs) in self.rows[sym] for sym, vs in self.atoms)


@dataclass(frozen=True)
class Workload:
    """Input sizes and the split of the measured seconds across phases."""

    primary: Callable[[int, Path], Instance]
    toy: Callable[[int, Path], Instance]
    reduce_part_size: int
    serve_share: float
    io_share: float
    reduce_share: float


def _write_database(
    directory: Path, relations: dict[str, frozenset[tuple[int, ...]]]
) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"relations": {}}
    for sym, rows in relations.items():
        name = f"{sym.lower()}.csv"
        with open(directory / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(sorted(rows))
        manifest["relations"][sym] = {"file": name, "types": ["int", "int"]}
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return path


def _query_text(name: str, head, atoms) -> str:
    body = ", ".join(f"{sym}({', '.join(vs)})" for sym, vs in atoms)
    return f"{name}({', '.join(head)}) :- {body}."


def _domains(head, atoms, rows) -> dict[str, tuple[int, ...]]:
    seen: dict[str, set[int]] = {v: set() for v in head}
    for sym, vs in atoms:
        for row in rows[sym]:
            for v, x in zip(vs, row):
                seen[v].add(x)
    return {v: tuple(sorted(xs)) for v, xs in seen.items()}


def chain_instance(seed: int, directory: Path, nvars: int, rows: int, domain: int) -> Instance:
    """R0(x0, x1), ..., R{n-2}(x{n-2}, x{n-1}) with uniform random int rows."""
    rng = random.Random(f"chain/{seed}")
    head = tuple(f"x{i}" for i in range(nvars))
    atoms = tuple((f"R{i}", (head[i], head[i + 1])) for i in range(nvars - 1))
    relations = {
        sym: frozenset((rng.randrange(domain), rng.randrange(domain)) for _ in range(rows))
        for sym, _ in atoms
    }
    # Paths counted from the last variable backwards.
    completions = {b: 1 for _, b in relations[atoms[-1][0]]}
    for sym, _ in reversed(atoms):
        nxt: dict[int, int] = {}
        for a, b in relations[sym]:
            if b in completions:
                nxt[a] = nxt.get(a, 0) + completions[b]
        completions = nxt
    return Instance(
        _query_text("Chain", head, atoms),
        _write_database(directory, relations),
        head,
        atoms,
        relations,
        _domains(head, atoms, relations),
        sum(completions.values()),
    )


def _star_count(relations: dict[str, frozenset[tuple[int, int]]]) -> int:
    degrees = []
    for rows in relations.values():
        deg: dict[int, int] = {}
        for _, z in rows:
            deg[z] = deg.get(z, 0) + 1
        degrees.append(deg)
    return sum(prod(d.get(z, 0) for d in degrees) for z in degrees[0])


def _star_instance(directory: Path, relations: dict[str, frozenset[tuple[int, int]]]) -> Instance:
    k = len(relations)
    q, order = hardness.star_query(k)
    if order.variables != q.variables:
        raise ValueError("star query head must equal its worst order")
    return Instance(
        _query_text(q.name, q.variables, q.atoms),
        _write_database(directory, relations),
        q.variables,
        q.atoms,
        relations,
        _domains(q.variables, q.atoms, relations),
        _star_count(relations),
    )


def star_instance(seed: int, directory: Path, rows: int, xdom: int, zdom: int) -> Instance:
    """The 3-armed star under its worst order (z last), random int rows."""
    rng = random.Random(f"star/{seed}")
    relations = {
        f"R{i}": frozenset((rng.randrange(xdom), rng.randrange(zdom)) for _ in range(rows))
        for i in (1, 2, 3)
    }
    return _star_instance(directory, relations)


def setdisj_instance(seed: int, directory: Path, sets: int, universe: int, set_size: int) -> Instance:
    """Three families of equal-size random sets, encoded as a star database.

    Relation i holds the (set index, element) pairs of family i, as
    ``hardness.encode_set_disjointness`` lays them out; z ranges over the
    universe.  Equal set sizes keep the answer count steady across seeds.
    """
    rng = random.Random(f"setdisj/{seed}")
    relations = {
        f"R{i}": frozenset(
            (j, v) for j in range(1, sets + 1) for v in rng.sample(range(universe), set_size)
        )
        for i in (1, 2, 3)
    }
    return _star_instance(directory, relations)


def partite_graphs(seed: int, part_size: int) -> Iterator[tuple[hardness.WeightedCliqueInstance, int]]:
    """Endless stream of (4-partite graph, reduction rng seed) pairs.

    Weights are uniform in [-10**6, 10**6], so a zero clique is rare and the
    reduction almost always walks every intersection instance.
    """
    i = 0
    while True:
        rng = random.Random(f"graph/{seed}/{i}")
        g, _ = hardness.random_partite_instance(rng, 4, part_size, 10**6)
        yield g, rng.randrange(2**32)
        i += 1


WORKLOADS: dict[str, Workload] = {
    "serve-chain": Workload(
        primary=lambda seed, d: chain_instance(seed, d, nvars=10, rows=25000, domain=200),
        toy=lambda seed, d: chain_instance(seed, d, nvars=10, rows=8, domain=4),
        reduce_part_size=6,
        serve_share=0.55,
        io_share=0.3,
        reduce_share=0.15,
    ),
    "build-star3": Workload(
        primary=lambda seed, d: star_instance(seed, d, rows=300, xdom=60, zdom=30),
        toy=lambda seed, d: star_instance(seed, d, rows=10, xdom=4, zdom=3),
        reduce_part_size=6,
        serve_share=0.4,
        io_share=0.3,
        reduce_share=0.3,
    ),
    "reduce-zeroclique": Workload(
        primary=lambda seed, d: setdisj_instance(seed, d, sets=10, universe=100, set_size=50),
        toy=lambda seed, d: setdisj_instance(seed, d, sets=4, universe=6, set_size=3),
        reduce_part_size=8,
        serve_share=0.3,
        io_share=0.1,
        reduce_share=0.6,
    ),
}
