"""Command-line front door.

Subcommands: analyze, build, access, count, rank, enum, sample, quantile,
test, oracle, gen.  Exit codes: 0 success, 2 bad input, 3 out of bounds or
not an answer, 4 internal invariant failure.  Set LEXJOIN_LOG to a level
name (DEBUG, INFO, ...) for diagnostics on stderr.  All randomized commands
are fully determined by --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import random
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

from . import hardness, index_io, oracle, storage
from .access import AccessIndex, build_index
from .decomposition import decompose
from .errors import (
    InputError,
    InternalError,
    LexjoinError,
    NotAnAnswerError,
    OutOfBoundsError,
)
from .hypergraph import gyo_reduce
from .query import disruptive_trios, format_query, hypergraph_of, parse_query

log = logging.getLogger("lexjoin")

SCHEMA_VERSION = 1


def _read_query(path: str):
    return parse_query(storage.read_text(path, "query file"))


def _parse_tuple(ix: AccessIndex, text: str) -> list:
    try:
        rows = list(csv.reader([text]))
    except csv.Error as exc:  # a newline outside quotes, say
        raise InputError(f"cannot parse tuple {text!r}: {exc}") from None
    fields = rows[0] if rows else []
    if len(fields) != len(ix.query.variables):
        raise InputError(
            f"expected {len(ix.query.variables)} comma-separated values, got {len(fields)}"
        )
    out = []
    for raw, var in zip(fields, ix.query.variables):
        t = ix.var_types[var]
        if t == storage.TYPE_INT:
            try:
                out.append(int(raw))
            except ValueError:
                out.append(raw)  # not an int, cannot be an answer value
        else:
            out.append(raw)
    return out


def _emit_rows(rows, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"schema": SCHEMA_VERSION, "rows": [list(r) for r in rows]}))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in rows:
        writer.writerow(row)


def cmd_analyze(args) -> int:
    q, order = _read_query(args.query)
    h = hypergraph_of(q)
    report = gyo_reduce(h)
    trios = disruptive_trios(q, order)
    decomp = decompose(q, order)
    payload = {
        "schema": SCHEMA_VERSION,
        "name": q.name,
        "variables": list(q.variables),
        "order": list(order.variables),
        "self_join_free": q.is_self_join_free(),
        "acyclic": report.acyclic,
        "disruptive_trios": [list(t) for t in trios],
        "bags": [
            {
                "variables": list(bag),
                "parent": decomp.parent[i],
                "rho_star": str(decomp.bag_cover[i].total),
                "cover": {
                    ",".join(sorted(e, key=order.position)): str(w)
                    for e, w in decomp.bag_cover[i].weights.items()
                    if w > 0
                },
            }
            for i, bag in enumerate(decomp.bags)
        ],
        "iota": str(decomp.iota),
        "witness_bag": decomp.witness,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return 0
    print(f"query {q.name}: {len(q.variables)} variables, {len(q.atoms)} atoms")
    print(f"order: {', '.join(order.variables)}")
    print(f"self-join free: {payload['self_join_free']}")
    print(f"acyclic: {payload['acyclic']}")
    if trios:
        print(f"disruptive trios ({len(trios)}):")
        for t in trios:
            print(f"  {t[0]}, {t[1]} <- {t[2]}")
    else:
        print("disruptive trios: none")
    print("bags (own variable last):")
    for i, bag in enumerate(payload["bags"]):
        parent = "root" if bag["parent"] is None else f"parent {bag['parent']}"
        print(f"  [{i}] {{{', '.join(bag['variables'])}}}  rho*={bag['rho_star']}  {parent}")
    print(f"incompatibility number: {payload['iota']} (bag {payload['witness_bag']})")
    return 0


def cmd_build(args) -> int:
    q, order = _read_query(args.query)
    t0 = time.perf_counter()
    db = storage.load(args.manifest)
    t1 = time.perf_counter()
    log.info("load: %.3f ms, %d rows", (t1 - t0) * 1000, db.size)
    ix = build_index(q, order, db)
    t2 = time.perf_counter()
    log.info("build: %.3f ms, bag rows %s", (t2 - t1) * 1000, ix.stats["bag_rows"])
    index_io.save_index(ix, args.out)
    t3 = time.perf_counter()
    index_bytes = Path(args.out).stat().st_size
    log.info("save: %.3f ms, %d bytes", (t3 - t2) * 1000, index_bytes)
    stats = {
        "schema": SCHEMA_VERSION,
        "count": str(ix.total_count),
        "database_size": db.size,
        "bag_rows": ix.stats["bag_rows"],
        "multiatom_joins": ix.stats["multiatom_joins"],  # maximal bags joined, not projected
        "iota": ix.stats["iota"],
        "index_bytes": index_bytes,
        "timings_ms": {
            "load": round((t1 - t0) * 1000, 3),
            "build": round((t2 - t1) * 1000, 3),
            "save": round((t3 - t2) * 1000, 3),
        },
    }
    print(json.dumps(stats, indent=2))
    return 0


def cmd_access(args) -> int:
    ix = index_io.load_index(args.index)
    _emit_rows([ix.access(args.j)], args.format)
    return 0


def cmd_count(args) -> int:
    ix = index_io.load_index(args.index)
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA_VERSION, "count": str(ix.count())}))
    else:
        print(ix.count())
    return 0


def cmd_rank(args) -> int:
    ix = index_io.load_index(args.index)
    j = ix.rank(_parse_tuple(ix, args.tuple))
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA_VERSION, "rank": str(j)}))
    else:
        print(j)
    return 0


def cmd_enum(args) -> int:
    ix = index_io.load_index(args.index)
    stop = ix.count() if args.to is None else args.to
    _emit_rows(ix.enumerate_range(args.frm, stop), args.format)
    return 0


def cmd_sample(args) -> int:
    ix = index_io.load_index(args.index)
    _emit_rows(ix.sample_without_replacement(args.n, args.seed), args.format)
    return 0


def cmd_quantile(args) -> int:
    ix = index_io.load_index(args.index)
    try:
        q = Fraction(args.q)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse quantile {args.q!r}") from None
    _emit_rows([ix.quantile(q)], args.format)
    return 0


def cmd_test(args) -> int:
    ix = index_io.load_index(args.index)
    verdict = ix.test_membership(_parse_tuple(ix, args.tuple))
    print("true" if verdict else "false")
    return 0


def cmd_oracle(args) -> int:
    q, order = _read_query(args.query)
    db = storage.load(args.manifest)
    result = oracle.materialize_sorted(q, order, db)
    _emit_rows(result.rows, args.format)
    return 0


# --------------------------------------------------------------------- #
# generators


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow(row)


def _write_instance(outdir: Path, q, relations: dict[str, list[tuple[int, ...]]]) -> None:
    """The query file, one integer CSV per relation and their manifest."""
    (outdir / "query.jq").write_text(format_query(q) + "\n")
    arity = dict(q.atoms)
    manifest = {"relations": {}}
    for sym, rows in relations.items():
        _write_csv(outdir / f"{sym}.csv", rows)
        manifest["relations"][sym] = {"file": f"{sym}.csv", "types": ["int"] * len(arity[sym])}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _random_relations(rng: random.Random, symbols, count: int, domains: tuple[int, ...]) -> dict:
    """Per symbol, count distinct tuples drawn uniformly from range(d) per column, sorted."""
    if count < 0 or min(domains) < 0:
        raise InputError("row counts and domains must be non-negative")
    if count > prod(domains):
        box = " x ".join(map(str, domains))
        raise InputError(f"cannot draw {count} distinct rows from a {box} domain")
    relations = {}
    for sym in symbols:
        rows = set()
        while len(rows) < count:
            rows.add(tuple(rng.randrange(d) for d in domains))
        relations[sym] = sorted(rows)
    return relations


def _gen_star(args, rng: random.Random):
    q, _ = hardness.star_query(args.k)  # its worst order is its head order
    domains = (args.x_domain, args.z_domain)
    relations = _random_relations(rng, q.symbols, args.per_relation, domains)
    return lambda outdir: _write_instance(outdir, q, relations), {
        "k": args.k,
        "per_relation": args.per_relation,
        "x_domain": args.x_domain,
        "z_domain": args.z_domain,
    }


def _gen_setdisj(args, rng: random.Random):
    inst = hardness.random_set_family(
        rng, args.k, args.sets, args.universe, args.max_set_size, args.queries
    )
    q, _ = hardness.star_query(args.k)
    relations = hardness.set_family_rows(inst)
    return lambda outdir: _write_instance(outdir, q, relations), {
        "k": args.k,
        "sets_per_family": args.sets,
        "universe": args.universe,
        "max_set_size": args.max_set_size,
        "queries": [list(query) for query in inst.queries],
    }


def _gen_zeroclique(args, rng: random.Random):
    g, planted = hardness.random_partite_instance(
        rng, args.parts, args.part_size, args.weight_bound, plant=args.planted
    )
    return lambda outdir: hardness.write_partite_graph(outdir / "graph.txt", g), {
        "parts": args.parts,
        "part_size": args.part_size,
        "weight_bound": args.weight_bound,
        "planted_clique": list(planted) if planted else None,
        "p": None,
        "rho": None,
    }


def _gen_lw(args, rng: random.Random):
    q = hardness.lw_query(args.k)
    domains = (args.domain,) * (args.k - 1)
    relations = _random_relations(rng, q.symbols, args.per_relation, domains)
    params = {"k": args.k, "per_relation": args.per_relation, "domain": args.domain}
    return lambda outdir: _write_instance(outdir, q, relations), params


# A generator draws, so checks its arguments, before returning a writer and sidecar fields.
_GENERATORS = {
    "star": _gen_star, "setdisj": _gen_setdisj, "zeroclique": _gen_zeroclique, "lw": _gen_lw
}


def cmd_gen(args) -> int:
    write, params = _GENERATORS[args.family](args, random.Random(args.seed))
    outdir = Path(args.out)
    sidecar = {"schema": SCHEMA_VERSION, "family": args.family, "seed": args.seed, **params}
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        write(outdir)
        (outdir / "gen.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename or outdir}: {exc.strerror}") from None
    return 0


# --------------------------------------------------------------------- #
# wiring


def _add_format(p):
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexjoin",
        description="Sorted-array style access to join query answers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decomposition and order diagnostics for a query file")
    p.add_argument("query")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("build", help="build and persist a direct-access index")
    p.add_argument("-q", "--query", required=True)
    p.add_argument("-m", "--manifest", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("access", help="fetch the j-th answer (0-based)")
    p.add_argument("-i", "--index", required=True)
    p.add_argument("-j", type=int, required=True)
    _add_format(p)
    p.set_defaults(fn=cmd_access)

    p = sub.add_parser("count", help="number of answers")
    p.add_argument("-i", "--index", required=True)
    _add_format(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("rank", help="position of an answer tuple")
    p.add_argument("-i", "--index", required=True)
    p.add_argument("-t", "--tuple", required=True, help="comma-separated values, head order")
    _add_format(p)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("enum", help="stream answers from --from (inclusive) to --to (exclusive)")
    p.add_argument("-i", "--index", required=True)
    p.add_argument("--from", dest="frm", type=int, default=0)
    p.add_argument("--to", dest="to", type=int, default=None)
    _add_format(p)
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("sample", help="sample n distinct answers uniformly")
    p.add_argument("-i", "--index", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("quantile", help="answer at rank floor(q * (count - 1))")
    p.add_argument("-i", "--index", required=True)
    p.add_argument("-q", required=True, help="rational in [0, 1], e.g. 1/2 or 0.5")
    _add_format(p)
    p.set_defaults(fn=cmd_quantile)

    p = sub.add_parser("test", help="is the tuple an answer?")
    p.add_argument("-i", "--index", required=True)
    p.add_argument("-t", "--tuple", required=True)
    p.set_defaults(fn=cmd_test)

    p = sub.add_parser("oracle", help="materialize the sorted result by brute force (test scale)")
    p.add_argument("-q", "--query", required=True)
    p.add_argument("-m", "--manifest", required=True)
    _add_format(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("gen", help="emit benchmark instance files")
    p.add_argument("family", choices=list(_GENERATORS))
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--per-relation", dest="per_relation", type=int, default=100)
    p.add_argument("--x-domain", dest="x_domain", type=int, default=50)
    p.add_argument("--z-domain", dest="z_domain", type=int, default=50)
    p.add_argument("--sets", type=int, default=10)
    p.add_argument("--universe", type=int, default=32)
    p.add_argument("--max-set-size", dest="max_set_size", type=int, default=8)
    p.add_argument("--queries", type=int, default=None)
    p.add_argument("--parts", type=int, default=3)
    p.add_argument("--part-size", dest="part_size", type=int, default=12)
    p.add_argument("--weight-bound", dest="weight_bound", type=int, default=10**6)
    p.add_argument("--planted", action="store_true")
    p.add_argument("--domain", type=int, default=50)
    p.set_defaults(fn=cmd_gen)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("LEXJOIN_LOG")
    if level:
        if not isinstance(logging.getLevelName(level.upper()), int):
            print(f"error: LEXJOIN_LOG={level!r} is not a log level name", file=sys.stderr)
            return 2
        logging.basicConfig(level=level.upper(), stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OutOfBoundsError as exc:
        print(f"out of bounds: {exc}", file=sys.stderr)
        return 3
    except NotAnAnswerError as exc:
        print(f"not an answer: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except LexjoinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
