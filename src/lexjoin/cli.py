"""Command-line front door.

Subcommands: analyze, build, access, count, rank, enum, sample, quantile,
test, oracle, gen.  Exit codes: 0 success, 2 bad input, 3 out of bounds or
not an answer, 4 internal invariant failure.  Set LEXJOIN_LOG to a level
name (DEBUG, INFO, ...) for diagnostics on stderr.  All randomized commands
are fully determined by --seed.

The seven index subcommands (access through test) are each one call on the
loaded index, and print in one of three shapes.  Rows (access, enum, sample,
quantile, and oracle) are CSV lines, or with --format json one object
{"schema": 1, "rows": [...]}.  count and rank print a decimal, or with
--format json {"schema": 1, "count": "<n>"} (or "rank"), the number as a
string.  test prints true or false and takes no --format.
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
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


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


# The index subcommands, each one call on the loaded index: name, help, the arguments
# after -i/--index as (flags, keywords), and the call.  The call returns rows, a number
# (count, rank) or a verdict (test), and cmd_index prints each in its own shape.
_FORMAT = (("--format",), {"choices": ["csv", "json"], "default": "csv"})
_INDEX_COMMANDS = (
    ("access", "fetch the j-th answer (0-based)",
     [(("-j",), {"type": int, "required": True}), _FORMAT],
     lambda ix, a: [ix.access(a.j)]),
    ("count", "number of answers", [_FORMAT], lambda ix, a: ix.count()),
    ("rank", "position of an answer tuple",
     [(("-t", "--tuple"), {"required": True, "help": "comma-separated values, head order"}),
      _FORMAT],
     lambda ix, a: ix.rank(_parse_tuple(ix, a.tuple))),
    ("enum", "stream answers from --from (inclusive) to --to (exclusive)",
     [(("--from",), {"dest": "frm", "type": int, "default": 0}),
      (("--to",), {"type": int}), _FORMAT],
     lambda ix, a: ix.enumerate_range(a.frm, ix.count() if a.to is None else a.to)),
    ("sample", "sample n distinct answers uniformly",
     [(("-n",), {"type": int, "required": True}),
      (("--seed",), {"type": int, "default": 0}), _FORMAT],
     lambda ix, a: ix.sample_without_replacement(a.n, a.seed)),
    ("quantile", "answer at rank floor(q * (count - 1))",
     [(("-q",), {"required": True, "help": "rational in [0, 1], e.g. 1/2 or 0.5"}), _FORMAT],
     lambda ix, a: [ix.quantile(a.q)]),
    ("test", "is the tuple an answer?", [(("-t", "--tuple"), {"required": True})],
     lambda ix, a: ix.test_membership(_parse_tuple(ix, a.tuple))),
)


def cmd_index(args) -> int:
    ix = index_io.load_index(args.index)
    result = args.call(ix, args)
    if isinstance(result, bool):
        print("true" if result else "false")
    elif isinstance(result, int):
        as_json = json.dumps({"schema": SCHEMA_VERSION, args.command: str(result)})
        print(as_json if args.format == "json" else result)
    else:
        _emit_rows(result, args.format)
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
        csv.writer(fh, lineterminator="\n").writerows(rows)


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


def _check_values(relations: int, arity: int, rows: int) -> None:
    """Refuse, before the query or a row is built, relations that would hold too many values.

    Each of the ``relations`` holds its atom's ``arity`` variables and
    ``rows`` rows of as many values; MAX_INSTANCE_VALUES bounds the total.
    """
    cap = hardness.MAX_INSTANCE_VALUES
    if min(relations, arity, rows) >= 0 and relations * arity * (rows + 1) > cap:
        raise InputError(f"the instance would hold more than {cap} values")


def _gen_star(args, rng: random.Random):
    _check_values(args.k, 2, args.per_relation)
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
    _check_values(args.k, args.k - 1, args.per_relation)
    q = hardness.lw_query(args.k)
    domains = (args.domain,) * (args.k - 1)
    relations = _random_relations(rng, q.symbols, args.per_relation, domains)
    params = {"k": args.k, "per_relation": args.per_relation, "domain": args.domain}
    return lambda outdir: _write_instance(outdir, q, relations), params


# A generator draws, so checks its arguments, before returning a writer and sidecar fields.
# Each family takes only its own flags, given here with their defaults; False is a switch.
_GENERATORS = {
    "star": (_gen_star, {"k": 2, "per-relation": 100, "x-domain": 50, "z-domain": 50}),
    "setdisj": (
        _gen_setdisj, {"k": 2, "sets": 10, "universe": 32, "max-set-size": 8, "queries": None}
    ),
    "zeroclique": (
        _gen_zeroclique, {"parts": 3, "part-size": 12, "weight-bound": 10**6, "planted": False}
    ),
    "lw": (_gen_lw, {"k": 2, "per-relation": 100, "domain": 50}),
}


def cmd_gen(args) -> int:
    write, params = _GENERATORS[args.family][0](args, random.Random(args.seed))
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

    for name, help_, arguments, call in _INDEX_COMMANDS:
        p = sub.add_parser(name, help=help_)
        for flags, keywords in ((("-i", "--index"), {"required": True}), *arguments):
            p.add_argument(*flags, **keywords)
        p.set_defaults(fn=cmd_index, call=call)

    p = sub.add_parser("oracle", help="materialize the sorted result by brute force (test scale)")
    p.add_argument("-q", "--query", required=True)
    p.add_argument("-m", "--manifest", required=True)
    p.add_argument(*_FORMAT[0], **_FORMAT[1])
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("gen", help="emit benchmark instance files")
    families = p.add_subparsers(dest="family", required=True)
    for family, (_, flags) in _GENERATORS.items():
        f = families.add_parser(family)
        f.add_argument("-o", "--out", required=True)
        f.add_argument("--seed", type=int, default=0)
        for flag, default in flags.items():
            if default is False:
                f.add_argument(f"--{flag}", action="store_true")
            else:
                f.add_argument(f"--{flag}", type=int, default=default)
    p.set_defaults(fn=cmd_gen)

    # The innermost subcommand's default wins, so main reports stray arguments with its usage.
    for p in (*sub.choices.values(), *families.choices.values()):
        p.set_defaults(parser=p)
    return parser


# Checked in order, so each subclass comes before LexjoinError.
_EXITS = (
    (OutOfBoundsError, "out of bounds", 3),
    (NotAnAnswerError, "not an answer", 3),
    (InputError, "error", 2),
    (InternalError, "internal error", 4),
    (LexjoinError, "error", 2),
)


def main(argv=None) -> int:
    level = os.environ.get("LEXJOIN_LOG")
    if level:
        if not isinstance(logging.getLevelName(level.upper()), int):
            print(f"error: LEXJOIN_LOG={level!r} is not a log level name", file=sys.stderr)
            return 2
        logging.basicConfig(level=level.upper(), stream=sys.stderr)
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # The root takes no argument of its own: a token before the
        # subcommand is stray at the root, any other one in the subcommand.
        blamed = parser if argv.index(args.command) > 0 else args.parser
        blamed.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.fn(args)
    except LexjoinError as exc:
        prefix, code = next((p, c) for cls, p, c in _EXITS if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
