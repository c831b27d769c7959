#!/usr/bin/env python3
"""Benchmark of lexjoin: build cost, direct-access serving, many-small-index reductions.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-chain --seed 1 --seconds 15 --trace 0

One invocation measures one workload in a fresh process, with one
closed-loop client and no threads.  Inputs are generated from ``--seed``
and written as manifest + CSV files before any timer starts.  A pass then
times four kinds of step:

setup   ``storage.load(manifest)`` + ``build_index``; ``setup_s`` is the
        median of the repetitions.  Nothing else is timed with it.
serve   a window of closed-loop rounds: ``access``, ``rank`` of the returned
        tuple, ``test_membership`` and, every few rounds, an
        ``enumerate_range`` block, a ``quantile`` and a
        ``sample_without_replacement``.
io      ``save_index`` + ``load_index`` of the built index.
reduce  ``find_zero_clique_via_reduction`` with ``DirectAccessBackend`` on
        one graph of a seeded stream of 4-partite graphs.

``--seconds`` is split over serve, io and reduce steps by the workload's
shares, and the steps are interleaved so that each kind samples the whole
run; set-ups are spread over it too.  Between every two steps a fixed
reference task is timed, and each step's figure is scaled to the host speed
at which that task takes ``REFERENCE_S`` (see ``PassRunner.step``): shared
hosts slow a process by 1.4-2x for stretches of seconds to minutes.  Latency
percentiles are taken over all serve samples, other repeated figures are
medians.  Every answer is checked right after its step, outside the timers,
against the benchmark's own ground truth; a failed check makes the run exit
1.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every
per-layer metric instead.  A traced run makes an untraced pass and a traced
pass with half the seconds each; the difference is the tracing overhead.
The spans of the latest traced run of each workload are written to
``perfbench/_traces/<workload>.tsv.gz``.  ``perfbench/layers.json``
says which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave the source tree as checked out

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPS = 5  # at least this many set-ups per pass ...
SETUP_MIN_SECONDS = 2.0  # ... and more while they total less than this
SETUP_MAX_REPS = 15
WINDOW_ROUNDS = 200  # serve rounds per window
MIN_WINDOWS = 5  # so the pooled windows hold 1000 latency samples
EXTRAS_EVERY = 4  # serve rounds per enumerate/quantile/sample triple
ENUM_BLOCK = 64
SAMPLE_SIZE = 16
IO_MIN_REPS = 3
IO_CHECK_POSITIONS = 50
MIN_GRAPHS = 3
REFERENCE_LOOPS = 8000  # iterations of the reference task run between steps
REFERENCE_S = 0.004  # its time on an undisturbed host; figures are reported at that speed


def _import_program():
    """Import lexjoin from this checkout's sources, or exit 2."""
    package = SRC / "lexjoin"
    if not (package / "__init__.py").is_file():
        print(f"run.py: no lexjoin sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lexjoin

    if Path(lexjoin.__file__).resolve().parent != package.resolve():
        print(f"run.py: imported lexjoin from {lexjoin.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


_import_program()

from lexjoin import LexjoinError, access, hardness, index_io, materialize_sorted, parse_query, storage  # noqa: E402

from tracing import Totals, Tracer  # noqa: E402
from workloads import WORKLOADS, Instance, Workload, partite_graphs  # noqa: E402


class Ledger:
    """Operations attempted and failed; an operation fails once at most."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, problem: str | None) -> None:
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(problem)


@dataclass
class Window:
    """One serve window: timings, plus answers kept until they are checked."""

    access_us: list[float] = field(default_factory=list)
    rank_us: list[float] = field(default_factory=list)
    enum_answers: int = 0
    enum_seconds: float = 0.0
    ops: int = 0
    seconds: float = 0.0
    accessed: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    enums: list = field(default_factory=list)
    quants: list = field(default_factory=list)
    samples: list = field(default_factory=list)


@dataclass
class Pass:
    """Raw measurements of one pass through the four phases."""

    setup_s: list[float] = field(default_factory=list)
    windows: list[Window] = field(default_factory=list)
    save_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    index_bytes: int = 0
    graph_s: list[float] = field(default_factory=list)
    index: access.AccessIndex | None = None
    # Host speed factor per recorded step, REFERENCE_S / reference task time.
    speed: dict[str, list[float]] = field(
        default_factory=lambda: {"setup": [], "serve": [], "io": [], "reduce": []}
    )


_REF_VALUES = [i * 7**40 for i in range(1024)]
_REF_GROUPS = {(i, i % 7): i for i in range(1024)}


def _reference_seconds() -> float:
    """Time of a fixed pure-Python task shaped like an access step.

    Tuple-keyed dict lookups, big-integer division and binary searches over
    big integers, none of it in lexjoin.  Run between every two timed steps,
    it tells how fast the host currently runs such code.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        k = (i * 7919) & 1023
        acc += bisect_right(_REF_VALUES, (k * 7**40) // (_REF_GROUPS[(k, k % 7)] + 1))
    return perf_counter() - t0


def _percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, ceil(p / 100 * len(ordered)) - 1)]


def _phase(tracer: Tracer | None, name: str):
    return tracer.span(f"phase.{name}") if tracer is not None else nullcontext()


def _order_key(inst: Instance, order):
    cols = [inst.head.index(v) for v in order.variables]
    return lambda t: tuple(t[c] for c in cols)


def _increasing(rows, key) -> bool:
    return all(key(a) < key(b) for a, b in zip(rows, rows[1:]))


def check_toy(wl: Workload, seed: int, directory: Path, ledger: Ledger) -> None:
    """Whole answer list of a toy instance against the brute-force oracle."""
    inst = wl.toy(seed, directory)
    q, order = parse_query(inst.query_text)
    db = storage.load(inst.manifest)
    ix = access.build_index(q, order, db)
    ledger.attempted += 1
    answers = list(ix.enumerate_range(0, ix.count()))
    if ix.count() != inst.expected_count:
        ledger.check(f"toy: count {ix.count()} != {inst.expected_count}")
    elif answers != list(materialize_sorted(q, order, db).rows):
        ledger.check("toy: answers differ from the oracle")


class PassRunner:
    """One pass: set-ups, then serve windows, index round trips and graphs interleaved.

    The measured steps are interleaved so that each kind samples the whole
    pass; the next step is always of the kind furthest below its share of
    the seconds.  Set-up repetitions are spread evenly over the pass.  Every
    step is checked right after it, outside its timer.
    """

    def __init__(self, name: str, wl: Workload, inst: Instance, seed: int, work: Path,
                 ledger: Ledger, tracer: Tracer | None):
        self.wl = wl
        self.inst = inst
        self.query, self.order = parse_query(inst.query_text)
        self.key = _order_key(inst, self.order)
        self.index_path = work / "index.ljda"
        self.ledger = ledger
        self.tracer = tracer
        self.rng = random.Random(f"serve/{name}/{seed}")
        self.graphs = partite_graphs(seed, wl.reduce_part_size)
        self.digests: set[bytes] = set()
        self.out = Pass()

    def step(self, kind: str, fn) -> float:
        """Run one timed step between two reference tasks; returns its time.

        A step that recorded a figure gets the host speed factor
        REFERENCE_S / (mean of the reference times just before and after it).
        """
        out = self.out
        records = {"setup": out.setup_s, "serve": out.windows, "io": out.save_s, "reduce": out.graph_s}[kind]
        before = len(records)
        elapsed = fn()
        after = _reference_seconds()
        if len(records) > before:
            out.speed[kind].append(2 * REFERENCE_S / (self.reference + after))
        self.reference = after
        return elapsed

    def run(self, seconds: float) -> Pass:
        out = self.out
        self.reference = _reference_seconds()
        self.step("setup", self.setup)
        if out.index is None:
            return out
        reps = max(SETUP_REPS, min(SETUP_MAX_REPS, ceil(SETUP_MIN_SECONDS / out.setup_s[0])))
        steps = {  # kind: (share of the seconds, minimum count, one timed step)
            "serve": (self.wl.serve_share, MIN_WINDOWS, self.serve_window),
            "io": (self.wl.io_share, IO_MIN_REPS, self.io_round_trip),
            "reduce": (self.wl.reduce_share, MIN_GRAPHS, self.reduce_graph),
        }
        spent = dict.fromkeys(steps, 0.0)
        done = dict.fromkeys(steps, 0)
        while True:
            total = sum(spent.values())
            if len(out.setup_s) < reps and total >= seconds * len(out.setup_s) / reps:
                self.step("setup", self.setup)
                if out.index is None:
                    return out
                continue
            short = [kind for kind in steps if done[kind] < steps[kind][1]]
            if total >= seconds and not short:
                break
            kind = min(short or steps, key=lambda k: spent[k] / steps[k][0])
            spent[kind] += self.step(kind, steps[kind][2])
            done[kind] += 1
        return out

    def setup(self) -> float:
        out = self.out
        out.index = ix = None  # drop the previous index before building the next
        gc.collect()
        self.ledger.attempted += 1
        with _phase(self.tracer, "setup"):
            t0 = perf_counter()
            try:
                ix = access.build_index(self.query, self.order, storage.load(self.inst.manifest))
            except LexjoinError as exc:
                self.ledger.check(f"setup raised {exc!r}")
                return perf_counter() - t0
            elapsed = perf_counter() - t0
        out.setup_s.append(elapsed)
        out.index = ix
        if ix.count() != self.inst.expected_count:
            self.ledger.check(f"setup: count {ix.count()} != expected {self.inst.expected_count}")
        return elapsed

    def serve_window(self) -> float:
        """WINDOW_ROUNDS closed-loop rounds; returns their wall time."""
        ix, inst, rng, ledger = self.out.index, self.inst, self.rng, self.ledger
        count = ix.count()
        block = min(ENUM_BLOCK, count)
        nsample = min(SAMPLE_SIZE, count)
        head = inst.head
        w = Window()
        with _phase(self.tracer, "serve"):
            t_begin = perf_counter()
            for rounds in range(1, WINDOW_ROUNDS + 1):
                j = rng.randrange(count)
                try:
                    ledger.attempted += 1
                    a0 = perf_counter()
                    t = ix.access(j)
                    a1 = perf_counter()
                    ledger.attempted += 1
                    r = ix.rank(t)
                    a2 = perf_counter()
                    w.access_us.append((a1 - a0) * 1e6)
                    w.rank_us.append((a2 - a1) * 1e6)
                    w.accessed.append((j, t, r))
                    if rounds % 2:
                        probe = t
                    else:  # one coordinate swapped for another value of that variable
                        pos = rng.randrange(len(head))
                        probe = t[:pos] + (rng.choice(inst.domains[head[pos]]),) + t[pos + 1 :]
                    ledger.attempted += 1
                    w.probes.append((probe, ix.test_membership(probe)))
                    w.ops += 3
                    if rounds % EXTRAS_EVERY == 0:
                        start = rng.randrange(count - block + 1)
                        ledger.attempted += 1
                        e0 = perf_counter()
                        rows = list(ix.enumerate_range(start, start + block))
                        w.enum_seconds += perf_counter() - e0
                        w.enum_answers += len(rows)
                        w.enums.append(rows)
                        q = Fraction(rng.randrange(1001), 1000)
                        ledger.attempted += 1
                        w.quants.append((q, ix.quantile(q)))
                        ledger.attempted += 1
                        w.samples.append(ix.sample_without_replacement(nsample, rng.randrange(2**32)))
                        w.ops += 3
                except LexjoinError as exc:
                    ledger.check(f"serve raised {exc!r}")
            w.seconds = perf_counter() - t_begin
        self.check_window(w)
        self.out.windows.append(w)
        return w.seconds

    def check_window(self, w: Window) -> None:
        ix, inst, key, check = self.out.index, self.inst, self.key, self.ledger.check
        count = ix.count()
        for j, t, r in w.accessed:
            check(None if inst.satisfies(t) and r == j else f"access({j}) = {t}, rank of it {r}")
        for probe, member in w.probes:
            check(None if member == inst.satisfies(probe) else f"test_membership({probe}) = {member}")
        for rows in w.enums:
            ok = len(rows) == min(ENUM_BLOCK, count) and _increasing(rows, key) and all(map(inst.satisfies, rows))
            check(None if ok else "enumerate_range block is not increasing answers")
        for q, t in w.quants:
            ok = inst.satisfies(t) and t == ix.access(floor(q * (count - 1)))
            check(None if ok else f"quantile({q}) = {t}")
        for rows in w.samples:
            ok = len(rows) == min(SAMPLE_SIZE, count) and _increasing(rows, key) and all(map(inst.satisfies, rows))
            check(None if ok else "sample is not distinct sorted answers")
        w.accessed, w.probes, w.enums, w.quants, w.samples = [], [], [], [], []

    def io_round_trip(self) -> float:
        """save_index + load_index once, then check the loaded index; returns their time."""
        ix, path = self.out.index, self.index_path
        self.ledger.attempted += 2
        with _phase(self.tracer, "io"):
            s0 = perf_counter()
            try:
                index_io.save_index(ix, path)
                s1 = perf_counter()
                loaded = index_io.load_index(path)
            except LexjoinError as exc:
                self.ledger.check(f"index io raised {exc!r}")
                return perf_counter() - s0
            s2 = perf_counter()
        self.out.save_s.append(s1 - s0)
        self.out.load_s.append(s2 - s1)
        data = path.read_bytes()
        self.out.index_bytes = len(data)
        self.digests.add(hashlib.blake2b(data).digest())
        same = len(self.digests) == 1 and loaded.count() == ix.count()
        for _ in range(IO_CHECK_POSITIONS):
            j = self.rng.randrange(ix.count())
            t = ix.access(j)
            same = same and loaded.access(j) == t and loaded.rank(t) == j
        self.ledger.check(None if same else "loaded index differs, or save is not deterministic")
        return s2 - s0

    def reduce_graph(self) -> float:
        """One zero-clique reduction, checked against brute force; returns its time."""
        g, gseed = next(self.graphs)
        self.ledger.attempted += 1
        with _phase(self.tracer, "reduce"):
            t0 = perf_counter()
            try:
                found = hardness.find_zero_clique_via_reduction(
                    g, rng=random.Random(gseed), backend=hardness.DirectAccessBackend()
                )
            except LexjoinError as exc:
                self.ledger.check(f"reduction raised {exc!r}")
                return perf_counter() - t0
            elapsed = perf_counter() - t0
        self.out.graph_s.append(elapsed)
        brute = hardness.find_zero_clique_via_reduction(
            g, rng=random.Random(gseed), backend=hardness.BruteForceBackend()
        )
        ok = found == brute and (found is None or g.is_zero_clique(found))
        self.ledger.check(None if ok else f"reduction found {found}, brute force {brute}")
        return elapsed


def end_to_end(inst: Instance, p: Pass, scaled: bool = True) -> dict[str, float]:
    """Every end-to-end figure, each step's figure scaled by its host speed factor.

    Latency percentiles come from the pooled samples of all serve windows;
    the other repeated figures are medians over their steps.
    ``scaled=False`` gives the figures as timed.
    """
    speed = {k: v if scaled else [1.0] * len(v) for k, v in p.speed.items()}
    ws = list(zip(p.windows, speed["serve"]))
    access_us = [x * f for w, f in ws for x in w.access_us]
    rank_us = [x * f for w, f in ws for x in w.rank_us]
    median = statistics.median
    return {
        "setup_s": median(t * f for t, f in zip(p.setup_s, speed["setup"])),
        "access_p50_us": _percentile(access_us, 50),
        "access_p99_us": _percentile(access_us, 99),
        "rank_p50_us": _percentile(rank_us, 50),
        "rank_p99_us": _percentile(rank_us, 99),
        "enum_answers_per_s": median(w.enum_answers / w.enum_seconds / f for w, f in ws),
        "serve_ops_per_s": median(w.ops / w.seconds / f for w, f in ws),
        "index_save_s": median(t * f for t, f in zip(p.save_s, speed["io"])),
        "index_load_s": median(t * f for t, f in zip(p.load_s, speed["io"])),
        "index_bytes_per_row": p.index_bytes / inst.size,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reduce_graph_ms": median(t * f for t, f in zip(p.graph_s, speed["reduce"])) * 1e3,
    }


def per_layer(inst: Instance, plain: Pass, traced: Pass, tracer: Tracer) -> dict[str, float]:
    totals = tracer.totals()

    def agg(phase: str, name: str) -> Totals:
        return totals.get((phase, name), Totals())

    builds = len(traced.setup_s)
    graphs = len(traced.graph_s)
    ix = traced.index
    q, _ = parse_query(inst.query_text)
    multi_bag_rows = sum(
        len(values)
        for bag, table in zip(ix.bags, ix.tables)
        if not any(set(bag) <= set(vs) for _, vs in q.atoms)
        for values, _ in table.groups.values()
    )
    join = agg("setup", "wcoj.generic_join")
    semi = agg("setup", "storage.semijoin")
    proj = agg("setup", "storage.project")
    acc = agg("serve", "access.access")
    codes = agg("serve", "access.access_codes")
    rank = agg("serve", "access.rank_codes")
    save = agg("io", "index_io.save")
    load = agg("io", "index_io.load")
    decomp = agg("reduce", "decomposition.decompose")
    prepare = agg("reduce", "hardness.prepare")
    intersect = agg("reduce", "hardness.intersect")
    reduce_codes = agg("reduce", "access.access_codes")
    base, seen = end_to_end(inst, plain), end_to_end(inst, traced)
    return {
        "wcoj.generic_join_s": join.seconds / builds,
        "wcoj.calls": join.calls / builds,
        "wcoj.rows_out": join.work / builds,
        "wcoj.useful_ratio": multi_bag_rows * builds / join.work if join.work else 1.0,
        "storage.load_s": agg("setup", "storage.load").seconds / builds,
        "storage.semijoin_s": semi.seconds / builds,
        "storage.semijoin_calls": semi.calls / builds,
        "storage.semijoin_rows": semi.work / builds,
        "storage.project_s": proj.seconds / builds,
        "storage.project_calls": proj.calls / builds,
        "storage.project_rows": proj.work / builds,
        "storage.decode_us": acc.self_seconds / acc.calls * 1e6,
        "access.build_self_s": agg("setup", "access.build_index").self_seconds / builds,
        "access.access_codes_us": codes.seconds / codes.calls * 1e6,
        "access.rank_codes_us": rank.seconds / rank.calls * 1e6,
        "access.count_bits": ix.count().bit_length(),
        "access.reduce_access_codes_us": reduce_codes.seconds / reduce_codes.calls * 1e6,
        "index_io.save_s": save.seconds / save.calls,
        "index_io.load_s": load.seconds / load.calls,
        "index_io.bytes": traced.index_bytes,
        "decomposition.decompose_s": decomp.seconds / graphs,
        "decomposition.calls": decomp.calls / graphs,
        "simplex.solve_calls": agg("reduce", "simplex.solve").calls / graphs,
        "hardness.prepare_s": prepare.seconds / graphs,
        "hardness.intersect_s": intersect.seconds / graphs,
        "hardness.instances": prepare.calls / graphs,
        "hardness.access_calls_per_query": reduce_codes.calls / intersect.calls,
        "trace.overhead_setup_s": seen["setup_s"] - base["setup_s"],
        "trace.overhead_serve_op_us": 1e6 / seen["serve_ops_per_s"] - 1e6 / base["serve_ops_per_s"],
        "trace.overhead_reduce_graph_ms": seen["reduce_graph_ms"] - base["reduce_graph_ms"],
        "trace.spans": len(tracer.start),
    }


def _print_build_breakdown(tracer: Tracer) -> None:
    rows = sorted(
        ((t.self_seconds, name, t.calls) for (phase, name), t in tracer.totals().items()
         if phase == "setup" and name not in ("phase.setup", "storage.load")),
        reverse=True,
    )
    builds = tracer.totals()[("setup", "phase.setup")].calls
    print(f"self time inside build_index, summed over {builds} set-ups:")
    for self_s, name, calls in rows:
        print(f"  {name:28s} {self_s:10.4f} s  ({calls} calls)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
    if sorted(layers) != sorted(m["name"] for m in spec["per_layer"]):
        sys.exit("run.py: layers.json and BENCHMARK.json name different per-layer metrics")

    wl = WORKLOADS[args.workload]
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    ledger = Ledger()
    notes: dict[str, str] = {}
    try:
        check_toy(wl, args.seed, work / "toy", ledger)
        inst = wl.primary(args.seed, work / "db")
        if args.trace:
            plain = PassRunner(args.workload, wl, inst, args.seed, work, ledger, None).run(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = PassRunner(args.workload, wl, inst, args.seed, work, ledger, tracer).run(args.seconds / 2)
            finally:
                tracer.uninstall()
            complete = plain.index is not None and traced.index is not None
            if complete:
                metrics = per_layer(inst, plain, traced, tracer)
                _print_build_breakdown(tracer)
                tracer.write(BENCH / "_traces" / f"{args.workload}.tsv.gz")
        else:
            measured = PassRunner(args.workload, wl, inst, args.seed, work, ledger, None).run(args.seconds)
            complete = measured.index is not None
            if complete:
                metrics = end_to_end(inst, measured)
                raw = end_to_end(inst, measured, scaled=False)
                pooled = f"{sum(len(w.access_us) for w in measured.windows)} samples"
                windows = f"{len(measured.windows)} windows of {WINDOW_ROUNDS} rounds"
                counts = {"setup_s": len(measured.setup_s), "index_save_s": len(measured.save_s),
                          "index_load_s": len(measured.load_s), "reduce_graph_ms": len(measured.graph_s),
                          "access_p50_us": pooled, "access_p99_us": pooled,
                          "rank_p50_us": pooled, "rank_p99_us": pooled,
                          "enum_answers_per_s": windows, "serve_ops_per_s": windows}
                for name, n in counts.items():
                    notes[name] = f"  (as timed {raw[name]:.6g}, n={n})"
                speed = sorted(f for fs in measured.speed.values() for f in fs)
                print(f"host speed factor over {len(speed)} steps: median {statistics.median(speed):.3f}, "
                      f"range {speed[0]:.3f} to {speed[-1]:.3f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in ledger.errors:
        print(f"FAILED: {problem}", file=sys.stderr)
    if not complete:
        print("no index was built; nothing to report", file=sys.stderr)
        return 1
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        sys.exit("run.py: computed metrics differ from BENCHMARK.json")
    for m in wanted:
        name = m["name"]
        print(f"{args.workload} {name} = {metrics[name]:.6g} {m['unit']}{notes.get(name, '')}")
    print(f"{args.workload} failed_frac = {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
