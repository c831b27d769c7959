"""Span tracing around lexjoin's layer entry points, from outside the package.

``Tracer.install`` replaces each entry point under the name its callers look
up (a module attribute or a class attribute) with a wrapper that records a
span: name, start, end and the id of the enclosing span.  Spans are kept in
flat arrays in memory and written out once, when the run ends.  The
benchmark opens one root span per phase (``phase.setup``, ``phase.serve``,
``phase.io``, ``phase.reduce``); every other span inherits the phase of its
root, so a layer's figures can be read per phase.

A span's self time is its duration minus the time its direct children
cover.  The benchmark is single-threaded, so children of one span never
overlap and their coverage is the sum of their durations.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import lexjoin.access
import lexjoin.hardness
import lexjoin.index_io
import lexjoin.simplex
import lexjoin.storage


def _rows_in(args, result) -> int:
    return len(args[0])


def _rows_out(args, result) -> int:
    return len(result)


# (owner, attribute, span name, work counter); the owner is the object whose
# attribute the calling code looks up at call time.
ENTRY_POINTS: tuple[tuple[object, str, str, Callable | None], ...] = (
    (lexjoin.storage, "load", "storage.load", None),
    (lexjoin.storage, "project", "storage.project", _rows_in),
    (lexjoin.storage, "semijoin", "storage.semijoin", _rows_in),
    (lexjoin.hardness, "encode_set_disjointness", "storage.encode", None),
    (lexjoin.access, "decompose", "decomposition.decompose", None),
    (lexjoin.simplex, "solve_min", "simplex.solve", None),
    (lexjoin.access, "generic_join", "wcoj.generic_join", _rows_out),
    (lexjoin.access, "build_index", "access.build_index", None),
    (lexjoin.hardness, "build_index", "access.build_index", None),
    (lexjoin.access.AccessIndex, "access", "access.access", None),
    (lexjoin.access.AccessIndex, "access_codes", "access.access_codes", None),
    (lexjoin.access.AccessIndex, "rank", "access.rank", None),
    (lexjoin.access.AccessIndex, "rank_codes", "access.rank_codes", None),
    (lexjoin.index_io, "save_index", "index_io.save", None),
    (lexjoin.index_io, "load_index", "index_io.load", None),
    (lexjoin.hardness, "find_zero_clique_via_reduction", "hardness.reduce", None),
    (lexjoin.hardness, "prefix_block", "hardness.prefix_block", None),
    (lexjoin.hardness.DirectAccessBackend, "prepare", "hardness.prepare", None),
    (lexjoin.hardness.DirectAccessBackend, "intersect", "hardness.intersect", None),
)


@dataclass
class Totals:
    """Aggregate over the spans of one name within one phase."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    work: int = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.work.append(0)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, work: Callable | None = None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if work is not None:
                self.work[sid] = work(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, work in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[tuple[str, str], Totals]:
        """(phase, span name) -> totals; spans outside any phase get phase ''."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        phase = [""] * n
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                name = self.names[self.name[i]]
                phase[i] = name[len("phase."):] if name.startswith("phase.") else ""
            else:
                covered[p] += duration[i]
                phase[i] = phase[p]
        out: dict[tuple[str, str], Totals] = {}
        for i in range(n):
            t = out.setdefault((phase[i], self.names[self.name[i]]), Totals())
            t.calls += 1
            t.seconds += duration[i]
            t.self_seconds += duration[i] - covered[i]
            t.work += self.work[i]
        return out

    def write(self, path: Path) -> None:
        """All spans as gzip'd TSV: id, parent, name, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
