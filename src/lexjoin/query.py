"""Join queries, variable orders, and the text format that carries them.

Grammar of a query file (UTF-8, ``#`` comments run to end of line)::

    query   := NAME "(" varlist ")" ":-" atom ("," atom)* "." order?
    atom    := NAME "(" varlist ")"
    order   := "ORDER" varlist
    varlist := NAME ("," NAME)*

Identifiers are ASCII letters, digits and underscores, starting with an
ASCII letter or underscore; everything is case-sensitive.  ``ORDER`` is a
whole token, so ``ORDERy`` is an identifier, not ``ORDER y``.  The head
must list every variable occurring in the body and nothing else (there is
no projection), and it doubles as the lexicographic order unless an ORDER
clause overrides it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputError, ParseError
from .hypergraph import Hypergraph
from . import hypergraph as hg


@dataclass(frozen=True)
class JoinQuery:
    """A named join query: atoms over variables, no projection.

    ``variables`` is the head tuple; every variable occurs in some atom and
    every atom variable is in the head.  Atoms sharing a relation symbol must
    agree on arity (self-joins are allowed).
    """

    name: str
    atoms: tuple[tuple[str, tuple[str, ...]], ...]
    variables: tuple[str, ...]

    def __post_init__(self):
        if not self.atoms:
            raise InputError("a join query needs at least one atom")
        if len(set(self.variables)) != len(self.variables):
            raise InputError("head lists a variable twice")
        head = set(self.variables)
        body: set[str] = set()
        arities: dict[str, int] = {}
        for sym, vs in self.atoms:
            if not vs:
                raise InputError(f"atom {sym} has no variables")
            body.update(vs)
            if sym in arities and arities[sym] != len(vs):
                raise InputError(f"relation {sym} used with arities {arities[sym]} and {len(vs)}")
            arities.setdefault(sym, len(vs))
        extra = body - head
        if extra:
            raise InputError(f"body variables {sorted(extra)} missing from the head (projection unsupported)")
        unused = head - body
        if unused:
            raise InputError(f"head variables {sorted(unused)} appear in no atom")

    @property
    def symbols(self) -> tuple[str, ...]:
        out: list[str] = []
        for sym, _ in self.atoms:
            if sym not in out:
                out.append(sym)
        return tuple(out)

    def is_self_join_free(self) -> bool:
        return len(self.symbols) == len(self.atoms)


@dataclass(frozen=True)
class VariableOrder:
    """A permutation of a query's variables; position 0 is compared first."""

    variables: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise InputError("order lists a variable twice")
        object.__setattr__(self, "_pos", {v: i for i, v in enumerate(self.variables)})

    def position(self, v: str) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise InputError(f"variable {v!r} not in the order") from None

    def __len__(self) -> int:
        return len(self.variables)

    def check_against(self, q: JoinQuery) -> None:
        if sorted(self.variables) != sorted(q.variables):
            raise InputError("order is not a permutation of the query variables")


# Blanks and comments, then one token: ":-", an identifier, any other character, or "" at the end.
_TOKEN = re.compile(r"(?:\s|#[^\n]*)*(:-|[A-Za-z_][A-Za-z0-9_]*|.|\Z)", re.S)


def parse_query(text: str) -> tuple[JoinQuery, VariableOrder]:
    """Parse query text; the head (or an ORDER clause) defines the order."""
    # (token, offset) pairs, last first; tokens[-1] is next, and the end token "" is never taken.
    tokens = [(m[1], m.start(1)) for m in _TOKEN.finditer(text)][::-1]

    def error(message: str) -> ParseError:
        at = tokens[-1][1]
        return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))

    def accept(literal: str) -> bool:
        if tokens[-1][0] != literal:
            return False
        tokens.pop()
        return True

    def expect(literal: str) -> None:
        if not accept(literal):
            raise error(f"expected {literal!r}")

    def name() -> str:
        tok = tokens[-1][0]
        if not (tok.isascii() and tok.isidentifier()):
            raise error("expected an identifier")
        return tokens.pop()[0]

    def listed(item) -> tuple:
        out = [item()]
        while accept(","):
            out.append(item())
        return tuple(out)

    def atom() -> tuple[str, tuple[str, ...]]:
        sym = name()
        expect("(")
        vs = listed(name)
        expect(")")
        return sym, vs

    qname, head = atom()
    expect(":-")
    atoms = listed(atom)
    if not accept("."):
        raise error("expected ',' or '.'")

    order_vars = head
    if tokens[-1][0]:
        expect("ORDER")
        order_vars = listed(name)
    if tokens[-1][0]:
        raise error("unexpected trailing input")

    try:
        q = JoinQuery(qname, atoms, head)
        order = VariableOrder(order_vars)
        order.check_against(q)
    except InputError as exc:
        raise error(str(exc)) from None
    return q, order


def format_query(q: JoinQuery, order: VariableOrder | None = None) -> str:
    """Canonical text of a query; inverse of :func:`parse_query`."""
    head = ", ".join(q.variables)
    body = ", ".join(f"{sym}({', '.join(vs)})" for sym, vs in q.atoms)
    text = f"{q.name}({head}) :- {body}."
    if order is not None and order.variables != q.variables:
        text += "\nORDER " + ", ".join(order.variables)
    return text


def hypergraph_of(q: JoinQuery) -> Hypergraph:
    """One edge per atom scope, normalized; vertices in head order."""
    return Hypergraph.build([list(vs) for _, vs in q.atoms], vertices=q.variables)


def disruptive_trios(q: JoinQuery, order: VariableOrder) -> list[tuple[str, str, str]]:
    """Variable trios that block cheap lexicographic access under ``order``.

    A trio is (x1, x2, x3) with x3 after both in the order, x1 and x2 never
    in a common atom, and x3 sharing an atom with each.  Canonical form puts
    x1 before x2 in the order.
    """
    order.check_against(q)
    return hg.disruptive_trios(hypergraph_of(q), order.variables)
