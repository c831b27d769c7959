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


def _first_repeat(items: tuple[str, ...]) -> int | None:
    """Index of the first item equal to an earlier one; None when all differ."""
    if len(set(items)) == len(items):
        return None
    return next(i for i, v in enumerate(items) if v in items[:i])


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
        twice = _first_repeat(self.variables)
        if twice is not None:
            raise InputError("head lists a variable twice", at=("variables", twice))
        head = set(self.variables)
        body: set[str] = set()
        arities: dict[str, int] = {}
        for a, (sym, vs) in enumerate(self.atoms):
            if not vs:
                raise InputError(f"atom {sym} has no variables")
            body.update(vs)
            if arities.setdefault(sym, len(vs)) != len(vs):
                raise InputError(
                    f"relation {sym} used with arities {arities[sym]} and {len(vs)}", at=("atoms", a)
                )
        extra = body - head
        if extra:
            a, k = next((a, vs.index(v)) for a, (_, vs) in enumerate(self.atoms) for v in vs if v in extra)
            message = f"body variables {sorted(extra)} missing from the head (projection unsupported)"
            raise InputError(message, at=("atoms", a, k))
        unused = head - body
        if unused:
            at = ("variables", next(i for i, v in enumerate(self.variables) if v in unused))
            raise InputError(f"head variables {sorted(unused)} appear in no atom", at=at)

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
        twice = _first_repeat(self.variables)
        if twice is not None:
            raise InputError("order lists a variable twice", at=("variables", twice))
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

    def error(message: str, at: int | None = None) -> ParseError:
        if at is None:
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

    def name() -> tuple[str, int]:
        tok = tokens[-1][0]
        if not (tok.isascii() and tok.isidentifier()):
            raise error("expected an identifier")
        return tokens.pop()

    def listed(item) -> tuple:
        out = [item()]
        while accept(","):
            out.append(item())
        return tuple(out)

    def atom() -> tuple[tuple[str, int], tuple[tuple[str, int], ...]]:
        sym = name()
        expect("(")
        vs = listed(name)
        expect(")")
        return sym, vs

    (qname, _), head = atom()
    expect(":-")
    atoms = listed(atom)
    if not accept("."):
        raise error("expected ',' or '.'")

    order_vars, order_at = head, {}
    if tokens[-1][0]:
        order_at[()] = tokens[-1][1]
        expect("ORDER")
        order_vars = listed(name)
    if tokens[-1][0]:
        raise error("unexpected trailing input")

    # A failed check names the part at fault (InputError.at); report its token.
    query_at = {("variables", i): at for i, (_, at) in enumerate(head)}
    for a, ((_, at), vs) in enumerate(atoms):
        query_at["atoms", a] = at
        query_at.update((("atoms", a, k), at) for k, (_, at) in enumerate(vs))
    order_at.update((("variables", i), at) for i, (_, at) in enumerate(order_vars))

    def names(pairs) -> tuple[str, ...]:
        return tuple(tok for tok, _ in pairs)

    try:
        q = JoinQuery(qname, tuple((sym, names(vs)) for (sym, _), vs in atoms), names(head))
    except InputError as exc:
        raise error(str(exc), query_at.get(exc.at)) from None
    try:
        order = VariableOrder(names(order_vars))
        order.check_against(q)
    except InputError as exc:
        raise error(str(exc), order_at.get(exc.at)) from None
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
