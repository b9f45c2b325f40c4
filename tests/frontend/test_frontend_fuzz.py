"""Front-end fuzz: one grammar of comprehensions, two syntaxes, four executors.

Each drawn term is rendered as ``qc`` text and as ``pyq`` text.  Both must
desugar to the same term (equal fingerprints), and the interpreter, the
engine, the MIL VM and sqlite must return the same value or raise the same
``FerryError`` subclass (a ``//`` or ``%`` by zero included).  A second
rendering with one mutation -- a dropped token, an unbound name or a
builtin called with the wrong number of arguments -- must fail, if at all,
with a ``FerryError`` from either front end.

``test_fuzz_fixed`` is tier-1 at fixed seeds; ``test_fuzz_randomized``
runs under the ``property`` marker, scaled by ``FERRY_EXAMPLES_MULT``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import pyq, qc, table
from repro.errors import FerryError
from repro.runtime import Catalog

from ..conftest import run_all_ways
from ..properties.support import prop_settings

ROWS = {
    "t1": [(1, 2), (2, 0), (2, 3), (0, 0), (3, 1)],
    "t2": [(2, 1), (3, 3), (0, 2), (2, 1)],
}
SCHEMAS = {"t1": [("a", int), ("b", int)], "t2": [("c", int), ("d", int)]}
CATALOG = Catalog()
for _name, _rows in ROWS.items():
    CATALOG.create_table(_name, SCHEMAS[_name], _rows)
ENV = {name: table(name, schema) for name, schema in SCHEMAS.items()}


# ----------------------------------------------------------------------
# abstract comprehensions and their two renderings
# ----------------------------------------------------------------------

class Node:
    def render(self, py: bool) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Lit(Node):
    value: int

    def render(self, py):
        return str(self.value)


@dataclass(frozen=True)
class Var(Node):
    name: str

    def render(self, py):
        return self.name


@dataclass(frozen=True)
class Proj(Node):
    var: str
    index: int

    def render(self, py):
        return f"{self.var}[{self.index}]" if py else f"{self.var}.{self.index}"


@dataclass(frozen=True)
class Bin(Node):
    op: str          # + - * // % == != < <= and or
    lhs: Node
    rhs: Node

    def render(self, py):
        return f"({self.lhs.render(py)} {self.op} {self.rhs.render(py)})"


@dataclass(frozen=True)
class Un(Node):
    op: str          # not, -
    operand: Node

    def render(self, py):
        return f"({self.op} ({self.operand.render(py)}))"


@dataclass(frozen=True)
class If(Node):
    cond: Node
    then: Node
    orelse: Node

    def render(self, py):
        c, t, e = (n.render(py) for n in (self.cond, self.then, self.orelse))
        return f"({t} if {c} else {e})" if py else f"(if {c} then {t} else {e})"


PY_AGGREGATE = {"sum": "sum", "length": "len", "maximum": "max",
                "minimum": "min"}


@dataclass(frozen=True)
class Agg(Node):
    fn: str          # sum, length, maximum, minimum
    comp: "Comp"

    def render(self, py):
        name = PY_AGGREGATE[self.fn] if py else self.fn
        return f"{name}({self.comp.render(py)})"


@dataclass(frozen=True)
class Tup(Node):
    parts: tuple[Node, ...]

    def render(self, py):
        return "(" + ", ".join(p.render(py) for p in self.parts) + ")"


@dataclass(frozen=True)
class Gen(Node):
    pat: "str | tuple[str, str]"
    src: Node

    def render(self, py):
        pat = self.pat if isinstance(self.pat, str) else f"({', '.join(self.pat)})"
        src = self.src.render(py)
        return f"for {pat} in {src}" if py else f"{pat} <- {src}"


@dataclass(frozen=True)
class Guard(Node):
    cond: Node

    def render(self, py):
        return f"if {self.cond.render(py)}" if py else self.cond.render(py)


@dataclass(frozen=True)
class Comp(Node):
    head: Node
    quals: tuple[Node, ...]   # a Gen first, then Gens and Guards

    def render(self, py):
        quals = [q.render(py) for q in self.quals]
        if py:
            return f"[{self.head.render(py)} {' '.join(quals)}]"
        return f"[{self.head.render(py)} | {', '.join(quals)}]"


# ----------------------------------------------------------------------
# the grammar: a scope maps each bound variable to "int" or "pair"
# ----------------------------------------------------------------------

class Grammar:
    def __init__(self, draw):
        self.draw = draw
        self.names = (f"v{i}" for i in itertools.count())

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def int_expr(self, scope, depth):
        ints = sorted(v for v, t in scope.items() if t == "int")
        pairs = sorted(v for v, t in scope.items() if t == "pair")
        kinds = ["lit"] + ["var"] * bool(ints) + ["proj"] * bool(pairs)
        if depth > 0:
            kinds += ["arith", "arith", "neg", "if", "agg"]
        kind = self.pick(kinds)
        if kind == "lit":
            return Lit(self.draw(st.integers(0, 3)))
        if kind == "var":
            return Var(self.pick(ints))
        if kind == "proj":
            return Proj(self.pick(pairs), self.draw(st.integers(0, 1)))
        if kind == "arith":
            return Bin(self.pick(["+", "-", "*", "//", "%"]),
                       self.int_expr(scope, depth - 1),
                       self.int_expr(scope, depth - 1))
        if kind == "neg":
            return Un("-", self.int_expr(scope, depth - 1))
        if kind == "if":
            return If(self.bool_expr(scope, depth - 1),
                      self.int_expr(scope, depth - 1),
                      self.int_expr(scope, depth - 1))
        return Agg(self.pick(sorted(PY_AGGREGATE)),
                   self.comprehension(scope, depth - 1, nest=False))

    def bool_expr(self, scope, depth):
        kind = self.pick(["cmp", "cmp"]
                         + (["and", "or", "not"] if depth > 0 else []))
        if kind == "cmp":
            return Bin(self.pick(["==", "!=", "<", "<="]),
                       self.int_expr(scope, depth), self.int_expr(scope, depth))
        if kind == "not":
            return Un("not", self.bool_expr(scope, depth - 1))
        return Bin(kind, self.bool_expr(scope, depth - 1),
                   self.bool_expr(scope, depth - 1))

    def comprehension(self, scope, depth, nest):
        """1-3 generators (1-2 in an Int list); with ``nest`` the head may
        be a pair or a nested comprehension, else it is an Int."""
        scope = dict(scope)
        quals = []
        for i in range(self.draw(st.integers(1, 3 if nest else 2))):
            if i > 0 and depth > 0 and self.draw(st.booleans()):
                # a dependent source: it mentions the variables bound so far
                src, elt = self.comprehension(scope, depth - 1, False), "int"
            else:
                src, elt = Var(self.pick(sorted(ROWS))), "pair"
            if elt == "pair" and self.draw(st.booleans()):
                pat = (next(self.names), next(self.names))
                scope.update(dict.fromkeys(pat, "int"))
            else:
                pat = next(self.names)
                scope[pat] = elt
            quals.append(Gen(pat, src))
            if self.draw(st.booleans()):
                quals.append(Guard(self.bool_expr(scope, depth)))
        kind = self.pick(["int", "pair", "nested"] if nest else ["int"])
        if kind == "pair":
            head = Tup((self.int_expr(scope, depth),
                        self.int_expr(scope, depth)))
        elif kind == "nested" and depth > 0:
            head = self.comprehension(scope, depth - 1, nest=False)
        else:
            head = self.int_expr(scope, depth)
        return Comp(head, tuple(quals))


@st.composite
def programs(draw):
    return Grammar(draw).comprehension({}, 2, nest=True)


# ----------------------------------------------------------------------
# mutations
# ----------------------------------------------------------------------

TOKEN = re.compile(r"<-|==|!=|<=|//|\w+|\S")
CALL = re.compile(r"\b(sum|length|len|maximum|max|minimum|min)\(")


def mutate(text, kind, pick, py):
    tokens = list(TOKEN.finditer(text))
    if kind == "drop":
        tok = tokens[pick % len(tokens)]
        return text[:tok.start()] + text[tok.end():]
    if kind == "unbound":
        names = [t for t in tokens if re.fullmatch(r"v\d+", t.group())]
        tok = names[pick % len(names)]
        return text[:tok.start()] + "nope" + text[tok.end():]
    calls = list(CALL.finditer(text))
    if calls:   # one argument too many for any of the aggregates
        at = calls[pick % len(calls)].end()
        return text[:at] + "t1, t2, " + text[at:]
    length = "len" if py else "length"
    return re.sub(r"\bt([12])\b", length + r"(t\1, t\1)", text, count=1)


# ----------------------------------------------------------------------
# the properties
# ----------------------------------------------------------------------

def check(term, data):
    qc_text, py_text = term.render(py=False), term.render(py=True)
    via_qc, via_pyq = qc(qc_text, **ENV), pyq(py_text, **ENV)
    assert via_qc.fingerprint() == via_pyq.fingerprint(), (qc_text, py_text)

    run_all_ways(via_pyq, CATALOG, raw=(), lazy_partial=True)

    kind = data.draw(st.sampled_from(["drop", "unbound", "arity"]))
    pick = data.draw(st.integers(0, 10 ** 6))
    for quote, text, py in ((qc, qc_text, False), (pyq, py_text, True)):
        mutated = mutate(text, kind, pick, py)
        try:
            quote(mutated, **ENV)
        except FerryError:
            pass


@pytest.mark.tier1
@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.data())
def test_fuzz_fixed(term, data):
    check(term, data)


@pytest.mark.property
@prop_settings(10, suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.data())
def test_fuzz_randomized(term, data):
    check(term, data)
