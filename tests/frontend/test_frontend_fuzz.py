"""Front-end fuzz: ``programs("comprehension")``, partial operations under
iteration included, as combinators, ``qc`` and ``pyq`` on the interpreter,
the engine, the MIL VM and sqlite -- one value or one ``FerryError``
subclass (where the strict interpreter raises ``PartialFunctionError``
the backends agree among themselves).  A rendering with one mutation (a
dropped token, an unbound name, a builtin given too many arguments)
fails, if at all, with a ``FerryError``.  ``test_fuzz_fixed`` is tier-1
at fixed seeds; ``test_fuzz_randomized`` is a ``property`` test.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import pyq, qc
from repro.errors import FerryError
from repro.runtime import Catalog

from ..conftest import run_all_ways
from ..programs import COMBINATORS, TABLES, programs, text
from ..properties.support import prop_settings

ROWS = {"t1": [(1, 2), (2, 0), (2, 3), (0, 0), (3, 1)],
        "t2": [(2, 1), (3, 3), (0, 2), (2, 1)]}
CATALOG = Catalog()
for _name, _rows in ROWS.items():
    CATALOG.create_table(_name, TABLES[_name], _rows)

TOKEN = re.compile(r"<-|==|!=|<=|//|\w+|\S")
CALL = re.compile(r"\b(sum|length|len|maximum|max|minimum|min|head|last|the"
                   r"|index|tail|init)\(")


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
    if calls:   # one argument too many for any of these
        at = calls[pick % len(calls)].end()
        return text[:at] + "t1, t2, " + text[at:]
    length = "len" if py else "length"
    return re.sub(r"\bt([12])\b", length + r"(t\1, t\1)", text, count=1)


def check(program, data):
    run_all_ways(program.query, CATALOG, raw=(), lazy_partial=True)

    kind = data.draw(st.sampled_from(["drop", "unbound", "arity"]))
    pick = data.draw(st.integers(0, 10 ** 6))
    env = {**COMBINATORS, **program.data}
    for quote, py in ((qc, False), (pyq, True)):
        try:
            quote(mutate(text(program.term, py), kind, pick, py), **env)
        except FerryError:
            pass


@pytest.mark.tier1
@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs("comprehension"), st.data())
def test_fuzz_fixed(program, data):
    check(program, data)


@pytest.mark.property
@prop_settings(10, suppress_health_check=[HealthCheck.too_slow])
@given(programs("comprehension"), st.data())
def test_fuzz_randomized(program, data):
    check(program, data)
