"""Recursive-descent parser for the ``qc`` quasi-quoter.

Produces a small surface AST (``PExpr``/``PQual``/``PPat``) that the
desugarer lowers onto the combinator library; ``pyq`` lowers Python's
``ast`` onto the same nodes.  Operator precedence follows
Haskell's (boolean < comparison < ``++``/``:`` < additive < multiplicative
< unary < application/projection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence, TypeVar

from ...errors import ComprehensionSyntaxError
from .lexer import Token, tokenize

_T = TypeVar("_T")


# ----------------------------------------------------------------------
# surface AST
# ----------------------------------------------------------------------

class PExpr:
    pass


@dataclass(frozen=True)
class PLit(PExpr):
    value: object


@dataclass(frozen=True)
class PVar(PExpr):
    name: str


@dataclass(frozen=True)
class PTuple(PExpr):
    parts: tuple[PExpr, ...]


@dataclass(frozen=True)
class PList(PExpr):
    elems: tuple[PExpr, ...]


@dataclass(frozen=True)
class PBin(PExpr):
    op: str
    lhs: PExpr
    rhs: PExpr


@dataclass(frozen=True)
class PUn(PExpr):
    op: str
    operand: PExpr


@dataclass(frozen=True)
class PCall(PExpr):
    fn: PExpr
    args: tuple[PExpr, ...]
    #: Keyword arguments; only ``pyq``'s ``sorted(key=, reverse=)`` has any.
    kwargs: tuple[tuple[str, PExpr], ...] = ()


@dataclass(frozen=True)
class PProj(PExpr):
    operand: PExpr
    field: "int | str"


@dataclass(frozen=True)
class PIf(PExpr):
    cond: PExpr
    then_: PExpr
    else_: PExpr


@dataclass(frozen=True)
class PLam(PExpr):
    pat: "PPat"
    body: PExpr


@dataclass(frozen=True)
class PComp(PExpr):
    head: PExpr
    quals: tuple["PQual", ...]


# patterns ---------------------------------------------------------------

class PPat:
    pass


@dataclass(frozen=True)
class PVarPat(PPat):
    name: str


@dataclass(frozen=True)
class PWildPat(PPat):
    pass


@dataclass(frozen=True)
class PTuplePat(PPat):
    parts: tuple[PPat, ...]


# qualifiers -------------------------------------------------------------

class PQual:
    pass


@dataclass(frozen=True)
class PGen(PQual):
    pat: PPat
    src: PExpr


@dataclass(frozen=True)
class PGuard(PQual):
    cond: PExpr


@dataclass(frozen=True)
class PLet(PQual):
    name: str
    value: PExpr


@dataclass(frozen=True)
class PGroup(PQual):
    key: PExpr


@dataclass(frozen=True)
class PSort(PQual):
    key: PExpr
    descending: bool


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: Sequence[Token], src: str):
        self.tokens = tokens
        self.src = src
        self.i = 0

    # -- token plumbing -------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            tok = self.peek()
            want = text or kind
            raise ComprehensionSyntaxError(
                f"expected {want!r} but found {tok.text or 'end of input'!r} "
                f"at offset {tok.pos} in: {self.src!r}")
        return self.next()

    def fail(self, msg: str) -> NoReturn:
        tok = self.peek()
        raise ComprehensionSyntaxError(
            f"{msg} at offset {tok.pos} (near {tok.text!r}) in: {self.src!r}")

    def more(self, item: Callable[[], _T]) -> list[_T]:
        """``(',' item)*``."""
        items: list[_T] = []
        while self.at("op", ","):
            self.next()
            items.append(item())
        return items

    # -- entry points -----------------------------------------------------
    def parse_comprehension(self) -> PComp:
        comp = self._parse_bracket()
        if not isinstance(comp, PComp):
            self.fail("expected a comprehension [e | quals]")
        self.expect("eof")
        return comp

    def parse_standalone_expr(self) -> PExpr:
        e = self.parse_expr()
        self.expect("eof")
        return e

    # -- qualifiers -------------------------------------------------------
    def parse_qual(self) -> PQual:
        if self.at("kw", "let"):
            self.next()
            name = self.expect("name").text
            self.expect("op", "=")
            return PLet(name, self.parse_expr())
        if self.at("kw", "then"):
            return self._parse_then_clause()
        if self.at("kw", "group") and self.at("kw", "by", ahead=1):
            self.next(), self.next()
            return PGroup(self.parse_expr())
        if self.at("kw", "order") and self.at("kw", "by", ahead=1):
            self.next(), self.next()
            return self._parse_order_key()
        mark = self.i
        try:
            pat: PPat | None = self.parse_pattern()
        except ComprehensionSyntaxError:
            pat = None
        if pat is not None and self.at("op", "<-"):
            self.next()
            return PGen(pat, self.parse_expr())
        self.i = mark
        return PGuard(self.parse_expr())

    def _parse_then_clause(self) -> PQual:
        self.expect("kw", "then")
        if self.at("kw", "group"):
            self.next()
            self.expect("kw", "by")
            key = self.parse_expr()
            if self.at("kw", "using"):  # 'using groupWith' is the default
                self.next()
                self.expect("name")
            return PGroup(key)
        if self.at("name", "sortWith"):
            self.next()
            self.expect("kw", "by")
            return self._parse_order_key()
        self.fail("expected 'group by' or 'sortWith by' after 'then'")

    def _parse_order_key(self) -> PSort:
        key = self.parse_expr()
        descending = False
        if self.at("kw", "desc"):
            self.next()
            descending = True
        elif self.at("kw", "asc"):
            self.next()
        return PSort(key, descending)

    # -- patterns -----------------------------------------------------------
    def parse_pattern(self) -> PPat:
        if self.at("op", "_"):
            self.next()
            return PWildPat()
        if self.at("name"):
            return PVarPat(self.next().text)
        if self.at("op", "("):
            self.next()
            parts = [self.parse_pattern(), *self.more(self.parse_pattern)]
            self.expect("op", ")")
            return parts[0] if len(parts) == 1 else PTuplePat(tuple(parts))
        self.fail("expected a pattern")

    # -- expressions ----------------------------------------------------
    def parse_expr(self) -> PExpr:
        if self.at("kw", "if"):
            self.next()
            cond = self.parse_expr()
            self.expect("kw", "then")
            then_ = self.parse_expr()
            self.expect("kw", "else")
            return PIf(cond, then_, self.parse_expr())
        if self.at("op", "\\"):
            self.next()
            pat = self.parse_pattern()
            self.expect("op", "->")
            return PLam(pat, self.parse_expr())
        return self.parse_or()

    def parse_or(self) -> PExpr:
        e = self.parse_and()
        while self.at("kw", "or") or self.at("op", "||"):
            self.next()
            e = PBin("or", e, self.parse_and())
        return e

    def parse_and(self) -> PExpr:
        e = self.parse_not()
        while self.at("kw", "and") or self.at("op", "&&"):
            self.next()
            e = PBin("and", e, self.parse_not())
        return e

    def parse_not(self) -> PExpr:
        if self.at("kw", "not"):
            self.next()
            return PUn("not", self.parse_not())
        return self.parse_comparison()

    _CMP = {"==": "eq", "/=": "ne", "!=": "ne", "<": "lt", "<=": "le",
            ">": "gt", ">=": "ge"}

    def parse_comparison(self) -> PExpr:
        e = self.parse_listops()
        if self.at("op") and self.peek().text in self._CMP:
            op = self._CMP[self.next().text]
            return PBin(op, e, self.parse_listops())
        return e

    def parse_listops(self) -> PExpr:
        # ++ and : are right-associative, same precedence (Haskell level 5)
        e = self.parse_additive()
        if self.at("op", "++") or self.at("op", ":"):
            op = "append" if self.next().text == "++" else "cons"
            return PBin(op, e, self.parse_listops())
        return e

    def parse_additive(self) -> PExpr:
        e = self.parse_multiplicative()
        while self.at("op") and self.peek().text in ("+", "-"):
            op = "add" if self.next().text == "+" else "sub"
            e = PBin(op, e, self.parse_multiplicative())
        return e

    def parse_multiplicative(self) -> PExpr:
        e = self.parse_unary()
        ops = {"*": "mul", "/": "div", "//": "idiv", "%": "mod"}
        while self.at("op") and self.peek().text in ops:
            op = ops[self.next().text]
            e = PBin(op, e, self.parse_unary())
        return e

    def parse_unary(self) -> PExpr:
        if self.at("op", "-"):
            self.next()
            return PUn("neg", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> PExpr:
        e = self.parse_atom()
        while True:
            if self.at("op", "("):
                self.next()
                args: list[PExpr] = [] if self.at("op", ")") else [
                    self.parse_expr(), *self.more(self.parse_expr)]
                self.expect("op", ")")
                e = PCall(e, tuple(args))
            elif self.at("op", "."):
                self.next()
                if self.at("int"):
                    e = PProj(e, int(self.next().text))
                elif self.at("name"):
                    e = PProj(e, self.next().text)
                else:
                    self.fail("expected a tuple index or field name after '.'")
            else:
                return e

    def parse_atom(self) -> PExpr:
        if self.at("int"):
            return PLit(int(self.next().text))
        if self.at("float"):
            return PLit(float(self.next().text))
        if self.at("string"):
            return PLit(self.next().text)
        if self.at("kw", "True") or self.at("kw", "False"):
            return PLit(self.next().text == "True")
        if self.at("name"):
            return PVar(self.next().text)
        if self.at("op", "("):
            self.next()
            parts = [self.parse_expr(), *self.more(self.parse_expr)]
            self.expect("op", ")")
            return parts[0] if len(parts) == 1 else PTuple(tuple(parts))
        if self.at("op", "["):
            return self._parse_bracket()
        self.fail("expected an expression")

    def _parse_bracket(self) -> PExpr:
        """Either a list literal ``[a, b]`` or a nested comprehension
        ``[e | quals]``."""
        self.expect("op", "[")
        if self.at("op", "]"):
            self.next()
            return PList(())
        first = self.parse_expr()
        if self.at("op", "|"):
            self.next()
            quals = [self.parse_qual(), *self.more(self.parse_qual)]
            self.expect("op", "]")
            return PComp(first, tuple(quals))
        elems = [first, *self.more(self.parse_expr)]
        self.expect("op", "]")
        return PList(tuple(elems))


def parse_comprehension(src: str) -> PComp:
    """Parse a full ``[e | quals]`` comprehension."""
    return _Parser(tokenize(src), src).parse_comprehension()


def parse_expression(src: str) -> PExpr:
    """Parse a bare expression in the qc surface syntax."""
    return _Parser(tokenize(src), src).parse_standalone_expr()
