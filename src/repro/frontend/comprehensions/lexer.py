"""Tokenizer for the ``qc`` comprehension quasi-quoter.

The surface syntax follows the paper's examples: Haskell list
comprehensions ``[e | quals]`` extended with the SQL-inspired ``then group
by`` / ``then sortWith by`` / ``order by`` clauses of the "Comprehensive
Comprehensions" extension [16], with Pythonic function application
``f(x, y)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ...errors import ComprehensionSyntaxError

#: Multi-character operators, longest first so the scanner is greedy.
_OPERATORS = [
    "<-", "==", "/=", "!=", "<=", ">=", "++", "//", "&&", "||", "->",
    "[", "]", "(", ")", ",", "|", "<", ">", "+", "-", "*", "/", "%",
    ".", "=", ":", "\\", "_",
]

_KEYWORDS = {
    "let", "then", "group", "by", "order", "using", "if", "else",
    "and", "or", "not", "in", "True", "False", "desc", "asc",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>--[^\n]*)
    | (?P<float>\d+\.\d+([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
    | (?P<int>\d+)
    | (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
    | (?P<name>[A-Za-z][A-Za-z0-9_']*|_[A-Za-z0-9_']+)
    | (?P<op>""" + "|".join(re.escape(op) for op in _OPERATORS) + r""")
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str          # 'name', 'kw', 'int', 'float', 'string', 'op', 'eof'
    text: str
    pos: int

    def __repr__(self) -> str:
        return f"{self.kind}:{self.text!r}@{self.pos}"


def tokenize(src: str) -> list[Token]:
    """Scan ``src`` into tokens; raises on unknown characters."""
    out: list[Token] = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ComprehensionSyntaxError(
                f"unexpected character {src[i]!r} at offset {i} in "
                f"comprehension: {src!r}")
        i = m.end()
        kind = str(m.lastgroup)
        if kind in ("ws", "comment"):
            continue
        text = m.group()
        if kind == "name" and text in _KEYWORDS:
            kind = "kw"
        if kind == "string":
            text = _unescape(text)
        out.append(Token(kind, text, m.start()))
    out.append(Token("eof", "", len(src)))
    return out


def _unescape(quoted: str) -> str:
    body = quoted[1:-1]
    return (body.replace("\\\\", "\x00")
                .replace("\\n", "\n").replace("\\t", "\t")
                .replace('\\"', '"').replace("\\'", "'")
                .replace("\x00", "\\"))
