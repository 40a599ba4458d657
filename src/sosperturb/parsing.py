"""Text grammar for polynomials.

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := number | variable | '(' expr ')'
    number := digits ('.' digits)? ('/' digits ('.' digits)?)?
    variable := 'x' positive-integer

'^' binds tightest and takes a nonnegative integer exponent.  Implicit
multiplication is not allowed.  A rational literal like 4/27 is evaluated
exactly and rounded once to a double, so 1/10^310 keeps its subnormal value
and 10^310/10^310 is 1.  Whitespace is insignificant.  Terms combine with the
ordinary `Polynomial` arithmetic, which keeps every coefficient the user
wrote, however small; only exact zeros (say from x1 - x1) disappear.  An
expression with a coefficient that overflows a double (a 400-digit
literal, say) is a ParseError, not an infinite coefficient.  So is an
atom nested more than MAX_NESTING parentheses deep, at its opening
parenthesis: each level takes a few Python frames, and the limit keeps
the parser well inside the interpreter's recursion limit.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import List, NamedTuple

import numpy as np

from .errors import ParseError, VariableOutOfRangeError
from .polynomials import Polynomial

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:/\d+(?:\.\d+)?)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[-+*^()]))"
)

# deepest nesting of parentheses `parse` accepts
MAX_NESTING = 100


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        for kind in ("number", "var", "op"):
            if m.group(kind) is not None:
                tokens.append(_Token(kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], n_vars: int, length: int):
        self.tokens = tokens
        self.n_vars = n_vars
        self.i = 0
        self.length = length
        self.depth = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self._next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text!r}", tok.pos)

    def parse_expr(self) -> Polynomial:
        sign = 1.0
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text in "+-":
            self.i += 1
            sign = -1.0 if tok.text == "-" else 1.0
        result = self.parse_term().scale(sign)
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return result
            self.i += 1
            term = self.parse_term()
            result = result - term if tok.text == "-" else result + term

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                return result
            self.i += 1
            result = result * self.parse_factor()

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.i += 1
            exp_tok = self._next()
            if exp_tok.kind != "number" or not exp_tok.text.isdigit():
                raise ParseError(
                    f"exponent must be a nonnegative integer, found {exp_tok.text!r}",
                    exp_tok.pos)
            return base.pow(int(exp_tok.text))
        return base

    def parse_atom(self) -> Polynomial:
        tok = self._next()
        if tok.kind == "number":
            if "/" in tok.text:
                num, den = (Fraction(part) for part in tok.text.split("/"))
                if den == 0:
                    raise ParseError("division by zero in rational literal", tok.pos)
                try:
                    value = float(num / den)
                except OverflowError:
                    # as for a plain literal past the largest double, parse
                    # reports the infinite coefficient
                    value = math.inf
            else:
                value = float(tok.text)
            return Polynomial.constant(self.n_vars, value)
        if tok.kind == "var":
            index = int(tok.text[1:])
            if index < 1 or index > self.n_vars:
                raise VariableOutOfRangeError(
                    f"variable {tok.text} out of range x1..x{self.n_vars}", tok.pos)
            return Polynomial.variable(self.n_vars, index)
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested more than {MAX_NESTING} deep", tok.pos)
            self.depth += 1
            inner = self.parse_expr()
            self._expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse(text: str, n_vars: int) -> Polynomial:
    """Parse polynomial text over variables x1..x{n_vars}."""
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    parser = _Parser(tokens, n_vars, len(text))
    poly = parser.parse_expr()
    trailing = parser._peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing.text!r}", trailing.pos)
    for c in poly.terms.values():
        if not math.isfinite(c):
            raise ParseError(f"a coefficient is {c}: the expression overflows a double", 0)
    return poly


def _coeff_text(mag: float) -> str:
    # shortest positional decimal that parses back to the same double; the
    # grammar has no scientific notation
    return np.format_float_positional(mag, unique=True, trim="0")


def unparse(poly: Polynomial) -> str:
    """Canonical text form; parse(unparse(p)) reproduces p exactly."""
    if poly.is_zero:
        return "0"
    pieces: List[str] = []
    for alpha, c in poly.sorted_terms():
        mono = "*".join(
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
            for i, e in enumerate(alpha) if e > 0)
        mag = abs(c)
        if mono and mag == 1.0:
            body = mono
        elif mono:
            body = f"{_coeff_text(mag)}*{mono}"
        else:
            body = _coeff_text(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
