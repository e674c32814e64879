"""Closed-form input: parse f(x, y) expressions and turn them into tables.

The grammar is deliberately small:

    sum     :=  product (('+' | '-') product)*
    product :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' exponent)?
    exponent:=  '-'? INT ('^' exponent)?          (right-associative)
    atom    :=  NUMBER | 'x' | 'y' | ('exp'|'log') '(' sum ')' | '(' sum ')'

Numbers are nonnegative integer or p/q rational literals; "1/2" lexes as
one token when the slash immediately joins two digit runs, so it binds
tighter than division.  '^' takes integer literal exponents only and binds
tighter than unary minus; an exponent, tower or not, may not exceed
MAX_EXPONENT in magnitude.  There is no implicit multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .implicit import CoeffTable, NotExpandableError, validate_table
from .series import BivariateEGF


class ParseError(ValueError):
    """Syntax error with a byte offset and the token kinds expected there."""

    def __init__(self, message, pos, expected=()):
        self.pos = pos
        self.expected = tuple(expected)
        tail = f" (expected {' or '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at byte {pos}{tail}")


class Token(NamedTuple):
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    pos: int


_OPS = set("+-*/^()")

# Largest exponent magnitude the parser accepts.  A series power costs about
# log2(exponent) products, so this is far beyond any useful exponent; the
# bound is checked before a tower is evaluated, so that x^9^9^9 fails at once
# instead of building an integer of some 370 million digits.
MAX_EXPONENT = 10**6


def tokenize(src):
    out = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            # a slash joining two digit runs with no space is one literal
            if j < n and src[j] == "/" and j + 1 < n and src[j + 1].isdigit():
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            out.append(Token("number", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(Token("name", src[i:j], i))
            i = j
            continue
        if ch in _OPS:
            out.append(Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(Token("end", "", n))
    return out


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Pow, Call]


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, *ops):
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def expect_op(self, op):
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"found {tok.text or 'end of input'!r}", tok.pos, (repr(op),))
        return tok

    def parse_sum(self):
        node = self.parse_product()
        while self.at_op("+", "-"):
            op = self.take().text
            node = BinOp(op, node, self.parse_product())
        return node

    def parse_product(self):
        node = self.parse_unary()
        while self.at_op("*", "/"):
            op = self.take().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.at_op("-"):
            self.take()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.at_op("^"):
            self.take()
            return Pow(base, self.parse_exponent())
        return base

    def parse_exponent(self):
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        tok = self.take()
        if tok.kind != "number":
            raise ParseError(
                f"found {tok.text or 'end of input'!r}", tok.pos, ("integer exponent",)
            )
        if "/" in tok.text:
            raise ParseError("exponents must be integer literals", tok.pos)
        digits = tok.text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds the limit {MAX_EXPONENT}", tok.pos)
        e = int(digits)
        if self.at_op("^"):
            self.take()
            rest = self.parse_exponent()
            if rest < 0:
                raise ParseError("exponent tower with a negative upper level", tok.pos)
            # for e >= 2, e ** rest >= 2 ** rest, which passes the limit once
            # rest reaches its bit length
            if e > 1 and (rest >= MAX_EXPONENT.bit_length() or e ** rest > MAX_EXPONENT):
                raise ParseError(
                    f"exponent tower {e}^{rest} exceeds the limit {MAX_EXPONENT}", tok.pos)
            e = e ** rest
        return sign * e

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            return Num(Fraction(tok.text))
        if tok.kind == "name":
            self.take()
            if tok.text in ("x", "y"):
                return Var(tok.text)
            if tok.text in ("exp", "log"):
                self.expect_op("(")
                arg = self.parse_sum()
                self.expect_op(")")
                return Call(tok.text, arg)
            raise ParseError(f"unknown name {tok.text!r}", tok.pos,
                             ("'x'", "'y'", "'exp'", "'log'"))
        if tok.kind == "op" and tok.text == "(":
            self.take()
            node = self.parse_sum()
            self.expect_op(")")
            return node
        raise ParseError(
            f"found {tok.text or 'end of input'!r}", tok.pos,
            ("number", "name", "'('", "'-'"),
        )


def parse(src) -> Node:
    p = _Parser(tokenize(src))
    node = p.parse_sum()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos, ("end of input",))
    return node


def to_text(node) -> str:
    """Fully parenthesized form; reparsing it reproduces the tree exactly.

    Binary operators are spaced so that a printed division of literals
    does not fuse back into a single rational token.
    """
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_text(node.operand)})"
    if isinstance(node, BinOp):
        return f"({to_text(node.left)} {node.op} {to_text(node.right)})"
    if isinstance(node, Pow):
        return f"({to_text(node.base)}^{node.exponent})"
    if isinstance(node, Call):
        return f"{node.func}({to_text(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


def eval_series(node, order) -> BivariateEGF:
    """Evaluate the tree in the truncated two-variable series ring.

    Division, exp and log inherit the series-domain requirements (unit
    constant term; zero or unit constant term respectively) and raise the
    series errors when violated.
    """
    if isinstance(node, Num):
        return BivariateEGF.const(node.value, order)
    if isinstance(node, Var):
        return BivariateEGF.var_x(order) if node.name == "x" else BivariateEGF.var_y(order)
    if isinstance(node, Neg):
        return -eval_series(node.operand, order)
    if isinstance(node, BinOp):
        a = eval_series(node.left, order)
        b = eval_series(node.right, order)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a * b.reciprocal()
    if isinstance(node, Pow):
        return eval_series(node.base, order).pow_int(node.exponent)
    if isinstance(node, Call):
        inner = eval_series(node.arg, order)
        return inner.exp() if node.func == "exp" else inner.log()
    raise TypeError(f"not an expression node: {node!r}")


def table_from_expr(src, order) -> CoeffTable:
    """Parse and evaluate f(x, y), returning its coefficient table.

    Raises ParseError for bad syntax, the series-domain errors for
    unevaluable expressions, and NotExpandableError when the resulting
    table fails the expandability conditions.
    """
    node = parse(src) if isinstance(src, str) else src
    f = eval_series(node, order)
    entries = {}
    for m in range(order + 1):
        for n in range(order + 1):
            c = f.coeffs[m][n]
            if c:
                entries[(m, n)] = c
    table = CoeffTable(order, entries, "rational")
    problems = validate_table(table)
    if problems:
        raise NotExpandableError("; ".join(problems))
    return table
