"""Closed-form input: parse f(x, y) expressions and turn them into tables.

The grammar is deliberately small:

    sum     :=  product (('+' | '-') product)*
    product :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' exponent)?
    exponent:=  '-'? INT ('^' exponent)?          (right-associative)
    atom    :=  NUMBER | 'x' | 'y' | ('exp'|'log') '(' sum ')' | '(' sum ')'

Numbers are nonnegative integer or p/q rational literals, q nonzero; "1/2"
lexes as one token when the slash immediately joins two digit runs, so it
binds tighter than division.  '^' takes integer literal exponents only and binds
tighter than unary minus; an exponent, tower or not, may not exceed
MAX_EXPONENT in magnitude, and parentheses and towers MAX_NESTING levels
in depth.  There is no implicit multiplication.
"""

from collections import namedtuple
from fractions import Fraction

from .implicit import CoeffTable, ensure_valid
from .series import BivariateEGF


class ParseError(ValueError):
    """Syntax error with a byte offset and the token kinds expected there."""

    def __init__(self, message, pos, expected=()):
        self.pos = pos
        self.expected = tuple(expected)
        tail = f" (expected {' or '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at byte {pos}{tail}")


Token = namedtuple("Token", "kind text pos")  # kind: 'number', 'name', 'op' or 'end'


_OPS = set("+-*/^()")

# Largest exponent magnitude the parser accepts.  A series power costs about
# log2(exponent) products, so this is far beyond any useful exponent; the
# bound is checked before a tower is evaluated, so that x^9^9^9 fails at once
# instead of building an integer of some 370 million digits.
MAX_EXPONENT = 10**6

# Deepest parentheses (a call's included) and highest tower accepted: a level
# costs at most six stack frames, well inside the default recursion limit.
MAX_NESTING = 100


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


class _Node:
    """An immutable expression node whose fields are its __slots__.  Its ==
    (types matched, fields equal), hash and repr (the constructor call with
    keyword fields) walk the tree in a loop, so that any depth works."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _preorder(self):
        """Each node's type and fields in preorder, a child standing as its
        type: equal lists are equal trees."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            fields = [getattr(node, name) for name in node.__slots__]
            out.append((type(node), *[type(v) if isinstance(v, _Node) else v for v in fields]))
            stack += [v for v in reversed(fields) if isinstance(v, _Node)]
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self):
        return hash(tuple(self._preorder()))

    def __repr__(self):
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, _Node):
                todo = []  # ", name=value" per field, the first without its comma
                for name in item.__slots__:
                    value = getattr(item, name)
                    todo += [", ", f"{name}=", value if isinstance(value, _Node) else repr(value)]
                stack += reversed(todo[1:] + [")"])
                item = f"{type(item).__qualname__}("
            parts.append(item)
        return "".join(parts)


# the node types, each field a slot, in the order the constructor takes them
class Num(_Node): __slots__ = ("value",)
class Var(_Node): __slots__ = ("name",)
class Neg(_Node): __slots__ = ("operand",)
class BinOp(_Node): __slots__ = ("op", "left", "right")
class Pow(_Node): __slots__ = ("base", "exponent")
class Call(_Node): __slots__ = ("func", "arg")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, *ops):
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            return self.take().text

    def expect_op(self, op):
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"found {tok.text or 'end of input'!r}", tok.pos, (repr(op),))
        return tok

    def parse_sum(self):
        node = self.parse_product()
        while op := self.accept("+", "-"):
            node = BinOp(op, node, self.parse_product())
        return node

    def parse_product(self):
        node = self.parse_unary()
        while op := self.accept("*", "/"):
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        negs = 0
        while self.accept("-"):
            negs += 1
        node = self.parse_power()
        for _ in range(negs):
            node = Neg(node)
        return node

    def parse_power(self):
        base = self.parse_atom()
        if self.accept("^"):
            return Pow(base, self.parse_exponent())
        return base

    def parse_exponent(self, level=1):
        sign = -1 if self.accept("-") else 1
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
        if self.accept("^"):
            if level == MAX_NESTING:
                raise ParseError(f"exponent tower higher than the limit {MAX_NESTING}", tok.pos)
            rest = self.parse_exponent(level + 1)
            if rest < 0:
                raise ParseError("exponent tower with a negative upper level", tok.pos)
            # for e >= 2, e ** rest >= 2 ** rest, which passes the limit once
            # rest reaches its bit length
            if e > 1 and (rest >= MAX_EXPONENT.bit_length() or e ** rest > MAX_EXPONENT):
                raise ParseError(
                    f"exponent tower {e}^{rest} exceeds the limit {MAX_EXPONENT}", tok.pos)
            e = e ** rest
        return sign * e

    def parse_group(self):
        """'(' sum ')', the grammar's one recursion, MAX_NESTING deep at most."""
        tok = self.expect_op("(")
        if self.nesting == MAX_NESTING:
            raise ParseError(f"parentheses nest deeper than the limit {MAX_NESTING}", tok.pos)
        self.nesting += 1
        node = self.parse_sum()
        self.nesting -= 1
        self.expect_op(")")
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            if "/" in tok.text and not int(tok.text.partition("/")[2]):
                raise ParseError(f"zero denominator in {tok.text!r}", tok.pos)
            return Num(Fraction(tok.text))
        if tok.kind == "name":
            self.take()
            if tok.text in ("x", "y"):
                return Var(tok.text)
            if tok.text in ("exp", "log"):
                return Call(tok.text, self.parse_group())
            raise ParseError(f"unknown name {tok.text!r}", tok.pos,
                             ("'x'", "'y'", "'exp'", "'log'"))
        if tok.kind == "op" and tok.text == "(":
            return self.parse_group()
        raise ParseError(
            f"found {tok.text or 'end of input'!r}", tok.pos,
            ("number", "name", "'('", "'-'"),
        )


def parse(src):
    p = _Parser(tokenize(src))
    node = p.parse_sum()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos, ("end of input",))
    return node


# the grammar level of each binary operator: 1 a sum, 2 a product
_BINARY_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_text(node) -> str:
    """The tree printed with only the parentheses the grammar requires;
    reparsing it reproduces the tree exactly, and a tree that parse
    returned prints no deeper than its source.  A negative literal, which
    parse never makes, reparses as unary minus of its magnitude.

    Binary operators are spaced so that a printed division of literals
    does not fuse back into a single rational token.  Runs of unary minus
    and left spines of sums and of products are walked in loops, as in
    eval_series, so that only parentheses deepen the recursion.
    """
    return _text(node, 1)


def _text(node, need):
    """node printed where the grammar expects a term of level need or
    above: 1 a sum, 2 a product, 3 a unary, 4 a power, 5 an atom."""
    if isinstance(node, BinOp):
        level = _BINARY_LEVEL[node.op]
        spine = []
        while isinstance(node, BinOp) and _BINARY_LEVEL[node.op] == level:
            spine.append(node)
            node = node.left
        # left-associative: the leftmost operand may be of the same level,
        # every right operand must bind tighter
        parts = [_text(node, level)]
        parts += [f" {op.op} {_text(op.right, level + 1)}" for op in reversed(spine)]
        text = "".join(parts)
    elif isinstance(node, Neg):
        negs = 0
        while isinstance(node, Neg):
            negs, node = negs + 1, node.operand
        level, text = 3, "-" * negs + _text(node, 3)
    elif isinstance(node, Pow):
        level, text = 4, f"{_text(node.base, 5)}^{node.exponent}"
    elif isinstance(node, Num):
        # a negative literal prints with its sign, which binds as unary minus
        level, text = 5 if node.value >= 0 else 3, str(node.value)
    elif isinstance(node, Var):
        level, text = 5, node.name
    elif isinstance(node, Call):
        level, text = 5, f"{node.func}({_text(node.arg, 1)})"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return f"({text})" if level < need else text


def eval_series(node, order) -> BivariateEGF:
    """Evaluate the tree in the truncated two-variable series ring.

    Division, exp and log inherit the series-domain requirements (unit
    constant term; zero or unit constant term respectively) and raise the
    series errors when violated.  The path down through minuses and left
    operands, in any mix, is walked in one loop with an explicit stack of
    the steps to apply on the way back, so that only right operands,
    parentheses, calls and powers deepen the recursion.
    """
    pending = []  # a BinOp, or True for a minus; two minuses cancel
    while isinstance(node, (Neg, BinOp)):
        if isinstance(node, BinOp):
            pending.append(node)
            node = node.left
        else:
            if pending and pending[-1] is True:
                pending.pop()
            else:
                pending.append(True)
            node = node.operand
    if isinstance(node, Num):
        a = BivariateEGF.const(node.value, order)
    elif isinstance(node, Var):
        a = BivariateEGF.var_x(order) if node.name == "x" else BivariateEGF.var_y(order)
    elif isinstance(node, Pow):
        a = eval_series(node.base, order).pow_int(node.exponent)
    elif isinstance(node, Call):
        inner = eval_series(node.arg, order)
        a = inner.exp() if node.func == "exp" else inner.log()
    else:
        raise TypeError(f"not an expression node: {node!r}")
    for op in reversed(pending):
        if op is True:
            a = -a
            continue
        b = eval_series(op.right, order)
        a = (a + b if op.op == "+" else a - b if op.op == "-"
             else a * b if op.op == "*" else a / b)
    return a


def table_from_expr(src, order) -> CoeffTable:
    """Parse and evaluate f(x, y), returning its coefficient table.

    Raises ParseError for bad syntax, the series-domain errors for
    unevaluable expressions, and NotExpandableError when the table fails
    the expandability conditions.  Those read only f(0, 0) and f(0, 1),
    which no order changes, so they are checked on the tree evaluated at
    order 1, before the series of the requested order is built.  The
    table holds the entries with m + n <= order, all an expansion to that
    order reads.
    """
    node = parse(src) if isinstance(src, str) else src

    # the series' coefficients are canonical
    ensure_valid(CoeffTable._raw(eval_series(node, 1)))
    return CoeffTable._raw(eval_series(node, order))
