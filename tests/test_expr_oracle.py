"""An independent oracle for the whole expression grammar.

Trees of numbers, x, y, the four operators, minus, exp, log and integer
powers are evaluated twice: by `eval_series`, and by the evaluator below
over truncated bivariate ordinary power series of Fractions.  The oracle
shares no code with the package: its formulas are the schoolbook product,
the reciprocal by the triangular solve, log as the integral of u'/u and
exp from w' = v'w.  A tree reaches the package only as text.
"""

from fractions import Fraction
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from implicitseries.algebra import NotInvertibleError
from implicitseries.expr import eval_series, parse, table_from_expr
from implicitseries.implicit import NotExpandableError, expand
from implicitseries.series import ConstantTermError


class DomainError(ArithmeticError):
    """The oracle's counterpart of the package's domain errors."""


# -- truncated series: s[m][n] is the coefficient of x^m y^n, m, n <= N ------


def _zero(order):
    return [[Fraction(0)] * (order + 1) for _ in range(order + 1)]


def _const(c, order):
    out = _zero(order)
    out[0][0] = Fraction(c)
    return out


def _combine(a, b, sign):
    return [[p + sign * q for p, q in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mul(a, b):
    order = len(a) - 1
    out = _zero(order)
    for i, row in enumerate(a):
        for j, c in enumerate(row):
            if c:
                for m in range(i, order + 1):
                    for n in range(j, order + 1):
                        out[m][n] += c * b[m - i][n - j]
    return out


def _reciprocal(u):
    """w with u w = 1, solved for w[m][n] in increasing (m, n)."""
    if not u[0][0]:
        raise DomainError("reciprocal of a series without constant term")
    order = len(u) - 1
    w = _zero(order)
    for m in range(order + 1):
        for n in range(order + 1):
            s = Fraction(1 if m == n == 0 else 0)
            for i in range(m + 1):
                for j in range(n + 1):
                    if i or j:
                        s -= u[i][j] * w[m - i][n - j]
            w[m][n] = s / u[0][0]
    return w


def _dx(a):
    return [[(m + 1) * c for c in a[m + 1]] for m in range(len(a) - 1)] + [[Fraction(0)] * len(a)]


def _dy(a):
    return [[(n + 1) * row[n + 1] for n in range(len(row) - 1)] + [Fraction(0)] for row in a]


def _ix(a):
    return [[Fraction(0)] * len(a)] + [[c / m for c in a[m - 1]] for m in range(1, len(a))]


def _iy(a):
    return [[Fraction(0)] + [row[n - 1] / n for n in range(1, len(row))] for row in a]


def _log(u):
    """log u = log u(0, y) + integral over x of u_x / u, and log u(0, y) is
    the integral over y of u_y(0, y) / u(0, y)."""
    if u[0][0] != 1:
        raise DomainError("log of a series whose constant term is not 1")
    r = _reciprocal(u)
    out = _ix(_mul(_dx(u), r))
    out[0] = _iy(_mul(_dy(u), r))[0]
    return out


def _exp(v):
    """w = exp v from w(0, 0) = 1, w' = v'w along y at x = 0, then w_x = v_x w."""
    if v[0][0]:
        raise DomainError("exp of a series with a nonzero constant term")
    order = len(v) - 1
    w = _zero(order)
    w[0][0] = Fraction(1)
    for n in range(order):
        w[0][n + 1] = sum((j + 1) * v[0][j + 1] * w[0][n - j] for j in range(n + 1)) / (n + 1)
    vx = _dx(v)
    for m in range(order):
        for n in range(order + 1):
            w[m + 1][n] = sum(vx[i][j] * w[m - i][n - j]
                              for i in range(m + 1) for j in range(n + 1)) / (m + 1)
    return w


def _power(a, k):
    if k < 0:
        a, k = _reciprocal(a), -k
    out = _const(1, len(a) - 1)
    for _ in range(k):
        out = _mul(out, a)
    return out


def _oracle(tree, order):
    kind = tree[0]
    if kind == "num":
        return _const(tree[1], order)
    if kind in ("x", "y"):
        out = _zero(order)
        m, n = (1, 0) if kind == "x" else (0, 1)
        out[m][n] = Fraction(1)
        return out
    if kind == "neg":
        return _combine(_zero(order), _oracle(tree[1], order), -1)
    if kind == "pow":
        return _power(_oracle(tree[1], order), tree[2])
    if kind == "exp":
        return _exp(_oracle(tree[1], order))
    if kind == "log":
        return _log(_oracle(tree[1], order))
    a, b = _oracle(tree[1], order), _oracle(tree[2], order)
    if kind == "+":
        return _combine(a, b, 1)
    if kind == "-":
        return _combine(a, b, -1)
    return _mul(a, b if kind == "*" else _reciprocal(b))


def _text(tree):
    """The tree as input text, every compound part in parentheses."""
    kind = tree[0]
    if kind == "num":
        return f"(-{-tree[1]})" if tree[1] < 0 else str(tree[1])
    if kind in ("x", "y"):
        return kind
    if kind == "neg":
        return f"(-{_text(tree[1])})"
    if kind == "pow":
        return f"({_text(tree[1])})^{tree[2]}"
    if kind in ("exp", "log"):
        return f"{kind}({_text(tree[1])})"
    return f"({_text(tree[1])} {kind} {_text(tree[2])})"


# -- trees --------------------------------------------------------------------


def _shift(arg, target):
    """arg - c + target, c the constant term of arg, or arg itself when the
    oracle cannot evaluate it."""
    try:
        c = _oracle(arg, 1)[0][0]
    except DomainError:
        return arg
    return ("+", ("-", arg, ("num", c)), ("num", Fraction(target)))


_NUMBERS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_LEAVES = st.one_of(st.just(("x",)), st.just(("y",)), _NUMBERS.map(lambda c: ("num", c)))


def _extend(children):
    # divisors, bases and call arguments are often shifted into the domain
    # (a nonzero constant term, 0 for exp, 1 for log), so that most trees
    # evaluate; the unshifted ones may be rejected, by both evaluators
    units = st.builds(_shift, children, _NUMBERS.filter(bool))
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children),
        st.tuples(st.just("/"), children, units),
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("pow"), st.one_of(children, units), st.integers(-4, 6)),
        st.tuples(st.sampled_from(["exp", "log"]), children),
        st.builds(lambda arg: ("exp", _shift(arg, 0)), children),
        st.builds(lambda arg: ("log", _shift(arg, 1)), children),
    )


_TREES = st.recursive(_LEAVES, _extend, max_leaves=8)


def test_the_oracle_knows_its_series():
    # exp(log(1 + x + y)) = 1 + x + y, and (1 - x)^-1 is the geometric series
    one_x_y = ("+", ("+", ("num", Fraction(1)), ("x",)), ("y",))
    got = _oracle(("exp", ("log", one_x_y)), 4)
    assert got == _oracle(one_x_y, 4)
    geometric = _oracle(("pow", ("-", ("num", Fraction(1)), ("x",)), -1), 4)
    assert [row[0] for row in geometric] == [1] * 5 and not any(any(r[1:]) for r in geometric)
    assert _text(("/", ("num", Fraction(1, 2)), ("num", Fraction(-3)))) == "(1/2 / (-3))"


@settings(max_examples=300, deadline=None)
@given(_TREES, st.integers(1, 6))
def test_eval_series_matches_the_ordinary_series_oracle(tree, order):
    # coefficient (m, n) of the triangle m + n <= order is m! n! times the
    # ordinary coefficient; a tree is skipped only when both evaluators
    # reject it
    text = _text(tree)
    try:
        want = _oracle(tree, order)
    except DomainError:
        want = None
    try:
        got = eval_series(parse(text), order)
    except (ConstantTermError, NotInvertibleError):
        got = None
    assert (want is None) == (got is None), text
    if want is None:
        return
    assert [len(row) for row in got.coeffs] == list(range(order + 1, 0, -1))
    for m, row in enumerate(got.coeffs):
        for n, c in enumerate(row):
            assert c == factorial(m) * factorial(n) * want[m][n], (text, m, n)
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    # tree - f(0, 0) + y has f(0, 0) = 0; where f(0, 1) is not zero too, the
    # three methods must agree on its expansion
    shifted = ("+", ("-", tree, ("num", want[0][0])), ("y",))
    try:
        table = table_from_expr(_text(shifted), order)
    except NotExpandableError:
        return
    ys = [expand(table, order, method).y for method in ("direct", "compose", "newton")]
    assert ys[0] == ys[1] == ys[2], text
