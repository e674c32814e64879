"""Parser and series evaluator for closed-form input.

The evaluator's oracle is brute-force calculus: differentiate the syntax
tree m times in x and n times in y by the textbook rules, evaluate the
derivative tree at the origin, and compare with the table entry.
"""

import random
from fractions import Fraction

import pytest

from implicitseries.algebra import NotInvertibleError
from implicitseries.expr import (
    MAX_EXPONENT,
    BinOp,
    Call,
    Neg,
    Num,
    ParseError,
    Pow,
    Var,
    eval_series,
    parse,
    table_from_expr,
    to_text,
    tokenize,
)
from implicitseries.implicit import NotExpandableError, expand
from implicitseries.series import ConstantTermError


# -- lexing -----------------------------------------------------------------


def test_rational_literal_lexes_greedily():
    kinds = [(t.kind, t.text) for t in tokenize("1/2 + 3 / 4")]
    assert kinds == [
        ("number", "1/2"), ("op", "+"), ("number", "3"),
        ("op", "/"), ("number", "4"), ("end", ""),
    ]


def test_token_positions_are_byte_offsets():
    toks = tokenize("x + 12/5")
    assert [(t.text, t.pos) for t in toks[:-1]] == [("x", 0), ("+", 2), ("12/5", 4)]


def test_unknown_character():
    with pytest.raises(ParseError) as e:
        tokenize("x ? y")
    assert "byte 2" in str(e.value)


# -- parsing ----------------------------------------------------------------


def test_precedence_shapes():
    assert parse("1+2*3") == BinOp("+", Num(Fraction(1)),
                                   BinOp("*", Num(Fraction(2)), Num(Fraction(3))))
    assert parse("-x^2") == Neg(Pow(Var("x"), 2))
    assert parse("2*x - y") == BinOp("-", BinOp("*", Num(Fraction(2)), Var("x")),
                                     Var("y"))
    assert parse("x - y - y") == BinOp("-", BinOp("-", Var("x"), Var("y")), Var("y"))
    assert parse("x/y/y") == BinOp("/", BinOp("/", Var("x"), Var("y")), Var("y"))


def test_exponent_forms():
    assert parse("x^3") == Pow(Var("x"), 3)
    assert parse("x^-2") == Pow(Var("x"), -2)
    assert parse("x^2^3") == Pow(Var("x"), 8)  # towers fold right
    assert parse("x^-2^3") == Pow(Var("x"), -8)
    assert parse("exp(y)^2") == Pow(Call("exp", Var("y")), 2)


def test_exponent_limit_is_checked_before_the_power():
    assert parse("x^10^6") == Pow(Var("x"), MAX_EXPONENT)
    assert parse("x^1^0000000000000000000000000002") == Pow(Var("x"), 1)
    for src, pos in (("x^9^9^9", 4), ("(x+y)^2^21", 6), ("x^1000001", 2),
                     ("x^-1000001", 3), ("x^1^" + "9" * 5000, 4)):
        with pytest.raises(ParseError) as e:
            parse(src)
        assert f"byte {pos}" in str(e.value) and "limit" in str(e.value)


def test_parse_errors_carry_position_and_expectations():
    with pytest.raises(ParseError) as e:
        parse("y ^ x")
    assert "byte 4" in str(e.value) and "integer exponent" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse("x + ")
    assert "byte 4" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse("2x")
    assert "trailing" in str(e.value)
    with pytest.raises(ParseError):
        parse("sin(x)")
    with pytest.raises(ParseError):
        parse("x^(2)")
    with pytest.raises(ParseError):
        parse("x^1/2")  # looks like a rational exponent
    with pytest.raises(ParseError):
        parse("(x + y")
    with pytest.raises(ParseError):
        parse("exp x")
    with pytest.raises(ParseError):
        parse("")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("x y")
    with pytest.raises(ParseError):
        parse("2(x)")


# -- printing ---------------------------------------------------------------


def _random_tree(rng, depth):
    if depth == 0:
        return rng.choice([
            Num(Fraction(rng.randrange(0, 5))),
            Num(Fraction(rng.randrange(1, 5), rng.randrange(2, 5))),
            Var("x"), Var("y"),
        ])
    op = rng.randrange(6)
    if op < 2:
        return BinOp(rng.choice("+-"), _random_tree(rng, depth - 1),
                     _random_tree(rng, depth - 1))
    if op < 4:
        return BinOp("*", _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if op == 4:
        return Neg(_random_tree(rng, depth - 1))
    return Pow(_random_tree(rng, depth - 1), rng.randrange(1, 4))


def test_print_parse_round_trip_on_random_trees():
    rng = random.Random(2718)
    for _ in range(60):
        tree = _random_tree(rng, rng.randrange(1, 4))
        text = to_text(tree)
        assert parse(text) == tree
        assert to_text(parse(text)) == text


def test_print_parse_fixpoint_on_sources():
    for src in ["y*exp(y) - x", "1/2*x + y^2", "-x^2^3", "(x+y)^-2 * 3",
                "log(1+x) - y", "2 / 3 / x", "x^-1"]:
        a = parse(src)
        assert parse(to_text(a)) == a


# -- evaluation against the differentiation oracle ---------------------------


_ZERO_NODE = Num(Fraction(0))


def _mul_node(a, b):
    if a == _ZERO_NODE or b == _ZERO_NODE:
        return _ZERO_NODE
    return BinOp("*", a, b)


def _add_node(op, a, b):
    if b == _ZERO_NODE:
        return a
    if a == _ZERO_NODE and op == "+":
        return b
    return BinOp(op, a, b)


def _diff(tree, var):
    if isinstance(tree, Num):
        return _ZERO_NODE
    if isinstance(tree, Var):
        return Num(Fraction(1 if tree.name == var else 0))
    if isinstance(tree, Neg):
        d = _diff(tree.operand, var)
        return _ZERO_NODE if d == _ZERO_NODE else Neg(d)
    if isinstance(tree, BinOp):
        da, db = _diff(tree.left, var), _diff(tree.right, var)
        if tree.op in "+-":
            return _add_node(tree.op, da, db)
        if tree.op == "*":
            return _add_node("+", _mul_node(da, tree.right),
                             _mul_node(tree.left, db))
        raise AssertionError("oracle only differentiates polynomials")
    if isinstance(tree, Pow):
        if tree.exponent == 0:
            return _ZERO_NODE
        inner = _diff(tree.base, var)
        return _mul_node(_mul_node(Num(Fraction(tree.exponent)),
                                   Pow(tree.base, tree.exponent - 1)), inner)
    raise AssertionError("oracle only differentiates polynomials")


def _value_at_origin(tree):
    if isinstance(tree, Num):
        return tree.value
    if isinstance(tree, Var):
        return Fraction(0)
    if isinstance(tree, Neg):
        return -_value_at_origin(tree.operand)
    if isinstance(tree, BinOp):
        a, b = _value_at_origin(tree.left), _value_at_origin(tree.right)
        return a + b if tree.op == "+" else a - b if tree.op == "-" else a * b
    if isinstance(tree, Pow):
        if tree.exponent < 0:
            raise AssertionError("oracle needs nonnegative exponents")
        return _value_at_origin(tree.base) ** tree.exponent
    raise AssertionError("unreachable")


def _random_poly_tree(rng, depth):
    # no division, no calls, nonnegative powers: safe to differentiate
    if depth == 0:
        return rng.choice([
            Num(Fraction(rng.randrange(0, 4))),
            Num(Fraction(rng.randrange(1, 4), rng.randrange(2, 4))),
            Var("x"), Var("y"),
        ])
    op = rng.randrange(5)
    if op < 2:
        return BinOp(rng.choice("+-"), _random_poly_tree(rng, depth - 1),
                     _random_poly_tree(rng, depth - 1))
    if op < 4:
        return BinOp("*", _random_poly_tree(rng, depth - 1),
                     _random_poly_tree(rng, depth - 1))
    return Pow(_random_poly_tree(rng, depth - 1), rng.randrange(1, 4))


def test_eval_series_matches_differentiation_oracle():
    rng = random.Random(1234)
    order = 4
    for _ in range(25):
        tree = _random_poly_tree(rng, rng.randrange(1, 4))
        f = eval_series(tree, order)
        for m in range(order + 1):
            dm = tree
            for _ in range(m):
                dm = _diff(dm, "x")
            for n in range(order + 1):
                dmn = dm
                for _ in range(n):
                    dmn = _diff(dmn, "y")
                assert f.coeffs[m][n] == _value_at_origin(dmn), (m, n)


def test_eval_order_extension_consistency():
    rng = random.Random(5150)
    for _ in range(15):
        tree = _random_tree(rng, 3)
        try:
            big = eval_series(tree, 5)
            small = eval_series(tree, 4)
        except (NotInvertibleError, ConstantTermError, ZeroDivisionError):
            continue
        for m in range(5):
            for n in range(5):
                assert big.coeffs[m][n] == small.coeffs[m][n]


# -- tables from expressions --------------------------------------------------


def test_lambert_equation_table():
    t = table_from_expr("y*exp(y) - x", 5)
    assert t.entry(1, 0) == -1
    assert [t.entry(0, n) for n in range(6)] == [0, 1, 2, 3, 4, 5]
    assert t.entry(1, 1) == 0
    r = expand(t, 5, "newton")
    assert r.y == [Fraction((-n) ** (n - 1)) for n in range(1, 6)]


def test_geometric_equation_table():
    t = table_from_expr("y - x - x*y", 4)
    assert t.entries() == {(0, 1): 1, (1, 0): -1, (1, 1): -1}


def test_division_and_log_expressions():
    t = table_from_expr("y/(1+x) - x", 4)
    r = expand(t, 4, "direct")
    assert r.y == [1, 2, 0, 0]
    t2 = table_from_expr("log(1+y) - x", 4)
    # y = exp(x) - 1, EGF coefficients all 1
    assert expand(t2, 4, "newton").y == [1, 1, 1, 1]


def test_not_expandable_expressions():
    with pytest.raises(NotExpandableError):
        table_from_expr("x + 1", 2)
    with pytest.raises(NotExpandableError):
        table_from_expr("x*y + x", 3)


def test_domain_errors_surface():
    with pytest.raises(ConstantTermError):
        table_from_expr("log(x) + y", 3)
    with pytest.raises(ConstantTermError):
        table_from_expr("exp(1+x) - y", 3)
    with pytest.raises(NotInvertibleError):
        table_from_expr("1/x - y", 3)
    with pytest.raises(NotInvertibleError):
        table_from_expr("y^-1 - x", 3)
