"""Parser and series evaluator for closed-form input.

The evaluator's oracle is brute-force calculus: differentiate the syntax
tree m times in x and n times in y by the textbook rules, evaluate the
derivative tree at the origin, and compare with the table entry.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitseries.algebra import NotInvertibleError
from implicitseries.expr import (
    MAX_EXPONENT,
    MAX_NESTING,
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
from implicitseries.implicit import CoeffTable, NotExpandableError, expand
from implicitseries.series import BivariateEGF, ConstantTermError


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


def test_chains_of_any_length_parse_and_evaluate_in_loops():
    # each chain nests the tree 5000 deep, five times the recursion limit
    minuses, terms = parse("-" * 5000 + "y"), parse("+".join(["y"] * 5000))
    node, depth = minuses, 0
    while isinstance(node, Neg):
        node, depth = node.operand, depth + 1
    assert (depth, node) == (5000, Var("y"))
    node, depth = terms, 0
    while isinstance(node, BinOp):
        assert node.op == "+" and node.right == Var("y")
        node, depth = node.left, depth + 1
    assert (depth, node) == (4999, Var("y"))
    assert eval_series(minuses, 2) == eval_series(Var("y"), 2)
    assert eval_series(terms, 2) == eval_series(parse("5000*y"), 2)


def test_alternating_minus_and_sum_chains_evaluate_in_one_loop():
    # parse makes this shape only through parentheses, which MAX_NESTING
    # bounds, so it is built from the node classes: 2000 levels of
    # -(node + y), 4000 nodes deep, each level -(-(v + y) + y) = v apart
    node = Var("x")
    for _ in range(2000):
        node = Neg(BinOp("+", node, Var("y")))
    assert eval_series(node, 2) == BivariateEGF.var_x(2)
    odd = Neg(BinOp("+", node, Var("y")))
    assert eval_series(odd, 2) == eval_series(parse("-x-y"), 2)


def _alternating(leaf, levels):
    node = Var(leaf)
    for _ in range(levels):
        node = Neg(BinOp("+", node, Var("y")))
    return node


@pytest.mark.parametrize("build, opening, closing, depth", [
    (lambda leaf: parse("-" * 5000 + leaf), "Neg(operand=", ")", 5000),
    (lambda leaf: parse(leaf + "+y" * 5000), "BinOp(op='+', left=",
     ", right=Var(name='y'))", 5000),
    (lambda leaf: _alternating(leaf, 2000), "Neg(operand=BinOp(op='+', left=",
     ", right=Var(name='y')))", 2000),
], ids=["minuses", "sum_chain", "alternating"])
def test_deep_trees_compare_hash_and_print(build, opening, closing, depth):
    # each tree is deeper than the recursion limit; the twin is built
    # apart, and the other tree differs from it only in the deepest leaf
    tree, twin, other = build("y"), build("y"), build("x")
    assert tree is not twin and tree == twin and hash(tree) == hash(twin)
    assert tree != other and not tree == other
    assert repr(tree) == opening * depth + "Var(name='y')" + closing * depth
    assert repr(other) == opening * depth + "Var(name='x')" + closing * depth


def test_node_equality_hash_and_repr():
    tree = parse("-exp(1/2+x)^2*y")
    assert repr(tree) == (
        "BinOp(op='*', left=Neg(operand=Pow(base=Call(func='exp', arg=BinOp(op='+', "
        "left=Num(value=Fraction(1, 2)), right=Var(name='x'))), exponent=2)), "
        "right=Var(name='y'))")
    assert tree == parse("-(exp(1/2+x))^2*y") and tree != parse("-exp(1/2+x)^2/y")
    assert Num(1) == Num(Fraction(1)) and hash(Num(1)) == hash(Num(Fraction(1)))
    assert Num(1) != Var(1) and Num(1) != 1 and BinOp("+", Num(1), Var("y")) != Num(1)
    assert BinOp("+", Num(1), Var("y")) != BinOp("+", Var(1), Var("y"))
    assert BinOp("+", Var("y"), 1) != BinOp("+", 1, Var("y"))  # a field, not a child
    assert len({parse("x+y"), parse("(x)+(y)"), parse("y+x")}) == 2
    with pytest.raises(TypeError):
        Pow(Var("y"))


@pytest.mark.parametrize("node, field", [
    (Num(Fraction(1, 2)), "value"), (Var("x"), "name"), (Neg(Var("x")), "operand"),
    (BinOp("+", Var("x"), Var("y")), "left"), (Pow(Var("y"), 2), "exponent"),
    (Call("exp", Var("y")), "func"),
])
def test_node_fields_cannot_be_assigned(node, field):
    before = repr(node)
    with pytest.raises(AttributeError):
        setattr(node, field, Var("y"))
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.extra = 1
    assert repr(node) == before


def test_nesting_and_towers_stop_at_max_nesting():
    deepest = "(" * MAX_NESTING + "y" + ")" * MAX_NESTING
    assert parse(deepest) == Var("y")
    assert parse("y^" + "1^" * (MAX_NESTING - 1) + "2") == Pow(Var("y"), 1)
    for src, pos in (("(" + deepest + ")", MAX_NESTING),
                     ("exp(" * (MAX_NESTING + 1), 4 * MAX_NESTING + 3),
                     ("y^" + "1^" * MAX_NESTING + "2", 2 * MAX_NESTING)):
        with pytest.raises(ParseError) as e:
            parse(src)
        assert f"limit {MAX_NESTING} at byte {pos}" in str(e.value)


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
    with pytest.raises(ParseError, match="exponent tower with a negative upper level"):
        parse("y^2^-1-x")


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


# literals are unsigned: a negative number is Neg of its magnitude
_expr_trees = st.recursive(
    st.one_of(
        st.fractions(min_value=0, max_denominator=60).map(Num),
        st.sampled_from([Var("x"), Var("y")]),
    ),
    lambda children: st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Neg, children),
        st.builds(Pow, children, st.integers(-MAX_EXPONENT, MAX_EXPONENT)),
        st.builds(Call, st.sampled_from(["exp", "log"]), children),
    ),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None)
@given(_expr_trees)
def test_print_parse_round_trip_on_generated_trees(tree):
    assert parse(to_text(tree)) == tree


def test_print_parse_fixpoint_on_sources():
    for src in ["y*exp(y) - x", "1/2*x + y^2", "-x^2^3", "(x+y)^-2 * 3",
                "log(1+x) - y", "2 / 3 / x", "x^-1"]:
        a = parse(src)
        assert parse(to_text(a)) == a


def _nested(template, depth):
    src = "y"
    for _ in range(depth):
        src = template.format(src)
    return src


@pytest.mark.parametrize("src", [
    "-" * 150 + "y",
    "+".join(["y"] * 151),
    _nested("({} + y) * y", 60),
    "-" * 3000 + "y",
    "-".join(["y"] * 3000),
    "/".join(["x"] * 3000),
    "y" + " * -y^2" * 3000,
    _nested("exp({})", MAX_NESTING),
    _nested("-({} + y)^2 * y", MAX_NESTING),
], ids=["minus150", "sum151", "nested60", "minus3000", "difference3000",
        "quotient3000", "product3000", "calls100", "mixed100"])
def test_printed_text_of_a_parsed_tree_parses_back(src):
    # texts, not trees, are compared: == on a tree this deep recurses
    text = to_text(parse(src))
    assert to_text(parse(text)) == text
    # only the parentheses the grammar requires, so never more than the source
    assert text.count("(") <= src.count("(")


def test_to_text_prints_only_the_parentheses_the_grammar_requires():
    for src, want in [("((y+y)*y+y)*y", "((y + y) * y + y) * y"),
                      ("x-(y-x)", "x - (y - x)"), ("(x-y)-x", "x - y - x"),
                      ("x/(y*x)", "x / (y * x)"), ("(x/y)*x", "x / y * x"),
                      ("-(x*y)", "-(x * y)"), ("(-x)*y", "-x * y"), ("x*(-y)", "x * -y"),
                      ("(-x)^2", "(-x)^2"), ("-(x^2)", "-x^2"), ("(x^2)^3", "(x^2)^3"),
                      ("(1/2)^2", "1/2^2"), ("(1)/(2)", "1 / 2"), ("exp((x+y))", "exp(x + y)")]:
        assert to_text(parse(src)) == want, src
    # parse makes no negative literal, but a tree built directly may hold
    # one: its sign binds as unary minus, so the text keeps its value
    for tree, want in [(Pow(Num(Fraction(-1)), 2), "(-1)^2"),
                       (BinOp("-", Var("y"), Num(Fraction(-1, 2))), "y - -1/2")]:
        assert to_text(tree) == want
        assert eval_series(parse(want), 3) == eval_series(tree, 3)


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
            for n in range(order + 1 - m):
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
        # every entry of the order-4 triangle, which the order-5 one extends
        for m, row in enumerate(small.coeffs):
            for n, c in enumerate(row):
                assert big.coeffs[m][n] == c


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


@pytest.mark.parametrize("text", ["log(1+x/3+7*y/5)*exp(x*y/2)+y/11", "(3+x-y)^-3-1/27+y",
                                  "y*exp(y) - x", "y - x*y^2/(1-x)"])
def test_the_trusted_table_is_what_the_validating_constructor_builds(text):
    # table_from_expr skips CoeffTable's checks: its entries must already be
    # nonzero, canonical and inside the triangle m + n <= N
    t = table_from_expr(text, 7)
    checked = CoeffTable(7, t.entries(), "rational")
    assert t.entries() == checked.entries()
    assert {k: type(v) for k, v in t.entries().items()} == {
        k: type(v) for k, v in checked.entries().items()}
    assert all(m + n <= 7 for m, n in t.entries())


def test_division_and_log_expressions():
    t = table_from_expr("y/(1+x) - x", 4)
    r = expand(t, 4, "direct")
    assert r.y == [1, 2, 0, 0]
    t2 = table_from_expr("log(1+y) - x", 4)
    # y = exp(x) - 1, EGF coefficients all 1
    assert expand(t2, 4, "newton").y == [1, 1, 1, 1]


def test_exp_log_and_reciprocal_make_no_box_products(monkeypatch):
    # only the user's products multiply two boxes (x*y and the outer *, then
    # y*exp); exp, log and division solve their recurrences row by row
    calls = []
    box_mul = BivariateEGF.__mul__

    def counted(a, b):
        calls.append(1)
        return box_mul(a, b)

    monkeypatch.setattr(BivariateEGF, "__mul__", counted)
    eval_series(parse("log(1+x+y)*exp(x*y)+y"), 12)
    assert len(calls) == 2
    del calls[:]
    eval_series(parse("x/(1-x-y)+y*exp(x+y)"), 12)
    assert len(calls) == 1


def test_negative_powers_and_quotients_make_no_box_products(monkeypatch):
    # a power with an invertible constant term and a quotient each run one
    # row recurrence; neither squares a reciprocal box nor multiplies by one
    calls = []
    box_mul = BivariateEGF.__mul__

    def counted(a, b):
        calls.append(1)
        return box_mul(a, b)

    monkeypatch.setattr(BivariateEGF, "__mul__", counted)
    for src in ["(3+x-y)^-3", "(2-x+y/3)^-5", "(1+x-y)^7", "(x+y)/(3+x-y)",
                "exp(x+y)/(2-x-y)"]:
        eval_series(parse(src), 10)
        assert calls == [], src


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
