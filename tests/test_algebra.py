"""Laurent polynomial layer: normalization, ring laws, evaluation."""

import random
from fractions import Fraction

import pytest

from implicitseries.algebra import (
    ONE,
    ZERO,
    LaurentPoly,
    NotInvertibleError,
    as_coefficient,
    fcode,
    fsym,
    invert_scalar,
    mon_mul,
    mon_pow,
    poly_eval,
    poly_mul,
    poly_normalize,
    xcode,
    xsym,
)

F10 = fcode(1, 0)
F01 = fcode(0, 1)
X1 = xcode(1)
X2 = xcode(2)


def test_normalize_merges_like_monomials():
    p = poly_normalize([
        ((F10, 1), Fraction(2)),
        ((F10, 1), Fraction(3)),
    ])
    assert p == 5 * fsym(1, 0)


def test_normalize_cancellation_and_zero_drop():
    p = poly_normalize([
        ((F10, 2), Fraction(1, 2)),
        ((F10, 2), Fraction(-1, 2)),
        ((X2, 1), Fraction(0)),
    ])
    assert p == ZERO
    assert p.monomial_count() == 0
    assert not p


def test_normalize_sorts_and_merges_factor_pairs():
    # same monomial written with factors shuffled and split
    a = poly_normalize([((X2, 1, F10, 1, F10, 1), Fraction(1))])
    b = poly_normalize([((F10, 2, X2, 1), Fraction(1))])
    assert a == b
    ((mon, _),) = a.terms().items()
    assert mon == (F10, 2, X2, 1)  # codes ascending


def test_normalize_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        p = _random_poly(rng)
        assert poly_normalize(p) == p


def test_negative_exponents_only_on_invertible_symbols():
    poly_normalize([((F01, -3), Fraction(1))])
    poly_normalize([((X1, -2), Fraction(1))])
    with pytest.raises(ValueError):
        poly_normalize([((F10, -1), Fraction(1))])
    with pytest.raises(ValueError):
        poly_normalize([((X2, -1), Fraction(1))])


def test_zero_exponent_dropped():
    p = poly_normalize([((F10, 1, X2, 0), Fraction(4))])
    ((mon, c),) = p.terms().items()
    assert mon == (F10, 1)
    assert c == 4


def _random_poly(rng, allow_negative=True):
    vars_plain = [fcode(1, 0), fcode(2, 1), xcode(2), xcode(3)]
    vars_unit = [F01, X1]
    terms = []
    for _ in range(rng.randrange(0, 5)):
        factors = []
        for code in rng.sample(vars_plain + vars_unit, rng.randrange(0, 4)):
            if allow_negative and code in vars_unit:
                e = rng.choice([-3, -2, -1, 1, 2])
            else:
                e = rng.randrange(1, 4)
            factors.append((code, e))
        mon = []
        for code, e in sorted(factors):
            mon.extend((code, e))
        c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        terms.append((tuple(mon), c))
    return poly_normalize(terms)


def test_ring_axioms_random():
    rng = random.Random(2024)
    for _ in range(120):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        assert a * ZERO == ZERO


def _random_assignment(rng, polys):
    codes = set()
    for p in polys:
        codes.update(p.variables())
    # invertible symbols must stay away from zero
    return {
        code: Fraction(rng.choice([v for v in range(-4, 5) if v or code not in (F01, X1)]),
                       rng.randrange(1, 4))
        for code in codes
    }


def test_eval_is_a_homomorphism():
    rng = random.Random(11)
    for _ in range(100):
        a = _random_poly(rng)
        b = _random_poly(rng)
        asg = _random_assignment(rng, [a, b])
        assert poly_eval(a + b, asg) == poly_eval(a, asg) + poly_eval(b, asg)
        assert poly_eval(a * b, asg) == poly_eval(a, asg) * poly_eval(b, asg)


def test_eval_example_and_errors():
    p = -(xsym(1) ** -3) * xsym(2)
    assert poly_eval(p, {xsym(1): 1, xsym(2): 1}) == -1
    with pytest.raises(KeyError):
        poly_eval(p, {xsym(1): 1})
    with pytest.raises(ZeroDivisionError):
        poly_eval(p, {xsym(1): 0, xsym(2): 5})


def test_eval_accepts_codes_and_variables():
    p = fsym(1, 0) * 3
    assert poly_eval(p, {F10: Fraction(1, 3)}) == 1
    assert poly_eval(p, {fsym(1, 0): Fraction(1, 3)}) == 1


def test_unit_inverse():
    u = Fraction(3, 2) * fsym(0, 1) ** 2 * xsym(1) ** -1
    assert u.is_unit()
    assert u * u.unit_inverse() == ONE
    with pytest.raises(NotInvertibleError):
        (fsym(1, 0)).unit_inverse()
    with pytest.raises(NotInvertibleError):
        (fsym(0, 1) + 1).unit_inverse()
    with pytest.raises(NotInvertibleError):
        ZERO.unit_inverse()


def test_pow_matches_repeated_multiplication():
    rng = random.Random(5)
    for _ in range(30):
        p = _random_poly(rng, allow_negative=False)
        q = ONE
        for k in range(4):
            assert p ** k == q
            q = q * p
    u = fsym(0, 1) * Fraction(2, 7)
    assert u ** -3 == u.unit_inverse() ** 3
    assert u ** -3 * u ** 3 == ONE


def test_division():
    p = fsym(1, 0) + fsym(2, 1)
    assert (p * 6) / 3 == p * 2
    assert p / fsym(0, 1) == p * fsym(0, 1) ** -1
    with pytest.raises(NotInvertibleError):
        p / (fsym(0, 1) + 1)


def test_scalar_mixing():
    p = fsym(1, 0)
    assert 2 * p == p + p
    assert p + 1 == poly_normalize([((F10, 1), 1), ((), 1)])
    assert 1 - p == -(p - 1)
    assert Fraction(1, 2) * p * 2 == p


def test_equality_and_hash():
    a = fsym(1, 0) * fsym(0, 1) ** -1
    b = fsym(0, 1) ** -1 * fsym(1, 0)
    assert a == b
    assert hash(a) == hash(b)
    assert LaurentPoly.const(3) == 3
    assert LaurentPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert fsym(1, 0) != fsym(0, 1)
    d = {a: "v"}
    assert d[b] == "v"


def test_sorted_terms_order():
    # total absolute degree first, then the flat tuple
    p = fsym(1, 0) ** 3 + fsym(0, 1) + fsym(2, 1) * fsym(1, 0)
    mons = [mon for mon, _ in p.sorted_terms()]
    degs = [sum(abs(e) for e in mon[1::2]) for mon in mons]
    assert degs == sorted(degs)


def test_to_obj_shape():
    p = -(fsym(0, 1) ** -3) * fsym(1, 0) ** 2 + Fraction(1, 2)
    obj = p.to_obj()
    assert obj == [
        {"c": "1/2", "factors": []},
        {"c": "-1", "factors": [
            {"sym": "F", "m": 0, "n": 1, "e": -3},
            {"sym": "F", "m": 1, "n": 0, "e": 2},
        ]},
    ]


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-xsym(1) ** -3 * xsym(2)) == "-X1^-3*X2"
    assert str(fsym(1, 0) - 2) == "-2 + F(1,0)"


def test_exponent_overflow_guarded():
    with pytest.raises(OverflowError):
        poly_normalize([((X1, 1 << 41), Fraction(1))])


def test_mul_preserves_normal_form_invariants():
    rng = random.Random(99)
    for _ in range(60):
        p = poly_mul(_random_poly(rng), _random_poly(rng))
        for mon, c in p.terms().items():
            assert c != 0
            codes = mon[::2]
            exps = mon[1::2]
            assert list(codes) == sorted(codes)
            assert all(e != 0 for e in exps)


def test_mon_mul_merges_and_cancels():
    a = (fcode(0, 1), -1, xcode(1), 2)
    b = (fcode(0, 1), 1, xcode(2), 1)
    assert mon_mul(a, b) == (xcode(1), 2, xcode(2), 1)
    assert mon_mul((), a) == a
    assert mon_mul(a, ()) == a


def test_mon_pow():
    m = (xcode(1), 2, xcode(2), 1)
    assert mon_pow(m, 3) == (xcode(1), 6, xcode(2), 3)
    assert mon_pow(m, -1) == (xcode(1), -2, xcode(2), -1)
    assert mon_pow(m, 0) == ()


def _is_canonical(c):
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_scalars_enter_in_canonical_form():
    assert type(as_coefficient(Fraction(6, 3))) is int
    assert type(as_coefficient(True)) is int
    assert as_coefficient(Fraction(1, 2)) == Fraction(1, 2)
    assert type(invert_scalar(Fraction(1, 3))) is int
    assert type(invert_scalar(-1)) is int
    assert invert_scalar(3) == Fraction(1, 3)
    for p in (LaurentPoly.const(Fraction(4, 2)), fsym(1, 0),
              poly_normalize([((F10, 1), Fraction(1, 2)), ((F10, 1), Fraction(1, 2))])):
        ((_, c),) = p.terms().items()
        assert type(c) is int


def test_scaling_and_inverse_keep_coefficients_canonical():
    p = Fraction(1, 2) * fsym(1, 0) + Fraction(3, 4) * fsym(2, 1)
    for q in (p * 4, 4 * p, p / Fraction(1, 4), -p, (2 * fsym(0, 1)).unit_inverse() * 2,
              fsym(0, 1) ** -2):
        assert all(_is_canonical(c) for c in q.terms().values()), q
    assert p * 4 == 2 * fsym(1, 0) + 3 * fsym(2, 1)
    # never a float, even where 1 / int would give one
    ((_, c),) = (3 * fsym(0, 1)).unit_inverse().terms().items()
    assert c == Fraction(1, 3) and type(c) is Fraction
    value = poly_eval(fsym(1, 0) * fsym(0, 1) ** -1, {F10: Fraction(3, 2), F01: Fraction(1, 2)})
    assert value == 3 and type(value) is int
