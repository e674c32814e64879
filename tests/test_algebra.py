"""Laurent polynomial layer: normalization, ring laws, evaluation."""

import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitseries.algebra import (
    _EXP_LIMIT,
    _NARROW_LIMIT,
    ONE,
    ZERO,
    LaurentPoly,
    NotInvertibleError,
    _bits,
    _pack,
    _unpack,
    as_coefficient,
    div_int,
    dot,
    fcode,
    fsym,
    invert_scalar,
    xcode,
    xsym,
)

F10 = fcode(1, 0)
F01 = fcode(0, 1)
X1 = xcode(1)
X2 = xcode(2)

# each slot width of the packed keys, with the limit its exponent bounds
# stay below
WIDTHS = [(_bits(0), _NARROW_LIMIT), (_bits(_NARROW_LIMIT), _EXP_LIMIT)]


def test_normalize_merges_like_monomials():
    p = LaurentPoly([
        ((F10, 1), Fraction(2)),
        ((F10, 1), Fraction(3)),
    ])
    assert p == 5 * fsym(1, 0)


def test_normalize_cancellation_and_zero_drop():
    p = LaurentPoly([
        ((F10, 2), Fraction(1, 2)),
        ((F10, 2), Fraction(-1, 2)),
        ((X2, 1), Fraction(0)),
    ])
    assert p == ZERO
    assert p.monomial_count() == 0
    assert not p


def test_normalize_sorts_and_merges_factor_pairs():
    # same monomial written with factors shuffled and split
    a = LaurentPoly([((X2, 1, F10, 1, F10, 1), Fraction(1))])
    b = LaurentPoly([((F10, 2, X2, 1), Fraction(1))])
    assert a == b
    ((mon, _),) = a.terms().items()
    assert mon == (F10, 2, X2, 1)  # codes ascending


def test_negative_exponents_only_on_invertible_symbols():
    LaurentPoly([((F01, -3), Fraction(1))])
    LaurentPoly([((X1, -2), Fraction(1))])
    with pytest.raises(ValueError):
        LaurentPoly([((F10, -1), Fraction(1))])
    with pytest.raises(ValueError):
        LaurentPoly([((X2, -1), Fraction(1))])


def test_zero_exponent_dropped():
    p = LaurentPoly([((F10, 1, X2, 0), Fraction(4))])
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
    return LaurentPoly(terms)


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
        assert (a + b).eval(asg) == a.eval(asg) + b.eval(asg)
        assert (a * b).eval(asg) == a.eval(asg) * b.eval(asg)


def test_eval_example_and_errors():
    p = -(xsym(1) ** -3) * xsym(2)
    assert p.eval({xsym(1): 1, xsym(2): 1}) == -1
    with pytest.raises(KeyError):
        p.eval({xsym(1): 1})
    with pytest.raises(ZeroDivisionError):
        p.eval({xsym(1): 0, xsym(2): 5})


def test_eval_accepts_codes_and_variables():
    p = fsym(1, 0) * 3
    assert p.eval({F10: Fraction(1, 3)}) == 1
    assert p.eval({fsym(1, 0): Fraction(1, 3)}) == 1


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


def test_div_int_keeps_divisible_ints_int():
    for value, n in ((12, 3), (-12, 4), (0, 5), (7, 1), (3 ** 40, 3)):
        q = div_int(value, n)
        assert type(q) is int and q * n == value


def test_div_int_gives_reduced_fractions_otherwise():
    for value, n in ((7, 2), (-7, 2), (6, 4), (-9, 12), (1, 10 ** 30)):
        q = div_int(value, n)
        assert type(q) is Fraction and q == Fraction(value, n)
        assert q.denominator > 1 and q.denominator == Fraction(value, n).denominator
    for value in (Fraction(1, 2), Fraction(-5, 3), Fraction(9, 4)):
        for n in (1, 2, 3, 6):
            q = div_int(value, n)
            assert q == value * Fraction(1, n) and type(q) is Fraction
    # a Fraction of denominator 1, which sums in the kernel can leave
    q = div_int(Fraction(6, 2) + Fraction(0), 3)
    assert q == 1 and type(q) is int


def test_div_int_on_polynomials():
    p = 6 * fsym(1, 0) ** 3 - 4 * fsym(0, 1) ** -5 + Fraction(3, 2) * xsym(2) + 9
    for n in (1, 2, 3, 4, 7):
        q = div_int(p, n)
        assert q == p * Fraction(1, n)
        assert q._bound == p._bound == 5
        assert all(_is_canonical(c) for c in q.terms().values()), q
    ((_, c),) = div_int(6 * fsym(1, 0), 3).terms().items()
    assert c == 2 and type(c) is int
    assert div_int(ZERO, 4) == ZERO
    assert p / 3 == div_int(p, 3) and p / -3 == -div_int(p, 3)
    with pytest.raises(ZeroDivisionError):
        ZERO / 0
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_scalar_mixing():
    p = fsym(1, 0)
    assert 2 * p == p + p
    assert p + 1 == LaurentPoly([((F10, 1), 1), ((), 1)])
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


def test_constants_hash_like_their_scalars():
    for v in (3, -7, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 2), 0):
        p = LaurentPoly.const(v)
        assert p == v
        assert hash(p) == hash(v)
        assert len({v, p}) == 1
    assert hash(ZERO) == hash(0) and len({0, ZERO}) == 1
    assert hash(ONE) == hash(1) and len({1, ONE}) == 1
    # constants reached by arithmetic, not built by const
    assert hash(fsym(1, 0) - fsym(1, 0)) == hash(0)
    u = 2 * fsym(0, 1)
    assert hash(u * u.unit_inverse()) == hash(1)
    assert hash(Fraction(1, 2) * (fsym(1, 0) + 2) - Fraction(1, 2) * fsym(1, 0)) == hash(1)


def test_sorted_terms_order():
    # total absolute degree first, then the flat tuple
    p = fsym(1, 0) ** 3 + fsym(0, 1) + fsym(2, 1) * fsym(1, 0)
    mons = [mon for mon, _ in p.sorted_terms()]
    degs = [sum(abs(e) for e in mon[1::2]) for mon in mons]
    assert degs == sorted(degs)


def test_sorted_terms_is_the_canonical_order_of_the_decoded_terms():
    rng = random.Random(13)
    for _ in range(200):
        p = _random_poly(rng) * _random_poly(rng) + _random_poly(rng)
        want = sorted(p.terms().items(), key=lambda kv: (sum(abs(e) for e in kv[0][1::2]), kv[0]))
        assert p.sorted_terms() == want


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
        LaurentPoly([((X1, 1 << 41), Fraction(1))])
    with pytest.raises(OverflowError):
        LaurentPoly([((X2, _EXP_LIMIT), 1)])
    with pytest.raises(OverflowError):
        LaurentPoly([((F01, -_EXP_LIMIT), 1)])


def test_products_past_the_slot_raise_instead_of_wrapping():
    with pytest.raises(OverflowError):
        fsym(1, 0) ** (2**15)
    top = LaurentPoly([((X2, _EXP_LIMIT - 1), 1)])
    with pytest.raises(OverflowError):
        top * xsym(2)
    with pytest.raises(OverflowError):
        top * fsym(1, 0)  # the bound is checked, not the exponent reached
    low = LaurentPoly([((F01, -(_EXP_LIMIT - 1)), 1)])
    with pytest.raises(OverflowError):
        low * fsym(0, 1) ** -1
    with pytest.raises(OverflowError):
        low ** 2
    # right below the limit every slot comes out exact
    h = _EXP_LIMIT // 2
    a = LaurentPoly([((F01, -h), 1), ((X2, h), 1)])
    b = LaurentPoly([((F01, 1 - h), 2), ((X2, h - 1), 1)])
    assert (a * b).terms() == {
        (F01, 1 - 2 * h): 2,
        (F01, -h, X2, h - 1): 1,
        (F01, 1 - h, X2, h): 2,
        (X2, 2 * h - 1): 1,
    }


@pytest.mark.parametrize("h, pair", [
    (_NARROW_LIMIT // 2, _NARROW_LIMIT - 1),
    (_NARROW_LIMIT // 2, _NARROW_LIMIT),
    (_NARROW_LIMIT // 2 + 1, _NARROW_LIMIT + 1),
], ids=["narrow-limit-minus-one", "narrow-limit", "narrow-limit-plus-one"])
def test_products_at_the_narrow_limit_come_out_exact(h, pair):
    # the bound of the product is pair: below _NARROW_LIMIT it stays at 8
    # bits, from there on its operands are repacked at 16, and either way
    # every slot, negative exponents included, comes out exact
    g = pair - h
    a = LaurentPoly([((F01, -h), 1), ((X2, h), 1)])
    b = LaurentPoly([((F01, -g), 2), ((X2, g), 1)])
    want = {(F01, -pair): 2, (X2, pair): 1}
    for mon, c in (((F01, -h, X2, g), 1), ((F01, -g, X2, h), 2)):
        want[mon] = want.get(mon, 0) + c
    for got in (a * b, b * a, dot([(1, a, b)]), dot([(3, a, 2), (1, a, b), (-3, 2, a)])):
        assert got._bound == pair
        assert got.terms() == want
        assert got == LaurentPoly(want) and hash(got) == hash(LaurentPoly(want))


def test_a_value_past_the_narrow_range_by_its_bound_alone_is_the_same_value():
    # the bound of the product passes _NARROW_LIMIT, so it is held at 16
    # bits, but its value has one exponent 1
    f01 = fsym(0, 1)
    want = fsym(2, 0)
    got = (f01 ** 40 * want) * f01 ** -40
    assert want._bound < _NARROW_LIMIT <= got._bound
    assert got == want and want == got and not got != want
    assert hash(got) == hash(want)
    assert got.sorted_records() == want.sorted_records()
    assert got.to_obj() == want.to_obj()
    assert str(got) == str(want)
    assert len({got, want}) == 1 and {want: 1}[got] == 1
    assert got.terms() == want.terms() and got.variables() == want.variables()
    assert got.single_variable_code() == fcode(2, 0) and not got.is_unit()
    assert got - want == 0 and got + want == 2 * want
    assert got * fsym(1, 0) == want * fsym(1, 0)
    one = f01 ** 40 * f01 ** -40
    assert one._bound >= _NARROW_LIMIT
    assert one == 1 and one == ONE and hash(one) == hash(1) == hash(ONE)
    assert one.is_unit() and one.unit_inverse() == 1


def test_values_past_the_narrow_range_hash_alike_at_either_bound():
    # exponents of 64 and more have no 8-bit key: equal values hash alike
    # by their 16-bit keys
    f01 = fsym(0, 1)
    built = LaurentPoly([((F01, -70), 3), ((F01, 5, X2, 100), 1)])
    reached = 3 * f01 ** -35 * f01 ** -35 + f01 ** 5 * xsym(2) ** 100
    coarse = (reached * f01 ** 200) * f01 ** -200
    assert built._bound < reached._bound < coarse._bound
    assert built == reached == coarse
    assert hash(built) == hash(reached) == hash(coarse)
    assert len({built, reached, coarse}) == 1
    assert built.sorted_records() == coarse.sorted_records()


@pytest.mark.parametrize("ways", [
    # 200 needs a digit past the low byte of its slot
    lambda f01, f10: (f01 ** 200, (f01 ** 100) ** 2, LaurentPoly([((F01, 200), 1)]),
                      f01 ** 300 * f01 ** -100),
    # -129 is a digit below -2**7
    lambda f01, f10: (f01 ** -129 * f10, f10 * f01 ** -100 * f01 ** -29,
                      LaurentPoly([((F01, -129, F10, 1), 1)])),
], ids=["past-127", "below-minus-128"])
def test_values_with_no_8_bit_digit_hash_alike_however_built(ways):
    # the hash reads 16-bit keys at 8 bits only when every exponent has a
    # balanced 8-bit digit; past that it hashes the 16-bit keys as they are
    values = ways(fsym(0, 1), fsym(1, 0))
    assert all(v == values[0] for v in values)
    assert len({hash(v) for v in values}) == 1
    assert len(set(values)) == 1


def test_values_held_at_either_width_are_interchangeable():
    rng = random.Random(64)
    f01 = fsym(0, 1)
    one = f01 ** 40 * f01 ** -40  # 1, held at 16 bits

    def either(p):
        return p * one if rng.random() < 0.5 else p

    for _ in range(150):
        p, q = _random_poly(rng), _random_poly(rng)
        wp, wq = p * one, either(q)
        assert wp == p and hash(wp) == hash(p)
        assert wp.sorted_records() == p.sorted_records()
        assert wp.to_obj() == p.to_obj() and wp.variables() == p.variables()
        assert wp + wq == p + q and wq - wp == q - p and wp * wq == p * q
        assert -wp == -p and div_int(wp, 3) == div_int(p, 3)
        # a dot whose accumulator switches to 16 bits partway through
        k = [rng.choice([-2, 1, 3]) for _ in range(3)]
        triples = [(k[0], p, q), (k[1], wp, either(q)), (k[2], either(q), Fraction(1, 2))]
        want = k[0] * p * q + k[1] * p * q + k[2] * q * Fraction(1, 2)
        assert dot(triples) == want and hash(dot(triples)) == hash(want)


def test_mul_preserves_normal_form_invariants():
    rng = random.Random(99)
    for _ in range(60):
        p = _random_poly(rng) * _random_poly(rng)
        for mon, c in p.terms().items():
            assert c != 0
            codes = mon[::2]
            exps = mon[1::2]
            assert list(codes) == sorted(codes)
            assert all(e != 0 for e in exps)


def _tuple_mon_mul(a, b):
    """The reference for the packed product: the merge of two flat
    (code, exponent, ...) tuples that the package used before monomials
    were packed into one int."""
    if not a:
        return b
    if not b:
        return a
    out = []
    na, nb = len(a), len(b)
    i = j = 0
    while i < na and j < nb:
        ca = a[i]
        cb = b[j]
        if ca == cb:
            e = a[i + 1] + b[j + 1]
            if e:
                out.append(ca)
                out.append(e)
            i += 2
            j += 2
        elif ca < cb:
            out.append(ca)
            out.append(a[i + 1])
            i += 2
        else:
            out.append(cb)
            out.append(b[j + 1])
            j += 2
    if i < na:
        out.extend(a[i:])
    if j < nb:
        out.extend(b[j:])
    return tuple(out)


def _key(mon, bits):
    key, _ = _pack(zip(mon[::2], mon[1::2]), bits)
    return key


def _packed_mul(a, b, bits):
    return _unpack(_key(a, bits) + _key(b, bits), bits)


def test_packed_product_merges_and_cancels():
    a = (fcode(0, 1), -1, xcode(1), 2)
    b = (fcode(0, 1), 1, xcode(2), 1)
    for bits, _ in WIDTHS:
        assert _packed_mul(a, b, bits) == (xcode(1), 2, xcode(2), 1)
        assert _packed_mul((), a, bits) == a
        assert _packed_mul(a, (), bits) == a
        assert _packed_mul(a, (fcode(0, 1), 1, xcode(1), -2), bits) == ()
        assert _key((), bits) == 0


def test_packed_power():
    m = (xcode(1), 2, xcode(2), 1)
    for bits, _ in WIDTHS:
        assert _unpack(3 * _key(m, bits), bits) == (xcode(1), 6, xcode(2), 3)
        assert _unpack(-_key(m, bits), bits) == (xcode(1), -2, xcode(2), -1)
        assert _unpack(0 * _key(m, bits), bits) == ()
    p = xsym(1) ** 2 * xsym(2)
    assert (p ** 3).terms() == {(xcode(1), 6, xcode(2), 3): 1}
    u = xsym(1) ** 2 * fsym(0, 1)
    assert u.unit_inverse().terms() == {(F01, -1, X1, -2): 1}
    assert (xsym(1) ** -2).terms() == {(xcode(1), -2): 1}


_INVERTIBLE = (F01, X1)


@st.composite
def _monomials(draw, max_exp=_EXP_LIMIT - 1):
    """A canonical flat monomial over F(m, n) with m, n <= 60 and X(i) with
    i <= 80; only F(0, 1) and X(1) take negative exponents."""
    codes = draw(st.sets(
        st.one_of(
            st.builds(fcode, st.integers(0, 60), st.integers(0, 60)),
            st.builds(xcode, st.integers(1, 80)),
            st.sampled_from(_INVERTIBLE),
        ),
        max_size=8,
    ))
    mon = []
    for code in sorted(codes):
        low = -max_exp if code in _INVERTIBLE else 1
        e = draw(st.integers(low, max_exp).filter(bool))
        mon.extend((code, e))
    return tuple(mon)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pack_round_trip(data):
    for bits, limit in WIDTHS:
        mon = data.draw(_monomials(limit - 1))
        key, bound = _pack(zip(mon[::2], mon[1::2]), bits)
        assert _unpack(key, bits) == mon
        assert bound == max((abs(e) for e in mon[1::2]), default=0)
        assert LaurentPoly([(mon, 3)]).terms() == {mon: 3}


@st.composite
def _monomial_pairs(draw, limit):
    """Two monomials whose exponents add without passing the limit; the
    second often repeats codes of the first, and sometimes cancels its
    invertible part."""
    half = limit // 2 - 1
    a = draw(_monomials(half))
    b = draw(_monomials(half))
    exps = dict(zip(b[::2], b[1::2]))
    for code, e in zip(a[::2], a[1::2]):
        if code in _INVERTIBLE and draw(st.booleans()):
            exps[code] = exps.get(code, 0) - e
    b = tuple(x for code in sorted(exps) if exps[code] for x in (code, exps[code]))
    return a, b


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_packed_product_matches_tuple_merge(data):
    for bits, limit in WIDTHS:
        a, b = data.draw(_monomial_pairs(limit))
        assert _packed_mul(a, b, bits) == _tuple_mon_mul(a, b)
        inverse = tuple(x if i % 2 == 0 else -x for i, x in enumerate(a))
        if all(code in _INVERTIBLE for code in a[::2]):
            assert _packed_mul(a, inverse, bits) == ()


def test_slot_range():
    for p in (xsym(4096), fsym(349, 0), fsym(0, 349), fsym(174, 175)):
        assert p.terms() == {(p.single_variable_code(), 1): 1}
    for make in (lambda: xsym(4097), lambda: fsym(0, 400)):
        with pytest.raises(OverflowError):
            make()


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
              LaurentPoly([((F10, 1), Fraction(1, 2)), ((F10, 1), Fraction(1, 2))])):
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
    value = (fsym(1, 0) * fsym(0, 1) ** -1).eval({F10: Fraction(3, 2), F01: Fraction(1, 2)})
    assert value == 3 and type(value) is int


# -- the fused multiply-accumulate ---------------------------------------


def _unfused(triples):
    s = 0
    for k, a, b in triples:
        s = s + k * a * b
    return s


def _random_operand(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(-6, 7)
    if kind == 1:
        return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
    return _random_poly(rng)  # Fraction coefficients, some of them zero polys


def _assert_same_as_unfused(triples):
    got = dot(triples)
    want = as_coefficient(_unfused(triples))  # the loop may leave Fraction(n, 1)
    assert got == want
    assert type(got) is type(want)
    if isinstance(got, LaurentPoly):
        assert all(_is_canonical(c) for c in got.terms().values())
        assert all(c != 0 for c in got.terms().values())
    else:
        assert _is_canonical(got)
    return got


def test_dot_equals_the_unfused_loop_on_random_triples():
    rng = random.Random(10)
    for _ in range(300):
        triples = [(rng.choice([-3, -1, 0, 1, 2, 5]), _random_operand(rng), _random_operand(rng))
                   for _ in range(rng.randrange(0, 7))]
        _assert_same_as_unfused(triples)


def test_dot_of_a_sum_that_cancels_is_a_zero_polynomial():
    rng = random.Random(11)
    for _ in range(100):
        triples = [(rng.choice([-2, 1, 3]), _random_poly(rng), _random_operand(rng))
                   for _ in range(rng.randrange(1, 5))]
        triples += [(-k, a, b) for k, a, b in reversed(triples)]
        got = _assert_same_as_unfused(triples)
        assert type(got) is LaurentPoly and got.is_zero()


def test_dot_on_scalars_and_on_nothing():
    assert dot([]) == 0 and type(dot([])) is int
    got = _assert_same_as_unfused([(1, Fraction(1, 2), 3), (3, Fraction(1, 2), 1)])
    assert got == 3 and type(got) is int
    assert _assert_same_as_unfused([(2, Fraction(1, 3), 1), (1, 1, 5)]) == Fraction(17, 3)
    assert _assert_same_as_unfused([(0, 7, 7), (-1, 2, 3)]) == -6
    # a zero polynomial still makes the result a polynomial
    assert type(_assert_same_as_unfused([(1, 2, 3), (1, ZERO, 4)])) is LaurentPoly


_scalars = st.one_of(st.just(0), st.integers(-40, 40),
                    st.fractions(min_value=-40, max_value=40, max_denominator=36))


@st.composite
def _scalar_triples(draw):
    """Triples (int k, a, b) of scalars whose sum is free, or made to cancel
    to 0 or to an integer by one closing triple."""
    triples = draw(st.lists(st.tuples(st.integers(-6, 6), _scalars, _scalars), max_size=12))
    total = sum((Fraction(k) * a * b for k, a, b in triples), Fraction(0))
    close = draw(st.sampled_from(["free", "zero", "integer"]))
    if close == "zero":
        triples.append((-1, as_coefficient(total), 1))
    elif close == "integer":
        triples.append((1, 1, as_coefficient(floor(total) - total)))
    return triples


@settings(max_examples=120, deadline=None)
@given(_scalar_triples())
def test_dot_over_scalars_is_the_fraction_sum_and_canonical(triples):
    got = _assert_same_as_unfused(triples)
    assert got == sum(k * a * b for k, a, b in triples)


@settings(max_examples=50, deadline=None)
@given(_scalar_triples(), st.randoms(use_true_random=False))
def test_dot_over_scalars_and_polynomials_is_the_unfused_sum(triples, rng):
    # the scalar products are summed over one denominator and then added to
    # the term dict of the polynomial ones
    polys = [(rng.choice([-2, 1, 3]), _random_poly(rng), rng.choice([1, Fraction(2, 3), -5]))
             for _ in range(rng.randrange(1, 4))]
    mixed = triples + polys
    rng.shuffle(mixed)
    got = _assert_same_as_unfused(mixed)
    assert type(got) is LaurentPoly


def test_dot_raises_at_the_same_exponent_bound_as_mul():
    top = LaurentPoly([((X2, _EXP_LIMIT - 1), 1)])
    low = LaurentPoly([((F01, -(_EXP_LIMIT - 1)), 1)])
    for a, b in ((top, xsym(2)), (top, fsym(1, 0)), (low, fsym(0, 1) ** -1)):
        with pytest.raises(OverflowError):
            a * b
        with pytest.raises(OverflowError):
            dot([(1, 2, 3), (3, a, b)])
        with pytest.raises(OverflowError):
            dot([(1, b, a)])
    # the bound of a scalar is 0, and right below the limit nothing raises
    h = _EXP_LIMIT // 2
    a = LaurentPoly([((F01, -h), 1), ((X2, h), 1)])
    b = LaurentPoly([((F01, 1 - h), 2), ((X2, h - 1), 1)])
    assert dot([(1, a, b), (2, top, 5)]) == a * b + 10 * top
