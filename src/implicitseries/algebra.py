"""Exact coefficient arithmetic: rationals and sparse Laurent polynomials.

Scalars are exact and canonical: an ``int`` when the value is integral,
otherwise a reduced ``fractions.Fraction`` with positive denominator.  Values
are brought into that form where they enter the ring or are scaled
(`as_coefficient`, `invert_scalar`, `LaurentPoly.const`, `dot`, `div_int`).
The term kernel (`addmul_terms`, `addscaled_terms`) makes no per-term
check: int coefficients stay ints through it, so all of the symbolic expansion is plain ``int``
arithmetic, while a sum of non-integral Fractions that happens to be
integral stays a Fraction of denominator 1, which equals and hashes like
the int.

Symbolic values are :class:`LaurentPoly`: sparse multivariate polynomials
with such coefficients over two families of indeterminates,

* ``F(m, n)`` -- a Taylor coefficient of the implicit equation,
* ``X(i)``   -- a Bell/Stirling indeterminate, ``i >= 1``,

where exactly ``F(0, 1)`` and ``X(1)`` are invertible: only they may carry
negative exponents.  Everything is immutable after construction and all
arithmetic is exact.

Inside a polynomial a monomial is one int, its packed key (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007), so a product of monomials is one int
addition.  A key gives each indeterminate a slot of 8 bits while the
polynomial's exponent bound stays below 2**6, and of 16 bits from there
on; the bound alone sets the width, so the generic expansions, whose
exponents stay far below 2**6, run on keys half as long.  Exponents stay
below 2**14 in absolute value at either width; an operation that could
pass that raises OverflowError instead of wrapping.  Equal values compare
and hash equal whatever width they are held at.  Outside the class a
monomial is the flat tuple (code0, exp0, code1, exp1, ...), codes strictly
increasing and no zero exponents.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt


class NotInvertibleError(ArithmeticError):
    """Raised when an inverse is requested of a non-unit value."""


# Indeterminates are named by single integer codes.  The numeric order of
# codes realizes the canonical name order
#   F(0,0) < F(0,1) < ... < F(m,n) < X(1) < X(2) < ...
# with F(m,n) ordered lexicographically by (m, n).
_F_SHIFT = 20
_INDEX_LIMIT = 1 << _F_SHIFT
_X_BASE = 1 << 50

# Exponents, and the bound each polynomial keeps on them, stay below this,
# half the 2**15 that a balanced 16-bit slot holds.
_EXP_LIMIT = 1 << 14
# A polynomial whose bound stays below this, half the 2**7 of a balanced
# 8-bit slot, packs its keys at 8 bits per slot.
_NARROW_LIMIT = 1 << 6


def fcode(m: int, n: int) -> int:
    """Code of the Taylor-coefficient indeterminate F(m, n)."""
    if not (0 <= m < _INDEX_LIMIT and 0 <= n < _INDEX_LIMIT):
        raise ValueError(f"F index out of range: ({m}, {n})")
    return (m << _F_SHIFT) | n


def xcode(i: int) -> int:
    """Code of the Bell/Stirling indeterminate X(i), i >= 1."""
    if not (1 <= i < _INDEX_LIMIT):
        raise ValueError(f"X index out of range: {i}")
    return _X_BASE | i


CODE_F01 = fcode(0, 1)
CODE_X1 = xcode(1)
_INVERTIBLE_CODES = frozenset((CODE_F01, CODE_X1))


def decode(code: int):
    """Inverse of fcode/xcode: ('F', m, n) or ('X', i)."""
    if code >= _X_BASE:
        return ("X", code ^ _X_BASE)
    return ("F", code >> _F_SHIFT, code & (_INDEX_LIMIT - 1))


def code_name(code: int) -> str:
    d = decode(code)
    if d[0] == "X":
        return f"X{d[1]}"
    return f"F({d[1]},{d[2]})"


# -- packed monomials ----------------------------------------------------
#
# The key of a monomial is sum(e_s << (w * s)) over its slots s, w bits a
# slot, each exponent e_s a balanced digit: two's-complement, so a negative
# exponent borrows from the slots above and a sum of keys is the key of the
# product while every |e_s| < 2**(w - 1).  Each polynomial keeps a bound on
# its |e_s| (a product's is the sum of its factors', a sum's the larger
# one), and the bound alone sets w (`_bits`): 8 bits below _NARROW_LIMIT,
# 16 bits from there to _EXP_LIMIT, where a product raises before it is
# formed.  A product or sum whose bound reaches _NARROW_LIMIT repacks its
# 8-bit operands at 16 bits (`_widen`), in `dot` and `_aligned`, so both
# kernels add keys of one width and no kernel loop asks which.  A bound is
# coarse: F(0,1)**40 * F(0,1)**-40 is 1 held at 16 bits.  So equality
# widens an 8-bit side, and the hash reads 16-bit keys at 8 bits whenever
# every exponent fits (`_narrowed`).
#
# The slot of an indeterminate is a function of its code alone, so no table
# grows with the inputs: X(i) takes every 16th slot, 16 * (i - 1), and the
# F(m, n) fill the slots between in diagonal order (by m + n, then n),
# which keeps the keys of the generic y_N short.  Slots stop at _SLOT_LIMIT,
# past every F(m, n) with m + n < 350 and every X(i) with i <= 4096, so a
# key stays below 2**20 bits.  Keys are decoded into flat tuples only at
# the public edges (`terms`, `sorted_terms`, `variables`, ...), each call
# with one cache of slot codes for all its keys.

_NARROW_BITS = 8
_WIDE_BITS = 16
_SLOT_LIMIT = 1 << 16
# the digit 2**(w - 1) of one slot, as w // 8 little-endian bytes
_HALF_DIGIT = {w: (1 << (w - 1)).to_bytes(w // 8, "little") for w in (_NARROW_BITS, _WIDE_BITS)}


def _bits(bound: int) -> int:
    """The slot width of the keys of a polynomial with this exponent bound."""
    return _NARROW_BITS if bound < _NARROW_LIMIT else _WIDE_BITS


def _slot(code: int) -> int:
    if code >= _X_BASE:
        s = ((code ^ _X_BASE) - 1) << 4
    else:
        n = code & (_INDEX_LIMIT - 1)
        d = (code >> _F_SHIFT) + n
        j = d * (d + 1) // 2 + n
        s = j + j // 15 + 1
    if s >= _SLOT_LIMIT:
        raise OverflowError(f"{code_name(code)} has no slot in a packed monomial")
    return s


def _slot_code(s: int) -> int:
    if not s & 15:
        return _X_BASE | ((s >> 4) + 1)
    j = s - (s >> 4) - 1
    d = (isqrt(8 * j + 1) - 1) // 2
    n = j - d * (d + 1) // 2
    return ((d - n) << _F_SHIFT) | n


def _pack(factors, bits):
    """(key at bits per slot, largest |exponent|) of a monomial given as
    (code, exponent) pairs in any order; repeated codes add up and zero
    exponents drop out.  The key is right when the bound is below the
    width's limit."""
    acc: dict[int, int] = {}
    for code, e in factors:
        acc[code] = acc.get(code, 0) + e
    key = bound = 0
    for code, e in acc.items():
        if not e:
            continue
        if e < 0 and code not in _INVERTIBLE_CODES:
            raise ValueError(
                f"negative exponent on non-invertible indeterminate {code_name(code)}"
            )
        if abs(e) >= _EXP_LIMIT:
            raise OverflowError("monomial exponent out of supported range")
        key += e << (bits * _slot(code))
        bound = max(bound, abs(e))
    return key, bound


def _decode(key: int, bits: int, codes: dict):
    """(total |degree|, sorted (code, exponent) pairs) of a key packed at
    bits per slot; codes caches the code of each slot across the keys of
    one caller, all at that width."""
    # adding 2**(bits - 1) to every slot the key reaches makes every digit
    # nonnegative; xor with the same bias leaves the zero slots zero
    bias = int.from_bytes(_HALF_DIGIT[bits] * (key.bit_length() // bits + 1), "little")
    z = (key + bias) ^ bias
    half = 1 << (bits - 1)
    align = -bits
    pairs = []
    degree = 0
    while z:
        shift = (z.bit_length() - 1) & align
        d = z >> shift
        z ^= d << shift
        code = codes.get(shift)
        if code is None:
            code = codes[shift] = _slot_code(shift // bits)
        e = (d ^ half) - half
        degree += e if e > 0 else -e
        pairs.append((code, e))
    pairs.sort()
    return degree, pairs


def _unpack(key: int, bits: int, codes=None) -> tuple:
    """The flat (code, exponent, ...) tuple of a key packed at bits per
    slot; codes caches the code of each slot for a caller that decodes
    many keys."""
    return tuple(chain.from_iterable(_decode(key, bits, {} if codes is None else codes)[1]))


def _repack_biases(n: int):
    """The 8-bit half digit 2**7 in each of n slots, at 8 and at 16 bits
    per slot: biased by it, every exponent below 2**7 is one nonnegative
    byte, which moves between the widths as it is."""
    return int.from_bytes(b"\x80" * n, "little"), int.from_bytes(b"\x80\x00" * n, "little")


def _widen(terms: dict) -> dict:
    """A term dict keyed at 8 bits per slot, its exponents below
    _NARROW_LIMIT, repacked at 16."""
    out = {}
    for key, c in terms.items():
        n = key.bit_length() // 8 + 1
        narrow, wide = _repack_biases(n)
        # spread the biased bytes 16 bits apart and take the bias off again
        digits = bytearray(2 * n)
        digits[::2] = (key + narrow).to_bytes(n, "little")
        out[int.from_bytes(digits, "little") - wide] = c
    return out


def _narrowed(terms: dict):
    """A term dict keyed at 16 bits per slot repacked at 8, or None when an
    exponent has no balanced 8-bit digit."""
    out = {}
    for key, c in terms.items():
        n = key.bit_length() // 16 + 1
        narrow, wide = _repack_biases(n)
        biased = key + wide
        if biased < 0:  # a digit below -2**7
            return None
        digits = biased.to_bytes(2 * n, "little")
        if digits[1::2].count(0) < n:  # a digit past the low byte of its slot
            return None
        out[int.from_bytes(digits[::2], "little") - narrow] = c
    return out


def _aligned(p, q):
    """The term dicts of polynomials p and q at one width, the wider of
    their two."""
    a, b = p._terms, q._terms
    if (p._bound < _NARROW_LIMIT) is not (q._bound < _NARROW_LIMIT):
        if p._bound < _NARROW_LIMIT:
            a = _widen(a)
        else:
            b = _widen(b)
    return a, b


def _canonical(value):
    """An exact scalar in canonical form: int when integral, else Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


# -- term kernel ---------------------------------------------------------
#
# A polynomial's raw data is a dict mapping packed monomial keys to nonzero
# canonical coefficients; the key 0 is the unit monomial.


def addmul_terms(out, k, a, b):
    """out += k * a * b in place, for term dicts out, a and b and an int
    k != 0; a sum that cancels is dropped from out."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ma, ca in a.items():
        if k != 1:
            ca = k * ca
        if not ma:
            addscaled_terms(out, ca, b)
            continue
        for mb, cb in b.items():
            m = ma + mb
            c = get(m)
            if c is None:
                out[m] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[m] = c
                else:
                    del out[m]


def addscaled_terms(out, c, b):
    """out += c * b in place, for a term dict b and a nonzero scalar c; the
    keys of b are shared, and so are its coefficients when c is 1."""
    get = out.get
    for m, cb in b.items():
        if c != 1:
            cb = c * cb
        prev = get(m)
        if prev is None:
            out[m] = cb
        else:
            prev = prev + cb
            if prev:
                out[m] = prev
            else:
                del out[m]


def dot(triples):
    """Exact sum of k * a * b over triples (int k, a, b), a and b scalars
    or LaurentPoly, every product added into one term dict and made
    canonical at the end: the value and type of ``s = 0; s = s + k * a * b``,
    canonical (a LaurentPoly if any operand is one, zero included).  Raises
    OverflowError on the same exponent bound as __mul__."""
    out = {}
    # out is keyed at 8 bits per slot until a pair's bound reaches
    # _NARROW_LIMIT; from then on widen is 0, so every later pair takes
    # the branch that repacks its 8-bit operands at 16
    widen = _NARROW_LIMIT
    # the scalar products: s sums those of two ints, and num / den the
    # others over the lcm of their denominators, so that no term makes a
    # Fraction and its gcd
    s = num = 0
    den = 1
    bound = -1  # stays negative while no LaurentPoly has been met
    for k, a, b in triples:
        if type(a) is not LaurentPoly:
            if type(b) is not LaurentPoly:
                if type(a) is int is type(b):
                    s += k * a * b
                    continue
                q = a.denominator * b.denominator
                p = k * a.numerator * b.numerator
                if den % q:
                    g = gcd(den, q)
                    num = num * (q // g) + p * (den // g)
                    den = den // g * q
                else:
                    num += p * (den // q)
                continue
            a, b = b, a
        if type(b) is LaurentPoly:
            pair, bt = a._bound + b._bound, b._terms
        else:
            pair, bt = a._bound, {0: b} if b else {}
        at = a._terms
        if pair >= widen:
            if pair >= _EXP_LIMIT:
                raise OverflowError("monomial exponent out of supported range")
            if widen:
                out, widen = _widen(out), 0
            if a._bound < _NARROW_LIMIT:
                at = _widen(at)
            if pair - a._bound < _NARROW_LIMIT:  # b's bound, 0 for a scalar
                bt = _widen(bt)
        if k:
            addmul_terms(out, k, at, bt)
        bound = max(bound, pair)
    if num:
        s = Fraction(s * den + num, den)
    if bound < 0:
        return _canonical(s)
    if s:
        addscaled_terms(out, 1, {0: s})
    for m, c in out.items():
        if type(c) is not int:
            out[m] = _canonical(c)
    return LaurentPoly._raw(out, bound)


def div_terms(a, n):
    """Term dict divided by a nonzero int, canonical: an int coefficient
    that n divides stays an int, and no Fraction is made for it."""
    out = {}
    for m, c in a.items():
        if type(c) is int:
            out[m] = Fraction(c, n) if c % n else c // n
        else:
            out[m] = _canonical(c / n)
    return out


class LaurentPoly:
    """Sparse Laurent polynomial with exact scalar coefficients.

    Built from (flat monomial tuple, coefficient) pairs or a dict of them.
    Internally a dict mapping packed monomial keys to nonzero canonical
    scalars, and a bound on the absolute value of every exponent, which
    sets the width of the keys (`_bits`); never mutated after
    construction, so instances are safe to share and to use as dict keys.
    """

    __slots__ = ("_terms", "_bound", "_hash")

    def __init__(self, terms=None):
        if terms:
            self._terms, self._bound = _normalize_raw(terms)
        else:
            self._terms, self._bound = {}, 0
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict, bound: int) -> "LaurentPoly":
        # Trusted constructor: terms must already be normalized, keyed at
        # the width of bound, and no exponent may exceed bound in absolute
        # value.
        p = cls.__new__(cls)
        p._terms = terms
        p._bound = bound
        p._hash = None
        return p

    @classmethod
    def const(cls, value) -> "LaurentPoly":
        c = _canonical(value)
        return cls._raw({0: c} if c else {}, 0)

    @classmethod
    def variable(cls, code: int) -> "LaurentPoly":
        return cls._raw({1 << (_bits(1) * _slot(code)): 1}, 1)

    # -- queries ---------------------------------------------------------

    def terms(self) -> dict:
        """The term dict, keyed by flat monomial tuples; a fresh copy."""
        bits, codes = _bits(self._bound), {}
        return {_unpack(m, bits, codes): c for m, c in self._terms.items()}

    def sorted_terms(self):
        """(monomial, coefficient) pairs by total |degree|, then monomial."""
        return [(r[1:-1], r[-1]) for r in self.sorted_records()]

    def sorted_records(self):
        """The terms as flat records (|degree|, code0, exp0, ..., coefficient)
        in the order of `sorted_terms`.  Within one degree no monomial is a
        prefix of another, so the records sort as (degree, monomial) pairs
        do, with one flat tuple comparison each and no coefficient
        compared."""
        bits, codes = _bits(self._bound), {}
        records = []
        for key, c in self._terms.items():
            degree, pairs = _decode(key, bits, codes)
            records.append((degree, *chain.from_iterable(pairs), c))
        records.sort()
        return records

    def monomial_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_unit(self) -> bool:
        """True iff the value is a nonzero rational multiple of a single
        monomial in invertible indeterminates."""
        if len(self._terms) != 1:
            return False
        (mon,) = self._terms
        return all(code in _INVERTIBLE_CODES for code in _unpack(mon, _bits(self._bound))[::2])

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise NotInvertibleError(f"not a unit: {self}")
        ((mon, c),) = self._terms.items()
        return LaurentPoly._raw({-mon: invert_scalar(c)}, self._bound)

    def single_variable_code(self) -> int:
        """The code of a bare variable (one term, coefficient 1, exponent 1)."""
        if len(self._terms) == 1:
            ((key, c),) = self._terms.items()
            mon = _unpack(key, _bits(self._bound))
            if len(mon) == 2 and mon[1] == 1 and c == 1:
                return mon[0]
        raise ValueError(f"not a bare variable: {self}")

    def variables(self):
        """Sorted codes of all indeterminates occurring in the polynomial."""
        bits, codes = _bits(self._bound), {}
        seen = set()
        for key in self._terms:
            seen.update(_unpack(key, bits, codes)[::2])
        return sorted(seen)

    # -- arithmetic ------------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            if len(self._terms) != len(other._terms):
                return False
            a, b = _aligned(self, other)
            return a == b
        if isinstance(other, (int, Fraction)):
            return self._terms == LaurentPoly.const(other)._terms
        return NotImplemented

    def __hash__(self):
        # a constant hashes like its scalar, as it compares equal to it, and
        # a value at either width like its 8-bit keys when it has them
        h = self._hash
        if h is None:
            terms = self._terms
            if self._bound >= _NARROW_LIMIT:
                terms = _narrowed(terms) or terms
            if not terms:
                h = hash(0)
            elif len(terms) == 1 and 0 in terms:
                h = hash(terms[0])
            else:
                h = hash(frozenset(terms.items()))
            self._hash = h
        return h

    def _add(self, other, sign):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = _aligned(self, other)
        out = dict(a)
        addscaled_terms(out, sign, b)
        return LaurentPoly._raw(out, max(self._bound, other._bound))

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({m: -c for m, c in self._terms.items()}, self._bound)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return dot(((1, self, other),))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return div_int(self, other)
        if isinstance(other, Fraction):
            return self * (1 / other)
        if isinstance(other, LaurentPoly):
            return self * other.unit_inverse()
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.unit_inverse() ** -k
        return power(self, k) if k else _ONE

    # -- evaluation ------------------------------------------------------

    def eval(self, assignment):
        """Evaluate at an assignment {variable or code: rational}; the value
        is canonical (an int when integral, otherwise a Fraction).

        Raises KeyError for an indeterminate without a value and
        ZeroDivisionError when a negative power meets the value 0.
        """
        values: dict[int, Fraction] = {}
        for key, v in assignment.items():
            code = key if isinstance(key, int) else key.single_variable_code()
            values[code] = Fraction(v)
        for code in self.variables():
            if code not in values:
                raise KeyError(f"no value assigned to {code_name(code)}")
        total = Fraction(0)
        for mon, c in self.sorted_terms():
            v = c
            for i in range(0, len(mon), 2):
                base = values[mon[i]]
                e = mon[i + 1]
                if e < 0 and base == 0:
                    raise ZeroDivisionError(
                        f"{code_name(mon[i])} assigned 0 but occurs with exponent {e}"
                    )
                v *= base ** e
            total += v
        return _canonical(total)

    # -- presentation ----------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mon, c in self.sorted_terms():
            factors = []
            for i in range(0, len(mon), 2):
                name = code_name(mon[i])
                e = mon[i + 1]
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"

    def to_obj(self):
        """Canonical serialized form: a list of term objects, each
        ``{"c": "p/q", "factors": [{"sym", "m", ("n",) "e"}, ...]}``,
        sorted in the canonical monomial order."""
        return [
            {"c": str(c),
             "factors": [_factor_obj(mon[i], mon[i + 1]) for i in range(0, len(mon), 2)]}
            for mon, c in self.sorted_terms()
        ]


def _factor_obj(code, e):
    """The serialized form of the factor code^e: {"sym", "m", ("n",) "e"}."""
    d = decode(code)
    if d[0] == "X":
        return {"sym": "X", "m": d[1], "e": e}
    return {"sym": "F", "m": d[1], "n": d[2], "e": e}


def _normalize_raw(terms):
    """Normalize raw term data, keyed by flat monomial tuples, into the
    packed term dict and the bound on its exponents.  The keys are packed
    at 16 bits, right for any bound, and repacked at 8 when the bound
    allows."""
    items = terms.items() if isinstance(terms, dict) else terms
    acc: dict[int, int | Fraction] = {}
    bound = 0
    for mon, c in items:
        mon, b = _pack(zip(mon[::2], mon[1::2]), _WIDE_BITS)
        c = _canonical(c)
        if not c:
            continue
        bound = max(bound, b)
        prev = acc.get(mon)
        if prev is None:
            acc[mon] = c
        else:
            s = _canonical(prev + c)
            if s:
                acc[mon] = s
            else:
                del acc[mon]
    if bound < _NARROW_LIMIT:
        acc = _narrowed(acc)
    return acc, bound


_ZERO = LaurentPoly._raw({}, 0)
_ONE = LaurentPoly._raw({0: 1}, 0)

ZERO = _ZERO
ONE = _ONE


def fsym(m: int, n: int) -> LaurentPoly:
    """The Taylor-coefficient symbol F(m, n) as a polynomial."""
    return LaurentPoly.variable(fcode(m, n))


def xsym(i: int) -> LaurentPoly:
    """The Bell/Stirling symbol X(i) as a polynomial."""
    return LaurentPoly.variable(xcode(i))


def invert_scalar(c):
    """Multiplicative inverse in the coefficient ring, in canonical form.

    Rationals invert when nonzero; LaurentPoly values invert exactly when
    they are unit monomials.
    """
    if isinstance(c, LaurentPoly):
        return c.unit_inverse()
    c = Fraction(c)
    if not c:
        raise NotInvertibleError("zero has no inverse")
    return _canonical(1 / c)


def power(x, k):
    """x ** k by repeated squaring, for k >= 1 and x a LaurentPoly or series."""
    result = None
    while k:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if k:
            x = x * x
    return result


def div_int(value, n):
    """value / n for a scalar or LaurentPoly value and a nonzero int n,
    exact and canonical.  An int that n divides becomes value // n, so
    integral work such as u^n / n! makes no Fraction; anything else gives
    the same canonical value as value * Fraction(1, n).  A Fraction value
    gives a Fraction built from its numerator and denominator, so no
    Fraction arithmetic runs."""
    if not n:
        raise ZeroDivisionError("division by zero")
    if type(value) is int:
        return Fraction(value, n) if value % n else value // n
    if isinstance(value, LaurentPoly):
        return LaurentPoly._raw(div_terms(value._terms, n), value._bound)
    return _canonical(Fraction(value.numerator, value.denominator * n))


def as_coefficient(value):
    """Coerce a scalar into canonical form -- an int when integral,
    otherwise a reduced Fraction -- and pass polynomials through."""
    if type(value) is int or isinstance(value, LaurentPoly):
        return value
    return _canonical(value)
