"""Exact coefficient arithmetic: rationals and sparse Laurent polynomials.

Scalars are exact and canonical: an ``int`` when the value is integral,
otherwise a reduced ``fractions.Fraction`` with positive denominator.  Values
are brought into that form where they enter the ring or are scaled
(`as_coefficient`, `invert_scalar`, `LaurentPoly.const`, scalar products).
The term kernel (`mul_terms`, `add_terms`) makes no per-term check: int
coefficients stay ints through it, so all of the symbolic expansion is plain
``int`` arithmetic, while a product or sum of non-integral Fractions that
happens to be integral stays a Fraction of denominator 1, which equals and
hashes like the int.

Symbolic values are :class:`LaurentPoly`: sparse multivariate polynomials
with such coefficients over two families of indeterminates,

* ``F(m, n)`` -- a Taylor coefficient of the implicit equation,
* ``X(i)``   -- a Bell/Stirling indeterminate, ``i >= 1``,

where exactly ``F(0, 1)`` and ``X(1)`` are invertible: only they may carry
negative exponents.  Everything is immutable after construction and all
arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction


class NotInvertibleError(ArithmeticError):
    """Raised when an inverse is requested of a non-unit value."""


# Indeterminates are packed into single integer codes so that monomials can
# be flat int tuples (cheap to hash, merge and compare).  The numeric order
# of codes realizes the canonical name order
#   F(0,0) < F(0,1) < ... < F(m,n) < X(1) < X(2) < ...
# with F(m,n) ordered lexicographically by (m, n).
_F_SHIFT = 20
_INDEX_LIMIT = 1 << _F_SHIFT
_X_BASE = 1 << 50

# Exponents entering the ring stay below this bound, far beyond any exponent
# this engine can meaningfully produce, so a runaway value fails loudly.
_EXP_LIMIT = 1 << 40


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


def mon_sort_key(mon):
    """Canonical monomial order: total degree by absolute exponent value,
    then the flat (code, exponent) tuple itself."""
    return (sum(abs(e) for e in mon[1::2]), mon)


def _canonical_monomial(factors) -> tuple:
    """Sort factor pairs by code, merge duplicates, drop zero exponents."""
    acc: dict[int, int] = {}
    for code, e in factors:
        acc[code] = acc.get(code, 0) + e
    out = []
    for code in sorted(acc):
        e = acc[code]
        if e == 0:
            continue
        if e < 0 and code not in _INVERTIBLE_CODES:
            raise ValueError(
                f"negative exponent on non-invertible indeterminate {code_name(code)}"
            )
        if abs(e) >= _EXP_LIMIT:
            raise OverflowError("monomial exponent out of supported range")
        out.append(code)
        out.append(e)
    return tuple(out)


def _canonical(value):
    """An exact scalar in canonical form: int when integral, else Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


# -- term kernel ---------------------------------------------------------
#
# A polynomial's raw data is a dict mapping monomials to nonzero canonical
# coefficients; a monomial is a flat tuple (code0, exp0, code1, exp1, ...)
# with codes strictly increasing and no zero exponents, and the empty tuple
# is the unit monomial.


def mon_mul(a, b):
    """Merge two monomials, adding exponents; cancelled factors drop out."""
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


def mon_pow(m, k):
    """Raise a monomial to an integer power (k may be negative)."""
    if k == 0:
        return ()
    out = list(m)
    for i in range(1, len(out), 2):
        out[i] *= k
    return tuple(out)


def mul_terms(a, b):
    """Exact product of two term dicts, with like-monomial accumulation."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mon_mul(ma, mb)
            c = get(m)
            if c is None:
                out[m] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[m] = c
                else:
                    del out[m]
    return out


def add_terms(a, b):
    """Sum of two term dicts; zero coefficients are dropped."""
    out = dict(a)
    get = out.get
    for m, c in b.items():
        prev = get(m)
        if prev is None:
            out[m] = c
        else:
            s = prev + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def scale_terms(a, c):
    """Term dict scaled by a nonzero scalar; the products are made
    canonical, since an int factor can make a Fraction integral."""
    out = {}
    for m, cm in a.items():
        v = c * cm
        out[m] = v if type(v) is int else _canonical(v)
    return out


class LaurentPoly:
    """Sparse Laurent polynomial with exact scalar coefficients.

    Internally a dict mapping flat monomial tuples to nonzero canonical
    scalars; never mutated after construction, so instances are safe to
    share and to use as dict keys.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        if terms:
            self._terms = _normalize_raw(terms)
        else:
            self._terms = {}
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        # Trusted constructor: terms must already be normalized.
        p = cls.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def const(cls, value) -> "LaurentPoly":
        c = _canonical(value)
        return cls._raw({(): c} if c else {})

    @classmethod
    def variable(cls, code: int) -> "LaurentPoly":
        return cls._raw({(code, 1): 1})

    # -- queries ---------------------------------------------------------

    def terms(self) -> dict:
        """The raw term dict; callers must not mutate it."""
        return self._terms

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda kv: mon_sort_key(kv[0]))

    def monomial_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_unit(self) -> bool:
        """True iff the value is a nonzero rational multiple of a single
        monomial in invertible indeterminates."""
        if len(self._terms) != 1:
            return False
        mon = next(iter(self._terms))
        return all(code in _INVERTIBLE_CODES for code in mon[::2])

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise NotInvertibleError(f"not a unit: {self}")
        ((mon, c),) = self._terms.items()
        return LaurentPoly._raw({mon_pow(mon, -1): invert_scalar(c)})

    def single_variable_code(self) -> int:
        """The code of a bare variable (one term, coefficient 1, exponent 1)."""
        if len(self._terms) == 1:
            ((mon, c),) = self._terms.items()
            if len(mon) == 2 and mon[1] == 1 and c == 1:
                return mon[0]
        raise ValueError(f"not a bare variable: {self}")

    def variables(self):
        """Sorted codes of all indeterminates occurring in the polynomial."""
        seen = set()
        for mon in self._terms:
            seen.update(mon[::2])
        return sorted(seen)

    # -- arithmetic ------------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == LaurentPoly.const(other)._terms
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            self._hash = h
        return h

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly._raw(add_terms(self._terms, o._terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return LaurentPoly._raw(mul_terms(self._terms, other._terms))
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO
            return LaurentPoly._raw(scale_terms(self._terms, other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, LaurentPoly):
            return self * other.unit_inverse()
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.unit_inverse() ** (-k)
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

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
        out = []
        for mon, c in self.sorted_terms():
            factors = []
            for i in range(0, len(mon), 2):
                d = decode(mon[i])
                if d[0] == "X":
                    factors.append({"sym": "X", "m": d[1], "e": mon[i + 1]})
                else:
                    factors.append({"sym": "F", "m": d[1], "n": d[2], "e": mon[i + 1]})
            out.append({"c": str(c), "factors": factors})
        return out


def _normalize_raw(terms) -> dict:
    """Normalize raw term data into the canonical dict representation."""
    items = terms.items() if isinstance(terms, dict) else terms
    acc: dict[tuple, int | Fraction] = {}
    for mon, c in items:
        mon = _canonical_monomial(zip(mon[::2], mon[1::2]))
        c = _canonical(c)
        if not c:
            continue
        prev = acc.get(mon)
        if prev is None:
            acc[mon] = c
        else:
            s = _canonical(prev + c)
            if s:
                acc[mon] = s
            else:
                del acc[mon]
    return acc


_ZERO = LaurentPoly._raw({})
_ONE = LaurentPoly._raw({(): 1})

ZERO = _ZERO
ONE = _ONE


def fsym(m: int, n: int) -> LaurentPoly:
    """The Taylor-coefficient symbol F(m, n) as a polynomial."""
    return LaurentPoly.variable(fcode(m, n))


def xsym(i: int) -> LaurentPoly:
    """The Bell/Stirling symbol X(i) as a polynomial."""
    return LaurentPoly.variable(xcode(i))


def poly_normalize(p) -> LaurentPoly:
    """Canonical representative: like monomials merged, zeros removed.

    Accepts a LaurentPoly or raw term data (dict or iterable of
    (flat monomial tuple, coefficient) pairs).  Idempotent.
    """
    if isinstance(p, LaurentPoly):
        return LaurentPoly(p._terms)
    return LaurentPoly(p)


def poly_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact normalized product."""
    return a * b


def poly_eval(p: LaurentPoly, assignment):
    """Evaluate a polynomial at rational values; see LaurentPoly.eval."""
    return p.eval(assignment)


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


def as_coefficient(value):
    """Coerce a scalar into canonical form -- an int when integral,
    otherwise a reduced Fraction -- and pass polynomials through."""
    if type(value) is int or isinstance(value, LaurentPoly):
        return value
    return _canonical(value)
