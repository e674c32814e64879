"""Constrained partition enumeration and Bell/Stirling polynomial families.

The partial Bell polynomials B(n, k) and their orthogonal companions, the
multivariable Stirling polynomials of the first kind A(n, k) with

    sum_{j=k..n} A(n, j) * B(j, k) = 1 if n == k else 0,

live in the indeterminates X(1), X(2), ...; only X(1) is invertible.  The
first-kind family for k = 1 also has an explicit partition-sum form, which
doubles as the coefficient formula for compositional inversion of a series.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .algebra import ONE, ZERO, LaurentPoly, dot, xcode, xsym


def partition_sequences(n_elements: int, n_blocks: int, length: int):
    """All (r_1, ..., r_length) of nonnegative integers with

        sum r_i = n_blocks   and   sum i * r_i = n_elements,

    in lexicographic order.  Counts partitions of an n_elements-set into
    n_blocks blocks by block-size multiplicities.
    """
    if length < 1:
        raise ValueError("length must be positive")
    if n_elements < 0 or n_blocks < 0:
        return []
    out: list[tuple] = []
    r = [0] * length

    def fill(pos, blocks, weight):
        if pos == length:
            if blocks == 0 and weight == 0:
                out.append(tuple(r))
            return
        i = pos + 1
        for ri in range(min(blocks, weight // i) + 1):
            b = blocks - ri
            w = weight - i * ri
            # remaining slots carry weights in [i+1, length]
            if not ((i + 1) * b <= w <= length * b or (b == 0 and w == 0)):
                continue
            r[pos] = ri
            fill(pos + 1, b, w)
        r[pos] = 0

    fill(0, n_blocks, n_elements)
    return out


def compositions(total: int, parts: int):
    """All weak compositions of `total` into `parts` nonnegative parts,
    lexicographically.  There are C(total + parts - 1, parts - 1) of them."""
    if parts < 1:
        raise ValueError("parts must be positive")
    if total < 0:
        return []
    out: list[tuple] = []
    c = [0] * parts

    def fill(pos, left):
        if pos == parts - 1:
            c[pos] = left
            out.append(tuple(c))
            return
        for v in range(left + 1):
            c[pos] = v
            fill(pos + 1, left - v)

    fill(0, total)
    return out


@lru_cache(maxsize=256)
def bell_partial(n: int, k: int) -> LaurentPoly:
    """The partial Bell polynomial B(n, k) in X(1..n-k+1).

    B(0, 0) = 1; zero when k > n or when n > 0 and k = 0.  Computed by the
    partition sum with multinomial weights n! / (r_1! ... r_n! (1!)^r_1 ...
    (n!)^r_n); the recurrence-based twin is `bell_eval`.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n or (n > 0 and k == 0):
        return ZERO
    if n == 0:
        return ONE
    terms = {}
    for r in partition_sequences(n, k, n):
        denom = 1
        mon = []
        for i, ri in enumerate(r, start=1):
            if ri:
                denom *= factorial(ri) * factorial(i) ** ri
                mon.append(xcode(i))
                mon.append(ri)
        # distinct multiplicity vectors give distinct monomials; the weight
        # counts set partitions, so the division is exact
        terms[tuple(mon)] = factorial(n) // denom
    return LaurentPoly(terms)


def bell_eval(n: int, k: int, args, memo=None):
    """B(n, k) evaluated at ring elements args = (x_1, x_2, ...).

    Independent of `bell_partial`: uses the convolution recurrence
    B(n, k) = sum_i C(n-1, i-1) * x_i * B(n-i, k-1).  Only the first
    n - k + 1 entries of args are read.

    `memo` is an optional dict of values B(n', k') at these same args,
    keyed by (n', k'); a caller that evaluates many (n, k) at one argument
    sequence passes the same dict each time and owns its lifetime.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n or k == 0:
        return 1 if n == k else 0
    need = n - k + 1
    if len(args) < need:
        raise ValueError(f"need {need} arguments for B({n},{k}), got {len(args)}")
    return _bell_eval(n, k, args, {} if memo is None else memo)


def _bell_eval(n, k, args, memo):
    if k == 0:
        return 1 if n == 0 else 0
    hit = memo.get((n, k))
    if hit is not None:
        return hit
    total = dot([(comb(n - 1, i - 1), x, _bell_eval(n - i, k - 1, args, memo))
                 for i, x in enumerate(args[:n - k + 1], 1) if x])
    memo[(n, k)] = total
    return total


def inverse_partition_terms(n: int):
    """The partition-sum terms behind the explicit first-kind polynomial of
    index (n, 1): pairs (r, c) with r running over all multiplicity vectors
    of partitions of 2n-2 elements into n-1 blocks and the int

        c = (-1)^(n-1-r_1) * (2n-2-r_1)! / (r_2! ... r_n! (2!)^r_2 ... (n!)^r_n).
    """
    if n < 1:
        raise ValueError("n must be positive")
    for r in partition_sequences(2 * n - 2, n - 1, n):
        r1 = r[0]
        denom = 1
        for i in range(2, n + 1):
            ri = r[i - 1]
            if ri:
                denom *= factorial(ri) * factorial(i) ** ri
        sign = -1 if (n - 1 - r1) % 2 else 1
        # a count of set partitions of the 2n-2-r_1 elements outside
        # singleton blocks, so the division is exact
        yield r, sign * (factorial(2 * n - 2 - r1) // denom)


@lru_cache(maxsize=256)
def comp_inverse_coeff_poly(n: int) -> LaurentPoly:
    """Laurent polynomial P_n with: the n-th EGF coefficient of the
    compositional inverse of g equals P_n(g_1, ..., g_n), where the g_i are
    the coefficients of g (g_0 = 0, g_1 invertible).

    Explicit form: X1^-(2n-1) * sum over partitions of 2n-2 into n-1 blocks
    of the signed multinomial weight times X1^r1 X2^r2 ... Xn^rn.  Equals
    the first-kind Stirling polynomial of index (n, 1).
    """
    terms = {}
    for r, c in inverse_partition_terms(n):
        mon = [xcode(1), r[0] - (2 * n - 1)]  # exponent is always negative
        for i in range(2, n + 1):
            if r[i - 1]:
                mon.append(xcode(i))
                mon.append(r[i - 1])
        terms[tuple(mon)] = c
    return LaurentPoly(terms)


@lru_cache(maxsize=256)
def stirling1_poly(n: int, k: int) -> LaurentPoly:
    """Multivariable Stirling polynomial of the first kind A(n, k): the
    unique family orthogonal to the partial Bell polynomials.

    Computed by a downward triangular solve; the only divisions are by
    B(j, j) = X1^j, a unit of the Laurent ring.
    """
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    if n == 0:
        return ONE
    if k == 0:
        return ZERO
    if k == n:
        return xsym(1) ** (-n)
    acc = ZERO
    for i in range(k + 1, n + 1):
        acc = acc + stirling1_poly(n, i) * bell_partial(i, k)
    return -acc * xsym(1) ** (-k)


def generic_monomial_count(order: int) -> int:
    """The number of monomials of the generic y_order, counted without
    expanding anything: the multiplicity vectors r on the table slots
    (m, n) other than (0, 0) and (0, 1) with

        sum m * r(m, n) = order   and   sum (n - 1) * r(m, n) = -1.

    Scaling x, y and f shows that every monomial of y_order is
    F(0,1)^-k times a product with such exponents r, k = sum r; the tests
    check against direct's expansion that every such product occurs.

    A two-index knapsack over (sum m, sum (n - 1)).  The partial sums of a
    counted r stay in 0..order and -order..order-1: only slots with n = 0
    carry -1, and each has m >= 1, so there are at most order of them and
    at most order - 1 units of positive weight.
    """
    if order < 1:
        raise ValueError("order must be positive")
    width = 2 * order
    # counts[s][t + order]: vectors so far with sum m = s, sum (n - 1) = t
    counts = [[0] * width for _ in range(order + 1)]
    counts[0][order] = 1
    for m in range(order + 1):
        for n in range(order + 1):
            if m == 0 and n < 2:
                continue
            dt = n - 1
            # ascending (s, t): the source state of a step is updated
            # first, so a slot may be used any number of times
            for s in range(m, order + 1):
                row, src = counts[s], counts[s - m]
                for i in range(max(0, dt), min(width, width + dt)):
                    if src[i - dt]:
                        row[i] += src[i - dt]
    return counts[order][order - 1]


@lru_cache(maxsize=256)
def stirling_number(n: int, k: int, kind: str) -> int:
    """Classical Stirling numbers by their recurrences; kind is 'first'
    (signed) or 'second'.  Deliberately independent of the polynomial
    machinery, to serve as its oracle."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    if kind == "first":
        return stirling_number(n - 1, k - 1, kind) - (n - 1) * stirling_number(n - 1, k, kind)
    if kind == "second":
        return k * stirling_number(n - 1, k, kind) + stirling_number(n - 1, k - 1, kind)
    raise ValueError(f"unknown kind: {kind!r}")
