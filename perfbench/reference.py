"""Reference answers computed without implicitseries.

Both are in the exponential convention of the package: y_n is n! times the
coefficient of x^n.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def lambert(order):
    """y_1..y_order for y*exp(y) - x = 0: the closed form (-n)^(n-1)."""
    return [Fraction((-n) ** (n - 1)) for n in range(1, order + 1)]


def _mul(p, q, n):
    return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(n)]


def _inv(p, n):
    q = [1 / Fraction(p[0])]
    for k in range(1, n):
        q.append(-sum(p[i] * q[k - i] for i in range(1, k + 1)) * q[0])
    return q


def _log(u, n):
    """log(u) for u with constant term 1, as the integral of u'/u."""
    du = [(k + 1) * u[k + 1] for k in range(n - 1)] + [Fraction(0)]
    t = _mul(du, _inv(u, n), n)
    return [Fraction(0)] + [t[k - 1] / k for k in range(1, n)]


def _exp(v, n):
    """exp(v) for v with constant term 0, from w' = v'w."""
    w = [Fraction(1)]
    for k in range(1, n):
        w.append(sum(j * v[j] * w[k - j] for j in range(1, k + 1)) / k)
    return w


def _residual(a, b, c, y, n):
    """f(x, y(x)) and df/dy(x, y(x)) through x^(n-1), for
    f = log(1 + a x + y) exp(b x y) + c y."""
    u = list(y)
    u[0] += 1
    u[1] += a
    log_u = _log(u, n)
    w = _exp([Fraction(0)] + [b * t for t in y[: n - 1]], n)
    lw = _mul(log_u, w, n)
    f = [lw[k] + c * y[k] for k in range(n)]
    # d/dy: exp(bxy)/(1 + ax + y) + b x log(1 + ax + y) exp(bxy) + c
    w_over_u = _mul(w, _inv(u, n), n)
    fy = [w_over_u[k] + (b * lw[k - 1] if k else 0) for k in range(n)]
    fy[0] += c
    return f, fy


def dense(a, b, c, order):
    """y_1..y_order for log(1 + a x + y) * exp(b x y) + c y = 0.

    Newton's iteration y <- y - f/f_y on ordinary power series, doubling the
    number of correct coefficients each step; the result is then checked by
    substituting it back.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if c == -1:
        raise ValueError("c = -1 makes df/dy vanish at the origin")
    y = [Fraction(0)] * (order + 1)
    exact = 0
    while exact < order:
        exact = min(2 * exact + 1, order)
        n = exact + 1
        f, fy = _residual(a, b, c, y[:n], n)
        step = _mul(f, _inv(fy, n), n)
        y[:n] = [y[k] - step[k] for k in range(n)]
    f, _ = _residual(a, b, c, y, order + 1)
    if any(f):
        raise ArithmeticError("reference series does not solve the equation")
    return [factorial(k) * y[k] for k in range(1, order + 1)]
