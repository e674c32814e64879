"""Partition enumeration and the Bell/Stirling families, with brute-force
oracles: box search for the index sets, set-partition enumeration for the
Bell polynomials, falling-factorial expansion for the Stirling numbers."""

import itertools
import random
from fractions import Fraction
from math import comb

from implicitseries.algebra import ONE, ZERO, xsym
from implicitseries.combinatorics import (
    bell_eval,
    bell_partial,
    comp_inverse_coeff_poly,
    compositions,
    generic_monomial_count,
    inverse_partition_terms,
    partition_sequences,
    stirling1_poly,
    stirling_number,
)

import pytest


def _partition_sequences_brute(n_elements, n_blocks, length):
    out = []
    for r in itertools.product(range(n_blocks + 1), repeat=length):
        if sum(r) == n_blocks and sum(i * ri for i, ri in enumerate(r, 1)) == n_elements:
            out.append(r)
    return out


def test_partition_sequences_against_box_search():
    for n in range(0, 8):
        for k in range(0, n + 1):
            got = partition_sequences(n, k, max(n, 1))
            assert got == _partition_sequences_brute(n, k, max(n, 1)), (n, k)


def test_partition_sequences_examples_and_order():
    assert partition_sequences(4, 2, 4) == [(0, 2, 0, 0), (1, 0, 1, 0)]
    seqs = partition_sequences(8, 4, 8)
    assert seqs == sorted(seqs)
    assert partition_sequences(0, 0, 1) == [(0,)]
    assert partition_sequences(3, 5, 3) == []
    assert partition_sequences(-1, 1, 3) == [] == partition_sequences(2, -1, 3)


def test_compositions_against_product_search():
    for total in range(0, 7):
        for parts in range(1, 5):
            got = compositions(total, parts)
            want = [c for c in itertools.product(range(total + 1), repeat=parts)
                    if sum(c) == total]
            assert got == want
            assert len(got) == comb(total + parts - 1, parts - 1)


def test_compositions_order():
    assert compositions(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert compositions(-1, 2) == []


def _bell_brute(n, k):
    """B(n, k) by enumerating the set partitions of {1..n} into k blocks."""
    if k == 0:
        return ONE if n == 0 else ZERO
    total = ZERO
    for labels in itertools.product(range(k), repeat=n - 1):
        # element 1 fixed in block 0 kills the block-relabeling symmetry,
        # except for the symmetry among the remaining blocks
        blocks = [[] for _ in range(k)]
        blocks[0].append(1)
        for el, b in zip(range(2, n + 1), labels):
            blocks[b].append(el)
        if any(not b for b in blocks):
            continue
        first = [b[0] for b in blocks]
        if first != sorted(first):
            continue  # canonical block order: count each partition once
        term = ONE
        for b in blocks:
            term = term * xsym(len(b))
        total = total + term
    return total


def test_bell_partial_matches_set_partition_enumeration():
    for n in range(0, 7):
        for k in range(0, n + 1):
            assert bell_partial(n, k) == _bell_brute(n, k), (n, k)


def test_bell_partial_known_values():
    assert bell_partial(2, 1) == xsym(2)
    assert bell_partial(2, 2) == xsym(1) ** 2
    assert bell_partial(4, 2) == 3 * xsym(2) ** 2 + 4 * xsym(1) * xsym(3)
    assert bell_partial(5, 0) == ZERO
    assert bell_partial(3, 4) == ZERO
    assert bell_partial(0, 0) == ONE


def test_bell_eval_agrees_with_polynomials_symbolically():
    args = tuple(xsym(i) for i in range(1, 9))
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert bell_eval(n, k, args) == bell_partial(n, k), (n, k)


def test_bell_eval_agrees_at_random_rationals():
    rng = random.Random(42)
    for _ in range(40):
        args = tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                     for _ in range(8))
        asg = {xsym(i): v for i, v in enumerate(args, 1)}
        for n in range(0, 9):
            for k in range(1, n + 1):
                assert bell_eval(n, k, args) == bell_partial(n, k).eval(asg)


def test_bell_eval_needs_enough_arguments():
    with pytest.raises(ValueError):
        bell_eval(5, 2, (1, 2))


def test_first_kind_known_values():
    assert stirling1_poly(1, 1) == xsym(1) ** -1
    assert stirling1_poly(2, 1) == -(xsym(1) ** -3) * xsym(2)
    assert stirling1_poly(3, 1) == 3 * xsym(1) ** -5 * xsym(2) ** 2 - xsym(1) ** -4 * xsym(3)
    assert stirling1_poly(0, 0) == ONE
    assert stirling1_poly(4, 0) == ZERO
    for n in range(1, 7):
        assert stirling1_poly(n, n) == xsym(1) ** -n


def test_orthogonality_with_bell():
    for n in range(1, 9):
        for k in range(1, n + 1):
            acc = ZERO
            for j in range(k, n + 1):
                acc = acc + stirling1_poly(n, j) * bell_partial(j, k)
            assert acc == (ONE if n == k else ZERO), (n, k)


def test_explicit_inverse_polynomial_matches_triangular_solve():
    for n in range(1, 9):
        assert comp_inverse_coeff_poly(n) == stirling1_poly(n, 1), n


def test_inverse_partition_term_structure():
    for n in range(1, 8):
        total_terms = 0
        for r, c in inverse_partition_terms(n):
            assert len(r) == n
            assert sum(r) == n - 1
            assert sum(i * ri for i, ri in enumerate(r, 1)) == 2 * n - 2
            assert c != 0
            total_terms += 1
        assert total_terms == len(partition_sequences(2 * n - 2, n - 1, n))


def _generic_monomial_count_brute(order):
    # slots with n >= 1 first, so the running sum of (n - 1) only grows
    # until the n = 0 slots, and may be cut at order - 1
    slots = sorted(
        ((m, n) for m in range(order + 1) for n in range(order + 1)
         if (m, n) not in ((0, 0), (0, 1))),
        key=lambda mn: mn[1] == 0)

    def count(i, s, t):
        if i == len(slots):
            return 1 if (s, t) == (order, -1) else 0
        m, n = slots[i]
        total, r = 0, 0
        while s + m * r <= order and t + (n - 1) * r <= order - 1:
            total += count(i + 1, s + m * r, t + (n - 1) * r)
            r += 1
        return total

    return count(0, 0, 0)


def test_generic_monomial_count_against_slot_search():
    for order in range(1, 6):
        assert generic_monomial_count(order) == _generic_monomial_count_brute(order)


def test_generic_monomial_count_known_values():
    assert [generic_monomial_count(n) for n in range(1, 13)] == [
        1, 3, 9, 24, 61, 145, 333, 732, 1565, 3247, 6583, 13047]
    with pytest.raises(ValueError):
        generic_monomial_count(0)


def _falling_factorial_coeffs(n):
    """Coefficients of x(x-1)...(x-n+1), index k = power of x."""
    poly = [Fraction(1)]
    for i in range(n):
        shifted = [Fraction(0)] + poly
        poly = [a - i * b for a, b in zip(shifted, poly + [Fraction(0)])]
    return poly


def test_stirling_numbers_first_kind_against_falling_factorial():
    for n in range(0, 11):
        falling = _falling_factorial_coeffs(n)
        for k in range(0, n + 1):
            assert stirling_number(n, k, "first") == falling[k], (n, k)


def _count_set_partitions(n, k):
    """Explicit inclusion-exclusion count of surjections over k!."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    from math import factorial
    total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    assert total % factorial(k) == 0
    return total // factorial(k)


def test_stirling_numbers_second_kind_against_partition_count():
    for n in range(0, 11):
        for k in range(0, n + 1):
            assert stirling_number(n, k, "second") == _count_set_partitions(n, k), (n, k)


def test_stirling_number_fixed_values():
    assert stirling_number(4, 2, "second") == 7
    assert stirling_number(6, 3, "second") == 90
    assert stirling_number(4, 2, "first") == 11
    assert stirling_number(5, 2, "first") == -50


def test_coefficient_sums_are_stirling_numbers():
    ones = {xsym(i): 1 for i in range(1, 11)}
    for n in range(0, 11):
        for k in range(0, n + 1):
            assert bell_partial(n, k).eval(ones) == stirling_number(n, k, "second")
            assert stirling1_poly(n, k).eval(ones) == stirling_number(n, k, "first")


def test_index_validation():
    with pytest.raises(ValueError):
        partition_sequences(2, 1, 0)
    with pytest.raises(ValueError):
        compositions(1, 0)
    with pytest.raises(ValueError):
        stirling1_poly(2, 3)
    with pytest.raises(ValueError):
        stirling_number(-1, 0, "second")
    with pytest.raises(ValueError):
        stirling_number(3, 1, "third")
    with pytest.raises(ValueError):
        comp_inverse_coeff_poly(0)
