"""Polynomial factoring over GF(p) against brute force.

A polynomial is drawn by its coefficients, lowest degree first, with a
nonzero leading coefficient; every property below is checked for p in
{2, 3, 5} up to degree 6.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfusion import polys as po

PRIMES = [2, 3, 5]
POLY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def polynomials(draw, p, max_degree=6):
    n = draw(st.integers(1, max_degree))
    low = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return np.array(low + [draw(st.integers(1, p - 1))], dtype=np.int64)


def product(pairs, p):
    out = np.array([1], dtype=np.int64)
    for g, mult in pairs:
        for _ in range(mult):
            out = po.pmul(out, g, p)
    return out


def monic_polys(p, k):
    """Every monic polynomial of degree k over GF(p)."""
    for low in itertools.product(range(p), repeat=k):
        yield np.array(low + (1,), dtype=np.int64)


def has_monic_divisor(h, p):
    """Brute force: some monic g with 1 <= deg g <= deg h / 2 divides h."""
    return any(len(po.pmod(h, g, p)) == 0
               for k in range(1, po.degree(h) // 2 + 1) for g in monic_polys(p, k))


@pytest.mark.parametrize("p", PRIMES)
def test_factors_multiply_back_and_are_irreducible(p):
    @POLY_SETTINGS
    @given(polynomials(p))
    def check(f):
        pairs = po.factor(f, p)
        assert np.array_equal(product(pairs, p), po.monic(f, p))
        for h, mult in pairs:
            assert mult >= 1 and po.degree(h) >= 1 and h[-1] == 1
            assert not has_monic_divisor(h, p), (f, h)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_squarefree_decomposition_multiplies_back(p):
    @POLY_SETTINGS
    @given(polynomials(p))
    def check(f):
        pairs = po.squarefree_decomposition(f, p)
        assert np.array_equal(product(pairs, p), po.monic(f, p))
        for g, _ in pairs:
            # over the perfect field GF(p), squarefree means coprime to g'
            assert po.degree(po.pgcd(g, po.pdiff(g, p), p)) == 0

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_powers_of_one_factor(p):
    # (x + 1)^p q^2, q the first irreducible monic quadratic: a p-th power
    # part beside a repeated one, which hypothesis rarely draws
    quad = next(g for g in monic_polys(p, 2) if not has_monic_divisor(g, p))
    f = po.pmul(product([(np.array([1, 1]), p)], p), po.pmul(quad, quad, p), p)
    pairs = po.factor(f, p)
    assert [(h.tolist(), m) for h, m in pairs] == [([1, 1], p), (quad.tolist(), 2)]
    assert np.array_equal(product(po.squarefree_decomposition(f, p), p), f)
