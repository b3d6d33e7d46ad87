"""Univariate polynomial arithmetic and factorization over GF(p).

Polynomials are 1-d int64 arrays of coefficients, lowest degree first,
with no trailing zeros (the zero polynomial is the empty array).
Factorization is Berlekamp's algorithm on the squarefree parts; p is
small here (<= 97), so splitting by gcd(f, v - c) over all c in GF(p)
is cheap.
"""
from __future__ import annotations

import numpy as np

from . import gfp


def trim(f, p: int) -> np.ndarray:
    f = np.mod(np.asarray(f, dtype=np.int64).ravel(), p)
    nz = np.nonzero(f)[0]
    return f[: nz[-1] + 1] if nz.size else f[:0]


def degree(f) -> int:
    return len(f) - 1  # -1 for the zero polynomial


def padd(f, g, p: int) -> np.ndarray:
    n = max(len(f), len(g))
    out = np.zeros(n, dtype=np.int64)
    out[: len(f)] += f
    out[: len(g)] += g
    return trim(out, p)


def pmul(f, g, p: int) -> np.ndarray:
    if len(f) == 0 or len(g) == 0:
        return np.zeros(0, dtype=np.int64)
    return trim(np.convolve(f, g) % p, p)


def pdivmod(f, g, p: int):
    f = trim(f, p)
    g = trim(g, p)
    if len(g) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = np.zeros(max(len(f) - len(g) + 1, 0), dtype=np.int64)
    r = f.copy()
    ginv = gfp.inv_mod(int(g[-1]), p)
    while len(r) >= len(g):
        shift = len(r) - len(g)
        c = (int(r[-1]) * ginv) % p
        q[shift] = c
        r[shift : shift + len(g)] = (r[shift : shift + len(g)] - c * g) % p
        r = trim(r, p)
    return trim(q, p), r


def pmod(f, g, p: int) -> np.ndarray:
    return pdivmod(f, g, p)[1]


def monic(f, p: int) -> np.ndarray:
    f = trim(f, p)
    if len(f) == 0:
        return f
    return (f * gfp.inv_mod(int(f[-1]), p)) % p


def pgcd(f, g, p: int) -> np.ndarray:
    f, g = trim(f, p), trim(g, p)
    while len(g):
        f, g = g, pmod(f, g, p)
    return monic(f, p)


def pdiff(f, p: int) -> np.ndarray:
    if len(f) <= 1:
        return np.zeros(0, dtype=np.int64)
    return trim(f[1:] * np.arange(1, len(f)) % p, p)


def ppow_mod(f, e: int, m, p: int) -> np.ndarray:
    result = np.array([1], dtype=np.int64)
    base = pmod(f, m, p)
    while e:
        if e & 1:
            result = pmod(pmul(result, base, p), m, p)
        base = pmod(pmul(base, base, p), m, p)
        e >>= 1
    return result


def _pth_root(f, p: int) -> np.ndarray:
    # f = g(x^p) in char p; coefficients of g are p-th roots, and over
    # GF(p) the Frobenius is the identity on coefficients.
    return trim(f[::p], p)


def squarefree_decomposition(f, p: int):
    """Yield (g, multiplicity) with f = prod g^multiplicity, g squarefree."""
    f = monic(f, p)
    out = {}

    def accumulate(g, mult):
        if degree(g) > 0:
            out[mult] = pmul(out[mult], g, p) if mult in out else g

    def work(f, base_mult):
        d = pdiff(f, p)
        if len(d) == 0:  # f is a p-th power
            work(_pth_root(f, p), base_mult * p)
            return
        c = pgcd(f, d, p)
        w = pdivmod(f, c, p)[0]
        i = 1
        while degree(w) > 0:
            y = pgcd(w, c, p)
            accumulate(pdivmod(w, y, p)[0], base_mult * i)
            w = y
            c = pdivmod(c, y, p)[0]
            i += 1
        if degree(c) > 0:  # what is left is a p-th power
            work(_pth_root(c, p), base_mult * p)

    work(f, 1)
    return [(g, mult) for mult, g in sorted(out.items(), key=lambda kv: kv[0])]


def _berlekamp_squarefree(f, p: int):
    """Irreducible factors of a squarefree monic polynomial."""
    f = monic(f, p)
    n = degree(f)
    if n <= 1:
        return [f] if n == 1 else []
    # Q[i] = coefficients of x^(i p) mod f
    q = np.zeros((n, n), dtype=np.int64)
    xp = ppow_mod(np.array([0, 1], dtype=np.int64), p, f, p)
    row = np.array([1], dtype=np.int64)
    for i in range(n):
        q[i, : len(row)] = row
        row = pmod(pmul(row, xp, p), f, p)
    kernel = gfp.nullspace((q - np.eye(n, dtype=np.int64)).T % p, p)
    r = kernel.shape[1]
    if r == 1:
        return [f]
    factors = [f]
    for k in range(kernel.shape[1]):
        v = trim(kernel[:, k], p)
        if degree(v) < 1:
            continue
        next_factors = []
        for g in factors:
            if degree(g) <= 1:
                next_factors.append(g)
                continue
            pieces = []
            rem = g
            for c in range(p):
                h = pgcd(rem, padd(v, np.array([-c % p], dtype=np.int64), p), p)
                if 0 < degree(h) <= degree(rem):
                    pieces.append(h)
                    rem = pdivmod(rem, h, p)[0]
                    if degree(rem) == 0:
                        break
            if degree(rem) > 0:
                pieces.append(rem)
            next_factors.extend(pieces if pieces else [g])
        factors = next_factors
        if len(factors) == r:
            break
    return [monic(g, p) for g in factors]


def factor(f, p: int):
    """Full factorization: list of (irreducible monic factor, multiplicity)."""
    f = trim(f, p)
    if degree(f) < 1:
        return []
    out = []
    for g, mult in squarefree_decomposition(f, p):
        for h in _berlekamp_squarefree(g, p):
            out.append((h, mult))
    out.sort(key=lambda fm: (degree(fm[0]), fm[0].tolist()))
    return out


def eval_at_matrix(f, m, p: int) -> np.ndarray:
    """f(m) for a square matrix m, by Horner's rule."""
    n = m.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed(trim(f, p)):
        out = (out @ m + int(c) * np.eye(n, dtype=np.int64)) % p
    return out


def minpoly_vector(m, v, p: int) -> np.ndarray:
    """Minimal monic g with g(m) @ v = 0."""
    krylov = [np.mod(v, p)]
    while True:
        nxt = (m @ krylov[-1]) % p
        stack = np.array(krylov + [nxt], dtype=np.int64)
        coeffs = gfp.nullspace(stack.T, p)
        if coeffs.shape[1]:
            g = trim(coeffs[:, 0], p)
            return monic(g, p)
        krylov.append(nxt)


def plcm(f, g, p: int) -> np.ndarray:
    if len(f) == 0 or len(g) == 0:
        return np.zeros(0, dtype=np.int64)
    return monic(pdivmod(pmul(f, g, p), pgcd(f, g, p), p)[0], p)


def minpoly_matrix(m, p: int) -> np.ndarray:
    m = np.mod(np.asarray(m, dtype=np.int64), p)
    n = m.shape[0]
    result = np.array([1], dtype=np.int64)
    for j in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[j] = 1
        result = plcm(result, minpoly_vector(m, e, p), p)
        if degree(result) == n:
            break
    return result
