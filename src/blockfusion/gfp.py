"""Dense exact linear algebra over prime fields GF(p).

All matrices are numpy int64 arrays with entries reduced into [0, p).
Every routine is pure and exact; nothing here ever touches floats.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PRIMES = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
}


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p), 2 <= p <= 97."""

    p: int

    def __post_init__(self):
        if self.p not in _PRIMES:
            raise ValueError(f"p must be a prime in [2, 97], got {self.p}")


def asmat(a, p: int) -> np.ndarray:
    """Coerce to a 2-d int64 matrix with entries reduced mod p."""
    m = np.atleast_2d(np.asarray(a, dtype=np.int64))
    return np.mod(m, p)


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def matmul(a, b, p: int) -> np.ndarray:
    return np.mod(np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64), p)


def rref(a, p: int):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    m = asmat(a, p).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = (m[r] * inv_mod(m[r, c], p)) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a, p: int) -> int:
    _, pivots = rref(a, p)
    return len(pivots)


def solve(a, b, p: int):
    """Some x with a @ x = b, or None if the system is inconsistent."""
    a = asmat(a, p)
    b = asmat(b, p)
    if a.shape[0] != b.shape[0]:
        raise ValueError("row counts differ")
    n = a.shape[1]
    aug, pivots = rref(np.hstack([a, b]), p)
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = aug[r, n:]
    return x


def nullspace(a, p: int) -> np.ndarray:
    """Basis of {x : a @ x = 0}, as columns."""
    a = asmat(a, p)
    n = a.shape[1]
    r, pivots = rref(a, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for row, pc in enumerate(pivots):
            basis[pc, k] = (-r[row, fc]) % p
    return basis


def kron(a, b, p: int) -> np.ndarray:
    return np.mod(np.kron(asmat(a, p), asmat(b, p)), p)


def row_basis(a, p: int) -> np.ndarray:
    """Canonical (RREF) basis of the row space; zero rows dropped."""
    r, pivots = rref(a, p)
    return r[: len(pivots)]


def coords_in_rows(basis, v, p: int):
    """Express vector(s) v as combinations of the rows of `basis`.

    v may be a vector or a matrix of stacked row vectors; returns the
    coefficient rows, or None if some v is outside the span.
    """
    basis = asmat(basis, p)
    v = asmat(v, p)
    x = solve(basis.T, v.T, p)
    return None if x is None else x.T


def in_rowspace(basis, v, p: int) -> bool:
    return coords_in_rows(basis, v, p) is not None


def intersect_rowspaces(a, b, p: int) -> np.ndarray:
    """RREF basis of (row space of a) ∩ (row space of b)."""
    a = row_basis(a, p)
    b = row_basis(b, p)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, a.shape[1]), dtype=np.int64)
    # x = u a = w b  <=>  (u | w) in left kernel of vstack(a, -b)
    stacked = np.vstack([a, (-b) % p])
    left_kernel = nullspace(stacked.T, p).T
    if left_kernel.shape[0] == 0:
        return np.zeros((0, a.shape[1]), dtype=np.int64)
    return row_basis(matmul(left_kernel[:, : a.shape[0]], a, p), p)


def sum_rowspaces(a, b, p: int) -> np.ndarray:
    return row_basis(np.vstack([asmat(a, p), asmat(b, p)]), p)


def is_invertible(a, p: int) -> bool:
    a = asmat(a, p)
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def inverse(a, p: int) -> np.ndarray:
    a = asmat(a, p)
    n = a.shape[0]
    x = solve(a, np.eye(n, dtype=np.int64), p)
    if x is None or a.shape[0] != a.shape[1]:
        raise ValueError("matrix not invertible")
    return x


def batch_solve(stack, rhs, p: int):
    """Solve L x = rhs for every L of a stack of square matrices (n, d, d).

    Gauss-Jordan on [L | rhs] runs over the whole stack at once; rhs = I
    gives the inverses.  Returns (is_unit, x): a bool mask of shape (n,),
    true where L is invertible, and the int64 solutions of shape (n, d, k),
    zero where L is singular.
    For p = 2 with d <= 32 and k <= 32 each row of [L | rhs] is packed into
    one 64-bit word and eliminated with XOR (the M4RI idea of Albrecht, Bard
    and Hart, ACM TOMS 2010); otherwise elimination runs on int64 entries
    mod p, exact while p^2 < 2^63.
    """
    if p * p >= 2**63:
        raise ValueError(f"p = {p} is too large for int64 elimination")
    m = np.mod(np.asarray(stack, dtype=np.int64), p)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError("expected a stack of square matrices")
    rhs = np.mod(np.asarray(rhs, dtype=np.int64), p)
    if rhs.ndim != 2 or rhs.shape[0] != m.shape[1]:
        raise ValueError("rhs must have shape (d, k)")
    if p == 2 and max(rhs.shape) <= 32:
        is_unit, x = _batch_solve_gf2(m, rhs)
    else:
        is_unit, x = _batch_solve_modp(m, rhs, p)
    x[~is_unit] = 0
    return is_unit, x


def _batch_solve_gf2(m, rhs):
    n, d, _ = m.shape
    k = rhs.shape[1]
    at = np.arange(n)
    # row j of [L | rhs] as one 64-bit word: bit c holds L[j, c] and bit
    # 32 + c holds rhs[j, c]; int64 arithmetic is exact on these bits
    rows = m @ (1 << np.arange(d, dtype=np.int64))
    rows |= rhs @ (1 << np.arange(32, 32 + k, dtype=np.int64))
    for c in range(d):
        has = (rows & (1 << c)) != 0
        # without bit c, row c takes in the first row below that has it
        piv = c + has[:, c:].argmax(axis=1)
        rows[:, c] ^= np.where(has[:, c], 0, rows[at, piv])
        has[:, c] = False
        rows ^= np.where(has, rows[:, c, None], 0)
    # invertible iff the left half reduced to the identity
    is_unit = ((rows & (2**32 - 1)) == 1 << np.arange(d)).all(axis=1)
    return is_unit, rows[:, :, None] >> np.arange(32, 32 + k) & 1


def _batch_solve_modp(m, rhs, p: int):
    n, d, _ = m.shape
    at = np.arange(n)
    aug = np.empty((n, d, d + rhs.shape[1]), dtype=np.int64)
    aug[:, :, :d] = m
    aug[:, :, d:] = rhs
    for c in range(d):
        has = aug[:, :, c] != 0
        # without a pivot, row c takes in the first row below that has one
        piv = c + has[:, c:].argmax(axis=1)
        aug[:, c] += np.where(has[:, c, None], 0, aug[at, piv])
        # entries below p keep every product below p^2
        aug[:, c] %= p
        aug[:, c] = aug[:, c] * _inv_mod_array(aug[:, c, c], p)[:, None] % p
        has[:, c] = False
        aug -= np.where(has, aug[:, :, c], 0)[:, :, None] * aug[:, c, None, :]
        aug %= p
    is_unit = (aug[:, :, :d] == np.eye(d, dtype=np.int64)).all(axis=(1, 2))
    return is_unit, aug[:, :, d:]


def _inv_mod_array(x, p: int):
    """Elementwise inverse mod p of an int64 array, 0 where x is 0."""
    # x^(p-2) by repeated squaring (Fermat)
    out = (x != 0).astype(np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out
