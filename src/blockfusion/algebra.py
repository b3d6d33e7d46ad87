"""Finite-dimensional associative unital algebras over GF(p).

An Algebra is a basis plus structure constants.  The Jacobson radical
comes from Ronyai's iterated trace ideals, deterministic linear algebra
on integer lifts of the left-regular matrices that works only because
the field is GF(p).  A meataxe (chop a module into Norton-certified
composition factors) certifies that the quotient by that radical is
semisimple, and serves the module-level tools.  Idempotents are lifted
through nilpotent ideals by p-power iteration, the other move that is
only available in characteristic p.
"""
from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import gfp, polys

DEFAULT_SEED = 20240901
MEATAXE_BUDGET = 200
EXHAUSTIVE_CAP = 10**6


class MeataxeBudgetExceeded(RuntimeError):
    pass


class Inconclusive(RuntimeError):
    """A bounded search ended without a verdict (distinct from 'absent')."""


class VerificationError(AssertionError):
    """A witness check failed; the message names the law that broke."""


def verify(ok, msg: str) -> None:
    """Raise VerificationError(msg) unless ok: a check that `python -O` keeps."""
    if not ok:
        raise VerificationError(msg)


# the invariants table of the innermost shared_invariants() scope, or None
_SHARED = contextvars.ContextVar("shared_invariants", default=None)


@contextlib.contextmanager
def shared_invariants():
    """A scope in which every Algebra of equal content (p, sc, unit) reads
    and fills one cache of derived invariants, so equal algebras reached
    by different routes derive their radical and components once.  The
    table is dropped when the scope exits, so nothing is shared with a
    later scope."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _frozen(*arrays):
    """Mark arrays read-only, so that an in-place edit of a cached value
    raises instead of changing it for every later caller."""
    for x in arrays:
        x.flags.writeable = False


class Algebra:
    """Associative unital GF(p)-algebra given by structure constants.

    sc has shape (d, d, d): e_i * e_j = sum_k sc[i, j, k] e_k.
    """

    def __init__(self, p: int, sc, unit, check: bool = True):
        self.p = int(p)
        self.sc = np.mod(np.asarray(sc, dtype=np.int64), p)
        self.unit = np.mod(np.asarray(unit, dtype=np.int64).ravel(), p)
        self.dim = self.sc.shape[0]
        if self.sc.shape != (self.dim, self.dim, self.dim) or len(self.unit) != self.dim:
            raise ValueError("malformed structure constants")
        self._cache = {}  # derived invariants, computed on first use
        self._key = None  # (p, sc, unit) as bytes, made on first shared lookup
        if check and self.dim:
            self._check_axioms()

    def _check_axioms(self):
        # associativity and the left unit are the module laws of the
        # left-regular action, whose matrices are L(e_i)[k, j] = sc[i, j, k]
        Module(self, self.sc.transpose(0, 2, 1)).check()
        if (self.right_mult(self.unit) != np.eye(self.dim, dtype=np.int64)).any():
            raise ValueError("unit is not a right identity")

    # -- arithmetic -------------------------------------------------------
    def vec(self, x) -> np.ndarray:
        return np.mod(np.asarray(x, dtype=np.int64).ravel(), self.p)

    def mul(self, x, y) -> np.ndarray:
        """x*y; stacks of vectors broadcast over their leading axes."""
        p, d = self.p, self.dim
        x = np.mod(np.asarray(x, dtype=np.int64), p)
        y = np.mod(np.asarray(y, dtype=np.int64), p)
        # row j of lx is x*e_j
        lx = (x @ self.sc.reshape(d, d * d)).reshape(x.shape[:-1] + (d, d)) % p
        return (y[..., None, :] @ lx)[..., 0, :] % p

    def left_mult(self, x) -> np.ndarray:
        """Matrix of y -> x*y on column vectors."""
        return np.einsum("i,ijk->kj", self.vec(x), self.sc) % self.p

    def right_mult(self, x) -> np.ndarray:
        """Matrix of y -> y*x on column vectors."""
        return np.einsum("j,ijk->ki", self.vec(x), self.sc) % self.p

    def power(self, x, n: int) -> np.ndarray:
        """x^n for n >= 0; a stack of vectors is raised elementwise."""
        base = np.mod(np.asarray(x, dtype=np.int64), self.p)
        result = np.broadcast_to(self.unit, base.shape).copy()
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def is_idempotent(self, x) -> bool:
        x = self.vec(x)
        return (self.mul(x, x) == x).all()

    def is_unit_element(self, x) -> bool:
        return gfp.is_invertible(self.left_mult(x), self.p)

    def inverse_element(self, x) -> np.ndarray:
        y = gfp.solve(self.left_mult(x), self.unit.reshape(-1, 1), self.p)
        if y is None:
            raise ValueError("element is not invertible")
        return y.ravel()

    def is_commutative(self) -> bool:
        return (self.sc == self.sc.transpose(1, 0, 2)).all()

    def center_rows(self) -> np.ndarray:
        eye = np.eye(self.dim, dtype=np.int64)
        return intertwiner_rows(self, eye, eye, eye)

    # -- substructures ----------------------------------------------------
    def subalgebra(self, rows, unit_vec=None) -> "SpanAlgebra":
        unit_vec = self.unit if unit_vec is None else self.vec(unit_vec)
        return span_algebra(rows, self.mul, unit_vec, self.p)

    def corner(self, e) -> "SpanAlgebra":
        """The corner eAe, a unital algebra with unit e.  At e = 1 it is A
        itself on the identity rows, which span_algebra would only rebuild."""
        e = self.vec(e)
        if (e == self.unit).all():
            return SpanAlgebra(self, np.eye(self.dim, dtype=np.int64))
        rows = self.mul(self.mul(e, np.eye(self.dim, dtype=np.int64)), e)
        return span_algebra(rows, self.mul, e, self.p)

    def quotient_by_ideal(self, ideal_rows) -> "QuotientAlgebra":
        return quotient_algebra(self, ideal_rows)

    # -- cached invariants --------------------------------------------------
    def _invariants(self) -> dict:
        """The cache of derived invariants.  Inside shared_invariants() it
        is the one every algebra of equal content shares: the first such
        algebra to ask enters its own, and a later one merges its entries
        into it and adopts it."""
        table = _SHARED.get()
        if table is not None:
            if self._key is None:
                self._key = (self.p, self.sc.tobytes(), self.unit.tobytes())
            shared = table.setdefault(self._key, self._cache)
            if shared is not self._cache:
                for k, v in self._cache.items():
                    shared.setdefault(k, v)
                self._cache = shared
        return self._cache

    def radical_rows(self, seed: int = DEFAULT_SEED) -> np.ndarray:
        """J(A) as read-only RREF rows, certified by _verify_radical.  The
        rows do not depend on the seed, which only drives the meataxe of
        the certificate, so they are cached once."""
        cache = self._invariants()
        if "radical" not in cache:
            rows = _radical(self, seed)
            _frozen(rows)
            cache["radical"] = rows
        return cache["radical"]

    def semisimple_quotient(self, seed: int = DEFAULT_SEED) -> "QuotientAlgebra":
        """A/J(A), with read-only arrays; like the radical, seed-free."""
        cache = self._invariants()
        if "ssq" not in cache:
            q = self.quotient_by_ideal(self.radical_rows(seed))
            _frozen(q.proj, q.section, q.alg.sc, q.alg.unit)
            cache["ssq"] = q
        return cache["ssq"]

    def simple_components(self, seed: int = DEFAULT_SEED):
        """The simple components of A/J(A), cached per seed (the seed
        picks each component's primitive idempotent)."""
        cache, key = self._invariants(), ("components", seed)
        if key not in cache:
            comps = _simple_components(self, seed)
            for c in comps:
                _frozen(c.central_idempotent, c.primitive_bar)
            cache[key] = comps
        return cache[key]


@dataclass
class SpanAlgebra:
    """A unital subalgebra presented on a canonical basis of a span."""

    alg: Algebra
    rows: np.ndarray  # basis rows in ambient coordinates

    def coords(self, v) -> np.ndarray:
        c = gfp.coords_in_rows(self.rows, v, self.alg.p)
        if c is None:
            raise ValueError("vector is outside the subalgebra")
        return c.ravel() if np.asarray(v).ndim == 1 else c

    def lift(self, coords) -> np.ndarray:
        coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
        out = np.mod(coords @ self.rows, self.alg.p)
        return out[0] if np.asarray(coords).shape[0] == 1 else out


def structure_constants(left, right, target, mul, p: int, name: str = "span") -> np.ndarray:
    """Coordinates, in the rows of `target`, of every product left[i]*right[j].

    One broadcast call of `mul` forms all the products and one solve with
    many right-hand sides finds their coordinates.  Elements may be arrays
    of any shape; each is flattened against the flattened target rows.
    Returns shape (len(left), len(right), len(target)); raises ValueError
    naming the span when some product leaves it.
    """
    left, right, target = (np.asarray(v, dtype=np.int64) for v in (left, right, target))
    prods = mul(left[:, None], right[None, :])
    width = int(np.prod(prods.shape[2:]))
    c = gfp.coords_in_rows(target.reshape(len(target), width), prods.reshape(-1, width), p)
    if c is None:
        raise ValueError(f"{name} is not closed under multiplication")
    return c.reshape(len(left), len(right), len(target))


def check_algebra_map(m, a: Algebra, b: Algebra) -> bool:
    """Whether m (columns: images in b of a's basis) is unital and
    multiplicative on every pair of basis elements."""
    p = a.p
    m = np.mod(np.asarray(m, dtype=np.int64), p)
    img = m.T  # row i: the image of e_i
    if (m @ a.unit % p != b.unit).any():
        return False
    # image of e_i e_j against the product of the images
    lhs = np.tensordot(a.sc, img, axes=1) % p
    return bool((lhs == b.mul(img[:, None], img[None, :])).all())


def intertwiner_rows(a: Algebra, rows, xs, ys) -> np.ndarray:
    """RREF rows of {v in span(rows) : v x_k = y_k v for every k}.

    The one place this system is formed: one nullspace of the stacked
    maps R(x_k) - L(y_k), restricted to the span."""
    p, d = a.p, a.dim
    rows = np.mod(np.asarray(rows, dtype=np.int64), p).reshape(len(rows), d)
    xs = np.mod(np.asarray(xs, dtype=np.int64), p).reshape(len(xs), d)
    ys = np.mod(np.asarray(ys, dtype=np.int64), p).reshape(len(ys), d)
    if len(xs) and len(rows):
        # v -> v x_k - y_k v on coordinate columns, for every k
        maps = (np.einsum("nj,ijk->nki", xs, a.sc)
                - np.einsum("ni,ijk->nkj", ys, a.sc))
        system = (maps @ rows.T).reshape(-1, len(rows)) % p
        rows = gfp.nullspace(system, p).T @ rows % p
    return gfp.row_basis(rows, p)


def span_algebra(rows, mul, unit_vec, p: int) -> SpanAlgebra:
    rows = gfp.row_basis(rows, p)
    sc = structure_constants(rows, rows, rows, mul, p)
    ucoords = gfp.coords_in_rows(rows, unit_vec, p)
    if ucoords is None:
        raise ValueError("unit does not lie in the span")
    inner = Algebra(p, sc, ucoords.ravel(), check=False)
    return SpanAlgebra(inner, rows)


@dataclass
class QuotientAlgebra:
    """A/I with an explicit projection and a linear section."""

    alg: Algebra  # the quotient algebra
    proj: np.ndarray  # (q, d): coords in A -> coords in A/I
    section: np.ndarray  # (q, d): basis rows of a complement of I in A

    def project(self, v) -> np.ndarray:
        return np.mod(self.proj @ np.asarray(v, dtype=np.int64).ravel(), self.alg.p)

    def lift(self, v) -> np.ndarray:
        return np.mod(np.asarray(v, dtype=np.int64).ravel() @ self.section, self.alg.p)


def quotient_algebra(a: Algebra, ideal_rows) -> QuotientAlgebra:
    """A/I on the basis that `quotient_by_section` picks for the ideal."""
    p = a.p
    section, proj = quotient_by_section(ideal_rows, a.dim, p)
    sc = a.mul(section[:, None], section[None, :]) @ proj.T % p
    unit = proj @ a.unit % p
    return QuotientAlgebra(Algebra(p, sc, unit, check=False), proj, section)


def quotient_by_section(rows, n: int, p: int):
    """(section, proj) for GF(p)^n modulo the row span of `rows`.

    The section is the unit vectors at the free columns of the rows' RREF,
    so it spans a complement; proj (q, n) takes coordinates to coordinates
    on the section: subtracting v[c] times the RREF row with pivot c, for
    every pivot c, leaves v[free] - R[:, free].T @ v[pivots].
    """
    r, pivots = gfp.rref(rows, p)
    free = np.setdiff1d(np.arange(n), pivots)
    proj = np.zeros((len(free), n), dtype=np.int64)
    proj[:, free] = np.eye(len(free), dtype=np.int64)
    proj[:, pivots] = -r[:len(pivots), free].T % p
    return np.eye(n, dtype=np.int64)[free], proj


# -- modules and the meataxe ------------------------------------------------


@dataclass
class Module:
    """A left module: one action matrix per algebra basis element."""

    algebra: Algebra
    mats: np.ndarray  # (d_alg, n, n)

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    def action(self, x) -> np.ndarray:
        return np.tensordot(self.algebra.vec(x), self.mats, axes=1) % self.algebra.p

    def check(self) -> None:
        """Raise ValueError naming the broken law: the unit must act as the
        identity, and e_i e_j as mats[i] @ mats[j], tested one i at a time
        against every j, so the transient arrays stay (d, n, n)."""
        a, p = self.algebra, self.algebra.p
        mats = np.mod(self.mats, p)
        if (self.action(a.unit) != np.eye(self.dim, dtype=np.int64)).any():
            raise ValueError("the unit does not act as the identity")
        for i in range(a.dim):
            bad = ((mats[i] @ mats) % p
                   != np.tensordot(a.sc[i], mats, axes=1) % p).any(axis=(1, 2))
            if bad.any():
                j = int(np.argmax(bad))
                raise ValueError(f"e_{i} e_{j} does not act as e_{i} after "
                                 f"e_{j}: the action is not associative")


def regular_module(a: Algebra) -> Module:
    mats = np.array([a.left_mult(e) for e in np.eye(a.dim, dtype=np.int64)])
    return Module(a, mats)


def spin(vectors, mats, p: int) -> np.ndarray:
    """Row basis of the submodule generated by the given vectors."""
    basis = gfp.row_basis(np.atleast_2d(np.asarray(vectors, dtype=np.int64)), p)
    frontier = basis
    while frontier.shape[0]:
        images = [np.mod(m @ frontier.T, p).T for m in mats]
        new = gfp.row_basis(np.vstack([basis] + images), p)
        if new.shape[0] == basis.shape[0]:
            break
        # rows genuinely added; re-derive the frontier as everything new
        frontier = new
        basis = new
    return basis


def submodule_restrict(mod: Module, rows) -> Module:
    p = mod.algebra.p
    rows = gfp.row_basis(rows, p)
    k, r = len(mod.mats), rows.shape[0]
    # one solve against the images under every action matrix side by side
    images = np.mod(mod.mats @ rows.T, p)  # (k, n, r)
    x = gfp.solve(rows.T, images.transpose(1, 0, 2).reshape(mod.dim, k * r),
                  p)
    if x is None:
        raise ValueError("rows do not span a submodule")
    return Module(mod.algebra, x.reshape(r, k, r).transpose(1, 0, 2))


def quotient_module(mod: Module, rows) -> Module:
    p = mod.algebra.p
    section, proj = quotient_by_section(rows, mod.dim, p)
    return Module(mod.algebra, proj @ mod.mats @ section.T % p)


def _random_action(mod: Module, rng) -> np.ndarray:
    x = rng.integers(0, mod.algebra.p, size=mod.algebra.dim)
    theta = mod.action(x)
    if rng.integers(0, 2):
        y = rng.integers(0, mod.algebra.p, size=mod.algebra.dim)
        theta = (theta @ mod.action(y)) % mod.algebra.p
    return theta


def find_submodule(mod: Module, rng, budget: int = MEATAXE_BUDGET):
    """A proper nonzero submodule (row basis), or None if irreducible.

    Parker meataxe with Norton's test: a 'good' random element is one
    where some irreducible factor f of its minimal polynomial has
    nullity(f(theta)) == deg f; then spinning a kernel vector on both
    sides gives either a submodule or an irreducibility certificate.
    """
    n = mod.dim
    p = mod.algebra.p
    if n <= 1:
        return None
    matsT = np.array([m.T for m in mod.mats])
    for _ in range(budget):
        theta = _random_action(mod, rng)
        m = polys.minpoly_matrix(theta, p)
        for f, _mult in polys.factor(m, p):
            ft = polys.eval_at_matrix(f, theta, p)
            ker = gfp.nullspace(ft, p)
            if ker.shape[1] == 0:
                continue
            w = spin(ker[:, 0], mod.mats, p)
            if w.shape[0] < n:
                return w
            if ker.shape[1] == polys.degree(f):
                kert = gfp.nullspace(ft.T % p, p)
                wt = spin(kert[:, 0], matsT, p)
                if wt.shape[0] < n:
                    return gfp.nullspace(wt, p).T  # perp of a dual submodule
                return None  # certified irreducible
    raise MeataxeBudgetExceeded(f"no verdict in {budget} meataxe draws")


def composition_factors(mod: Module, seed: int = DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    out = []
    stack = [mod]
    while stack:
        m = stack.pop()
        if m.dim == 0:
            continue
        rows = find_submodule(m, rng)
        if rows is None:
            out.append(m)
        else:
            stack.append(submodule_restrict(m, rows))
            stack.append(quotient_module(m, rows))
    return out


def annihilator_rows(mod: Module) -> np.ndarray:
    p = mod.algebra.p
    flat = mod.mats.reshape(mod.algebra.dim, -1).T % p  # (n^2, d)
    return gfp.row_basis(gfp.nullspace(flat, p).T, p)


def _meataxe_radical(a: Algebra, seed: int) -> np.ndarray:
    """Jacobson radical by the meataxe: intersect the annihilators of the
    regular module's composition factors (RREF rows)."""
    rad = np.eye(a.dim, dtype=np.int64)
    for f in composition_factors(regular_module(a), seed):
        rad = gfp.intersect_rowspaces(rad, annihilator_rows(f), a.p)
    return rad


def _radical(a: Algebra, seed: int) -> np.ndarray:
    """Jacobson radical (RREF rows) by Ronyai's iterated trace ideals.

    Over GF(p), with d = dim A and l = floor(log_p d), lift the left-regular
    matrices to the integers and set I_-1 = A.  On I_{i-1} the map
    g_i(x) = Tr(L(x)^(p^i)) / p^i mod p is linear, and
    I_i = {x in I_{i-1} : g_i(x b) = 0 for every b in A} is an ideal;
    J(A) = I_l (Ronyai, J. Symb. Comp. 1990; Cohen, Ivanyos and Wales,
    JPAA 1997).  Each step raises the lifts of a basis of I_{i-1} to the
    p^i-th power mod p^(i+1) in one stack, reads g_i on every product
    r_t e_j through the coordinates of the products in that basis, and
    takes one nullspace.  Entries stay below p^(l+1) <= p d, so the int64
    products are exact while d (p d)^2 < 2^63; larger inputs are refused.
    _verify_radical certifies the result independently.
    """
    p, d = a.p, a.dim
    if d == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if d * (p * d) ** 2 >= 2**63:
        raise ValueError(f"p = {p}, dim = {d} is too large for the int64 trace kernel")
    lmats = a.sc.transpose(0, 2, 1)  # L(e_s)
    eye = np.eye(d, dtype=np.int64)
    ideal = eye
    i = 0
    while ideal.shape[0] and p**i <= d:
        q = p ** (i + 1)
        traces = np.trace(_power_mod(np.tensordot(ideal, lmats, axes=1) % q, p**i, q),
                          axis1=1, axis2=2) % q
        verify(not (traces % p**i).any(),
               f"trace of a p^{i}-th power on I_{i - 1} is not divisible by p^{i}")
        gamma = traces // p**i
        # form[t, j] = g_i(r_t e_j), by linearity from g_i on the basis r_t
        k = ideal.shape[0]
        coords = gfp.coords_in_rows(ideal, a.mul(ideal[:, None], eye[None, :]).reshape(-1, d), p)
        verify(coords is not None, f"trace ideal I_{i - 1} is not a right ideal")
        form = (coords @ gamma % p).reshape(k, d)
        ideal = gfp.row_basis(gfp.nullspace(form.T, p).T @ ideal % p, p)
        i += 1
    _verify_radical(a, ideal, seed)
    return ideal


def _power_mod(stack, n: int, q: int) -> np.ndarray:
    """Each matrix of a stack to the n-th power mod q (n >= 1), by squaring."""
    out = None
    while True:
        if n & 1:
            out = stack if out is None else out @ stack % q
        n >>= 1
        if not n:
            return out
        stack = stack @ stack % q


def _verify_radical(a: Algebra, rad: np.ndarray, seed: int) -> None:
    """Certify J(A): an ideal, nilpotent, and A/J semisimple by a meataxe
    that shares nothing with the trace kernel."""
    p = a.p
    eye = np.eye(a.dim, dtype=np.int64)
    prods = np.vstack([a.mul(rad[:, None], eye[None, :]).reshape(-1, a.dim),
                       a.mul(eye[:, None], rad[None, :]).reshape(-1, a.dim)])
    verify(gfp.in_rowspace(rad, prods, p), "radical is not a two-sided ideal")
    power = rad
    for _ in range(a.dim + 1):
        if power.shape[0] == 0:
            break
        power = gfp.row_basis(a.mul(power[:, None], rad[None, :]).reshape(-1, a.dim), p)
    verify(power.shape[0] == 0, "radical is not nilpotent")
    q = quotient_algebra(a, rad)
    verify(_meataxe_radical(q.alg, seed).shape[0] == 0,
           "quotient by radical is not semisimple")


# -- commutative tooling ------------------------------------------------------


def frobenius_matrix(z: Algebra) -> np.ndarray:
    """Matrix of x -> x^p; additive on a commutative algebra in char p."""
    if not z.is_commutative():
        raise ValueError("algebra is not commutative")
    return z.power(np.eye(z.dim, dtype=np.int64), z.p).T


def nilradical_commutative(z: Algebra) -> np.ndarray:
    """Row basis of the nilradical: kernel of an iterated p-power map."""
    f = frobenius_matrix(z)
    m = 1
    it = f
    while z.p**m < max(z.dim, 2):
        it = (f @ it) % z.p
        m += 1
    return gfp.row_basis(gfp.nullspace(it, z.p).T, z.p)


def split_commutative_semisimple(z: Algebra):
    """Complete orthogonal set of primitive idempotents of a commutative
    semisimple algebra, via the Frobenius-fixed subspace."""
    p = z.p
    f = frobenius_matrix(z)
    fixed = gfp.nullspace((f - np.eye(z.dim, dtype=np.int64)) % p, p).T
    fixed = gfp.row_basis(fixed, p)
    target = fixed.shape[0]
    idems = [z.unit.copy()]
    for v in fixed:
        if len(idems) == target:
            break
        refined = []
        for e in idems:
            w = z.mul(v, e)
            # minimal polynomial of w inside the ideal eZ; roots are in GF(p)
            lw = z.left_mult(w)
            mp = polys.minpoly_vector(lw, e, p)
            roots = [c for c in range(p)
                     if not polys.eval_at_matrix(mp, np.array([[c]]), p).any()]
            if len(roots) <= 1:
                refined.append(e)
                continue
            for c in roots:
                piece = e.copy()
                for c2 in roots:
                    if c2 == c:
                        continue
                    scale = gfp.inv_mod(c - c2, p)
                    piece = z.mul(piece, (scale * ((w - c2 * e) % p)) % p)
                refined.append(piece % p)
        idems = [e for e in refined if e.any()]
    verify(len(idems) == target, "splitting did not reach the fixed-space dimension")
    total = np.zeros(z.dim, dtype=np.int64)
    for e in idems:
        verify(z.is_idempotent(e), "a split piece is not idempotent")
        total = (total + e) % p
    verify((total == z.unit).all(), "split idempotents do not sum to the unit")
    for i in range(len(idems)):
        for j in range(i + 1, len(idems)):
            verify(not z.mul(idems[i], idems[j]).any(),
                   f"split idempotents {i} and {j} are not orthogonal")
    return idems


def lift_idempotent(a: Algebra, ebar, nil_rows=None) -> np.ndarray:
    """Lift an idempotent-mod-N to an honest idempotent by p-powering."""
    f = a.vec(ebar)
    start = f.copy()
    for _ in range(a.dim + 2):
        if a.is_idempotent(f):
            break
        f = a.power(f, a.p)
    else:
        raise ValueError("p-power iteration did not stabilize; ideal not nilpotent?")
    if nil_rows is not None:
        verify(gfp.in_rowspace(nil_rows, (f - start) % a.p, a.p),
               "lift moved the idempotent outside the coset mod N")
    return f


# -- simple components -------------------------------------------------------


@dataclass
class SimpleComponent:
    """One simple two-sided ideal of the semisimple quotient."""

    index: int
    central_idempotent: np.ndarray  # in semisimple-quotient coordinates
    component_dim: int
    matrix_size: int  # n for the component  M_n(F)
    end_field_degree: int  # [F : GF(p)]
    primitive_bar: np.ndarray  # a rank-one idempotent, quotient coordinates


def _find_splitting_idempotent(s: Algebra, rng):
    """A proper idempotent of s, or None when s is a field.  s must be
    simple, as every corner e S e of a simple component of a semisimple
    algebra is: by Wedderburn's little theorem it is then M_n(GF(q)),
    commutative exactly when n = 1, so a commutative s has no proper
    idempotent and is returned None before any candidate is tried.  In
    M_n(GF(q)), n > 1, the basis and then MEATAXE_BUDGET random elements
    are tried until one has a minimal polynomial with two coprime factors."""
    if s.is_commutative():
        return None
    p = s.p

    def try_element(x):
        if not np.any(x):
            return None
        mp = polys.minpoly_matrix(s.left_mult(x), p)
        facs = polys.factor(mp, p)
        if len(facs) < 2:
            return None
        g1 = facs[0][0]
        for _ in range(facs[0][1] - 1):
            g1 = polys.pmul(g1, facs[0][0], p)
        g2 = polys.pdivmod(mp, g1, p)[0]
        d, u, _v = _poly_xgcd(g1, g2, p)
        if polys.degree(d) != 0:
            return None
        scale = gfp.inv_mod(int(d[0]), p)
        ug1 = polys.pmul((u * scale) % p, g1, p)
        e = polys.eval_at_matrix(ug1, s.left_mult(x), p) @ s.unit % p
        if e.any() and not (e == s.unit).all() and s.is_idempotent(e):
            return e
        return None

    draws = (rng.integers(0, p, size=s.dim) for _ in range(MEATAXE_BUDGET))
    for x in itertools.chain(np.eye(s.dim, dtype=np.int64), draws):
        e = try_element(x)
        if e is not None:
            return e
    raise Inconclusive("idempotent search budget exhausted")


def _poly_xgcd(f, g, p: int):
    r0, r1 = polys.trim(f, p), polys.trim(g, p)
    s0, s1 = np.array([1], dtype=np.int64), np.zeros(0, dtype=np.int64)
    t0, t1 = np.zeros(0, dtype=np.int64), np.array([1], dtype=np.int64)
    while len(r1):
        q, r = polys.pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, polys.padd(s0, polys.pmul((-q) % p, s1, p), p)
        t0, t1 = t1, polys.padd(t0, polys.pmul((-q) % p, t1, p), p)
    return r0, s0, t0


def refine_to_primitive(s: Algebra, e, rng):
    """The corner f s f, a field, and f, a primitive idempotent of the
    semisimple algebra s below e; e must lie in one simple component."""
    e = s.vec(e)
    while True:
        corner = s.corner(e)
        split = _find_splitting_idempotent(corner.alg, rng)
        if split is None:
            return corner, e
        e = corner.lift(split)


def _simple_components(a: Algebra, seed: int):
    rng = np.random.default_rng(seed)
    ssq = a.semisimple_quotient(seed)
    s = ssq.alg
    if s.dim == 0:
        return []
    zrows = s.center_rows()
    zspan = s.subalgebra(zrows)
    eye = np.eye(s.dim, dtype=np.int64)
    comps = []
    for k, ez in enumerate(split_commutative_semisimple(zspan.alg)):
        z = zspan.lift(ez)
        ideal = gfp.row_basis(s.mul(z, eye), s.p)
        fcorner, fbar = refine_to_primitive(s, z, rng)
        end_deg = fcorner.alg.dim
        col_dim = gfp.rank(s.mul(eye, fbar), s.p)
        n = col_dim // end_deg
        verify(n * n * end_deg == ideal.shape[0],
               f"simple component {k} has dimension {ideal.shape[0]}, "
               f"not n^2 [F:k] = {n * n * end_deg}")
        comps.append(
            SimpleComponent(
                index=k,
                central_idempotent=z,
                component_dim=int(ideal.shape[0]),
                matrix_size=int(n),
                end_field_degree=int(end_deg),
                primitive_bar=fbar,
            )
        )
    return comps


def primitive_idempotent_in(a: Algebra, comp: SimpleComponent, seed: int = DEFAULT_SEED) -> np.ndarray:
    """A primitive idempotent of a with semisimple image of rank 1 in comp."""
    ssq = a.semisimple_quotient(seed)
    lift0 = ssq.lift(comp.primitive_bar)
    e = lift_idempotent(a, lift0, a.radical_rows(seed))
    verify((ssq.project(e) == comp.primitive_bar % a.p).all(),
           "lifted idempotent does not project to the primitive idempotent")
    return e


def component_profile(a: Algebra, e, seed: int = DEFAULT_SEED):
    """(component index, k-dimension of S*e-bar) for the image of e."""
    ssq = a.semisimple_quotient(seed)
    s = ssq.alg
    ebar = ssq.project(e)
    hits = []
    for comp in a.simple_components(seed):
        if s.mul(comp.central_idempotent, ebar).any():
            hits.append(comp.index)
    if len(hits) != 1:
        return None, len(hits)
    col_dim = gfp.rank(s.mul(np.eye(s.dim, dtype=np.int64), ebar), s.p)
    return hits[0], col_dim


def same_point(a: Algebra, e, f, seed: int = DEFAULT_SEED) -> bool:
    """Conjugacy of primitive idempotents: same component, same rank."""
    ie, ce = component_profile(a, e, seed)
    if_, cf = component_profile(a, f, seed)
    if ie is None or if_ is None:
        raise ValueError("same_point requires primitive (single-component) input")
    return ie == if_ and ce == cf


def primitive_summands(a: Algebra, e, seed: int = DEFAULT_SEED):
    """Decompose an idempotent into pairwise orthogonal primitives."""
    e = a.vec(e)
    if not e.any():
        return []
    out = []
    rest = e
    while rest.any():
        corner = a.corner(rest)
        c = corner.alg
        comps = c.simple_components(seed)
        if len(comps) == 1 and comps[0].matrix_size == 1:
            out.append(rest)
            break
        fbar = comps[0].primitive_bar
        f_in_c = lift_idempotent(c, c.semisimple_quotient(seed).lift(fbar), c.radical_rows(seed))
        f = corner.lift(f_in_c)
        out.append(f)
        rest = (rest - f) % a.p
    total = np.zeros(a.dim, dtype=np.int64)
    for f in out:
        total = (total + f) % a.p
    verify((total == e).all(), "primitive summands do not sum to the idempotent")
    return out


# -- module homomorphisms -----------------------------------------------------


def hom_space(m: Module, n: Module):
    """Basis (list of matrices) of the space of module maps m -> n."""
    if m.algebra is not n.algebra and m.algebra.dim != n.algebra.dim:
        raise ValueError("modules over different algebras")
    p = m.algebra.p
    rows = []
    eye_m = np.eye(m.dim, dtype=np.int64)
    eye_n = np.eye(n.dim, dtype=np.int64)
    for i in range(m.algebra.dim):
        block = (np.kron(m.mats[i].T, eye_n) - np.kron(eye_m, n.mats[i])) % p
        rows.append(block)
    system = np.vstack(rows)
    ker = gfp.nullspace(system, p)
    return [ker[:, k].reshape(n.dim, m.dim, order="F") for k in range(ker.shape[1])]


# -- unit enumeration ---------------------------------------------------------

UNIT_SCAN_CHUNK = 256  # most candidates per batched inversion; bounds transient memory


def _packs(p: int, width: int) -> bool:
    """Whether rows of this width travel as packed GF(2) words."""
    return p == 2 and width <= gfp.PACKED_WIDTH


def _span_sums(rows, arrays, p: int):
    """Every combination v = c @ rows, c over [0, p)^r in np.ndindex order,
    with the matching sum S(c) = sum_j c_j arrays[j], in chunks.

    arrays holds one array per row, shape (r, ..., w), so S is linear in c.
    A vector splits into its high digits and its last m digits, m the
    largest integer with p^m <= UNIT_SCAN_CHUNK (at most r).  The sums of
    all p^m low-digit vectors are tabulated from the last digit up, so
    after k digits the table holds the first p^k vectors of the scan; the
    rows each digit adds are yielded at once, in chunks of p, p(p - 1),
    p^2(p - 1), ..., and a scan whose first hit comes early solves only a
    few candidates.  Then each further chunk is one nonzero value of the
    high digits, whose sum is added to the whole table (the "Four
    Russians" step of M4RI).  Yields (values, sums) per chunk.  When
    _packs(p, w) the last axis of every sum is packed by gfp.pack_gf2 and
    the sum is XOR; otherwise sums are int64 arrays mod p.  Raises
    Inconclusive when p^r exceeds EXHAUSTIVE_CAP.
    """
    rows = np.asarray(rows, dtype=np.int64)
    arrays = np.asarray(arrays, dtype=np.int64)
    r, d = rows.shape
    if p**r > EXHAUSTIVE_CAP:
        raise Inconclusive(f"unit scan of size {p}^{r} exceeds cap {EXHAUSTIVE_CAP}")
    if _packs(p, arrays.shape[-1]):
        encode, add = gfp.pack_gf2, np.bitwise_xor
    else:
        def encode(x):
            return x

        def add(x, y):
            return (x + y) % p
    high = r
    while high > 0 and p ** (r - high + 1) <= UNIT_SCAN_CHUNK:
        high -= 1
    # the low-digit vectors and their sums, by p-fold extension from the
    # last digit up: digit j times rows[j] goes in front of the table
    digits = np.arange(p)
    values = np.zeros((1, d), dtype=np.int64)
    table = encode(np.zeros((1,) + arrays.shape[1:], dtype=np.int64))
    seen = 0  # table rows already yielded
    for j in range(r - 1, high - 1, -1):
        values = ((np.multiply.outer(digits, rows[j])[:, None] + values) % p).reshape(-1, d)
        table = add(encode(np.multiply.outer(digits, arrays[j]) % p)[:, None], table)
        table = table.reshape(-1, *table.shape[2:])
        yield values[seen:], table[seen:]
        seen = len(values)
    # the zero high digits were yielded with the table, if it has a digit
    flat = arrays[:high].reshape(high, math.prod(arrays.shape[1:]))
    for h in itertools.islice(np.ndindex(*[p] * high), 1 if seen else 0, None):
        h = np.array(h, dtype=np.int64)
        offset = encode((h @ flat % p).reshape(arrays.shape[1:]))
        chunk = values + h @ rows[:high]
        chunk %= p
        yield chunk, add(table, offset)


def _solve_stack(stack, rhs, p: int):
    """gfp.batch_solve for a stack of matrices laid out as _span_sums lays
    them out, as packed rows when _packs(p, d).  Returns (invertible, x)."""
    if _packs(p, len(rhs)):
        return gfp.solve_packed_gf2(stack, rhs)
    return gfp.batch_solve(stack, rhs, p)


def _invertible_combinations(mats, p: int):
    """The one exhaustive scan behind every unit search: the coefficient
    vectors c with sum_k c_k mats[k] invertible, in np.ndindex order, one
    array per chunk of _span_sums, found by one _solve_stack of the chunk
    (transient memory of order UNIT_SCAN_CHUNK * d^2 words)."""
    mats = np.asarray(mats, dtype=np.int64)
    if len(mats) == 0:
        return
    rhs = np.zeros((mats.shape[1], 1), dtype=np.int64)
    for values, sums in _span_sums(np.eye(len(mats), dtype=np.int64), mats, p):
        invertible, _ = _solve_stack(sums, rhs, p)
        yield values[invertible]


def invertible_combination(mats, p: int):
    """Coefficients c with sum_k c_k mats[k] invertible, the first in
    np.ndindex order, or None when none is (exhaustive)."""
    return next((hits[0] for hits in _invertible_combinations(mats, p)
                 if len(hits)), None)


def find_unit_in_space(a: Algebra, rows):
    """An invertible element of a inside the row span, or None (exhaustive):
    the first unit c @ R in np.ndindex order of c, R the RREF row basis."""
    rows = gfp.row_basis(rows, a.p)
    c = invertible_combination(np.einsum("ri,ijk->rkj", rows, a.sc) % a.p, a.p)
    return None if c is None else c @ rows % a.p


def central_idempotents(a: Algebra):
    """The primitive central idempotents of a, sorted, summing to 1."""
    return primitive_idempotents(a.subalgebra(a.center_rows(), a.unit), a.mul, a.unit)


def primitive_idempotents(z: SpanAlgebra, mul, unit) -> list:
    """The primitive idempotents of a commutative span z, in ambient
    coordinates, sorted: split z modulo its nilradical, lift, and verify
    against the ambient multiplication `mul` and unit."""
    p = z.alg.p
    nil = nilradical_commutative(z.alg)
    quo = quotient_algebra(z.alg, nil)
    out = [z.lift(lift_idempotent(z.alg, quo.lift(ebar), nil))
           for ebar in split_commutative_semisimple(quo.alg)]
    out.sort(key=lambda v: v.tolist())
    e = np.array(out, dtype=np.int64)
    prods = mul(e[:, None], e[None, :])
    verify((prods == e[:, None] * np.eye(len(out), dtype=np.int64)[:, :, None]).all(),
           "idempotents are not idempotent and pairwise orthogonal")
    verify((e.sum(axis=0) % p == np.mod(unit, p)).all(),
           "idempotents do not sum to the unit")
    return out
