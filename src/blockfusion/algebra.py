"""Finite-dimensional associative unital algebras over GF(p).

An Algebra is a basis plus structure constants.  The engine underneath
radical / simple components is a meataxe: chop the regular module into
composition factors, intersect their annihilators.  Idempotents are
lifted through nilpotent ideals by p-power iteration, the move that is
only available in characteristic p.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gfp, polys

DEFAULT_SEED = 20240901
MEATAXE_BUDGET = 200
EXHAUSTIVE_CAP = 10**6


class MeataxeBudgetExceeded(RuntimeError):
    pass


class Inconclusive(RuntimeError):
    """A bounded search ended without a verdict (distinct from 'absent')."""


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
        self._cache: dict = {}
        if check and self.dim:
            self._check_axioms()

    def _check_axioms(self):
        p, sc = self.p, self.sc
        left = np.einsum("ijm,mkl->ijkl", sc, sc) % p
        right = np.einsum("jkm,iml->ijkl", sc, sc) % p
        if (left != right).any():
            raise ValueError("structure constants are not associative")
        if (self.left_mult(self.unit) != np.eye(self.dim, dtype=np.int64)).any():
            raise ValueError("unit is not a left identity")
        if (self.right_mult(self.unit) != np.eye(self.dim, dtype=np.int64)).any():
            raise ValueError("unit is not a right identity")

    # -- arithmetic -------------------------------------------------------
    def vec(self, x) -> np.ndarray:
        return np.mod(np.asarray(x, dtype=np.int64).ravel(), self.p)

    def mul(self, x, y) -> np.ndarray:
        return np.einsum("i,j,ijk->k", self.vec(x), self.vec(y), self.sc) % self.p

    def left_mult(self, x) -> np.ndarray:
        """Matrix of y -> x*y on column vectors."""
        return np.einsum("i,ijk->kj", self.vec(x), self.sc) % self.p

    def right_mult(self, x) -> np.ndarray:
        """Matrix of y -> y*x on column vectors."""
        return np.einsum("j,ijk->ki", self.vec(x), self.sc) % self.p

    def power(self, x, n: int) -> np.ndarray:
        result = self.unit.copy()
        base = self.vec(x)
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
        mats = [
            (self.left_mult(e) - self.right_mult(e)) % self.p
            for e in np.eye(self.dim, dtype=np.int64)
        ]
        stacked = np.vstack(mats) if mats else np.zeros((0, self.dim), dtype=np.int64)
        return gfp.row_basis(gfp.nullspace(stacked, self.p).T, self.p)

    # -- substructures ----------------------------------------------------
    def subalgebra(self, rows, unit_vec=None) -> "SpanAlgebra":
        unit_vec = self.unit if unit_vec is None else self.vec(unit_vec)
        return span_algebra(rows, self.mul, unit_vec, self.p)

    def corner(self, e) -> "SpanAlgebra":
        """The corner eAe, a unital algebra with unit e."""
        e = self.vec(e)
        rows = [self.mul(self.mul(e, b), e) for b in np.eye(self.dim, dtype=np.int64)]
        return span_algebra(np.array(rows), self.mul, e, self.p)

    def quotient_by_ideal(self, ideal_rows) -> "QuotientAlgebra":
        return quotient_algebra(self, ideal_rows)

    # -- cached invariants --------------------------------------------------
    def radical_rows(self, seed: int = DEFAULT_SEED, verify: bool = True) -> np.ndarray:
        if "radical" not in self._cache:
            self._cache["radical"] = _radical(self, seed, verify)
        return self._cache["radical"]

    def semisimple_quotient(self, seed: int = DEFAULT_SEED) -> "QuotientAlgebra":
        if "ssq" not in self._cache:
            self._cache["ssq"] = self.quotient_by_ideal(self.radical_rows(seed))
        return self._cache["ssq"]

    def simple_components(self, seed: int = DEFAULT_SEED):
        if "components" not in self._cache:
            self._cache["components"] = _simple_components(self, seed)
        return self._cache["components"]


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


def span_algebra(rows, mul, unit_vec, p: int) -> SpanAlgebra:
    rows = gfp.row_basis(rows, p)
    d = rows.shape[0]
    sc = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            prod = mul(rows[i], rows[j])
            c = gfp.coords_in_rows(rows, prod, p)
            if c is None:
                raise ValueError("span is not closed under multiplication")
            sc[i, j] = c.ravel()
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
    p = a.p
    ideal = gfp.row_basis(ideal_rows, p)
    r, pivots = gfp.rref(ideal, p)
    free = [c for c in range(a.dim) if c not in pivots]
    section = np.eye(a.dim, dtype=np.int64)[free]
    combined = np.vstack([ideal, section]) if ideal.shape[0] else section
    inv = gfp.inverse(combined.T, p)  # coords of v in [ideal; section] basis
    proj = inv[ideal.shape[0]:, :]
    q = len(free)
    sc = np.zeros((q, q, q), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            sc[i, j] = (proj @ a.mul(section[i], section[j])) % p
    unit = (proj @ a.unit) % p
    return QuotientAlgebra(Algebra(p, sc, unit, check=False), proj, section)


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
        a = self.algebra
        eye = np.eye(self.dim, dtype=np.int64)
        assert (self.action(a.unit) == eye).all(), "unit does not act as identity"
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = (self.mats[i] @ self.mats[j]) % a.p
                rhs = np.tensordot(a.sc[i, j], self.mats, axes=1) % a.p
                assert (lhs == rhs).all(), "action violates structure constants"


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
    mats = []
    for m in mod.mats:
        x = gfp.solve(rows.T, np.mod(m @ rows.T, p), p)
        if x is None:
            raise ValueError("rows do not span a submodule")
        mats.append(x)
    return Module(mod.algebra, np.array(mats))


def quotient_module(mod: Module, rows) -> Module:
    p = mod.algebra.p
    rows = gfp.row_basis(rows, p)
    _, pivots = gfp.rref(rows, p)
    free = [c for c in range(mod.dim) if c not in pivots]
    section = np.eye(mod.dim, dtype=np.int64)[free]
    combined = np.vstack([rows, section]) if rows.shape[0] else section
    inv = gfp.inverse(combined.T, p)
    proj = inv[rows.shape[0]:, :]
    mats = np.array([(proj @ m @ section.T) % p for m in mod.mats])
    return Module(mod.algebra, mats)


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


def _radical(a: Algebra, seed: int, verify: bool) -> np.ndarray:
    """Jacobson radical: intersect annihilators of the regular module's
    composition factors."""
    if a.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    factors = composition_factors(regular_module(a), seed)
    rad = np.eye(a.dim, dtype=np.int64)
    for f in factors:
        rad = gfp.intersect_rowspaces(rad, annihilator_rows(f), a.p)
    if verify:
        _verify_radical(a, rad, seed)
    return rad


def _verify_radical(a: Algebra, rad: np.ndarray, seed: int) -> None:
    p = a.p
    # two-sided ideal
    for r in rad:
        for e in np.eye(a.dim, dtype=np.int64):
            assert gfp.in_rowspace(rad, a.mul(r, e), p), "radical not a right ideal"
            assert gfp.in_rowspace(rad, a.mul(e, r), p), "radical not a left ideal"
    # nilpotent
    power = rad
    for _ in range(a.dim + 1):
        if power.shape[0] == 0:
            break
        power = gfp.row_basis(
            np.array([a.mul(x, y) for x in power for y in rad]).reshape(-1, a.dim)
            if power.size
            else np.zeros((0, a.dim), dtype=np.int64),
            p,
        )
    assert power.shape[0] == 0, "radical is not nilpotent"
    # semisimple quotient: its own radical must vanish
    q = quotient_algebra(a, rad)
    qrad = _radical(q.alg, seed, verify=False)
    assert qrad.shape[0] == 0, "quotient by radical is not semisimple"


# -- commutative tooling ------------------------------------------------------


def frobenius_matrix(z: Algebra) -> np.ndarray:
    """Matrix of x -> x^p; additive on a commutative algebra in char p."""
    if not z.is_commutative():
        raise ValueError("algebra is not commutative")
    cols = [z.power(e, z.p) for e in np.eye(z.dim, dtype=np.int64)]
    return np.array(cols, dtype=np.int64).T % z.p


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
            roots = [c for c in range(p) if _poly_eval_scalar(mp, c, p) == 0]
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
    assert len(idems) == target, "splitting did not reach the fixed-space dimension"
    total = np.zeros(z.dim, dtype=np.int64)
    for e in idems:
        assert z.is_idempotent(e)
        total = (total + e) % p
    assert (total == z.unit).all()
    for i in range(len(idems)):
        for j in range(i + 1, len(idems)):
            assert not z.mul(idems[i], idems[j]).any()
    return idems


def _poly_eval_scalar(f, c: int, p: int) -> int:
    out = 0
    for coeff in reversed(f):
        out = (out * c + int(coeff)) % p
    return out


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
    if nil_rows is not None and nil_rows.shape[0] >= 0:
        assert gfp.in_rowspace(
            np.vstack([nil_rows, np.zeros((1, a.dim), dtype=np.int64)]),
            (f - start) % a.p,
            a.p,
        ), "lift moved the idempotent outside the coset mod N"
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

    @property
    def simple_module_dim(self) -> int:
        return self.matrix_size * self.end_field_degree


def _find_splitting_idempotent(s: Algebra, rng):
    """A proper idempotent of a semisimple algebra, or None (division algebra)."""
    p = s.p
    candidates = list(np.eye(s.dim, dtype=np.int64))

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
        e = _apply_poly_element(s, ug1, x)
        if e.any() and not (e == s.unit).all() and s.is_idempotent(e):
            return e
        return None

    for x in candidates:
        e = try_element(x)
        if e is not None:
            return e
    for _ in range(MEATAXE_BUDGET):
        e = try_element(rng.integers(0, p, size=s.dim))
        if e is not None:
            return e
    if p**s.dim <= EXHAUSTIVE_CAP:
        for idx in np.ndindex(*([p] * s.dim)):
            e = try_element(np.array(idx, dtype=np.int64))
            if e is not None:
                return e
        return None  # certified: no splitting exists
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


def _apply_poly_element(a: Algebra, f, x) -> np.ndarray:
    out = np.zeros(a.dim, dtype=np.int64)
    xp = a.unit.copy()
    for c in polys.trim(f, a.p):
        out = (out + int(c) * xp) % a.p
        xp = a.mul(xp, x)
    return out


def refine_to_primitive(s: Algebra, e, rng) -> np.ndarray:
    """A primitive idempotent of the semisimple algebra s below e."""
    e = s.vec(e)
    while True:
        corner = s.corner(e)
        split = None
        if corner.alg.dim > 1:
            split = _find_splitting_idempotent(corner.alg, rng)
        if split is None:
            return e
        e = corner.lift(split)


def is_primitive_semisimple(s: Algebra, e) -> bool:
    corner = s.corner(e)
    c = corner.alg
    if not c.is_commutative():
        return False
    return len(split_commutative_semisimple(c)) == 1


def _simple_components(a: Algebra, seed: int):
    rng = np.random.default_rng(seed)
    ssq = a.semisimple_quotient(seed)
    s = ssq.alg
    if s.dim == 0:
        return []
    zrows = s.center_rows()
    zspan = s.subalgebra(zrows)
    comps = []
    for k, ez in enumerate(split_commutative_semisimple(zspan.alg)):
        z = zspan.lift(ez)
        ideal = gfp.row_basis(
            np.array([s.mul(z, b) for b in np.eye(s.dim, dtype=np.int64)]), s.p
        )
        fbar = refine_to_primitive(s, z, rng)
        fcorner = s.corner(fbar)
        end_deg = fcorner.alg.dim
        col_dim = gfp.rank(
            np.array([s.mul(b, fbar) for b in np.eye(s.dim, dtype=np.int64)]), s.p
        )
        n = col_dim // end_deg
        assert n * n * end_deg == ideal.shape[0], "component dimension bookkeeping"
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
    assert (ssq.project(e) == comp.primitive_bar % a.p).all()
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
    col_dim = gfp.rank(
        np.array([s.mul(b, ebar) for b in np.eye(s.dim, dtype=np.int64)]), s.p
    )
    return hits[0], col_dim


def is_primitive(a: Algebra, e, seed: int = DEFAULT_SEED) -> bool:
    idx, col = component_profile(a, e, seed)
    if idx is None:
        return False
    comp = a.simple_components(seed)[idx]
    return col == comp.simple_module_dim


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
        rng = np.random.default_rng(seed)
        fbar = comps[0].primitive_bar
        f_in_c = lift_idempotent(c, c.semisimple_quotient(seed).lift(fbar), c.radical_rows(seed))
        f = corner.lift(f_in_c)
        out.append(f)
        rest = (rest - f) % a.p
    total = np.zeros(a.dim, dtype=np.int64)
    for f in out:
        total = (total + f) % a.p
    assert (total == e).all()
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


def module_iso(m: Module, n: Module, seed: int = DEFAULT_SEED):
    """An invertible intertwiner, or None if proven non-isomorphic.

    Raises Inconclusive when the search space exceeds the deterministic
    fallback caps.
    """
    p = m.algebra.p
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    homs = hom_space(m, n)
    if not homs:
        return None
    for h in homs:
        if gfp.is_invertible(h, p):
            return h
    rng = np.random.default_rng(seed)
    for _ in range(64):
        coeffs = rng.integers(0, p, size=len(homs))
        h = sum(int(c) * b for c, b in zip(coeffs, homs)) % p
        if gfp.is_invertible(h, p):
            return h
    if len(homs) <= 6 and p ** len(homs) <= EXHAUSTIVE_CAP:
        for idx in np.ndindex(*([p] * len(homs))):
            h = sum(int(c) * b for c, b in zip(idx, homs)) % p
            if gfp.is_invertible(h, p):
                return h
        return None  # exhaustive: proven non-isomorphic
    raise Inconclusive("hom space too large for the deterministic fallback")


# -- unit enumeration ---------------------------------------------------------

UNIT_SCAN_CHUNK = 32  # candidates per batched inversion; bounds transient memory


def unit_scan(a: Algebra, rows, cap: int = EXHAUSTIVE_CAP):
    """The units of a in the row span of `rows`, with their inverses.

    Exhaustive: walks every coefficient vector of [0, p)^r in np.ndindex
    order, in chunks, and yields (units, inverses) per chunk, both in scan
    order.  All left multiplications of a chunk come from one tensordot
    and go through one batched Gauss-Jordan elimination, gfp.batch_solve.
    """
    p = a.p
    rows = np.mod(np.asarray(rows, dtype=np.int64), p).reshape(-1, a.dim)
    r = rows.shape[0]
    if p**r > cap:
        raise Inconclusive(f"unit scan of size {p}^{r} exceeds cap {cap}")
    # left multiplication by each row
    lmul = np.einsum("ri,ijk->rkj", rows, a.sc) % p
    place = p ** np.arange(r - 1, -1, -1)
    for start in range(0, p**r, UNIT_SCAN_CHUNK):
        index = np.arange(start, min(start + UNIT_SCAN_CHUNK, p**r))
        coeffs = index[:, None] // place % p
        # v is a unit iff its left multiplication L is invertible, and then
        # L x = 1 gives x = v^-1
        is_unit, inv = gfp.batch_solve(
            np.tensordot(coeffs, lmul, axes=1), a.unit[:, None], p)
        yield np.mod(coeffs[is_unit] @ rows, p), inv[is_unit, :, 0]


def iter_units(a: Algebra, cap: int = EXHAUSTIVE_CAP):
    """All invertible elements, deterministically ordered; exhaustive scan."""
    for units, _ in unit_scan(a, np.eye(a.dim, dtype=np.int64), cap):
        yield from units


def find_unit_in_space(a: Algebra, rows, cap: int = EXHAUSTIVE_CAP):
    """An invertible element of a inside the row span, or None (exhaustive)."""
    rows = gfp.row_basis(rows, a.p)
    if rows.shape[0] == 0:
        return None
    for units, _ in unit_scan(a, rows, cap):
        if len(units):
            return units[0]
    return None


def central_idempotents(a: Algebra):
    """The primitive central idempotents of a, sorted, summing to 1."""
    z = a.subalgebra(a.center_rows(), a.unit)
    nil = nilradical_commutative(z.alg)
    quo = quotient_algebra(z.alg, nil)
    out = []
    for ebar in split_commutative_semisimple(quo.alg):
        e = lift_idempotent(z.alg, quo.lift(ebar), nil)
        out.append(np.mod(np.asarray(z.lift(e), dtype=np.int64).ravel(), a.p))
    out.sort(key=lambda v: v.tolist())
    total = np.zeros(a.dim, dtype=np.int64)
    for i, e in enumerate(out):
        assert a.is_idempotent(e)
        total = (total + e) % a.p
        for f in out[i + 1:]:
            assert not a.mul(e, f).any()
    assert (total == a.unit % a.p).all()
    return out
