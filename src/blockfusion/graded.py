"""Group-graded algebras and bimodules over GF(p).

A graded algebra is a structure-constant algebra whose basis is split
into components indexed by a finite group (given by its multiplication
table).  Crossed products, factor sets, graded radicals, and the small
exhaustive searches for graded isomorphisms all live here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfp, permgroups, polys
from .algebra import (
    EXHAUSTIVE_CAP,
    Algebra,
    Inconclusive,
    SpanAlgebra,
    find_unit_in_space,
    iter_units,
    quotient_algebra,
    span_algebra,
)
from .permgroups import GroupTable

COCHAIN_CAP = 10**7


@dataclass
class GradedAlgebra:
    alg: Algebra
    group: GroupTable
    deg: np.ndarray  # degree index per basis element

    @property
    def p(self) -> int:
        return self.alg.p

    def component_indices(self, d: int) -> np.ndarray:
        return np.nonzero(self.deg == d)[0]

    def component_rows(self, d: int) -> np.ndarray:
        return np.eye(self.alg.dim, dtype=np.int64)[self.component_indices(d)]

    def component_dims(self) -> list:
        return [len(self.component_indices(d)) for d in range(self.group.order)]

    def degree_of(self, v) -> int | None:
        v = self.alg.vec(v)
        if not v.any():
            return 0
        hits = {int(self.deg[i]) for i in np.nonzero(v)[0]}
        return hits.pop() if len(hits) == 1 else None

    def identity_span(self) -> SpanAlgebra:
        return span_algebra(self.component_rows(0), self.alg.mul, self.alg.unit, self.p)

    def validate(self) -> None:
        self.group.validate()
        assert self.degree_of(self.alg.unit) == 0, "unit is not in degree 1"
        eye = np.eye(self.alg.dim, dtype=np.int64)
        for i in range(self.alg.dim):
            for j in range(self.alg.dim):
                prod = self.alg.mul(eye[i], eye[j])
                if prod.any():
                    want = self.group.mul(int(self.deg[i]), int(self.deg[j]))
                    assert self.degree_of(prod) == want, "grading broken on products"

    def is_crossed_product(self) -> bool:
        try:
            return all(
                homogeneous_unit(self, d) is not None
                for d in range(self.group.order)
            )
        except Inconclusive:
            return False


def graded_from_chunks(mul, unit_vec, chunks, table: GroupTable, p: int):
    """Build (GradedAlgebra, SpanAlgebra embedding) from per-degree row spans
    inside an ambient where `mul` multiplies."""
    rows = []
    degs = []
    for d, chunk in enumerate(chunks):
        rb = gfp.row_basis(chunk, p) if len(chunk) else np.zeros((0, len(unit_vec)), dtype=np.int64)
        rows.append(rb)
        degs.extend([d] * rb.shape[0])
    stacked = np.vstack(rows)
    assert gfp.rank(stacked, p) == stacked.shape[0], "chunks were not independent"
    d = stacked.shape[0]
    sc = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            c = gfp.coords_in_rows(stacked, mul(stacked[i], stacked[j]), p)
            assert c is not None, "span is not closed under multiplication"
            sc[i, j] = c.ravel()
    ucoords = gfp.coords_in_rows(stacked, unit_vec, p)
    assert ucoords is not None, "unit does not lie in the span"
    span = SpanAlgebra(Algebra(p, sc, ucoords.ravel(), check=False), stacked)
    deg = np.array(degs, dtype=np.int64)
    g = GradedAlgebra(alg=span.alg, group=table, deg=deg)
    return g, span


def graded_from_extension(ext):
    """Graded view of a block extension A = kG*b (small dims only)."""
    chunks = [ext.component_rows(d) for d in range(ext.quot.group.order)]
    return graded_from_chunks(ext.kg.mul, ext.b, chunks, ext.quot.group, ext.kg.p)


def graded_corner(ext, i):
    """The corner iAi of a block extension, graded by the same group."""
    kg = ext.kg
    i = np.mod(np.asarray(i, dtype=np.int64).ravel(), kg.p)
    chunks = []
    for d in range(ext.quot.group.order):
        rows = np.array([kg.mul(kg.mul(i, r), i) for r in ext.component_rows(d)])
        chunks.append(gfp.row_basis(rows, kg.p))
    return graded_from_chunks(kg.mul, i, chunks, ext.quot.group, kg.p)


# -- homogeneous units ---------------------------------------------------------


def homogeneous_unit(g: GradedAlgebra, d: int, preferred=None):
    """An invertible element of the degree-d component, or None.

    Tries supplied candidates first (interior group images), then an
    exhaustive scan of the component.
    """
    if d == 0:
        return g.alg.unit.copy()
    if preferred is not None:
        for cand in preferred:
            cand = g.alg.vec(cand)
            if g.degree_of(cand) == d and g.alg.is_unit_element(cand):
                return cand
    return find_unit_in_space(g.alg, g.component_rows(d))


# -- graded radical quotient ---------------------------------------------------


def _complement_rows(sub_rows, full_rows, p):
    """Rows of full extending sub to a basis of span(full); sub ⊆ span(full)."""
    base = gfp.row_basis(sub_rows, p)
    out = []
    cur = base
    for r in full_rows:
        if not gfp.in_rowspace(np.vstack([cur, np.zeros((1, cur.shape[1]), dtype=np.int64)]), r, p):
            out.append(r)
            cur = np.vstack([cur, r])
    return np.array(out, dtype=np.int64).reshape(-1, full_rows.shape[1])


def graded_radical_quotient(g: GradedAlgebra):
    """A / J(A_1)A with its inherited grading; requires a crossed product.

    Returns (quotient GradedAlgebra, proj, section) with proj/section in
    the coordinates of g.alg.
    """
    a = g.alg
    p = g.p
    ispan = g.identity_span()
    rad1_inner = ispan.alg.radical_rows()
    rad1 = (
        np.mod(rad1_inner @ ispan.rows, p)
        if rad1_inner.shape[0]
        else np.zeros((0, a.dim), dtype=np.int64)
    )
    eye = np.eye(a.dim, dtype=np.int64)
    jd_list = []
    sec_list = []
    degs = []
    for d in range(g.group.order):
        comp = g.component_rows(d)
        prods = np.array(
            [a.mul(r, e) for r in rad1 for e in comp]
        ).reshape(-1, a.dim) if rad1.shape[0] and comp.shape[0] else np.zeros((0, a.dim), dtype=np.int64)
        jd = gfp.row_basis(prods, p)
        comp_section = _complement_rows(jd, comp, p)
        jd_list.append(jd)
        sec_list.append(comp_section)
        degs.extend([d] * comp_section.shape[0])
    j_rows = np.vstack(jd_list)
    section = np.vstack(sec_list)
    combined = np.vstack([j_rows, section])
    assert combined.shape[0] == a.dim, "J(A_1)A is not a graded complemented ideal"
    inv = gfp.inverse(combined.T, p)
    proj = inv[j_rows.shape[0]:, :]
    q = section.shape[0]
    sc = np.zeros((q, q, q), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            sc[i, j] = (proj @ a.mul(section[i], section[j])) % p
    unit = (proj @ a.unit) % p
    quot = GradedAlgebra(
        alg=Algebra(p, sc, unit, check=False),
        group=g.group,
        deg=np.array(degs, dtype=np.int64),
    )
    quot.validate()
    assert quot.identity_span().alg.radical_rows().shape[0] == 0, (
        "quotient 1-component is not semisimple"
    )
    assert quot.is_crossed_product(), "quotient is not a crossed product"
    return quot, proj, section


# -- crossed products ----------------------------------------------------------


def crossed_product(balg: Algebra, quot: permgroups.QuotientSetup, action: dict,
                    interior: dict) -> GradedAlgebra:
    """B * E for an interior algebra: E = N/C, action of N on B, and an
    interior map C -> B^x; multiplication (a (x) x)(b (x) y) = a x(b) i(c) (x) z
    where x y = c z with z the chosen representative."""
    p = balg.p
    n = quot.order
    db = balg.dim
    # compatibility: acting by c equals conjugation by interior(c)
    for c, ic in interior.items():
        assert balg.is_unit_element(ic), "interior image is not a unit"
        icinv = balg.inverse_element(ic)
        for e in np.eye(db, dtype=np.int64):
            lhs = np.mod(action[c] @ e, p)
            rhs = balg.mul(balg.mul(ic, e), icinv)
            assert (lhs == rhs).all(), "interior map incompatible with the action"
    for x in action:
        m = action[x]
        for e in np.eye(db, dtype=np.int64):
            for f in np.eye(db, dtype=np.int64):
                lhs = np.mod(m @ balg.mul(e, f), p)
                rhs = balg.mul(np.mod(m @ e, p), np.mod(m @ f, p))
                assert (lhs == rhs).all(), "action is not by algebra automorphisms"
        break  # spot-check one generator image; full check is quadratic cost
    dim = db * n
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for d in range(n):
        rd = quot.reps[d]
        for e in range(n):
            re = quot.reps[e]
            de = quot.group.mul(d, e)
            c = permgroups.pmul(permgroups.pmul(rd, re), permgroups.pinv(quot.reps[de]))
            ic = interior[c]
            for i in range(db):
                for j in range(db):
                    acted = np.mod(action[rd] @ np.eye(db, dtype=np.int64)[j], p)
                    val = balg.mul(balg.mul(np.eye(db, dtype=np.int64)[i], acted), ic)
                    sc[d * db + i, e * db + j, de * db: (de + 1) * db] = val
    unit = np.zeros(dim, dtype=np.int64)
    unit[:db] = balg.unit
    g = GradedAlgebra(
        alg=Algebra(p, sc, unit, check=True),
        group=quot.group,
        deg=np.repeat(np.arange(n), db),
    )
    g.validate()
    assert g.is_crossed_product()
    return g


# -- factor sets ---------------------------------------------------------------


@dataclass
class FactorSetData:
    group: GroupTable
    units: np.ndarray  # (n, dim) chosen homogeneous units, units[0] = 1
    alpha: np.ndarray  # (n, n, dim1) values in the 1-component, inner coords
    action: np.ndarray  # (n, dim1, dim1) automorphisms of the 1-component
    component: Algebra  # the 1-component as a standalone algebra


def factor_set(g: GradedAlgebra, units=None) -> FactorSetData:
    a = g.alg
    p = g.p
    n = g.group.order
    ispan = g.identity_span()
    if units is None:
        units = []
        for d in range(n):
            u = homogeneous_unit(g, d)
            if u is None:
                raise ValueError(f"no homogeneous unit in degree {d}")
            units.append(u)
    units = np.array([a.vec(u) for u in units])
    assert (units[0] == a.unit).all(), "degree-1 unit must be the unit"
    d1 = ispan.rows.shape[0]
    alpha = np.zeros((n, n, d1), dtype=np.int64)
    action = np.zeros((n, d1, d1), dtype=np.int64)
    for d in range(n):
        uinv = a.inverse_element(units[d])
        for k in range(d1):
            conj = a.mul(a.mul(units[d], ispan.rows[k]), uinv)
            action[d, :, k] = ispan.coords(conj)
        for e in range(n):
            de = g.group.mul(d, e)
            val = a.mul(a.mul(units[d], units[e]), a.inverse_element(units[de]))
            alpha[d, e] = ispan.coords(val)
    fs = FactorSetData(g.group, units, alpha, action, ispan.alg)
    _verify_cocycle(ispan.alg, fs)
    return fs


def _verify_cocycle(a1: Algebra, fs: FactorSetData) -> None:
    n = fs.group.order
    p = a1.p
    for d in range(n):
        for e in range(n):
            for f in range(n):
                de = fs.group.mul(d, e)
                ef = fs.group.mul(e, f)
                lhs = a1.mul(fs.alpha[d, e], fs.alpha[de, f])
                acted = np.mod(fs.action[d] @ fs.alpha[e, f], p)
                rhs = a1.mul(acted, fs.alpha[d, ef])
                assert (lhs == rhs).all(), "twisted cocycle identity fails"


def _field_isos(a1: Algebra, a2: Algebra):
    """All algebra isomorphisms between two finite fields over GF(p),
    as matrices (columns = images of a1's basis)."""
    p = a1.p
    if a1.dim != a2.dim:
        return []
    # primitive element of a1: basis element (or small combo) with minpoly
    # of full degree
    gen = None
    for cand in list(np.eye(a1.dim, dtype=np.int64)) + [
        np.arange(1, a1.dim + 1, dtype=np.int64) % p
    ]:
        mp = polys.minpoly_matrix(a1.left_mult(cand), p)
        if polys.degree(mp) == a1.dim:
            gen = cand
            gen_mp = mp
            break
    if gen is None:
        raise Inconclusive("no primitive element found in the 1-component")
    # powers of gen as a basis of a1
    pows = [a1.unit.copy()]
    for _ in range(a1.dim - 1):
        pows.append(a1.mul(pows[-1], gen))
    pmat = np.array(pows)  # rows: gen^k in a1 coords
    pinv_mat = gfp.inverse(pmat.T, p)
    out = []
    for tup in np.ndindex(*([p] * a2.dim)):
        root = np.array(tup, dtype=np.int64)
        # evaluate the minimal polynomial at the candidate root
        acc = np.zeros(a2.dim, dtype=np.int64)
        rp = a2.unit.copy()
        for c in gen_mp:
            acc = (acc + int(c) * rp) % p
            rp = a2.mul(rp, root)
        if acc.any():
            continue
        # iso: gen^k -> root^k
        rpows = [a2.unit.copy()]
        for _ in range(a1.dim - 1):
            rpows.append(a2.mul(rpows[-1], root))
        iso = (np.array(rpows).T @ pinv_mat.T) % p  # columns: images of a1 basis
        if gfp.is_invertible(iso, p):
            out.append(iso)
    return out


def factor_sets_equivalent(f1: FactorSetData, f2: FactorSetData,
                           group_map=None) -> bool:
    """Equivalence of crossed products with field 1-components: some field
    iso sigma and 1-cochain c rescale f1's table into f2's."""
    n = f1.group.order
    if f2.group.order != n:
        return False
    gm = group_map if group_map is not None else list(range(n))
    alg1 = f1.component
    alg2 = f2.component
    if not (alg1.is_commutative() and alg2.is_commutative()):
        raise Inconclusive("1-components are not fields; use graded_iso_search")
    p = alg1.p
    units2 = list(iter_units(alg2))
    if (len(units2) ** max(n - 1, 0)) > COCHAIN_CAP:
        raise Inconclusive("cochain search exceeds cap")
    for sigma in _field_isos(alg1, alg2):
        ok_action = True
        for d in range(n):
            lhs = np.mod(sigma @ f1.action[d], p)
            rhs = np.mod(f2.action[gm[d]] @ sigma, p)
            if (lhs != rhs).any():
                ok_action = False
                break
        if not ok_action:
            continue
        if _cochain_search(alg2, f1, f2, gm, sigma, units2):
            return True
    return False


def _cochain_search(alg2: Algebra, f1, f2, gm, sigma, units2) -> bool:
    n = f1.group.order
    p = alg2.p
    from itertools import product as iproduct

    free = list(range(1, n))
    for combo in iproduct(units2, repeat=len(free)):
        c = [alg2.unit] + list(combo)
        good = True
        for d in range(n):
            for e in range(n):
                de = f1.group.mul(d, e)
                lhs = alg2.mul(np.mod(sigma @ f1.alpha[d, e], p), c[de])
                acted = np.mod(f2.action[gm[d]] @ c[e], p)
                rhs = alg2.mul(alg2.mul(c[d], acted), f2.alpha[gm[d], gm[e]])
                if (lhs != rhs).any():
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


# -- graded isomorphism search -------------------------------------------------


def graded_generators(g: GradedAlgebra):
    """Greedy homogeneous generating set: basis indices whose products span."""
    a = g.alg
    p = g.p
    eye = np.eye(a.dim, dtype=np.int64)
    gens = []
    span = gfp.row_basis(a.unit.reshape(1, -1), p)

    def closure(rows):
        cur = rows
        while True:
            prods = np.array(
                [a.mul(x, y) for x in cur for y in cur]
            ).reshape(-1, a.dim)
            new = gfp.row_basis(np.vstack([cur, prods]), p)
            if new.shape[0] == cur.shape[0]:
                return new
            cur = new

    for k in range(a.dim):
        if gfp.in_rowspace(span, eye[k], p):
            continue
        gens.append(k)
        span = closure(np.vstack([span, eye[k]]))
        if span.shape[0] == a.dim:
            break
    assert span.shape[0] == a.dim
    return gens


def graded_iso_search(g1: GradedAlgebra, g2: GradedAlgebra, group_map=None,
                      cap: int = EXHAUSTIVE_CAP):
    """A degree-preserving algebra isomorphism g1 -> g2 (matrix, columns =
    images of g1's basis), or None; exhaustive over generator images."""
    if g1.alg.dim != g2.alg.dim or g1.group.order != g2.group.order:
        return None
    gm = group_map if group_map is not None else list(range(g1.group.order))
    if sorted(g1.component_dims()) != sorted(
        [g2.component_dims()[gm[d]] for d in range(g1.group.order)]
    ):
        return None
    p = g1.p
    gens = graded_generators(g1)
    comp_sizes = [len(g2.component_indices(gm[int(g1.deg[k])])) for k in gens]
    total = 1
    for s in comp_sizes:
        total *= p**s
    if total > cap:
        raise Inconclusive("graded iso search space exceeds cap")
    from itertools import product as iproduct

    cand_lists = []
    for k in gens:
        d2 = gm[int(g1.deg[k])]
        idx = g2.component_indices(d2)
        cands = []
        for tup in np.ndindex(*([p] * len(idx))):
            v = np.zeros(g2.alg.dim, dtype=np.int64)
            v[idx] = tup
            if v.any():
                cands.append(v)
        cand_lists.append(cands)
    for images in iproduct(*cand_lists):
        iso = _extend_iso(g1, g2, gens, images)
        if iso is not None:
            return iso
    return None


def _extend_iso(g1, g2, gens, images):
    a, b = g1.alg, g2.alg
    p = a.p
    src = [a.unit.copy()] + [np.eye(a.dim, dtype=np.int64)[k] for k in gens]
    img = [b.unit.copy()] + [np.asarray(v) for v in images]
    basis_src = gfp.row_basis(np.array([src[0]]), p)
    basis_img = np.array([img[0]])
    queue = list(zip(src, img))
    pairs = []
    while queue:
        s, m = queue.pop(0)
        coords = gfp.coords_in_rows(basis_src, s, p)
        if coords is not None:
            if ((coords @ basis_img) % p != m).any():
                return None
            continue
        basis_src = np.vstack([basis_src, s])
        basis_img = np.vstack([basis_img, m])
        pairs.append((s, m))
        for k, gk in enumerate(gens):
            gs = np.eye(a.dim, dtype=np.int64)[gk]
            gi = np.asarray(images[k])
            queue.append((a.mul(s, gs), b.mul(m, gi)))
            queue.append((a.mul(gs, s), b.mul(gi, m)))
    if basis_src.shape[0] != a.dim:
        return None
    coords = gfp.inverse(basis_src.T, p)
    iso = (basis_img.T @ coords.T) % p  # columns: images of standard basis
    if not gfp.is_invertible(iso, p):
        return None
    # full multiplicativity check
    eye = np.eye(a.dim, dtype=np.int64)
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = np.mod(iso @ a.mul(eye[i], eye[j]), p)
            rhs = b.mul(np.mod(iso @ eye[i], p), np.mod(iso @ eye[j], p))
            if (lhs != rhs).any():
                return None
    if ((iso @ a.unit) % p != b.unit).any():
        return None
    return iso


# -- graded bimodules ----------------------------------------------------------


@dataclass
class GradedBimodule:
    left: GradedAlgebra
    right: GradedAlgebra
    left_mats: np.ndarray  # (dim left alg, n, n)
    right_mats: np.ndarray  # (dim right alg, n, n); right action m -> m*a
    deg: np.ndarray  # (n,)

    @property
    def dim(self) -> int:
        return self.left_mats.shape[1]

    def validate(self) -> None:
        p = self.left.p
        n = self.dim
        eyeL = np.eye(self.left.alg.dim, dtype=np.int64)
        eyeR = np.eye(self.right.alg.dim, dtype=np.int64)
        lu = np.tensordot(self.left.alg.unit, self.left_mats, axes=1) % p
        ru = np.tensordot(self.right.alg.unit, self.right_mats, axes=1) % p
        assert (lu == np.eye(n, dtype=np.int64)).all()
        assert (ru == np.eye(n, dtype=np.int64)).all()
        for i in range(self.left.alg.dim):
            for j in range(self.right.alg.dim):
                lhs = (self.left_mats[i] @ self.right_mats[j]) % p
                rhs = (self.right_mats[j] @ self.left_mats[i]) % p
                assert (lhs == rhs).all(), "left and right actions do not commute"
        # associativity of each side
        for i in range(self.left.alg.dim):
            for j in range(self.left.alg.dim):
                lhs = (self.left_mats[i] @ self.left_mats[j]) % p
                rhs = np.tensordot(
                    self.left.alg.mul(eyeL[i], eyeL[j]), self.left_mats, axes=1
                ) % p
                assert (lhs == rhs).all()
        for i in range(self.right.alg.dim):
            for j in range(self.right.alg.dim):
                # (m*a)*a' = m*(a a')
                lhs = (self.right_mats[j] @ self.right_mats[i]) % p
                rhs = np.tensordot(
                    self.right.alg.mul(eyeR[i], eyeR[j]), self.right_mats, axes=1
                ) % p
                assert (lhs == rhs).all()
        self._check_grading()

    def _check_grading(self) -> None:
        p = self.left.p
        n = self.dim
        eyeM = np.eye(n, dtype=np.int64)
        for i in range(self.left.alg.dim):
            x = int(self.left.deg[i])
            for m in range(n):
                out = (self.left_mats[i] @ eyeM[m]) % p
                for k in np.nonzero(out)[0]:
                    want = self.left.group.mul(x, int(self.deg[m]))
                    assert int(self.deg[k]) == want, "left grading violated"
        for j in range(self.right.alg.dim):
            z = int(self.right.deg[j])
            for m in range(n):
                out = (self.right_mats[j] @ eyeM[m]) % p
                for k in np.nonzero(out)[0]:
                    want = self.left.group.mul(int(self.deg[m]), z)
                    assert int(self.deg[k]) == want, "right grading violated"


def regular_bimodule(g: GradedAlgebra) -> GradedBimodule:
    eye = np.eye(g.alg.dim, dtype=np.int64)
    left = np.array([g.alg.left_mult(e) for e in eye])
    right = np.array([g.alg.right_mult(e) for e in eye])
    return GradedBimodule(g, g, left, right, g.deg.copy())


def shift(m: GradedBimodule, y: int) -> GradedBimodule:
    """M(y) with M(y)_x = M_{xy}; the right algebra grading is conjugated."""
    grp = m.left.group
    yinv = grp.inv(y)
    new_deg = np.array([grp.mul(int(d), yinv) for d in m.deg], dtype=np.int64)
    new_right_deg = np.array(
        [grp.mul(grp.mul(y, int(d)), yinv) for d in m.right.deg], dtype=np.int64
    )
    new_right = GradedAlgebra(m.right.alg, m.right.group, new_right_deg)
    return GradedBimodule(m.left, new_right, m.left_mats, m.right_mats, new_deg)


def twist(m: GradedBimodule, phi: np.ndarray) -> GradedBimodule:
    """M_phi: right action precomposed with the automorphism phi of the
    right algebra (matrix, columns = images of basis)."""
    p = m.right.p
    b = m.right.alg
    eye = np.eye(b.dim, dtype=np.int64)
    for i in range(b.dim):
        for j in range(b.dim):
            lhs = np.mod(phi @ b.mul(eye[i], eye[j]), p)
            rhs = b.mul(np.mod(phi @ eye[i], p), np.mod(phi @ eye[j], p))
            if (lhs != rhs).any():
                raise ValueError("phi is not an algebra automorphism")
    if ((phi @ b.unit) % p != b.unit).any():
        raise ValueError("phi does not fix the unit")
    new_right_mats = np.tensordot(phi.T % p, m.right_mats, axes=1) % p
    return GradedBimodule(m.left, m.right, m.left_mats, new_right_mats, m.deg)


def conjugate_module(g: GradedAlgebra, d: int, v_mats: np.ndarray):
    """The d-conjugate of a module over the 1-component: action through
    conjugation by a degree-d homogeneous unit."""
    u = homogeneous_unit(g, d)
    if u is None:
        raise ValueError(f"no homogeneous unit in degree {d}")
    a = g.alg
    p = g.p
    uinv = a.inverse_element(u)
    ispan = g.identity_span()
    out = np.zeros_like(v_mats)
    for k in range(ispan.rows.shape[0]):
        conj = a.mul(a.mul(uinv, ispan.rows[k]), u)
        coords = ispan.coords(conj)
        out[k] = np.tensordot(coords, v_mats, axes=1) % p
    return out


def graded_hom(m: GradedBimodule, n: GradedBimodule, shift_deg: int = 0,
               use_right: bool = True):
    """Basis of maps F: M -> N intertwining the actions with
    F(M_x) ⊆ N_{x·shift_deg}."""
    p = m.left.p
    rows = []
    eye_m = np.eye(m.dim, dtype=np.int64)
    eye_n = np.eye(n.dim, dtype=np.int64)
    for i in range(m.left.alg.dim):
        rows.append(
            (np.kron(m.left_mats[i].T, eye_n) - np.kron(eye_m, n.left_mats[i])) % p
        )
    if use_right:
        for j in range(m.right.alg.dim):
            rows.append(
                (np.kron(m.right_mats[j].T, eye_n) - np.kron(eye_m, n.right_mats[j])) % p
            )
    # degree constraint: entry F[k, m] = 0 unless deg_n[k] == deg_m[m]*shift
    constraint = np.zeros((n.dim * m.dim,), dtype=np.int64)
    extra = []
    for mm in range(m.dim):
        want = m.left.group.mul(int(m.deg[mm]), shift_deg)
        for k in range(n.dim):
            if int(n.deg[k]) != want:
                row = np.zeros((n.dim * m.dim,), dtype=np.int64)
                row[mm * n.dim + k] = 1  # column-major vec index
                extra.append(row)
    del constraint
    system = np.vstack(rows + extra) if extra else np.vstack(rows)
    ker = gfp.nullspace(system, p)
    return [ker[:, t].reshape(n.dim, m.dim, order="F") for t in range(ker.shape[1])]
