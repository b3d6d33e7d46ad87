"""Group-graded algebras over GF(p).

A graded algebra is a structure-constant algebra whose basis is split
into components indexed by a finite group (given by its multiplication
table).  Assembly from homogeneous pieces, crossed products, factor sets,
graded radicals, and graded isomorphism of crossed products, decided by
the equivalence of their factor sets with an explicit witness, all live
here.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gfp, permgroups, polys
from .algebra import (
    Algebra,
    Inconclusive,
    SpanAlgebra,
    VerificationError,
    check_algebra_map,
    find_unit_in_space,
    iter_units,
    quotient_algebra,
    span_algebra,
    structure_constants,
    verify,
)
from .permgroups import GroupTable

COCHAIN_CAP = 10**7


@dataclass
class GradedAlgebra:
    alg: Algebra
    group: GroupTable
    deg: np.ndarray  # degree index per basis element
    _ispan: SpanAlgebra | None = field(default=None, init=False, repr=False,
                                      compare=False)
    # kept by verify_units: per degree a unit and its inverse, (n, dim)
    units: np.ndarray | None = field(default=None, init=False, compare=False)
    inverses: np.ndarray | None = field(default=None, init=False, compare=False)

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
        """The 1-component as a unital subalgebra, built on first use."""
        if self._ispan is None:
            self._ispan = span_algebra(self.component_rows(0), self.alg.mul,
                                       self.alg.unit, self.p)
        return self._ispan

    def validate(self) -> None:
        self.group.validate()
        verify(self.degree_of(self.alg.unit) == 0, "unit is not in degree 1")
        # e_i e_j may only have support in degree deg(i) deg(j)
        want = self.group.table[self.deg[:, None], self.deg[None, :]]
        verify(not ((self.alg.sc != 0) & (self.deg != want[:, :, None])).any(),
               "grading broken on products")

    def check_associative(self) -> None:
        """Validate the grading, then raise ValueError unless the unit is a
        two-sided identity and (e_i e_j) e_k = e_i (e_j e_k) for every
        basis triple: Algebra's own axiom check, read by the grading.

        Once validate() has passed, e_i e_j lies in degree de for e_i of
        degree d and e_j of degree e, so both sides of the law lie in
        degree def and only the blocks (d, e) -> de and (de, f) -> def are
        read: n^3 b^5 work for n degrees and pieces of at most b elements,
        against D^5 for the dense check on D basis elements.  Pieces are
        padded to b with zero constants, so unequal pieces take the same
        path.  Products are float64 through BLAS, exact while
        b (p - 1)^2 < 2^53; one degree d and a chunk of its basis at a
        time keep the transient arrays at about D^3 words.
        """
        self.validate()
        a, p, t = self.alg, self.p, self.group.table
        n, dim = self.group.order, a.dim
        eye = np.eye(dim, dtype=np.int64)
        if (a.left_mult(a.unit) != eye).any():
            raise ValueError("the unit is not a left identity")
        if (a.right_mult(a.unit) != eye).any():
            raise ValueError("the unit is not a right identity")
        pieces = [self.component_indices(d) for d in range(n)]
        b = max(map(len, pieces))
        if b * (p - 1) ** 2 >= 2**53:
            raise ValueError(f"p = {p} with pieces of {b} elements is too large "
                             "for the float64 associativity kernel")
        # pos[d]: the basis of piece d, padded with index dim, whose
        # constants are 0
        pos = np.full((n, b), dim)
        for d, idx in enumerate(pieces):
            pos[d, :len(idx)] = idx
        sc = np.zeros((dim + 1,) * 3)
        sc[:dim, :dim, :dim] = a.sc
        # blk[d, e, i, j, m]: the coordinate of e_i e_j at the m-th basis
        # element of piece de, for e_i the i-th of piece d, e_j the j-th of e
        blk = sc[pos[:, None, :, None, None], pos[None, :, None, :, None],
                 pos[t][:, :, None, None, :]]
        pairs = blk.reshape(n, n, b * b, b)  # e_j e_k as [e, f, (j, k), m]
        chunk = max(1, min(b, dim**3 // max(1, n * n * b**3)))
        for d in range(n):
            # e_m e_k at l, for e_m in piece de, as [e, m, (f, k, l)]
            right = blk[t[d]].transpose(0, 2, 1, 3, 4).reshape(n, b, n * b * b)
            # e_i e_m at l, for e_m in piece ef, as [e, f, m, i, l]
            left = blk[d, t].transpose(0, 1, 3, 2, 4)
            for lo in range(0, b, chunk):
                c = min(chunk, b - lo)
                # (e_i e_j) e_k as [e, (i, j), (f, k, l)]
                lhs = blk[d, :, lo:lo + c].reshape(n, c * b, b) @ right
                # e_i (e_j e_k) as [e, f, (j, k), (i, l)]
                rhs = pairs @ left[..., lo:lo + c, :].reshape(n, n, b, c * b)
                rhs = rhs.reshape(n, n, b, b, c, b).transpose(0, 4, 2, 1, 3, 5)
                # both sides are exact integers, so their difference is too
                bad = np.fmod(lhs.reshape(rhs.shape) - rhs, p) != 0
                if bad.any():
                    e, i, j, f, k, _ = np.argwhere(bad)[0]
                    i, j, k = pos[d, lo + i], pos[e, j], pos[f, k]
                    raise ValueError(f"(e_{i} e_{j}) e_{k} is not e_{i} (e_{j} "
                                     f"e_{k}): the product is not associative")

    def verify_units(self, coords, what: str) -> None:
        """The crossed-product certificate: for every degree d, the element
        x with coordinates coords[d] in component d is a unit, by one solve
        of L(x) y = 1 (x y = 1 makes L(x) onto, so y = x^-1).  Keeps the
        units and inverses, with u_1 = 1 as factor_set requires."""
        a, n = self.alg, self.group.order
        units = np.zeros((n, a.dim), dtype=np.int64)
        inverses = np.zeros_like(units)
        for d in range(n):
            units[d, self.deg == d] = np.mod(np.ravel(coords[d]), self.p)
            y = gfp.solve(a.left_mult(units[d]), a.unit[:, None], self.p)
            verify(y is not None, f"the degree-{d} {what} is not a unit")
            inverses[d] = y.ravel()
        units[0] = inverses[0] = a.unit
        self.units, self.inverses = units, inverses

    def certified_units(self) -> tuple:
        """(units, inverses) as verify_units kept them, or a refusal."""
        verify(self.units is not None, "the graded algebra carries no units")
        return self.units, self.inverses


def graded_from_chunks(mul, unit_vec, chunks, table: GroupTable, p: int,
                       check: bool = True) -> GradedAlgebra:
    """The graded algebra with component d on the pieces chunks[d], inside
    an ambient where `mul` multiplies: the one place a graded algebra is
    assembled from homogeneous pieces.

    Pieces are stacks of independent elements of any shape, not
    necessarily of one size.  For every pair of degrees (d, e) one solve
    finds the products of pieces d and e in chunks[de]; a product outside
    it is refused.  The unit is read from piece 0, which must be the
    table's identity.  The grading is always validated; with `check`,
    GradedAlgebra.check_associative then proves the algebra associative
    with a two-sided unit on the blocks the grading allows, and a failure
    raises ValueError.  The Algebra itself is built without its dense
    check.
    """
    verify(table.identity == 0, "degree 0 is not the identity of the grading group")
    sizes = [len(c) for c in chunks]
    offsets = np.cumsum([0] + sizes)
    blk = [slice(offsets[d], offsets[d + 1]) for d in range(len(chunks))]
    sc = np.zeros((offsets[-1],) * 3, dtype=np.int64)
    for d in range(len(chunks)):
        for e in range(len(chunks)):
            de = table.mul(d, e)
            try:
                sc[blk[d], blk[e], blk[de]] = structure_constants(
                    chunks[d], chunks[e], chunks[de], mul, p)
            except ValueError as exc:
                raise ValueError(f"a product of degrees {d} and {e} leaves "
                                 f"the degree-{de} piece") from exc
    piece0 = np.asarray(chunks[0], dtype=np.int64).reshape(sizes[0], np.size(unit_vec))
    ucoords = gfp.coords_in_rows(piece0, np.ravel(unit_vec), p)
    verify(ucoords is not None, "the unit does not lie in the degree-0 piece")
    unit = np.zeros(offsets[-1], dtype=np.int64)
    unit[blk[0]] = ucoords.ravel()
    g = GradedAlgebra(alg=Algebra(p, sc, unit, check=False), group=table,
                      deg=np.repeat(np.arange(len(chunks)), sizes))
    if check:
        g.check_associative()
    else:
        g.validate()
    return g


def graded_corner(ext, i):
    """The corner iAi of a block extension, graded by the same group, with
    its embedding as a span of ambient rows."""
    kg = ext.kg
    i = np.mod(np.asarray(i, dtype=np.int64).ravel(), kg.p)
    chunks = [gfp.row_basis(kg.mul(kg.mul(i, ext.component_rows(d)), i), kg.p)
              for d in range(ext.quot.group.order)]
    stacked = np.vstack(chunks)
    verify(gfp.rank(stacked, kg.p) == stacked.shape[0], "chunks were not independent")
    g = graded_from_chunks(kg.mul, i, chunks, ext.quot.group, kg.p, check=False)
    return g, SpanAlgebra(g.alg, stacked)


# -- homogeneous units ---------------------------------------------------------


def homogeneous_unit(g: GradedAlgebra, d: int):
    """An invertible element of the degree-d component, or None, by an
    exhaustive scan of the component; crossed products carry theirs."""
    if d == 0:
        return g.alg.unit.copy()
    return find_unit_in_space(g.alg, g.component_rows(d))


# -- graded radical quotient ---------------------------------------------------


def graded_radical_quotient(g: GradedAlgebra):
    """A / J(A_1)A with its inherited grading, for a crossed product.

    Returns (quotient GradedAlgebra, proj, section) with proj/section in
    the coordinates of g.alg.  J(A_1)A is spanned by homogeneous products,
    so the rows of its RREF are homogeneous and the section, the unit
    vectors at the free columns, is homogeneous too.  So proj is a graded
    algebra surjection, and the images of g's units are units, certified.
    """
    units, _ = g.certified_units()
    a = g.alg
    ispan = g.identity_span()
    rad1 = ispan.alg.radical_rows() @ ispan.rows % g.p
    eye = np.eye(a.dim, dtype=np.int64)
    q = quotient_algebra(a, a.mul(rad1[:, None], eye[None, :]).reshape(-1, a.dim))
    free = np.nonzero(q.section)[1]
    quot = GradedAlgebra(alg=q.alg, group=g.group, deg=g.deg[free])
    quot.validate()
    verify(not quot.identity_span().alg.radical_rows().shape[0],
           "quotient 1-component is not semisimple")
    img = units @ q.proj.T % g.p
    quot.verify_units([img[d, quot.deg == d] for d in range(len(img))], "image of a unit")
    return quot, q.proj, q.section


# -- crossed products ----------------------------------------------------------


def crossed_product(balg: Algebra, quot: permgroups.QuotientSetup, action: dict,
                    interior: dict) -> GradedAlgebra:
    """B * E for an interior algebra: E = N/C, the action of N on B, and an
    interior map C -> B^x.  With sigma_d the action of the representative
    r_d and alpha(d, e) = i(c), where r_d r_e = c r_de, the product is

        (a x_d)(b x_e) = a sigma_d(b) alpha(d, e) x_de.

    Associativity is certified by Passman's two identities (Passman,
    Infinite Crossed Products, 1989, section 1), not by the dense check
    of Algebra.  As each sigma_d is multiplicative, associativity on
    a x_d, b x_e, c x_f says

        a sigma_d(b) alpha(d, e) sigma_de(c) alpha(de, f)
            = a sigma_d(b) sigma_d sigma_e(c) sigma_d(alpha(e, f)) alpha(d, ef),

    which holds for all a, b iff it holds for a = b = 1.  Then c = 1 gives
    the cocycle identity

        alpha(d, e) alpha(de, f) = sigma_d(alpha(e, f)) alpha(d, ef),

    and f = 1, where alpha(-, 1) = 1, the twisted action

        sigma_d sigma_e(c) alpha(d, e) = alpha(d, e) sigma_de(c).

    Conversely the two give the law: alpha(d, e) sigma_de(c) alpha(de, f)
    = sigma_d sigma_e(c) alpha(d, e) alpha(de, f) = sigma_d sigma_e(c)
    sigma_d(alpha(e, f)) alpha(d, ef).  1 x_1 is a two-sided unit iff
    sigma_1 = id and alpha(1, e) = alpha(d, 1) = 1.  The identities are
    checked on B's basis, batched over every (d, e) and (d, e, f), after
    each sigma is checked to be an algebra map; a failure names d, e and
    f.  The algebra is then built without the dense check.
    """
    p = balg.p
    n = quot.order
    db = balg.dim
    eye = np.eye(db, dtype=np.int64)
    # compatibility: acting by c equals conjugation by interior(c)
    for c, ic in interior.items():
        verify(balg.is_unit_element(ic), "interior image is not a unit")
        conj = balg.mul(balg.mul(ic, eye), balg.inverse_element(ic))
        verify((np.mod(action[c], p) == conj.T).all(),
               "interior map incompatible with the action")
    for x, m in action.items():
        verify(check_algebra_map(m, balg, balg),
               f"action of {x} is not by algebra automorphisms")
    t = quot.group.table
    # sigma[d]: columns the images of B's basis; alpha[d, e] in B's coords
    sigma = np.array([np.mod(action[r], p) for r in quot.reps]).reshape(n, db, db)
    alpha = np.mod([[interior[quot.defect(d, e)] for e in range(n)]
                    for d in range(n)], p).reshape(n, n, db)
    verify((sigma[0] == eye).all(), "sigma_1 is not the identity")
    for e in np.flatnonzero((alpha[0] != balg.unit).any(axis=1)):
        raise VerificationError(f"alpha(1, e) is not 1 at e = {e}")
    for d in np.flatnonzero((alpha[:, 0] != balg.unit).any(axis=1)):
        raise VerificationError(f"alpha(d, 1) is not 1 at d = {d}")
    # sigma_d sigma_e(e_j) alpha(d, e) against alpha(d, e) sigma_de(e_j)
    twisted = balg.mul((sigma[:, None] @ sigma[None]).transpose(0, 1, 3, 2) % p,
                       alpha[:, :, None])
    conj = balg.mul(alpha[:, :, None], sigma[t].transpose(0, 1, 3, 2))
    for d, e in np.argwhere((twisted != conj).any(axis=(2, 3)))[:1]:
        raise VerificationError(
            "the twisted action sigma_d sigma_e = ad(alpha(d, e)) sigma_de "
            f"fails at d = {d}, e = {e}")
    for d, e, f in _cocycle_failures(balg, t, sigma, alpha)[:1]:
        raise VerificationError(
            "the cocycle identity alpha(d, e) alpha(de, f) = sigma_d(alpha(e, f)) "
            f"alpha(d, ef) fails at d = {d}, e = {e}, f = {f}")
    dim = db * n
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for d in range(n):
        for e in range(n):
            de = t[d, e]
            # e_i sigma_d(e_j) alpha(d, e), as e_i (sigma_d(e_j) alpha(d, e))
            acted = balg.mul(sigma[d].T, alpha[d, e])
            sc[d * db:(d + 1) * db, e * db:(e + 1) * db, de * db:(de + 1) * db] = \
                balg.mul(eye[:, None], acted[None, :])
    unit = np.zeros(dim, dtype=np.int64)
    unit[:db] = balg.unit
    g = GradedAlgebra(
        alg=Algebra(p, sc, unit, check=False),
        group=quot.group,
        deg=np.repeat(np.arange(n), db),
    )
    g.validate()
    # 1 (x) x_d is a unit: times 1 (x) x_{d^-1} it gives i(c) (x) 1
    g.verify_units([balg.unit] * n, "element 1 (x) x_d")
    return g


# -- factor sets ---------------------------------------------------------------


@dataclass
class FactorSetData:
    group: GroupTable
    alpha: np.ndarray  # (n, n, dim1) values in the 1-component, inner coords
    action: np.ndarray  # (n, dim1, dim1) automorphisms of the 1-component
    component: Algebra  # the 1-component as a standalone algebra


def factor_set(g: GradedAlgebra) -> FactorSetData:
    """The factor set on the units u_d that g carries: x -> u_d x u_d^-1 on
    the 1-component and alpha(d, e) = u_d u_e u_de^-1, a twisted cocycle."""
    units, uinv = g.certified_units()
    a = g.alg
    n = g.group.order
    ispan = g.identity_span()
    d1 = ispan.rows.shape[0]
    # action[d][:, k] = coords of u_d e_k u_d^-1; alpha[d, e] of u_d u_e u_de^-1
    conj = a.mul(a.mul(units[:, None], ispan.rows[None]), uinv[:, None])
    action = ispan.coords(conj.reshape(-1, a.dim)).reshape(n, d1, d1)
    action = action.transpose(0, 2, 1)
    vals = a.mul(a.mul(units[:, None], units[None]), uinv[g.group.table])
    alpha = ispan.coords(vals.reshape(-1, a.dim)).reshape(n, n, d1)
    fs = FactorSetData(g.group, alpha, action, ispan.alg)
    _verify_cocycle(ispan.alg, fs)
    return fs


def _verify_cocycle(a1: Algebra, fs: FactorSetData) -> None:
    """alpha(d, e) alpha(de, f) = d(alpha(e, f)) alpha(d, ef) for all d, e, f."""
    if len(_cocycle_failures(a1, fs.group.table, fs.action, fs.alpha)):
        raise ValueError("twisted cocycle identity fails")


def _cocycle_failures(a1: Algebra, t, action, alpha) -> np.ndarray:
    """The triples (d, e, f), in order, where alpha(d, e) alpha(de, f) !=
    d(alpha(e, f)) alpha(d, ef): one broadcast comparison of (n, n, n,
    dim1) arrays, with action[d] acting on coordinate columns."""
    n = len(t)
    lhs = a1.mul(alpha[:, :, None], alpha[t])
    acted = np.einsum("dij,efj->defi", action, alpha) % a1.p
    rhs = a1.mul(acted, alpha[np.arange(n)[:, None, None], t[None]])
    return np.argwhere((lhs != rhs).any(axis=-1))


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
        if (polys.eval_at_matrix(gen_mp, a2.left_mult(root), p) @ a2.unit % p).any():
            continue  # not a root of the minimal polynomial
        # iso: gen^k -> root^k
        rpows = [a2.unit.copy()]
        for _ in range(a1.dim - 1):
            rpows.append(a2.mul(rpows[-1], root))
        iso = (np.array(rpows).T @ pinv_mat) % p  # columns: images of a1 basis
        if gfp.is_invertible(iso, p):
            verify(check_algebra_map(iso, a1, a2), "field isomorphism is not an algebra map")
            out.append(iso)
    return out


def factor_sets_equivalent(f1: FactorSetData, f2: FactorSetData,
                           group_map=None):
    """Equivalence of two crossed products whose 1-components are
    commutative and generated by one element: an algebra isomorphism
    sigma of the 1-components that carries f1's action to f2's, and a
    1-cochain c of units of f2's 1-component with

        sigma(alpha1(d, e)) c(de) = c(d) d(c(e)) alpha2(gm(d), gm(e))

    for all d, e, gm the group map (default the identity).  Every sigma
    is found by mapping a primitive element to the roots of its minimal
    polynomial, and c by `_cochain_search`.  Returns the witness
    (sigma, c), sigma with columns the images of f1's 1-component basis
    and c[d] the coordinates of c(d), or None.  Commutativity is checked
    here; that the 1-components are fields is checked by the residual
    builders.  Raises Inconclusive when a 1-component is not commutative,
    has no primitive element among the candidates tried, or the cochain
    search exceeds COCHAIN_CAP."""
    n = f1.group.order
    if f2.group.order != n:
        return None
    gm = list(range(n)) if group_map is None else list(group_map)
    alg1, alg2 = f1.component, f2.component
    if not (alg1.is_commutative() and alg2.is_commutative()):
        raise Inconclusive("a 1-component is not commutative, so its factor "
                           "set does not decide graded isomorphism")
    p = alg1.p
    units2 = np.array(list(iter_units(alg2)))
    gens, steps = f1.group.spanning_tree()
    if len(units2) ** len(gens) > COCHAIN_CAP:
        raise Inconclusive("cochain search exceeds cap")
    act2 = f2.action[gm]
    for sigma in _field_isos(alg1, alg2):
        if ((sigma @ f1.action - act2 @ sigma) % p).any():
            continue  # sigma does not carry f1's action to f2's
        c = _cochain_search(alg2, f1, f2, gm, sigma, units2, gens, steps)
        if c is not None:
            return sigma, c
    return None


def _cochain_search(alg2: Algebra, f1, f2, gm, sigma, units2, gens, steps):
    """The first cochain c of units with c(1) = 1 that rescales sigma(f1)
    into f2, or None.  c is scanned on the generators only and extended
    along the spanning tree's steps (z, y, k), z = ys with s = gens[k], by
    c(ys) = sigma(alpha1(y, s))^-1 c(y) y(c(s)) alpha2(gm(y), gm(s));
    all n^2 relations are then checked."""
    steps = steps[len(gens):]  # the first steps reach the generators
    t = f1.group.table
    p = alg2.p
    salpha = f1.alpha @ sigma.T % p  # sigma(alpha1(d, e))
    alpha2 = f2.alpha[np.ix_(gm, gm)]
    act2 = f2.action[gm]
    scale = [alg2.mul(alg2.inverse_element(salpha[y, gens[k]]), alpha2[y, gens[k]])
             for _, y, k in steps]
    c = np.zeros(salpha.shape[1:], dtype=np.int64)
    c[f1.group.identity] = alg2.unit
    for combo in np.ndindex(*([len(units2)] * len(gens))):
        c[gens] = units2[list(combo)]
        for (z, y, k), r in zip(steps, scale):
            c[z] = alg2.mul(alg2.mul(r, c[y]), act2[y] @ c[gens[k]] % p)
        acted = np.einsum("dij,ej->dei", act2, c) % p  # d(c(e))
        if (alg2.mul(salpha, c[t])
                == alg2.mul(alg2.mul(c[:, None], acted), alpha2)).all():
            return c
    return None


# -- graded isomorphism --------------------------------------------------------


def graded_iso_search(g1: GradedAlgebra, g2: GradedAlgebra, group_map=None):
    """A graded algebra isomorphism g1 -> g2 sending degree d to degree
    group_map[d] (default the identity), as a matrix whose columns are
    the images of g1's basis, or None.  It is the witness (sigma, c) of
    `factor_sets_equivalent` on the two factor sets, x u_d -> sigma(x) c_d
    u'_{gm(d)} on the units the inputs carry, and is verified before it is
    returned.  Raises VerificationError for an input without units, and
    Inconclusive when a 1-component is not commutative and generated by
    one element."""
    n = g1.group.order
    if g1.alg.dim != g2.alg.dim or g2.group.order != n:
        return None
    gm = list(range(n)) if group_map is None else list(group_map)
    fsets = [factor_set(g1), factor_set(g2)]
    witness = factor_sets_equivalent(*fsets, group_map=gm)
    if witness is None:
        return None
    sigma, c = witness
    a, b, p = g1.alg, g2.alg, g1.p
    r1, r2 = g1.identity_span().rows, g2.identity_span().rows
    # the basis x u_d of g1, x over the basis of its 1-component, and its image
    src = a.mul(r1[None], g1.units[:, None]).reshape(-1, a.dim)
    img = b.mul(b.mul(sigma.T @ r2 % p, (c @ r2 % p)[:, None]),
                g2.units[gm][:, None]).reshape(-1, b.dim)
    iso = img.T @ gfp.inverse(src.T, p) % p
    _check_graded_map(g1, g2, iso.T, gm)
    return iso


def _check_graded_map(g1: GradedAlgebra, g2: GradedAlgebra, m,
                      degree_map=None) -> None:
    """Verify that a coordinate matrix (rows: images of g1's basis) is an
    algebra isomorphism g1 -> g2 sending degree d to degree_map[d]
    (default the identity)."""
    p = g1.p
    m = np.mod(np.asarray(m, dtype=np.int64), p)
    dm = np.arange(g1.group.order) if degree_map is None else np.asarray(degree_map)
    verify(gfp.is_invertible(m, p), "map is not invertible")
    verify(not ((m != 0) & (dm[g1.deg][:, None] != g2.deg[None, :])).any(),
           "map breaks the grading")
    verify(check_algebra_map(m.T, g1.alg, g2.alg),
           "map is not a unital algebra map")
