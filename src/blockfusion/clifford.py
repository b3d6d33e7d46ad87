"""Clifford-extension algebras attached to a local pointed group.

Two graded algebras are constructed independently and compared:

* the endomorphism side: the opposite endomorphism algebra of the induced
  module (B^P * E) (x) B^P i.  That module is (B^P * E) i, so by
  End_A(Ae)^op = eAe (f -> f(e)) it is the corner i (B^P * E) i of the
  crossed product, on the basis of the twisted hom spaces, each hom t at
  x_d t(i); each degree is certified to be a basis of its corner piece;
* the corner side: the span, inside the corner iAi, of the homogeneous
  elements intertwining the two structural P-actions, graded by the
  fusion pairs.

The bridge between them sends a degreewise hom to right multiplication
by its value at i, transported along the normalizer witnesses.  Residual
versions divide out the graded radical, and the local variant rebuilds
the endomorphism side over the simple quotient of the block of the
Brauer construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfp, permgroups
from .algebra import (
    Algebra,
    Inconclusive,
    Module,
    SpanAlgebra,
    hom_space,
    invertible_combination,
    primitive_summands,
    structure_constants,
    VerificationError,
    verify,
)
from .blocks import (
    BlockExtension,
    GroupAlgebra,
    LocalBlockData,
    Point,
    PointedGroupData,
    block_extension,
    points_at,
)
from .fusion import (
    CornerData,
    EFusionData,
    FusionGroup,
    ThetaData,
    fusion_report,
    pair_table,
)
from .graded import (
    FactorSetData,
    GradedAlgebra,
    crossed_product,
    factor_set,
    factor_sets_equivalent,
    _check_graded_map,
    graded_from_chunks,
    graded_iso_search,
    graded_radical_quotient,
)
from .permgroups import GroupTable, PermGroup

TENSOR_DIM_CAP = 64


@dataclass
class CliffordExtensionData:
    """A crossed product over E (endomorphism side) or over the fusion
    pair group (corner side), with the data needed to map between them."""

    graded: GradedAlgebra
    factor_data: FactorSetData | None = None
    # endomorphism-side extras
    quot: permgroups.QuotientSetup | None = None
    values: list | None = None  # per degree, t(gen) per basis hom t, base coords
    base: SpanAlgebra | None = None  # coefficient algebra span
    # corner-side extras
    pairs: list | None = None
    corner: CornerData | None = None
    chunk_rows: list | None = None  # per pair, basis rows in corner coords

    @property
    def dim(self) -> int:
        return self.graded.alg.dim

    def ambient_values(self, d: int) -> np.ndarray:
        """The values at gen of the degree-d homs, in ambient coords."""
        return self.values[d] @ self.base.rows % self.graded.p


def _conj_matrix(kg: GroupAlgebra, g, span: SpanAlgebra) -> np.ndarray:
    """Matrix (acting on coordinate columns) of x -> g x g^-1 on a span."""
    moved = np.zeros_like(span.rows)
    moved[:, kg.conj_perm(g)] = span.rows
    return span.coords(moved).T


def _interior_action(kg: GroupAlgebra, quot: permgroups.QuotientSetup,
                     span: SpanAlgebra, u) -> tuple:
    """(action, interior) on a span with unit u: the conjugation matrix of
    every representative r_d and of every defect c, where r_d r_e =
    c r_{de}, and interior[c], the coordinates of u c u."""
    defects = dict.fromkeys(quot.defect(d, e)
                            for d in range(quot.order) for e in range(quot.order))
    action = {g: _conj_matrix(kg, g, span) for g in [*quot.reps, *defects]}
    interior = {c: span.coords(kg.mul(kg.mul(u, kg.vec_of(c)), u))
                for c in defects}
    return action, interior


def _end_crossed(balg: Algebra, quot: permgroups.QuotientSetup, action: dict,
                 interior: dict, gen, base: SpanAlgebra | None = None
                 ) -> CliffordExtensionData:
    """Opposite endomorphism algebra of (balg * E) (x)_balg V for
    V = balg gen, gen an idempotent: the corner gen (balg * E) gen.

    For an idempotent e of an algebra A, f -> f(e) is an isomorphism
    End_A(Ae)^op -> eAe (Thevenaz, G-algebras and modular representation
    theory, 1995); here A = balg * E and (balg * E) (x)_balg V = A gen.
    The basis of degree d is a basis of Hom(V, V twisted by d), each hom
    t placed at its value x_d t(gen), which is sigma_d(t(gen)) in block
    d of the crossed product.  The lemma is certified, not assumed: the
    values of degree d must be a basis of gen (balg * E)_d gen.  An
    isomorphism among the homs, placed in degree d, is a unit, so every
    component holds one."""
    p = balg.p
    n = quot.order
    db = balg.dim
    verify(quot.reps[0] == permgroups.identity_perm(len(quot.reps[0])),
           "the first coset representative is not the identity")
    gen = balg.vec(gen)
    verify(balg.is_idempotent(gen), "the generator of V is not idempotent")
    over = crossed_product(balg, quot, action, interior)
    eye_b = np.eye(db, dtype=np.int64)
    v_rows = gfp.row_basis(balg.mul(eye_b, gen), p)
    nv = v_rows.shape[0]
    # mats_v[k]: left multiplication by e_k on V, on coordinate columns
    mats_v = structure_constants(eye_b, v_rows, v_rows, balg.mul, p,
                                 "the module V").transpose(0, 2, 1)
    vmod = Module(balg, mats_v)
    cgen = gfp.coords_in_rows(v_rows, gen, p).ravel()
    one = np.zeros(over.alg.dim, dtype=np.int64)
    one[:db] = gen  # gen (x) 1
    values, chunks, isos = [], [], []
    for d in range(n):
        sigma = action[quot.reps[d]]
        # e_k acts on V twisted by d as sigma_d^-1(e_k)
        mats_w = np.tensordot(gfp.inverse(sigma, p).T, mats_v, axes=1) % p
        homs = np.array(hom_space(vmod, Module(balg, mats_w)),
                        dtype=np.int64).reshape(-1, nv, nv)
        values.append(homs @ cgen @ v_rows % p)  # t(gen), per hom t
        chunk = np.zeros((len(homs), over.alg.dim), dtype=np.int64)
        chunk[:, d * db:(d + 1) * db] = values[d] @ sigma.T % p
        corner = over.alg.mul(over.alg.mul(one, over.component_rows(d)), one)
        rank = gfp.rank(corner, p)
        verify(gfp.rank(chunk, p) == len(chunk) == rank
               and gfp.rank(np.vstack([corner, chunk]), p) == rank,
               f"the degree-{d} homs are not a basis of the corner "
               "gen (B * E)_d gen")
        chunks.append(chunk)
        isos.append(invertible_combination(homs, p))
        if isos[-1] is None:
            raise ValueError("module is not invariant under the grading action")
    verify(len({len(c) for c in chunks}) == 1, "hom components of unequal size")
    g = graded_from_chunks(over.alg.mul, one, chunks, quot.group, p)
    g.verify_units(isos, "module isomorphism")
    return CliffordExtensionData(graded=g, quot=quot, values=values, base=base)


def build_E(ext: BlockExtension, data: PointedGroupData, pt: Point,
            e_data: EFusionData) -> CliffordExtensionData:
    """Endomorphism-side extension over B^P * E acting on B^P i."""
    kg = ext.kg
    bp = data.span
    action, interior = _interior_action(kg, e_data.quot, bp, ext.b)
    return _end_crossed(bp.alg, e_data.quot, action, interior,
                        bp.coords(pt.idem), base=bp)


def build_F(ext: BlockExtension, data: PointedGroupData, cd: CornerData,
            fg: FusionGroup) -> CliffordExtensionData:
    """Corner-side extension: the formal sum, over the fusion pairs, of
    the intertwining spans in iAi, with multiplication induced from the
    corner.  The component images may overlap inside iAi, so the sum is
    kept formal and only the multiplication is computed downstairs."""
    kg = ext.kg
    p = kg.p
    alg = cd.graded.alg
    chunks = [cd.intertwiners(phi, gbar) for phi, gbar in fg.pairs]
    dims = [c.shape[0] for c in chunks]
    verify(all(d == dims[0] for d in dims), "pair components of unequal size")
    # one solve per pair of components: their images may overlap in iAi
    try:
        g = graded_from_chunks(alg.mul, alg.unit, chunks, fg.table, p)
    except ValueError as exc:
        raise VerificationError("product left its pair component") from exc
    # the identity-pair component, piece 0 of the kernel, is i B^P i
    ibpi = gfp.row_basis(cd.span.coords(
        kg.mul(kg.mul(cd.idem, data.span.rows), cd.idem)), p)
    verify(chunks[0].shape == ibpi.shape
           and gfp.rank(np.vstack([chunks[0], ibpi]), p) == ibpi.shape[0],
           "the identity-pair component is not i B^P i")
    # the fusion witnesses are homogeneous units, one per pair
    coords = [gfp.coords_in_rows(c, fg.witnesses[pair], p)
              for c, pair in zip(chunks, fg.pairs)]
    verify(all(w is not None for w in coords), "fusion witness escapes its component")
    g.verify_units(coords, "fusion witness")
    return CliffordExtensionData(
        graded=g, pairs=fg.pairs, corner=cd, chunk_rows=chunks,
    )


def psi_iso(ext: BlockExtension, pt: Point, ecd: CliffordExtensionData,
            fcd: CliffordExtensionData, theta: ThetaData) -> np.ndarray:
    """The graded isomorphism endomorphism side -> corner side: a
    degreewise hom goes to right multiplication by its value at i,
    pushed into the corner along the matching normalizer witness.

    Returns the matrix (rows = images of the endomorphism-side basis in
    corner-side coordinates); bijectivity, unit preservation, degree
    transport and multiplicativity are all verified.
    """
    kg = ext.kg
    p = kg.p
    quot = ecd.quot
    verify(fcd.pairs == theta.fusion.pairs,
           "the corner side is graded by pairs other than Theta's image")
    # the unit, the identity hom of degree 1, has value gen
    unit0 = ecd.graded.alg.unit[ecd.graded.component_indices(0)]
    verify((unit0 @ ecd.ambient_values(0) % p == np.mod(pt.idem, p)).all(),
           "the endomorphism side is not built on the point idempotent")
    dims = [c.shape[0] for c in fcd.chunk_rows]
    offsets = np.cumsum([0] + dims)
    blocks = []
    for d in range(quot.order):
        target = theta.degree_map[d]
        amb = kg.mul(kg.vec_of(quot.reps[d]), ecd.ambient_values(d))
        c = gfp.coords_in_rows(fcd.chunk_rows[target],
                               fcd.corner.span.coords(amb), p)
        verify(c is not None, "image misses the matching pair component")
        block = np.zeros((len(c), fcd.dim), dtype=np.int64)
        block[:, offsets[target]:offsets[target + 1]] = c
        blocks.append(block)
    psi = np.vstack(blocks)
    _check_graded_map(ecd.graded, fcd.graded, psi, theta.degree_map)
    return psi


def _verify_field(one: Algebra, what: str) -> None:
    """Verify that the 1-component `one` is a field: commutative, with
    radical 0 and one simple component.  A 1-dimensional unital algebra
    is spanned by its unit, so it is GF(p)."""
    if one.dim == 1:
        return
    verify(one.is_commutative(), f"the {what} is not a field: "
           "it is not commutative")
    verify(not one.radical_rows().shape[0], f"the {what} is not a field: "
           "its radical is not 0")
    n = len(one.simple_components())
    verify(n == 1, f"the {what} is not a field: it has {n} simple components")


def residual(cd: CliffordExtensionData) -> CliffordExtensionData:
    """The quotient by the graded radical, with its factor set.  Its
    1-component must be a field."""
    quo, _, _ = graded_radical_quotient(cd.graded)
    _verify_field(quo.identity_span().alg, "residual 1-component")
    return CliffordExtensionData(
        graded=quo, factor_data=factor_set(quo), quot=cd.quot, pairs=cd.pairs)


def local_residual(ext: BlockExtension, data: PointedGroupData, pt: Point,
                   e_data: EFusionData,
                   lbd: LocalBlockData) -> CliffordExtensionData:
    """Endomorphism-side residual rebuilt over the simple quotient z Q of
    the block of the Brauer construction, acting on its unique simple
    module: Q = B(P) b_delta / J and z the central idempotent of the
    component Br(i) hits.  Its 1-component, the endomorphisms of that
    simple module, must be a field."""
    kg = ext.kg
    p = kg.p
    span = lbd.block_span
    comp, rad = lbd.component, span.alg.radical_rows()
    z = comp.central_idempotent
    ssq = span.alg.semisimple_quotient()
    action, interior = _interior_action(kg, e_data.quot, span, lbd.b_gamma)
    for g, m in action.items():
        verify((kg.conj_vec(g, lbd.b_gamma) == lbd.b_gamma).all(),
               "stabilizer does not fix the local block")
        verify(gfp.coords_in_rows(rad, rad @ m.T % p, p) is not None,
               "action does not preserve the radical")
    acts = ssq.proj @ np.array(list(action.values())) @ ssq.section.T % p
    verify((acts @ z % p == z).all(), "action does not fix the local component")
    simple = ssq.alg.corner(z)
    # the action restricted to z Q: column j is the image of basis row j
    images = (simple.rows @ acts.transpose(0, 2, 1) % p).reshape(-1, ssq.alg.dim)
    k = simple.alg.dim
    acts = simple.coords(images).reshape(-1, k, k).transpose(0, 2, 1)
    centre = simple.alg.center_rows().shape[0]
    verify(centre == comp.end_field_degree, "the local quotient is not simple: "
           f"its centre has dimension {centre}, not {comp.end_field_degree}")
    interior = {c: simple.coords(ssq.alg.mul(z, ssq.project(v)))
                for c, v in interior.items()}
    out = _end_crossed(simple.alg, e_data.quot, dict(zip(action, acts)),
                       interior, simple.coords(comp.primitive_bar))
    _verify_field(out.graded.identity_span().alg, "local residual 1-component")
    out.factor_data = factor_set(out.graded)
    return out


def residuals_match(c1: CliffordExtensionData, c2: CliffordExtensionData,
                    group_map=None) -> bool:
    """Graded isomorphism test for two residual extensions over matched
    grading groups: the equivalence of their factor sets, whose
    1-components the residual builders have checked to be fields."""
    verify(c1.factor_data is not None and c2.factor_data is not None,
           "a residual extension carries no factor set")
    return factor_sets_equivalent(c1.factor_data, c2.factor_data,
                                  group_map=group_map) is not None


# -- corner truncation by a compatible idempotent -------------------------------


@dataclass
class EmbedTruncation:
    e: np.ndarray  # the truncating idempotent, ambient coords
    base_primed: SpanAlgebra  # e B^P e
    f_primed: CliffordExtensionData
    e_primed: CliffordExtensionData | None
    e_map: np.ndarray | None  # endomorphism-side basis -> primed coords
    f_map: np.ndarray  # corner-side basis -> primed coords
    diagram_commutes: bool


def embed_truncate(ext: BlockExtension, data: PointedGroupData, pt: Point,
                   e_data: EFusionData, cd: CornerData, fg: FusionGroup,
                   theta: ThetaData, ecd: CliffordExtensionData,
                   fcd: CliffordExtensionData, e) -> EmbedTruncation:
    """Truncate by an idempotent e of B^P with e i = i e = i and rebuild
    the primed extensions inside eAe, with the comparison isomorphisms.

    The corner of eAe at i equals iAi, so the corner side transports by
    the identity on corner coordinates; the endomorphism side transports
    by cutting each hom with e.  The two transports are checked to
    commute with the comparison maps on every basis element.
    """
    kg = ext.kg
    p = kg.p
    i = pt.idem
    bp = data.span
    e = np.mod(np.asarray(e, dtype=np.int64).ravel(), p)
    bp.coords(e)  # must lie in B^P
    verify((kg.mul(e, e) == e).all(), "truncating element is not idempotent")
    verify((kg.mul(e, i) == i).all() and (kg.mul(i, e) == i).all(),
           "idempotent does not dominate the point")
    # the corner of eAe at i is iAi, degree by degree
    for d in range(ext.quot.order):
        rows = np.array([kg.mul(kg.mul(e, r), e) for r in ext.component_rows(d)])
        cut = gfp.row_basis(
            np.array([kg.mul(kg.mul(i, r), i) for r in rows]), p)
        full = gfp.row_basis(np.array(
            [kg.mul(kg.mul(i, r), i) for r in ext.component_rows(d)]), p)
        verify(cut.shape == full.shape
               and gfp.rank(np.vstack([cut, full]), p) == full.shape[0],
               f"the degree-{d} corner of eAe at i is not that of A")
    rows_bp = gfp.row_basis(
        np.array([kg.mul(kg.mul(e, r), e) for r in bp.rows]), p)
    base_primed = kg.span(rows_bp, e)
    # primed corner side: same solution spaces, seen from the primed data
    f_primed = build_F(ext, data, cd, fg)
    f_map = np.eye(fcd.dim, dtype=np.int64)
    _check_graded_map(fcd.graded, f_primed.graded, f_map)

    stable = all((kg.conj_vec(g, e) == e).all() for g in e_data.quot.reps)
    e_primed = None
    e_map = None
    commutes = False
    if stable:
        quot = e_data.quot
        action, interior = _interior_action(kg, quot, base_primed, e)
        e_primed = _end_crossed(base_primed.alg, quot, action, interior,
                                base_primed.coords(i), base=base_primed)
        e_map = _truncate_hom_map(ecd, e_primed)
        _check_graded_map(ecd.graded, e_primed.graded, e_map)
        psi = psi_iso(ext, pt, ecd, fcd, theta)
        psi_primed = psi_iso(ext, pt, e_primed, f_primed, theta)
        lhs = np.mod(e_map @ psi_primed, p)
        rhs = np.mod(psi @ f_map, p)
        commutes = (lhs == rhs).all()
        verify(commutes, "truncation does not commute with the comparison maps")
    return EmbedTruncation(
        e=e, base_primed=base_primed, f_primed=f_primed, e_primed=e_primed,
        e_map=e_map, f_map=f_map, diagram_commutes=bool(commutes),
    )


def _truncate_hom_map(ecd: CliffordExtensionData,
                      e_primed: CliffordExtensionData) -> np.ndarray:
    """Cut each degreewise hom t with the idempotent e: t -> e t on
    e B^P i.  For e E-stable with e i = i, e t(i) = t(i), so the cut of
    t is the primed hom with the same value at i; one solve per degree
    reads it off the primed values."""
    p = ecd.graded.p
    out = np.zeros((ecd.dim, e_primed.dim), dtype=np.int64)
    for d in range(ecd.quot.order):
        c = gfp.coords_in_rows(e_primed.ambient_values(d), ecd.ambient_values(d), p)
        verify(c is not None, "cut hom left the primed hom span")
        out[np.ix_(ecd.graded.component_indices(d),
                   e_primed.graded.component_indices(d))] = c
    return out


# -- diagonal tensor comparison --------------------------------------------------


def _shifted_perm(g, g2, n1, n2):
    return tuple(g) + tuple(x + n1 for x in g2)


def graded_restrict(g: GradedAlgebra, degrees: list, table: GroupTable) -> GradedAlgebra:
    """The sum of the listed degree components as a graded algebra over
    the induced subgroup table (degrees[k] in g matches k in the table),
    keeping g's units of those degrees."""
    units, _ = g.certified_units()
    chunks = [g.component_rows(d) for d in degrees]
    out = graded_from_chunks(g.alg.mul, g.alg.unit, chunks, table, g.p, check=False)
    out.verify_units([units[d, g.deg == d] for d in degrees], "kept unit")
    return out


def graded_tensor_diagonal(g1: GradedAlgebra, g2: GradedAlgebra,
                           match: list, table: GroupTable) -> GradedAlgebra:
    """Degreewise tensor product: component k is g1's match[k][0]
    component tensored with g2's match[k][1] component.  An element is a
    d1 x d2 array; the basis element e_a (x) e_b has a single 1 at (a, b).
    The units u_k (x) u'_k of the factors' units are certified and kept."""
    (u1, _), (u2, _) = g1.certified_units(), g2.certified_units()
    p = g1.p
    a1, a2 = g1.alg, g2.alg
    pieces = []
    for x, y in match:
        a, b = np.meshgrid(g1.component_indices(x), g2.component_indices(y),
                           indexing="ij")
        piece = np.zeros((a.size, a1.dim, a2.dim), dtype=np.int64)
        piece[np.arange(a.size), a.ravel(), b.ravel()] = 1
        pieces.append(piece)

    def mul(x, y):  # (e_a (x) e_b)(e_c (x) e_d) = e_a e_c (x) e_b e_d
        return np.einsum("...ab,...cd,acm,bdn->...mn", x, y, a1.sc, a2.sc,
                         optimize=True) % p

    out = graded_from_chunks(mul, np.outer(a1.unit, a2.unit), pieces, table, p)
    out.verify_units([np.outer(u1[x, g1.deg == x], u2[y, g2.deg == y])
                      for x, y in match], "tensor of units")
    return out


def diagonal_tensor_check(ext1: BlockExtension, data1: PointedGroupData,
                          pt1: Point, ext2: BlockExtension,
                          data2: PointedGroupData, pt2: Point,
                          within1: PermGroup, within2: PermGroup,
                          gbar_map=None) -> dict:
    """Compare the residual corner extension of the diagonal tensor
    scenario with the diagonal tensor of the two residual extensions,
    over the common fusion pairs.

    Both factors must carry the same subgroup P (same permutation
    domain); gbar_map identifies the second grading group inside the
    first (identity on indices by default).
    """
    kg1, kg2 = ext1.kg, ext2.kg
    p = kg1.p
    verify(kg2.p == p, "factors must share p")
    verify(data1.P.elements == data2.P.elements, "factors must share P")
    n1, n2 = within1.degree, within2.degree
    if gbar_map is None:
        gbar_map = {d: d for d in range(ext2.quot.order)}
    # the matched-degree product group and its normal base
    pairs = [
        (g, h)
        for g in within1.elements for h in within2.elements
        if ext1.quot.omega_of(g) == gbar_map[ext2.quot.omega_of(h)]
    ]
    gdd = permgroups.from_elements(
        [_shifted_perm(g, h, n1, n2) for g, h in pairs], n1 + n2)
    hdd = permgroups.from_elements(
        [_shifted_perm(g, h, n1, n2) for g in ext1.sub.elements
         for h in ext2.sub.elements], n1 + n2)
    kgdd = GroupAlgebra(gdd, p)
    bdd = np.zeros(kgdd.n, dtype=np.int64)
    for a in np.nonzero(ext1.b)[0]:
        for b in np.nonzero(ext2.b)[0]:
            g = _shifted_perm(kg1.grp.elements[a], kg2.grp.elements[b], n1, n2)
            bdd[kgdd.index(g)] = (ext1.b[a] * ext2.b[b]) % p
    extdd = block_extension(kgdd, hdd, bdd)
    dp = permgroups.from_elements(
        [_shifted_perm(u, u, n1, n2) for u in data1.P.elements], n1 + n2)
    datadd = points_at(kgdd, hdd, bdd, dp)
    # locate the product point through the Brauer images of i (x) i'
    idd = np.zeros(kgdd.n, dtype=np.int64)
    for a in np.nonzero(pt1.idem)[0]:
        for b in np.nonzero(pt2.idem)[0]:
            g = _shifted_perm(kg1.grp.elements[a], kg2.grp.elements[b], n1, n2)
            idd[kgdd.index(g)] = (pt1.idem[a] * pt2.idem[b]) % p
    verify((kgdd.mul(idd, idd) == idd).all(), "i (x) i' is not idempotent")
    summands = primitive_summands(datadd.span.alg, datadd.span.coords(idd))
    target = None
    for s in summands:
        amb = datadd.span.lift(s)
        if datadd.br.apply(amb).any():
            ptdd = datadd.point_of(amb)
            verify(target is None or target is ptdd,
                   "summands with nonzero Brauer image fall in different points")
            target = ptdd
    verify(target is not None and target.local,
           "i (x) i' has no local point of the diagonal")
    # fusion data on all three scenarios
    cd1, e1, f1, th1 = fusion_report(ext1, data1, pt1, within1)
    cd2, e2, f2, th2 = fusion_report(ext2, data2, pt2, within2)
    cddd, edd, fdd, thdd = fusion_report(extdd, datadd, target, gdd)
    fbar1 = residual(build_F(ext1, data1, cd1, f1))
    fbar2 = residual(build_F(ext2, data2, cd2, f2))
    fbardd = residual(build_F(extdd, datadd, cddd, fdd))
    # the common pairs: transport the second fusion group onto the first
    common = []
    second = {}
    for phi, g in f1.pairs:
        for phi2, g2 in f2.pairs:
            if phi2 == phi and gbar_map[g2] == g:
                common.append((phi, g))
                second[(phi, g)] = (phi2, g2)
    common.sort()
    ktable = pair_table(common, ext1.quot.group)
    # translate the diagonal grading group back to the first factor's
    dd_deg = {
        d: ext1.quot.omega_of(tuple(extdd.quot.reps[d][:n1]))
        for d in range(extdd.quot.order)
    }
    ddd_pairs = [
        next(k for k, (phi2, g2) in enumerate(fdd.pairs)
             if phi2 == phi and dd_deg[g2] == g)
        for phi, g in common
    ]
    restdd = graded_restrict(fbardd.graded, ddd_pairs, ktable)
    rest1 = graded_restrict(fbar1.graded, [f1.pairs.index(c) for c in common], ktable)
    rest2 = graded_restrict(
        fbar2.graded, [f2.pairs.index(second[c]) for c in common], ktable)
    # component k of the tensor is rest1's component k tensored with rest2's
    tensor_dim = sum(x * y for x, y in zip(rest1.component_dims(),
                                          rest2.component_dims()))
    if max(tensor_dim, restdd.alg.dim) > TENSOR_DIM_CAP:
        raise Inconclusive(f"tensor comparison of dimension {tensor_dim} "
                           f"exceeds the dimension cap {TENSOR_DIM_CAP}")
    tensor = graded_tensor_diagonal(
        rest1, rest2, [(k, k) for k in range(len(common))], ktable)
    iso = graded_iso_search(restdd, tensor)
    report = {
        "common_pairs": len(common),
        "tensor_dims": tensor.component_dims(),
        "diagonal_dims": restdd.component_dims(),
        "isomorphic": iso is not None,
    }
    verify(iso is not None, "diagonal tensor comparison failed")
    return report
