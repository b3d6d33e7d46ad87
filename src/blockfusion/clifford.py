"""Clifford-extension algebras attached to a local pointed group.

Two graded algebras are constructed independently and compared:

* the endomorphism side: the opposite endomorphism algebra of the induced
  module (B^P * E) (x) B^P i, computed degreewise through twisted hom
  spaces and verified against the crossed product B^P * E it lives over;
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
    check_algebra_map,
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
    hom_bases: list | None = None  # per degree, matrices on the module basis
    v_rows: np.ndarray | None = None  # module basis, coefficient-algebra coords
    v_ambient: np.ndarray | None = None  # same rows in ambient kG coords
    base: SpanAlgebra | None = None  # coefficient algebra span
    # corner-side extras
    pairs: list | None = None
    corner: CornerData | None = None
    chunk_rows: list | None = None  # per pair, basis rows in corner coords

    @property
    def dim(self) -> int:
        return self.graded.alg.dim


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
                 interior: dict, v_rows, base: SpanAlgebra | None = None,
                 v_ambient=None) -> CliffordExtensionData:
    """Opposite endomorphism algebra of (balg * E) (x)_balg V, degreewise.

    Degree d holds Hom(V, V twisted by d); an isomorphism among those
    homs, placed in degree d, is a unit, so every component holds one."""
    p = balg.p
    n = quot.order
    verify(quot.reps[0] == permgroups.identity_perm(len(quot.reps[0])),
           "the first coset representative is not the identity")
    over = crossed_product(balg, quot, action, interior)
    v_rows = gfp.row_basis(v_rows, p)
    nv = v_rows.shape[0]
    eye_b = np.eye(balg.dim, dtype=np.int64)
    # mats_v[k]: left multiplication by e_k on V, on coordinate columns
    mats_v = structure_constants(eye_b, v_rows, v_rows, balg.mul, p,
                                 "the module V").transpose(0, 2, 1)
    vmod = Module(balg, mats_v)
    vmod.check()
    sigma_inv = {d: gfp.inverse(action[quot.reps[d]], p) for d in range(n)}

    def left_on_v(coeff):  # one coefficient vector, or a stack of them
        return np.tensordot(coeff, mats_v, axes=1) % p

    hom_bases = []
    isos = []  # per degree, the coefficients of a module isomorphism
    for d in range(n):
        mats_w = left_on_v(sigma_inv[d].T)  # e_k acts as sigma_d^-1(e_k)
        homs = hom_space(vmod, Module(balg, mats_w))
        isos.append(invertible_combination(homs, p))
        if isos[-1] is None:
            raise ValueError("module is not invariant under the grading action")
        hom_bases.append(homs)
    dims = [len(h) for h in hom_bases]
    verify(all(x == dims[0] for x in dims), "hom components of unequal size")

    # the induced module: basis (f, j) for u_f (x) v_j
    dim_m = n * nv
    act_m = np.zeros((over.alg.dim, dim_m, dim_m), dtype=np.int64)
    for d in range(n):
        for f in range(n):
            df = quot.group.mul(d, f)
            coeffs = balg.mul(eye_b, interior[quot.defect(d, f)]) @ sigma_inv[df].T % p
            act_m[d * balg.dim:(d + 1) * balg.dim,
                  df * nv:(df + 1) * nv, f * nv:(f + 1) * nv] = left_on_v(coeffs)
    Module(over.alg, act_m).check()

    def full_endo(d, t):
        out = np.zeros((dim_m, dim_m), dtype=np.int64)
        for f in range(n):
            fd = quot.group.mul(f, d)
            coeff = (sigma_inv[fd] @ interior[quot.defect(f, d)]) % p
            out[fd * nv:(fd + 1) * nv, f * nv:(f + 1) * nv] = (left_on_v(coeff) @ t) % p
        return out

    fulls = [np.array([full_endo(d, t) for t in hom_bases[d]]) for d in range(n)]
    for m in np.concatenate(fulls):  # commuting with the crossed-product action
        verify(not ((m @ act_m - act_m @ m) % p).any(), "endomorphism is not linear")
    # an endomorphism is fixed by its values on the generating block 1 (x) V
    gens = np.zeros((n, dims[0], dim_m, nv), dtype=np.int64)
    for d in range(n):
        gens[d, :, d * nv:(d + 1) * nv] = hom_bases[d]

    def compose(x, y):  # the opposite composition, on 1 (x) V
        return y @ x[..., :nv] % p

    g = graded_from_chunks(compose, np.eye(dim_m, dtype=np.int64), fulls, quot.group,
                           p, targets=gens)
    g.verify_units(isos, "module isomorphism")
    return CliffordExtensionData(
        graded=g, quot=quot, hom_bases=hom_bases, v_rows=v_rows,
        v_ambient=v_ambient, base=base,
    )


def build_E(ext: BlockExtension, data: PointedGroupData, pt: Point,
            e_data: EFusionData) -> CliffordExtensionData:
    """Endomorphism-side extension over B^P * E acting on B^P i."""
    kg = ext.kg
    bp = data.span
    action, interior = _interior_action(kg, e_data.quot, bp, ext.b)
    v_amb = gfp.row_basis(kg.mul(bp.rows, pt.idem), kg.p)
    v_inner = bp.coords(v_amb)
    return _end_crossed(bp.alg, e_data.quot, action, interior, v_inner,
                        base=bp, v_ambient=v_amb)


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
    # on B^P's own basis the 1-component keeps the radical points_at found
    g.share_identity_algebra(data.span.alg)
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
    ci = gfp.coords_in_rows(ecd.v_ambient, pt.idem, p)
    verify(ci is not None, "the point idempotent is outside B^P i")
    ci = ci.ravel()
    dims = [c.shape[0] for c in fcd.chunk_rows]
    offsets = np.cumsum([0] + dims)
    rows = []
    for d in range(quot.order):
        g = quot.reps[d]
        target = theta.degree_map[d]
        for t in ecd.hom_bases[d]:
            w_amb = np.mod((t @ ci) @ ecd.v_ambient, p)
            amb = kg.mul(kg.vec_of(g), w_amb)
            corner_coords = fcd.corner.span.coords(amb)
            c = gfp.coords_in_rows(fcd.chunk_rows[target], corner_coords, p)
            verify(c is not None, "image misses the matching pair component")
            fc = np.zeros(fcd.dim, dtype=np.int64)
            fc[offsets[target]:offsets[target + 1]] = c.ravel()
            rows.append(fc)
    psi = np.array(rows, dtype=np.int64)
    verify(gfp.is_invertible(psi, p), "the comparison map is not bijective")
    verify(check_algebra_map(psi.T, ecd.graded.alg, fcd.graded.alg),
           "the comparison map is not a unital algebra map")
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
    """Endomorphism-side residual rebuilt over the simple quotient of the
    block of the Brauer construction, acting on its unique simple module.
    Its 1-component, the endomorphisms of that simple module, must be a
    field."""
    kg = ext.kg
    p = kg.p
    span = lbd.block_span
    quot = e_data.quot
    inner_max = (span.coords(lbd.max_ideal_rows) if lbd.max_ideal_rows.shape[0]
                 else np.zeros((0, span.alg.dim), dtype=np.int64))
    ssq = span.alg.quotient_by_ideal(inner_max)
    action, interior = _interior_action(kg, quot, span, lbd.b_gamma)
    for g, m in action.items():
        verify((kg.conj_vec(g, lbd.b_gamma) == lbd.b_gamma).all(),
               "stabilizer does not fix the local block")
        verify(gfp.coords_in_rows(inner_max, inner_max @ m.T % p, p) is not None,
               "action does not preserve the radical")
    acts = ssq.proj @ np.array(list(action.values())) @ ssq.section.T % p
    action = dict(zip(action, acts))
    interior = {c: ssq.project(v) for c, v in interior.items()}
    q = ssq.alg
    comps = q.simple_components()
    verify(len(comps) == 1, "the local quotient is not simple")
    f = comps[0].primitive_bar
    v_rows = gfp.row_basis(
        np.array([q.mul(e, f) for e in np.eye(q.dim, dtype=np.int64)]), p)
    out = _end_crossed(q, quot, action, interior, v_rows)
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
        v_amb = gfp.row_basis(np.array([kg.mul(r, i) for r in rows_bp]), p)
        e_primed = _end_crossed(
            base_primed.alg, quot, action, interior,
            np.array([base_primed.coords(r) for r in v_amb]),
            base=base_primed, v_ambient=v_amb)
        e_map = _truncate_hom_map(kg, ecd, e_primed, e)
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


def _truncate_hom_map(kg: GroupAlgebra, ecd: CliffordExtensionData,
                      e_primed: CliffordExtensionData, e) -> np.ndarray:
    """Cut each degreewise hom with the idempotent: ambient conjugation
    of the module bases realizes t -> e t e on the primed module."""
    p = kg.p
    rows = []
    for d in range(ecd.quot.order):
        flat_primed = np.array([t.ravel() for t in e_primed.hom_bases[d]])
        for t in ecd.hom_bases[d]:
            cols = []
            for r in e_primed.v_ambient:
                c = gfp.coords_in_rows(ecd.v_ambient, r, p)
                verify(c is not None, "e B^P i is not inside B^P i")
                img = np.mod((t @ c.ravel()) @ ecd.v_ambient, p)
                img = kg.mul(e, img)
                c2 = gfp.coords_in_rows(e_primed.v_ambient, img, p)
                verify(c2 is not None, "a cut hom leaves e B^P i")
                cols.append(c2.ravel())
            tp = np.array(cols, dtype=np.int64).T
            coords = gfp.coords_in_rows(flat_primed, tp.ravel(), p)
            verify(coords is not None, "cut hom left the primed hom span")
            out = np.zeros(e_primed.dim, dtype=np.int64)
            idx = np.nonzero(e_primed.graded.deg == d)[0]
            out[idx] = coords.ravel()
            rows.append(out)
    return np.array(rows, dtype=np.int64)


def _check_graded_map(g1: GradedAlgebra, g2: GradedAlgebra, m) -> None:
    """Verify a coordinate matrix (rows: images of g1's basis) is a
    degree-preserving algebra iso."""
    p = g1.p
    m = np.mod(np.asarray(m, dtype=np.int64), p)
    verify(gfp.is_invertible(m, p), "map is not invertible")
    verify(not ((m != 0) & (g1.deg[:, None] != g2.deg[None, :])).any(),
           "map breaks the grading")
    verify(check_algebra_map(m.T, g1.alg, g2.alg),
           "map is not a unital algebra map")


# -- diagonal tensor comparison --------------------------------------------------


def _shifted_perm(g, g2, n1, n2):
    return tuple(g) + tuple(x + n1 for x in g2)


def graded_restrict(g: GradedAlgebra, degrees: list, table: GroupTable) -> GradedAlgebra:
    """The sum of the listed degree components as a graded algebra over
    the induced subgroup table (degrees[k] in g matches k in the table)."""
    chunks = [g.component_rows(d) for d in degrees]
    return graded_from_chunks(g.alg.mul, g.alg.unit, chunks, table, g.p, check=False)


def graded_tensor_diagonal(g1: GradedAlgebra, g2: GradedAlgebra,
                           match: list, table: GroupTable) -> GradedAlgebra:
    """Degreewise tensor product: component k is g1's match[k][0]
    component tensored with g2's match[k][1] component.  An element is a
    d1 x d2 array; the basis element e_a (x) e_b has a single 1 at (a, b)."""
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

    return graded_from_chunks(mul, np.outer(a1.unit, a2.unit), pieces, table, p)


def diagonal_tensor_check(ext1: BlockExtension, data1: PointedGroupData,
                          pt1: Point, ext2: BlockExtension,
                          data2: PointedGroupData, pt2: Point,
                          within1: PermGroup, within2: PermGroup,
                          gbar_map=None, dim_cap: int = TENSOR_DIM_CAP) -> dict:
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
    if max(tensor_dim, restdd.alg.dim) > dim_cap:
        raise Inconclusive(f"tensor comparison of dimension {tensor_dim} "
                           f"exceeds the dimension cap {dim_cap}")
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
