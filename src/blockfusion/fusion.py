"""Fusion groups of local pointed groups on a graded block extension.

Two incarnations are computed independently and compared: the corner
description F (pairs (phi, gbar) witnessed by homogeneous units of iAi
acting on P by conjugation) and the group-side description E (the
stabilizer of the point in the normalizer, mod the centralizer).  The
bridge Theta sends a normalizer element g to the corner witness
i a1^(-1) g.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfp, permgroups
from .algebra import find_unit_in_space, unit_scan
from .blocks import GroupAlgebra, PointedGroupData, Point, stabilizer_of_point
from .graded import GradedAlgebra, graded_corner
from .permgroups import GroupTable, PermGroup, aut_compose, pconj, pinv, pmul

Pair = tuple  # (phi: index map on P.elements, gbar: int)


def aut_gbar(quot: permgroups.QuotientSetup, P: PermGroup):
    """All pairs (phi, gbar) with omega(phi(u)) = gbar omega(u) gbar^-1."""
    table = quot.group
    out = []
    for phi in permgroups.aut_group(P):
        for gbar in range(table.order):
            gi = table.inv(gbar)
            ok = True
            for k, u in enumerate(P.elements):
                lhs = quot.omega_of(P.elements[phi[k]])
                rhs = table.mul(table.mul(gbar, quot.omega_of(u)), gi)
                if lhs != rhs:
                    ok = False
                    break
            if ok:
                out.append((phi, gbar))
    _check_pair_subgroup(out, table)
    return out


def int_gbar(quot: permgroups.QuotientSetup, P: PermGroup):
    """The interior pairs: phi inner on P, same degree compatibility."""
    inner = set()
    for v in P.elements:
        inner.add(tuple(P.index(pconj(v, u)) for u in P.elements))
    full = aut_gbar(quot, P)
    out = [(phi, g) for phi, g in full if phi in inner]
    _check_pair_subgroup(out, quot.group)
    # normality in aut_gbar
    oset = set(out)
    for phi, g in full:
        iphi = permgroups.aut_inverse(phi)
        ig = quot.group.inv(g)
        for psi, h in out:
            conj = (
                aut_compose(aut_compose(phi, psi), iphi),
                quot.group.mul(quot.group.mul(g, h), ig),
            )
            assert conj in oset, "interior pairs are not normal"
    # v -> (c_v, omega(v)) is a homomorphism into the interior pairs
    for v in P.elements:
        cv = tuple(P.index(pconj(v, u)) for u in P.elements)
        assert (cv, quot.omega_of(v)) in oset
    return out


def _check_pair_subgroup(pairs, table: GroupTable) -> None:
    pset = set(pairs)
    n = len(next(iter(pset))[0]) if pset else 0
    assert (tuple(range(n)), 0) in pset or not pset
    for p1, g1 in pairs:
        for p2, g2 in pairs:
            assert (aut_compose(p1, p2), table.mul(g1, g2)) in pset, (
                "pair set is not closed under composition"
            )


def pair_table(pairs, table: GroupTable) -> GroupTable:
    pairs = sorted(pairs)
    index = {pr: k for k, pr in enumerate(pairs)}
    n = len(pairs)
    t = np.zeros((n, n), dtype=np.int64)
    for i, (p1, g1) in enumerate(pairs):
        for j, (p2, g2) in enumerate(pairs):
            t[i, j] = index[(aut_compose(p1, p2), table.mul(g1, g2))]
    return GroupTable(t, tuple(pairs))


# -- the corner-side fusion group F ---------------------------------------------


@dataclass
class CornerData:
    """The graded corner iAi with the embeddings needed for fusion tests."""

    graded: GradedAlgebra
    span: object  # SpanAlgebra into ambient kG coordinates
    P: PermGroup
    idem: np.ndarray  # i, ambient coords
    p_images: dict  # u in P -> coords of u*i in the corner


def corner_data(ext, data: PointedGroupData, pt: Point) -> CornerData:
    kg = ext.kg
    g, span = graded_corner(ext, pt.idem)
    p_images = {}
    seen = {}
    for u in data.P.elements:
        ui = kg.mul(kg.vec_of(u), pt.idem)
        c = span.coords(ui)
        if not g.alg.is_unit_element(c):
            raise ValueError("structural image of P is not invertible in iAi")
        key = tuple(c)
        if key in seen and seen[key] != u:
            raise ValueError("structural map P -> (iAi)^x is not injective")
        seen[key] = u
        p_images[u] = c
    return CornerData(graded=g, span=span, P=data.P, idem=pt.idem, p_images=p_images)


@dataclass
class FusionGroup:
    pairs: list  # sorted (phi, gbar)
    table: GroupTable
    witnesses: dict  # pair -> corner-coordinate witness (or None for E-side)

    @property
    def order(self) -> int:
        return len(self.pairs)


def _pair_witness(cd: CornerData, phi, gbar: int):
    """A homogeneous invertible a in degree gbar with a(ui) = (phi(u)i)a."""
    g = cd.graded
    a = g.alg
    comp = g.component_rows(gbar)
    if comp.shape[0] == 0:
        return None
    mats = []
    for u in cd.P.generators:
        pu = cd.P.elements[phi[cd.P.index(u)]]
        left = a.right_mult(cd.p_images[u])  # a -> a*(ui)
        right = a.left_mult(cd.p_images[pu])  # a -> (phi(u)i)*a
        mats.append(np.mod((left - right) @ comp.T, a.p))
    if mats:
        system = np.vstack(mats)
        ker = gfp.nullspace(system, a.p)
        sol_rows = np.mod(ker.T @ comp, a.p)
    else:
        sol_rows = comp
    if sol_rows.shape[0] == 0:
        return None
    return find_unit_in_space(a, sol_rows)


def fusion_F_direct(ext, cd: CornerData) -> FusionGroup:
    """F as the stabilizer in Aut^Gbar(P), decided in the corner."""
    cand = aut_gbar(ext.quot, cd.P)
    pairs = []
    witnesses = {}
    for phi, gbar in cand:
        w = _pair_witness(cd, phi, gbar)
        if w is not None:
            pairs.append((phi, gbar))
            witnesses[(phi, gbar)] = w
    pairs.sort()
    return FusionGroup(pairs, pair_table(pairs, ext.quot.group), witnesses)


def fusion_F_normalizer(ext, cd: CornerData) -> FusionGroup:
    """F via scanning homogeneous units of iAi that normalize Pi.

    Exhaustive and independent of fusion_F_direct: every nonzero vector of
    every component is tested for invertibility, and each unit v found acts
    on all of Pi.  v(ui)v^-1 = u'i is tested as (ui)v^-1 = v^-1(u'i), which
    needs no multiplication matrix of v; each pair keeps its first witness
    in scan order.
    """
    g = cd.graded
    a = g.alg
    p = a.p
    images = np.array([cd.p_images[u] for u in cd.P.elements])
    # (ui) x and x (ui) as matrices acting on x
    left = np.einsum("ui,ijk->ukj", images, a.sc) % p
    right = np.einsum("uj,ijk->uki", images, a.sc) % p
    found = {}
    for d in range(g.group.order):
        for units, invs in unit_scan(a, g.component_rows(d)):
            ui_vinv = np.einsum("ukj,nj->nuk", left, invs) % p
            vinv_ui = np.einsum("ukj,nj->nuk", right, invs) % p
            match = (ui_vinv[:, :, None] == vinv_ui[:, None, :]).all(axis=3)
            normalizes = match.any(axis=2).all(axis=1)
            for v, phi in zip(units[normalizes], match[normalizes].argmax(axis=2)):
                found.setdefault((tuple(phi.tolist()), d), v)
    pairs = sorted(found)
    return FusionGroup(pairs, pair_table(pairs, ext.quot.group), dict(found))


# -- the group-side fusion group E ----------------------------------------------


@dataclass
class EFusionData:
    stabilizer: PermGroup  # N_G(P_gamma)
    centralizer: PermGroup  # C_H(P)
    quot: permgroups.QuotientSetup  # E = N/C


def fusion_E(kg: GroupAlgebra, sub: PermGroup, data: PointedGroupData,
             pt: Point, within: PermGroup) -> EFusionData:
    n = stabilizer_of_point(kg, sub, data, pt, within)
    c = permgroups.centralizer(sub, data.P)
    assert c.is_subgroup_of(n)
    return EFusionData(stabilizer=n, centralizer=c, quot=permgroups.quotient(n, c))


# -- Theta: E -> F ----------------------------------------------------------------


@dataclass
class ThetaData:
    e_data: EFusionData
    pair_of_rep: dict  # coset rep g -> (phi, gbar)
    witness_of_rep: dict  # coset rep g -> corner coords of i a1^(-1) g
    fusion: FusionGroup  # the image, as a pair group


def theta_check(ext, data: PointedGroupData, pt: Point, cd: CornerData,
                e_data: EFusionData) -> ThetaData:
    """The isomorphism E -> F, g -> conjugation by i a1^(-1) g."""
    kg = ext.kg
    p = kg.p
    bp = data.span
    inner = bp.alg
    icoords = bp.coords(pt.idem)
    pair_of = {}
    wit_of = {}
    for g in e_data.quot.reps:
        gi = kg.conj_vec(g, pt.idem)
        gic = bp.coords(gi)
        # a1 in (B^P)^x with a1 i = (gi) a1
        m = (inner.right_mult(icoords) - inner.left_mult(gic)) % p
        sol = gfp.nullspace(m, p).T
        a1 = find_unit_in_space(inner, np.mod(sol, p))
        assert a1 is not None, "point witness a1 must exist for g in N_G(P_gamma)"
        a1_amb = bp.lift(a1)
        a1inv_amb = bp.lift(inner.inverse_element(a1))
        c_amb = kg.mul(kg.mul(pt.idem, a1inv_amb), kg.vec_of(g))
        c = cd.span.coords(c_amb)
        assert cd.graded.alg.is_unit_element(c), "Theta witness not invertible"
        gbar = cd.graded.degree_of(c)
        assert gbar is not None and gbar == ext.quot.omega_of(g)
        phi = tuple(cd.P.index(pconj(g, u)) for u in cd.P.elements)
        # the witness must realize phi by conjugation in the corner
        cinv = cd.graded.alg.inverse_element(c)
        for u in cd.P.elements:
            conj = cd.graded.alg.mul(cd.graded.alg.mul(c, cd.p_images[u]), cinv)
            pu = cd.P.elements[phi[cd.P.index(u)]]
            assert (conj == cd.p_images[pu]).all(), "Theta witness wrong action"
        pair_of[g] = (phi, gbar)
        wit_of[g] = c
    pairs = sorted(set(pair_of.values()))
    assert len(pairs) == len(pair_of), "Theta is not injective on E"
    # homomorphism on coset representatives
    et = e_data.quot.group
    for i, g1 in enumerate(e_data.quot.reps):
        for j, g2 in enumerate(e_data.quot.reps):
            g12 = e_data.quot.reps[et.mul(i, j)]
            p1, d1 = pair_of[g1]
            p2, d2 = pair_of[g2]
            want = (aut_compose(p1, p2), ext.quot.group.mul(d1, d2))
            assert pair_of[g12] == want, "Theta is not multiplicative"
    fg = FusionGroup(pairs, pair_table(pairs, ext.quot.group),
                     {pair_of[g]: wit_of[g] for g in pair_of})
    return ThetaData(e_data=e_data, pair_of_rep=pair_of, witness_of_rep=wit_of,
                     fusion=fg)


def fusion_report(ext, data: PointedGroupData, pt: Point, within: PermGroup):
    """Compute E, F both ways, Theta; raise AssertionError unless all three
    agree (explicitly, so that python -O keeps the comparison)."""
    cd = corner_data(ext, data, pt)
    f_direct = fusion_F_direct(ext, cd)
    f_norm = fusion_F_normalizer(ext, cd)
    if f_direct.pairs != f_norm.pairs:
        raise AssertionError("direct and normalizer F disagree")
    e_data = fusion_E(ext.kg, ext.sub, data, pt, within)
    theta = theta_check(ext, data, pt, cd, e_data)
    if theta.fusion.pairs != f_direct.pairs:
        raise AssertionError("Theta image differs from F")
    if e_data.quot.order != f_direct.order:
        raise AssertionError(
            f"|E| = {e_data.quot.order} differs from |F| = {f_direct.order}")
    return cd, e_data, f_direct, theta
