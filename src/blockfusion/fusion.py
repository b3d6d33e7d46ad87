"""Fusion groups of local pointed groups on a graded block extension.

Two incarnations are computed independently and compared: the corner
description F (pairs (phi, gbar) witnessed by homogeneous units of iAi
acting on P by conjugation) and the group-side description E (the
stabilizer of the point in the normalizer, mod the centralizer).  The
bridge Theta sends a normalizer element g to the corner witness
i a1^(-1) g.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import permgroups
from .algebra import (UNIT_SCAN_CHUNK, _solve_stack, _span_sums, find_unit_in_space,
                      intertwiner_rows, verify)
from .blocks import GroupAlgebra, PointedGroupData, Point, stabilizer_of_point
from .graded import GradedAlgebra, graded_corner
from .permgroups import GroupTable, PermGroup, aut_compose, pconj

Pair = tuple  # (phi: index map on P.elements, gbar: int)


def aut_gbar(quot: permgroups.QuotientSetup, P: PermGroup):
    """All pairs (phi, gbar) with omega(phi(u)) = gbar omega(u) gbar^-1."""
    t = quot.group.table
    w = np.array([quot.omega_of(u) for u in P.elements])
    inv = np.array([quot.group.inv(g) for g in range(len(t))])
    # conj[gbar, k] = gbar omega(u_k) gbar^-1
    conj = t[t[:, w], inv[:, None]]
    out = [(phi, int(gbar)) for phi in permgroups.aut_group(P)
           for gbar in np.flatnonzero((conj == w[list(phi)]).all(axis=1))]
    pair_table(out, quot.group)
    return out


def pair_table(pairs, table: GroupTable) -> GroupTable:
    """The multiplication table of a pair group, sorted; the closure check.

    A finite nonempty set of pairs closed under products is a subgroup,
    so closure is the whole subgroup test."""
    pairs = sorted(pairs)
    index = {pr: k for k, pr in enumerate(pairs)}
    n = len(pairs)
    t = np.zeros((n, n), dtype=np.int64)
    for i, (p1, g1) in enumerate(pairs):
        for j, (p2, g2) in enumerate(pairs):
            k = index.get((aut_compose(p1, p2), table.mul(g1, g2)))
            verify(k is not None, "pair set is not closed under composition")
            t[i, j] = k
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
    _spaces: dict = field(default_factory=dict, repr=False)  # pair -> W rows

    def intertwiners(self, phi, gbar: int) -> np.ndarray:
        """RREF rows of W(phi, gbar) = {a in (iAi)_gbar : a(ui) = (phi(u)i)a
        for u in P}, built once per pair.  P's generators suffice: i
        commutes with P, so u -> ui is multiplicative."""
        key = (phi, gbar)
        if key not in self._spaces:
            gens = self.P.generators
            self._spaces[key] = intertwiner_rows(
                self.graded.alg, self.graded.component_rows(gbar),
                [self.p_images[u] for u in gens],
                [self.p_images[self.P.elements[phi[self.P.index(u)]]] for u in gens])
        return self._spaces[key]


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
    return find_unit_in_space(cd.graded.alg, cd.intertwiners(phi, gbar))


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

    Exhaustive and independent of fusion_F_direct and of the intertwiner
    spaces: every vector v of every component is tested against the linear
    normalizing equations, that each ui has a u'i with v(ui) = (u'i)v, and
    every vector that passes them is tested for invertibility.  For a unit
    v the equations say v(ui)v^-1 = u'i.  One scan tabulates v's left
    multiplication with v(ui) and (ui)v for every u; the survivors go, in
    scan order, to the batched elimination in batches of at most
    UNIT_SCAN_CHUNK, and each pair keeps its first witness in scan order.
    """
    images = np.array([cd.p_images[u] for u in cd.P.elements])
    found = _normalizing_units(cd.graded, images)
    pairs = sorted(found)
    return FusionGroup(pairs, pair_table(pairs, ext.quot.group), found)


def _normalizing_units(g: GradedAlgebra, images) -> dict:
    """(phi, gbar) -> the first unit v of degree gbar, in scan order, with
    v images[k] v^-1 = images[phi[k]] for every k."""
    a = g.alg
    p, dim = a.p, a.dim
    n = len(images)
    # x y_k and y_k x, for the images y_k, as matrices acting on x
    right = np.einsum("uj,ijk->uik", images, a.sc)
    left = np.einsum("ui,ijk->ujk", images, a.sc)

    def survivors(rows):
        # per row x: its left multiplication, then x y_k, then y_k x
        arrays = np.concatenate([np.einsum("ri,ijk->rkj", rows, a.sc),
                                 np.einsum("ri,uik->ruk", rows, right),
                                 np.einsum("rj,ujk->ruk", rows, left)], axis=1)
        arrays %= p
        for values, sums in _span_sums(rows, arrays, p):
            vy = sums[:, dim:dim + n].reshape(len(sums), n, 1, -1)
            yv = sums[:, dim + n:].reshape(len(sums), 1, n, -1)
            match = (vy == yv).all(axis=3)
            keep = match.any(axis=2).all(axis=1)
            yield values[keep], sums[keep, :dim], match[keep].argmax(axis=2)

    found = {}
    for d in range(g.group.order):
        for values, lmul, phis in _rebatch(survivors(g.component_rows(d)), UNIT_SCAN_CHUNK):
            is_unit, _ = _solve_stack(lmul, a.unit[:, None], p)
            for v, phi in zip(values[is_unit], phis[is_unit]):
                found.setdefault((tuple(phi.tolist()), d), v)
    return found


def _rebatch(parts, size: int):
    """The rows of a stream of array tuples, in order, re-cut into tuples
    of at most `size` rows."""
    held = None
    for part in parts:
        held = part if held is None else tuple(map(np.concatenate, zip(held, part)))
        while len(held[0]) >= size:
            yield tuple(x[:size] for x in held)
            held = tuple(x[size:] for x in held)
    if held is not None and len(held[0]):
        yield held


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
    verify(c.is_subgroup_of(n), "C_H(P) is not inside N_G(P_gamma)")
    return EFusionData(stabilizer=n, centralizer=c, quot=permgroups.quotient(n, c))


# -- Theta: E -> F ----------------------------------------------------------------


@dataclass
class ThetaData:
    pair_of_rep: dict  # coset rep g -> (phi, gbar)
    degree_map: list  # index in E -> index of its pair in F
    fusion: FusionGroup  # the image, as a pair group


def theta_check(ext, data: PointedGroupData, pt: Point, cd: CornerData,
                e_data: EFusionData) -> ThetaData:
    """The isomorphism E -> F, g -> conjugation by i a1^(-1) g."""
    kg = ext.kg
    bp = data.span
    inner = bp.alg
    corner = cd.graded.alg
    icoords = bp.coords(pt.idem)
    images = np.array([cd.p_images[u] for u in cd.P.elements])
    pair_of = {}
    witnesses = {}
    for g in e_data.quot.reps:
        # a1 in (B^P)^x with a1 i = (gi) a1
        gic = bp.coords(kg.conj_vec(g, pt.idem))
        a1 = find_unit_in_space(inner, intertwiner_rows(
            inner, np.eye(inner.dim, dtype=np.int64), [icoords], [gic]))
        verify(a1 is not None, "point witness a1 must exist for g in N_G(P_gamma)")
        a1inv_amb = bp.lift(inner.inverse_element(a1))
        c = cd.span.coords(kg.mul(kg.mul(pt.idem, a1inv_amb), kg.vec_of(g)))
        verify(corner.is_unit_element(c), "Theta witness is not invertible")
        gbar = cd.graded.degree_of(c)
        verify(gbar == ext.quot.omega_of(g),
               "Theta witness is not homogeneous of degree omega(g)")
        phi = tuple(cd.P.index(pconj(g, u)) for u in cd.P.elements)
        # the witness must realize phi by conjugation in the corner
        conj = corner.mul(corner.mul(c, images), corner.inverse_element(c))
        verify((conj == images[list(phi)]).all(),
               "Theta witness does not act on Pi as g does")
        pair_of[g] = (phi, gbar)
        witnesses[(phi, gbar)] = c
    verify(len(witnesses) == len(pair_of), "Theta is not injective on E")
    pairs = sorted(witnesses)
    fg = FusionGroup(pairs, pair_table(pairs, ext.quot.group), witnesses)
    degree_map = [pairs.index(pair_of[g]) for g in e_data.quot.reps]
    verify(permgroups.is_table_hom(degree_map, e_data.quot.group, fg.table),
           "Theta is not multiplicative")
    return ThetaData(pair_of_rep=pair_of, degree_map=degree_map, fusion=fg)


def fusion_report(ext, data: PointedGroupData, pt: Point, within: PermGroup):
    """Compute E, F both ways, Theta; raise VerificationError unless all
    three agree."""
    cd = corner_data(ext, data, pt)
    f_direct = fusion_F_direct(ext, cd)
    f_norm = fusion_F_normalizer(ext, cd)
    verify(f_direct.pairs == f_norm.pairs, "direct and normalizer F disagree")
    e_data = fusion_E(ext.kg, ext.sub, data, pt, within)
    theta = theta_check(ext, data, pt, cd, e_data)
    verify(theta.fusion.pairs == f_direct.pairs, "Theta image differs from F")
    verify(e_data.quot.order == f_direct.order,
           f"|E| = {e_data.quot.order} differs from |F| = {f_direct.order}")
    return cd, e_data, f_direct, theta
