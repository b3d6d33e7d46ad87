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

from . import gfp, permgroups
from .algebra import (UNIT_SCAN_CHUNK, _packs, _solve_stack, _span_sums, find_unit_in_space,
                      intertwiner_rows, verify)
from .blocks import GroupAlgebra, PointedGroupData, Point, stabilizer_of_point
from .graded import GradedAlgebra, graded_corner
from .permgroups import GroupTable, PermGroup, aut_compose, pconj


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
    for u in data.P.elements:
        c = span.coords(kg.mul(kg.vec_of(u), pt.idem))
        if not g.alg.is_unit_element(c):
            raise ValueError("structural image of P is not invertible in iAi")
        p_images[u] = c
    if len({tuple(c) for c in p_images.values()}) < len(p_images):
        raise ValueError("structural map P -> (iAi)^x is not injective")
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
    spaces: a scan tabulating only v(ui) and (ui)v tests every vector v of
    every component against v(ui) = (u'i)v (for a unit, v(ui)v^-1 = u'i);
    v is solved only if its match u -> u' is a permutation of P and its pair
    (phi, gbar) has no witness yet.  Each pair keeps its first witness."""
    images = np.array([cd.p_images[u] for u in cd.P.elements])
    found = _normalizing_units(cd.graded, images)
    pairs = sorted(found)
    return FusionGroup(pairs, pair_table(pairs, ext.quot.group), found)


def _normalizing_units(g: GradedAlgebra, images) -> dict:
    """(phi, gbar) -> the first unit v of degree gbar, in scan order, with
    v images[k] v^-1 = images[phi[k]] for every k.

    The images are distinct (corner_data refuses a non-injective P -> iAi),
    so for a unit v each y_k has exactly one y_k' with v y_k = y_k' v,
    namely v y_k v^-1, and k -> k' is injective as conjugation is: the
    match of a unit is a permutation.  Survivors are held (fewer than 2
    UNIT_SCAN_CHUNK) and solved in scan order whenever UNIT_SCAN_CHUNK are
    held and at the end: the first of each pair, then, at the end or if
    UNIT_SCAN_CHUNK are still held, the others of the pairs without a
    unit.  Most survivors of a pair in F are never solved.
    """
    a, p, n = g.alg, g.alg.p, len(images)
    # e_i y_k and y_k e_i for every basis vector e_i, and L(e_i)
    prods = np.concatenate([np.tensordot(a.sc, images, (1, 1)).transpose(0, 2, 1),
                            np.tensordot(images, a.sc, (1, 0)).transpose(1, 0, 2)], axis=1) % p
    packs, lrows, found, held = _packs(p, a.dim), a.sc.transpose(0, 2, 1), {}, []
    if packs:  # a sum of packed rows is their XOR
        lrows = gfp.pack_gf2(lrows)

    def solve(pending, end):  # the held (degree d, v, phi), in scan order
        firsts = {(phi, d): k for k, (d, _, phi) in reversed(list(enumerate(pending)))}
        for later in (False, True):
            batch = [(d, v, phi) for k, (d, v, phi) in enumerate(pending)
                     if (firsts[phi, d] != k) == later and (phi, d) not in found]
            if later and not end and len(batch) < UNIT_SCAN_CHUNK:
                return batch
            if batch:
                vs = np.array([v for _, v, _ in batch])
                lmul = (np.bitwise_xor.reduce(np.where(vs[..., None], lrows, 0), 1) if packs
                        else np.tensordot(vs, lrows, 1) % p)
                is_unit, _ = _solve_stack(lmul, a.unit[:, None], p)
                for d, v, phi in (b for b, unit in zip(batch, is_unit) if unit):
                    found.setdefault((phi, d), v)
        return []

    for d in range(g.group.order):
        idx = g.component_indices(d)
        for coeffs, sums in _span_sums(np.eye(len(idx), dtype=np.int64), prods[idx], p):
            sums = sums.reshape(len(sums), 2, n, -1)
            match = (sums[:, 0, :, None] == sums[:, 1, None]).all(axis=3)
            # the linear test, then whether the match is a permutation
            ks = np.flatnonzero(match.any(axis=2).all(axis=1))
            match = match[ks]
            perm = ((match.sum(axis=1) == 1) & (match.sum(axis=2) == 1)).all(axis=1)
            vs = coeffs[ks[perm]] @ np.eye(a.dim, dtype=np.int64)[idx]
            phis = map(tuple, match[perm].argmax(axis=2).tolist())
            held += [(d, v, phi) for v, phi in zip(vs, phis) if (phi, d) not in found]
            if len(held) >= UNIT_SCAN_CHUNK:
                held = solve(held, False)
    solve(held, True)
    return found


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
