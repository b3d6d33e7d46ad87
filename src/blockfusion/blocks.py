"""Group algebras over GF(p) and their block theory.

Everything lives in the coordinates of one ambient group algebra kG;
subalgebras (kH, its center, fixed subalgebras B^P, Brauer quotients)
are row spans inside it.  Multiplication uses the group's product table
directly, so large ambient groups never materialize full structure
constants; Algebra objects are only built for the small spans.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfp, permgroups
from .algebra import (
    SimpleComponent,
    SpanAlgebra,
    component_profile,
    primitive_idempotent_in,
    primitive_idempotents,
    primitive_summands,
    same_point,
    span_algebra,
    verify,
)
from .permgroups import PermGroup, pinv, pmul


# most int64 entries one gather of GroupAlgebra.mul holds, as many as
# UNIT_SCAN_CHUNK matrices of size 64 x 64; bounds transient memory (a
# larger right factor is gathered one term of the sum at a time)
MUL_GATHER_WORDS = 2**20


class GroupAlgebra:
    """kG with convolution multiplication from the group product table."""

    def __init__(self, grp: PermGroup, p: int):
        self.grp = grp
        self.p = int(p)
        self.n = grp.order
        self.mtable = grp.mult_table()
        verify((self.mtable >= 0).all(), "the elements of G do not form a group")
        # _inv[k] is the index of g_k^-1: the column of the identity in row k
        e = self.index(permgroups.identity_perm(grp.degree))
        self._inv = np.argmax(self.mtable == e, axis=1)
        # _gather[i, k] is the index of g_i^-1 g_k
        self._gather = self.mtable[self._inv]

    def index(self, g) -> int:
        return self.grp.index(g)

    def vec_of(self, g) -> np.ndarray:
        v = np.zeros(self.n, dtype=np.int64)
        v[self.grp.index(g)] = 1
        return v

    def sum_over(self, elements) -> np.ndarray:
        v = np.zeros(self.n, dtype=np.int64)
        for g in elements:
            v[self.grp.index(g)] += 1
        return v % self.p

    def mul(self, x, y) -> np.ndarray:
        """x*y; stacks of vectors broadcast over their leading axes.

        (xy)_k = sum_i x_i y_J[i, k], J[i, k] the index of g_i^-1 g_k: one
        gather y[..., J] and one int64 matmul.  The sum over i runs in
        pieces, each reduced mod p, short enough that a piece's sum stays
        below 2^63 and its gather within MUL_GATHER_WORDS; for p <= 97 and
        the stacks the pipeline multiplies that is one piece.
        """
        p, n = self.p, self.n
        x = np.mod(np.asarray(x, dtype=np.int64), p)
        y = np.mod(np.asarray(y, dtype=np.int64), p)
        run = max(1, min(n, (2**63 - 1) // (p - 1) ** 2,
                         MUL_GATHER_WORDS // max(y.size, 1)))
        out = 0
        for t in range(0, n, run):
            part = x[..., None, t:t + run] @ y[..., self._gather[t:t + run]]
            out = out + part[..., 0, :] % p
        return out % p

    @property
    def unit(self) -> np.ndarray:
        return self.vec_of(self.grp.elements[0])

    def conj_perm(self, s) -> np.ndarray:
        """Index array c with c[i] = index of s * g_i * s^(-1)."""
        k = self.index(s)
        return self.mtable[self.mtable[k], self._inv[k]]

    def conj_vec(self, s, v) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.int64)
        out[self.conj_perm(s)] = np.asarray(v, dtype=np.int64).ravel()
        return out % self.p

    def augmentation(self, v) -> int:
        return int(np.asarray(v, dtype=np.int64).sum()) % self.p

    def span(self, rows, unit_vec=None) -> SpanAlgebra:
        unit_vec = self.unit if unit_vec is None else unit_vec
        return span_algebra(rows, self.mul, unit_vec, self.p)


def center_span(kg: GroupAlgebra, sub: PermGroup) -> SpanAlgebra:
    """Z(k[sub]) = (k[sub])^sub inside kG, spanned by class sums."""
    return kg.span(orbit_sums(kg, sub, sub))


def blocks(kg: GroupAlgebra, sub: PermGroup):
    """Primitive central idempotents of k[sub], as vectors in kG coords."""
    return primitive_idempotents(center_span(kg, sub), kg.mul, kg.unit)


def block_ideal_dim(kg: GroupAlgebra, sub: PermGroup, b) -> int:
    rows = np.array([kg.mul(kg.vec_of(h), b) for h in sub.elements])
    return int(gfp.rank(rows, kg.p))


def is_principal_block(kg: GroupAlgebra, b) -> bool:
    # the principal block acts as identity on the trivial module
    return kg.augmentation(b) % kg.p == 1


def invariant_blocks(kg: GroupAlgebra, sub: PermGroup):
    """Primitive idempotents of Z(k[sub])^G: orbit sums of blocks of k[sub].

    Z(k[sub])^G = (k[sub])^G is the direct sum of one local algebra per
    G-orbit of blocks, so its primitive idempotents are those orbit sums.
    """
    out = primitive_idempotents(kg.span(orbit_sums(kg, sub, kg.grp)), kg.mul, kg.unit)
    for total in out:
        for s in kg.grp.elements:
            verify((kg.conj_vec(s, total) == total).all(),
                   "a G-orbit sum of blocks is not G-invariant")
    return out


# -- graded block extensions ---------------------------------------------------


@dataclass
class BlockExtension:
    """A = kG * b with its grading by the cosets of a normal subgroup."""

    kg: GroupAlgebra
    sub: PermGroup  # the normal subgroup H
    b: np.ndarray  # G-invariant central idempotent of kH, in kG coords
    quot: permgroups.QuotientSetup
    rows: np.ndarray  # homogeneous basis of A, rows in kG coords
    degrees: np.ndarray  # index into quot.group labels, per row

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def component_rows(self, dbar: int) -> np.ndarray:
        return self.rows[self.degrees == dbar]


def block_extension(kg: GroupAlgebra, sub: PermGroup, b) -> BlockExtension:
    p = kg.p
    b = np.mod(np.asarray(b, dtype=np.int64).ravel(), p)
    for s in kg.grp.generators:
        verify((kg.conj_vec(s, b) == b).all(), "idempotent is not G-invariant")
    hv = np.array([kg.vec_of(h) for h in sub.elements])
    verify((kg.mul(hv, b) == kg.mul(b, hv)).all(), "idempotent not central in kH")
    quot = permgroups.quotient(kg.grp, sub)
    row_chunks = []
    degs = []
    dims = []
    for d, rep in enumerate(quot.reps):
        coset = [pmul(h, rep) for h in sub.elements]
        chunk = gfp.row_basis(
            np.array([kg.mul(kg.vec_of(x), b) for x in coset]), p
        )
        row_chunks.append(chunk)
        degs.extend([d] * chunk.shape[0])
        dims.append(chunk.shape[0])
    verify(len(set(dims)) == 1, "graded components have unequal dimensions")
    ext = BlockExtension(
        kg=kg,
        sub=sub,
        b=b,
        quot=quot,
        rows=np.vstack(row_chunks),
        degrees=np.array(degs, dtype=np.int64),
    )
    _verify_crossed(ext)
    return ext


def _verify_crossed(ext: BlockExtension) -> None:
    """Each component contains an invertible element of A (crossed product)."""
    kg, p = ext.kg, ext.kg.p
    for d, rep in enumerate(ext.quot.reps):
        u = kg.mul(kg.vec_of(rep), ext.b)
        uinv = kg.mul(kg.vec_of(pinv(rep)), ext.b)
        verify((kg.mul(u, uinv) == ext.b).all() and (kg.mul(uinv, u) == ext.b).all(),
               f"g b times g^-1 b is not b for the representative g of component {d}")
        verify(gfp.in_rowspace(ext.component_rows(d), u, p),
               f"g b lies outside component {d}, g its representative")


# -- fixed points, traces, and the Brauer map ---------------------------------


def orbit_sums(kg: GroupAlgebra, sub: PermGroup, P: PermGroup) -> np.ndarray:
    """Row basis of (k[sub])^P: sums over P-conjugation orbits on sub.

    The orbits are read off G's table: conj[u, i] indexes u g_i u^-1, so
    the least index of the orbit of g_i is the least entry of column i.
    The sums have disjoint 0/1 supports, so sorted by their least index
    they are already the RREF basis.
    """
    member = kg.sum_over(sub.elements) == 1
    conj = np.array([kg.conj_perm(u) for u in P.elements])
    verify(member[conj[:, member]].all(), "P does not normalize the subgroup")
    label = conj.min(axis=0)
    return (label == np.unique(label[member])[:, None]).astype(np.int64)


def fixed_subalgebra(kg: GroupAlgebra, sub: PermGroup, b, P: PermGroup) -> SpanAlgebra:
    """B^P where B = k[sub] * b, as a span inside kG."""
    base = orbit_sums(kg, sub, P)
    rows = np.array([kg.mul(r, b) for r in base])
    return kg.span(rows, b)


def relative_trace(kg: GroupAlgebra, P: PermGroup, Q: PermGroup, x) -> np.ndarray:
    """tr^P_Q(x) = sum over u in [P/Q] of u x u^(-1)."""
    verify(Q.is_subgroup_of(P), "relative trace from a group that is not a subgroup")
    qset = Q.element_set()
    reps = []
    seen = set()
    for g in P.elements:
        if g in seen:
            continue
        coset = {pmul(g, q) for q in qset}
        seen |= coset
        reps.append(g)
    out = np.zeros(kg.n, dtype=np.int64)
    for u in reps:
        out = (out + kg.conj_vec(u, x)) % kg.p
    return out


@dataclass
class BrauerData:
    """The Brauer construction at P: projection to C_H(P) coordinates."""

    kg: GroupAlgebra
    centralizer: PermGroup
    mask: np.ndarray  # 0/1 over kG basis, support on C_H(P)
    brb: np.ndarray  # image of the block idempotent
    target: SpanAlgebra | None  # B(P) = k[C_H(P)] * Br(b); None when Br(b)=0

    def apply(self, v) -> np.ndarray:
        """Br_P of a vector, or of each vector in a stack."""
        return np.mod(np.asarray(v, dtype=np.int64) * self.mask, self.kg.p)


def brauer(kg: GroupAlgebra, sub: PermGroup, b, P: PermGroup) -> BrauerData:
    c = permgroups.centralizer(sub, P)
    mask = kg.sum_over(c.elements)
    brb = np.mod(np.asarray(b, dtype=np.int64).ravel() * mask, kg.p)
    target = None
    if brb.any():
        rows = np.array([kg.mul(kg.vec_of(g), brb) for g in c.elements])
        target = kg.span(rows, brb)
        verify((kg.mul(brb, brb) == brb).all(), "Br_P(b) is not idempotent")
    return BrauerData(kg=kg, centralizer=c, mask=mask, brb=brb, target=target)


def verify_brauer_hom(kg, sub, b, P, br: BrauerData) -> None:
    """Multiplicativity on B^P and vanishing on proper relative traces.

    Both checks read spanning rows only, never structure constants: a row
    basis of orbit_sums(kg, sub, P) times b for B^P, and for each maximal
    subgroup Q of P the rows orbit_sums(kg, sub, Q) times b of B^Q.
    """
    bp = gfp.row_basis(kg.mul(orbit_sums(kg, sub, P), b), kg.p)
    x, y = bp[:, None], bp[None, :]  # every pair of B^P rows
    verify((br.apply(kg.mul(x, y)) == kg.mul(br.apply(x), br.apply(y))).all(),
           "Brauer map is not multiplicative")
    if P.order == 1:
        return
    maximals = [
        q for q in permgroups.p_subgroups(P, kg.p) if q.order < P.order
    ]
    seen_orders = {q.order for q in maximals}
    top = max(seen_orders) if seen_orders else 1
    for q in maximals:
        if q.order != top:
            continue
        for x in kg.mul(orbit_sums(kg, sub, q), b):
            tr = relative_trace(kg, P, q, x)
            verify(not br.apply(tr).any(), "Brauer map misses a relative trace")


# -- points and pointed groups -------------------------------------------------


@dataclass
class Point:
    index: int
    idem: np.ndarray  # ambient kG coords; primitive in B^P
    local: bool
    multiplicity: int  # matrix size of the simple component of B^P


@dataclass
class PointedGroupData:
    P: PermGroup
    span: SpanAlgebra  # B^P
    br: BrauerData
    points: list

    def point_of(self, idem) -> Point:
        """Which point a primitive idempotent of B^P belongs to."""
        c = self.span.coords(idem)
        for pt in self.points:
            if same_point(self.span.alg, c, self.span.coords(pt.idem)):
                return pt
        raise ValueError("idempotent does not match any point")


def points_at(kg: GroupAlgebra, sub: PermGroup, b, P: PermGroup) -> PointedGroupData:
    span = fixed_subalgebra(kg, sub, b, P)
    br = brauer(kg, sub, b, P)
    pts = []
    for comp in span.alg.simple_components():
        inner = primitive_idempotent_in(span.alg, comp)
        idem = span.lift(inner)
        local = bool(br.apply(idem).any())
        pts.append(
            Point(
                index=comp.index,
                idem=idem,
                local=local,
                multiplicity=comp.matrix_size,
            )
        )
    return PointedGroupData(P=P, span=span, br=br, points=pts)


def pointed_group_contains(
    kg: GroupAlgebra,
    large: PointedGroupData,
    gamma: Point,
    small: PointedGroupData,
    delta: Point,
) -> bool:
    """(Q, delta) <= (P, gamma): Q <= P and some summand of i_gamma in B^Q
    lies in delta."""
    if not small.P.is_subgroup_of(large.P):
        return False
    bq = small.span
    c = bq.coords(gamma.idem)
    target = bq.coords(delta.idem)
    for s in primitive_summands(bq.alg, c):
        if same_point(bq.alg, s, target):
            return True
    return False


def local_pointed_groups(kg: GroupAlgebra, sub: PermGroup, b, within: PermGroup,
                         subgroup_cap: int = 512):
    """All local pointed groups (P, gamma) with P a p-subgroup of `within`."""
    out = []
    for P in permgroups.p_subgroups(within, kg.p, cap=subgroup_cap):
        data = points_at(kg, sub, b, P)
        for pt in data.points:
            if pt.local:
                out.append((data, pt))
    return out


def defect_pointed_groups(kg: GroupAlgebra, sub: PermGroup, b, within: PermGroup,
                          subgroup_cap: int = 512):
    """The local pointed groups (P, gamma), in point order, at the first
    p-subgroup P of `within` that has a local point, visiting the
    p-subgroups from the largest order down, in `p_subgroups` order within
    one order.  No local pointed group has a larger order, so each is
    maximal, a defect pointed group.

    The search stops at that P: its conjugates are not visited, and a
    maximal local pointed group of smaller order, which can exist when 1
    is not primitive in B^G, is not listed.
    """
    by_order = {}
    for P in permgroups.p_subgroups(within, kg.p, cap=subgroup_cap):
        by_order.setdefault(P.order, []).append(P)
    for order in sorted(by_order, reverse=True):
        for P in by_order[order]:
            data = points_at(kg, sub, b, P)
            out = [(data, pt) for pt in data.points if pt.local]
            if out:
                return out
    return []


def stabilizer_of_point(
    kg: GroupAlgebra, sub: PermGroup, data: PointedGroupData, pt: Point,
    within: PermGroup,
) -> PermGroup:
    """N_G(P_gamma): normalizer elements fixing the point gamma of B^P."""
    ng = permgroups.normalizer(within, data.P)
    inner = data.span.alg
    # same_point against the target, whose profile is computed once, as is
    # each distinct conjugate's: many g move the idempotent alike
    target = component_profile(inner, data.span.coords(pt.idem))
    if target[0] is None:
        raise ValueError("stabilizer_of_point requires a primitive (single-component) idempotent")
    same = {}
    keep = []
    for g in ng.elements:
        moved = kg.conj_vec(g, pt.idem)
        key = moved.tobytes()
        if key not in same:
            same[key] = component_profile(inner, data.span.coords(moved)) == target
        if same[key]:
            keep.append(g)
    return permgroups.from_elements(keep, degree=within.degree)


@dataclass
class LocalBlockData:
    """The block of k[C_H(P)]Br(b) attached to a local point, with the
    simple component of its semisimple quotient that Br(i) hits."""

    b_gamma: np.ndarray  # ambient kG coords
    block_span: SpanAlgebra  # B(P) * b_gamma
    component: SimpleComponent  # of block_span.alg, hit by Br(i)


def local_block_idempotent(kg: GroupAlgebra, data: PointedGroupData,
                           pt: Point) -> np.ndarray:
    """b_delta, ambient kG coords: the block of k[C_H(P)]Br(b) that Br(i)
    hits, for i in the local point pt."""
    verify(pt.local, "only local points determine a block of B(P)")
    br = data.br
    bri = br.apply(pt.idem)
    cands = []
    for blk in blocks(kg, br.centralizer):
        blk = kg.mul(blk, br.brb)
        if blk.any() and kg.mul(blk, bri).any():
            cands.append(blk)
    verify(len(cands) == 1, "Br(i) must land in a single block of B(P)")
    return cands[0]


def local_block_data(kg: GroupAlgebra, sub: PermGroup, b,
                     data: PointedGroupData, pt: Point) -> LocalBlockData:
    return local_block_from(kg, data, pt, local_block_idempotent(kg, data, pt))


def local_block_from(kg: GroupAlgebra, data: PointedGroupData, pt: Point,
                     b_delta) -> LocalBlockData:
    """The local block data on b_delta from local_block_idempotent."""
    bri = data.br.apply(pt.idem)
    rows = np.array([kg.mul(kg.vec_of(g), b_delta) for g in data.br.centralizer.elements])
    span = kg.span(rows, b_delta)
    # Br(i) is primitive in B(P), so it hits exactly one simple component
    ssq = span.alg.semisimple_quotient()
    xbar = ssq.project(span.coords(kg.mul(bri, b_delta)))
    hits = [cp for cp in span.alg.simple_components()
            if ssq.alg.mul(cp.central_idempotent, xbar).any()]
    verify(len(hits) == 1, "Br(i) must hit a single simple component")
    return LocalBlockData(b_gamma=b_delta, block_span=span, component=hits[0])


def extended_brauer_extension(kg_parent: GroupAlgebra, sub: PermGroup,
                              data: PointedGroupData, pt: Point,
                              stabilizer: PermGroup, b_delta) -> tuple:
    """k[N_G(Q_delta)] * b_delta graded by N_G(Q_delta) / (Q * C_H(Q)), for
    b_delta from local_block_idempotent.

    Returns (GroupAlgebra of the stabilizer, BlockExtension).
    """
    q = data.P
    c = data.br.centralizer
    base = permgroups.from_elements(
        [pmul(a, x) for a in q.elements for x in c.elements], degree=stabilizer.degree
    )
    kn = GroupAlgebra(stabilizer, kg_parent.p)
    b_n = np.zeros(kn.n, dtype=np.int64)  # b_delta in kN coords
    for g in c.elements:
        b_n[kn.index(g)] = b_delta[kg_parent.index(g)]
    ext = block_extension(kn, base, b_n)
    return kn, ext
