import dataclasses

import numpy as np
import pytest

from blockfusion import algebra as al
from blockfusion import blocks as bl
from blockfusion import gfp
from blockfusion import permgroups as pg
from blockfusion import workbench as wb


def grp(degree, *cycles):
    gens = tuple(pg.parse_cycles(c, degree) for c in cycles)
    return pg.enumerate_group(gens, degree)


S3 = grp(3, "(0 1)", "(0 1 2)")
C3 = grp(3, "(0 1 2)")
S4 = grp(4, "(0 1)", "(0 1 2 3)")
A4 = grp(4, "(0 1 2)", "(1 2 3)")
V4 = grp(4, "(0 1)(2 3)", "(0 2)(1 3)")


def test_group_algebra_multiplication_matches_convolution():
    kg = bl.GroupAlgebra(S3, 5)
    x = np.arange(6) % 5
    y = (np.arange(6) * 3 + 1) % 5
    # oracle: expand the double sum directly
    expected = np.zeros(6, dtype=np.int64)
    for i, a in enumerate(S3.elements):
        for j, c in enumerate(S3.elements):
            expected[kg.index(pg.pmul(a, c))] += x[i] * y[j]
    assert (kg.mul(x, y) == expected % 5).all()
    assert (kg.mul(kg.unit, x) == x).all()


def test_conj_perm_is_its_pconj_definition():
    # conj_perm reads s g s^-1 off the product table; the definition
    # conjugates the permutations themselves, on every catalog G
    for s in wb.catalog():
        kg = wb.resolve_scenario(s).kg
        for x in kg.grp.elements:
            want = [kg.index(pg.pconj(x, y)) for y in kg.grp.elements]
            assert kg.conj_perm(x).tolist() == want, s.name


def test_conj_vec_is_algebra_automorphism():
    kg = bl.GroupAlgebra(S3, 3)
    s = pg.parse_cycles("(0 1)", 3)
    x = kg.sum_over([pg.parse_cycles("(0 1 2)", 3)])
    y = kg.sum_over([pg.parse_cycles("(1 2)", 3)])
    lhs = kg.conj_vec(s, kg.mul(x, y))
    rhs = kg.mul(kg.conj_vec(s, x), kg.conj_vec(s, y))
    assert (lhs == rhs).all()


def test_blocks_of_modular_group_algebra_single_block():
    # exhaustive oracle: kA4 over GF(2) has exactly one nonzero central
    # idempotent, the identity, with ideal dimension 12
    kg = bl.GroupAlgebra(A4, 2)
    bs = bl.blocks(kg, A4)
    assert len(bs) == 1
    assert (bs[0] == kg.unit).all()
    assert bl.block_ideal_dim(kg, A4, bs[0]) == 12
    z = bl.center_span(kg, A4)
    found = []
    for idx in np.ndindex(*([2] * z.alg.dim)):
        e = np.array(idx, dtype=np.int64)
        if e.any() and z.alg.is_idempotent(e):
            found.append(e)
    # idempotents of the center: identity only (local center)
    assert len(found) == 1


def test_blocks_of_semisimple_case():
    kg = bl.GroupAlgebra(C3, 2)
    bs = bl.blocks(kg, C3)
    assert len(bs) == 2
    assert sorted(bl.block_ideal_dim(kg, C3, b) for b in bs) == [1, 2]
    principal = [b for b in bs if bl.is_principal_block(kg, b)]
    assert len(principal) == 1
    assert bl.block_ideal_dim(kg, C3, principal[0]) == 1


def test_blocks_kc3_gf3_is_one_block():
    kg = bl.GroupAlgebra(C3, 3)
    bs = bl.blocks(kg, C3)
    assert len(bs) == 1 and (bs[0] == kg.unit).all()


def test_invariant_blocks():
    # the two blocks of kC3 over GF(2) are each fixed by S3-conjugation
    kg = bl.GroupAlgebra(S3, 2)
    inv = bl.invariant_blocks(kg, C3)
    assert len(inv) == 2
    for b in inv:
        assert (kg.mul(b, b) == b).all()
        for s in S3.elements:
            assert (kg.conj_vec(s, b) == b).all()


F21 = grp(7, "(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)")
C7 = grp(7, "(0 1 2 3 4 5 6)")

# every catalog (G, H), then cases where G permutes the blocks of kH
ORBIT_CASES = ([pytest.param(grp(s.degree, *s.gens_g), grp(s.degree, *s.gens_h), s.p,
                             id=s.name) for s in wb.catalog()]
               + [pytest.param(S3, C3, 7, id="S3/C3-p7"),
                  pytest.param(A4, V4, 3, id="A4/V4-p3"),
                  pytest.param(S4, V4, 5, id="S4/V4-p5"),
                  pytest.param(F21, C7, 2, id="F21/C7-p2"),
                  pytest.param(F21, C7, 29, id="F21/C7-p29")])


def scalar_orbit_sums(kg, sub, P):
    """The orbit sums of sub under P, conjugating the permutations."""
    seen, rows = set(), []
    for h in sub.elements:
        if h not in seen:
            orbit = {pg.pconj(u, h) for u in P.elements}
            seen |= orbit
            rows.append(kg.sum_over(orbit))
    return gfp.row_basis(np.array(rows), kg.p)


@pytest.mark.parametrize("g, h, p", ORBIT_CASES)
def test_orbit_sums_match_the_scalar_conjugation(g, h, p):
    kg = bl.GroupAlgebra(g, p)
    for P in [pg.trivial_group(g.degree), h, g] + list(pg.p_subgroups(g, p)):
        got = bl.orbit_sums(kg, h, P)
        assert got.dtype == np.int64
        assert got.tolist() == scalar_orbit_sums(kg, h, P).tolist(), P.generators


def test_orbit_sums_refuse_a_group_that_does_not_normalize():
    kg = bl.GroupAlgebra(S4, 2)
    sub, P = grp(4, "(0 1)"), grp(4, "(1 2)")
    with pytest.raises(al.VerificationError, match="^P does not normalize the subgroup$"):
        bl.orbit_sums(kg, sub, P)


@pytest.mark.parametrize("g, h, p", ORBIT_CASES)
def test_invariant_blocks_are_the_g_orbit_sums_of_blocks(g, h, p):
    kg = bl.GroupAlgebra(g, p)
    orbits = {frozenset(tuple(kg.conj_vec(s, b)) for s in g.elements)
              for b in bl.blocks(kg, h)}
    want = sorted((np.sum(list(o), axis=0) % p).tolist() for o in orbits)
    assert [v.tolist() for v in bl.invariant_blocks(kg, h)] == want


def test_invariant_blocks_count_the_g_orbits_of_blocks():
    # S3, A4 and S4 fuse the non-principal blocks of their normal
    # subgroup; F21 fixes the three blocks of kC7 over GF(2) (it acts on
    # them by the Frobenius) and permutes the seven over GF(29) as 1 + 3 + 3
    for g, h, p, nb, ni in ((S3, C3, 7, 3, 2), (A4, V4, 3, 4, 2), (S4, V4, 5, 4, 2),
                            (F21, C7, 2, 3, 3), (F21, C7, 29, 7, 3)):
        kg = bl.GroupAlgebra(g, p)
        assert (len(bl.blocks(kg, h)), len(bl.invariant_blocks(kg, h))) == (nb, ni)


def test_block_extension_grading():
    kg = bl.GroupAlgebra(S3, 2)
    inv = bl.invariant_blocks(kg, C3)
    b = [x for x in inv if not bl.is_principal_block(kg, x)][0]
    ext = bl.block_extension(kg, C3, b)
    assert ext.quot.order == 2
    assert [ext.component_rows(d).shape[0] for d in range(2)] == [2, 2]
    # homogeneous times homogeneous is homogeneous of the product degree
    for i in range(ext.dim):
        for j in range(ext.dim):
            prod = kg.mul(ext.rows[i], ext.rows[j])
            want = ext.quot.group.mul(int(ext.degrees[i]), int(ext.degrees[j]))
            assert gfp.in_rowspace(ext.component_rows(want), prod, kg.p)


def test_block_extension_rejects_non_invariant():
    kg = bl.GroupAlgebra(S3, 2)
    bs = bl.blocks(kg, C3)
    kc3 = bl.GroupAlgebra(C3, 2)
    # a non-central choice: a single non-principal primitive idempotent of kC3
    nonprincipal = [b for b in bs if not bl.is_principal_block(kg, b)]
    assert nonprincipal  # sanity
    g = pg.parse_cycles("(0 1 2)", 3)
    bad = kg.vec_of(g)  # not idempotent / not invariant
    with pytest.raises(AssertionError):
        bl.block_extension(kg, C3, bad)


def test_fixed_subalgebra_orbit_sums():
    kg = bl.GroupAlgebra(S3, 3)
    b = bl.blocks(kg, C3)[0]
    span = bl.fixed_subalgebra(kg, C3, b, C3)  # C3 acts trivially on kC3
    assert span.rows.shape[0] == 3
    # under the full S3 the two 3-cycles fuse into one orbit
    span2 = bl.fixed_subalgebra(kg, C3, b, grp(3, "(0 1)"))
    assert span2.rows.shape[0] == 2
    for r in span2.rows:
        s = pg.parse_cycles("(0 1)", 3)
        assert (kg.conj_vec(s, r) == r).all()


def test_relative_trace_against_direct_sum():
    kg = bl.GroupAlgebra(S4, 2)
    x = kg.vec_of(pg.parse_cycles("(0 1)(2 3)", 4))
    tr = bl.relative_trace(kg, V4, pg.trivial_group(4), x)
    expected = np.zeros(kg.n, dtype=np.int64)
    for u in V4.elements:
        expected = (expected + kg.conj_vec(u, x)) % 2
    assert (tr == expected).all()


def test_brauer_map_is_hom_and_kills_traces():
    kg = bl.GroupAlgebra(S4, 2)
    b = kg.unit  # the unique block of kA4 over GF(2)
    br = bl.brauer(kg, A4, b, V4)
    assert br.centralizer.order == 4  # C_A4(V4) = V4
    assert br.target is not None
    bl.verify_brauer_hom(kg, A4, b, V4, br)
    # keeping only the coefficient of 1 is not multiplicative: (01)(23)
    # squares to 1
    only_one = dataclasses.replace(br, mask=kg.unit)
    with pytest.raises(al.VerificationError, match="^Brauer map is not multiplicative$"):
        bl.verify_brauer_hom(kg, A4, b, V4, only_one)


def test_a_brauer_map_that_misses_a_relative_trace_fails(monkeypatch):
    # keeping every coefficient is multiplicative on B^P, but it keeps the
    # relative traces from the subgroups of order 2 of V4
    kg = bl.GroupAlgebra(S4, 2)
    b = kg.unit
    data = bl.points_at(kg, A4, b, V4)

    def refuse(*args, **kwargs):
        raise AssertionError("verify_brauer_hom built a span algebra")

    monkeypatch.setattr(bl, "span_algebra", refuse)
    bl.verify_brauer_hom(kg, A4, b, V4, data.br)
    keep_all = dataclasses.replace(data.br, mask=np.ones(kg.n, dtype=np.int64))
    with pytest.raises(al.VerificationError,
                       match="^Brauer map misses a relative trace$"):
        bl.verify_brauer_hom(kg, A4, b, V4, keep_all)


def test_brauer_vanishes_off_defect():
    # P = full Sylow 3-subgroup of S3 acting on kC3 over GF(2): block of
    # defect zero has Br_P(b) = 0 for nontrivial P
    kg = bl.GroupAlgebra(S3, 2)
    inv = bl.invariant_blocks(kg, C3)
    b0 = [x for x in inv if not bl.is_principal_block(kg, x)][0]
    br = bl.brauer(kg, C3, b0, grp(3, "(0 1)"))
    # C_C3((0 1)) = 1 and the non-principal block has no identity support
    assert not br.brb.any() and br.target is None


def test_points_locality_and_multiplicity():
    kg = bl.GroupAlgebra(S3, 3)
    b = bl.blocks(kg, C3)[0]
    data = bl.points_at(kg, C3, b, C3)
    assert len(data.points) == 1
    assert data.points[0].local
    triv = bl.points_at(kg, C3, b, pg.trivial_group(3))
    assert len(triv.points) == 1
    assert triv.points[0].local  # Br at trivial group is the identity map


def test_pointed_group_containment():
    kg = bl.GroupAlgebra(S3, 3)
    b = bl.blocks(kg, C3)[0]
    big = bl.points_at(kg, C3, b, C3)
    small = bl.points_at(kg, C3, b, pg.trivial_group(3))
    assert bl.pointed_group_contains(kg, big, big.points[0], small, small.points[0])
    assert not bl.pointed_group_contains(kg, small, small.points[0], big, big.points[0])


def test_defect_pointed_groups_sc1():
    kg = bl.GroupAlgebra(S3, 3)
    b = bl.blocks(kg, C3)[0]
    defs = bl.defect_pointed_groups(kg, C3, b, S3)
    assert len(defs) == 1
    assert defs[0][0].P.order == 3  # defect group C3


def test_defect_pointed_groups_s4():
    kg = bl.GroupAlgebra(S4, 2)
    defs = bl.defect_pointed_groups(kg, A4, kg.unit, S4)
    # the first of the three conjugate dihedral Sylows of S4; the search
    # stops there
    first = next(P for P in pg.p_subgroups(S4, 2) if P.order == 8)
    assert [d.P.elements for d, _ in defs] == [first.elements]


def _s4_over(h, p):
    return wb.Scenario(name=f"S4-{h}-{p}", p=p, degree=4,
                       gens_g=["(0 1)", "(0 1 2 3)"],
                       gens_h={"V4": ["(0 1)(2 3)", "(0 2)(1 3)"],
                               "A4": ["(0 1 2)", "(1 2 3)"]}[h])


DEFECT_SCENARIOS = wb.catalog() + [_s4_over("V4", 2), _s4_over("A4", 2),
                                   _s4_over("A4", 3)]


@pytest.mark.parametrize("s", DEFECT_SCENARIOS, ids=lambda s: s.name)
def test_defect_pointed_groups_are_the_maximal_ones_of_largest_order(s):
    # the reference: every local pointed group, the maximal ones under
    # containment, then those of the largest order, in the same order
    r = wb.resolve_scenario(s)
    for b in r.invariant:
        locs = bl.local_pointed_groups(r.kg, r.h, b, r.g)
        maximal = [(d, pt) for d, pt in locs if not any(
            d2.P.order > d.P.order
            and bl.pointed_group_contains(r.kg, d2, pt2, d, pt)
            for d2, pt2 in locs)]
        top = max(d.P.order for d, _ in maximal)
        want = [(d.P.elements, pt.index) for d, pt in maximal
                if d.P.order == top]
        # the search stops at the first subgroup that holds one
        want = [w for w in want if w[0] == want[0][0]]
        got = bl.defect_pointed_groups(r.kg, r.h, b, r.g)
        assert [(d.P.elements, pt.index) for d, pt in got] == want


def test_stabilizer_of_point():
    kg = bl.GroupAlgebra(S3, 3)
    b = bl.blocks(kg, C3)[0]
    data = bl.points_at(kg, C3, b, C3)
    ng = bl.stabilizer_of_point(kg, C3, data, data.points[0], S3)
    assert ng.order == 6  # the unique point is fixed by all of N_S3(C3) = S3


def test_local_block_data_and_extension():
    kg = bl.GroupAlgebra(S4, 2)
    b = kg.unit
    data = bl.points_at(kg, A4, b, V4)
    pt = [x for x in data.points if x.local][0]
    ng = bl.stabilizer_of_point(kg, A4, data, pt, S4)
    assert ng.order == 24  # V4 is normal in S4 and the point is unique
    lbd = bl.local_block_data(kg, A4, b, data, pt)
    assert lbd.b_gamma.any()
    assert lbd.component.component_dim >= 1
    kn, ext = bl.extended_brauer_extension(kg, A4, data, pt, ng, lbd.b_gamma)
    assert ext.quot.order == 6  # N_G(Q_delta) / Q C_H(Q) = S4 / V4
    dims = {ext.component_rows(d).shape[0] for d in range(6)}
    assert len(dims) == 1
