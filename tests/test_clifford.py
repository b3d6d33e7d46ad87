import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from blockfusion import algebra as al
from blockfusion import blocks as bl
from blockfusion import clifford as cl
from blockfusion import fusion as fu
from blockfusion import gfp
from blockfusion import graded as gr
from blockfusion import permgroups as pg
from blockfusion import workbench as wb

from test_graded import with_scanned_units


@pytest.fixture(scope="module")
def s3_chain():
    # S3 over its normal C3 at p = 3, P = C3 (the defect group)
    s3 = pg.enumerate_group(
        (pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)), 3)
    c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
    kg = bl.GroupAlgebra(s3, 3)
    b = bl.blocks(kg, c3)[0]
    ext = bl.block_extension(kg, c3, b)
    data = bl.points_at(kg, c3, b, c3)
    (pt,) = data.points
    cd, e_data, fg, theta = fu.fusion_report(ext, data, pt, s3)
    ecd = cl.build_E(ext, data, pt, e_data)
    fcd = cl.build_F(ext, data, cd, fg)
    return s3, c3, kg, b, ext, data, pt, cd, e_data, fg, theta, ecd, fcd


@pytest.fixture(scope="module")
def s4_chain():
    # S4 over A4 at p = 2, P = the Klein four group (the defect group)
    s4 = pg.enumerate_group(
        (pg.parse_cycles("(0 1)", 4), pg.parse_cycles("(0 1 2 3)", 4)), 4)
    a4 = pg.enumerate_group(
        (pg.parse_cycles("(0 1 2)", 4), pg.parse_cycles("(1 2 3)", 4)), 4)
    v4 = pg.enumerate_group(
        (pg.parse_cycles("(0 1)(2 3)", 4), pg.parse_cycles("(0 2)(1 3)", 4)), 4)
    kg = bl.GroupAlgebra(s4, 2)
    b = bl.blocks(kg, a4)[0]
    ext = bl.block_extension(kg, a4, b)
    data = bl.points_at(kg, a4, b, v4)
    pt = next(p for p in data.points if p.local)
    cd, e_data, fg, theta = fu.fusion_report(ext, data, pt, s4)
    ecd = cl.build_E(ext, data, pt, e_data)
    fcd = cl.build_F(ext, data, cd, fg)
    return s4, a4, kg, b, ext, data, pt, cd, e_data, fg, theta, ecd, fcd


def _theta_degree_map(e_data, theta, fcd):
    # degree d of the endomorphism side -> the matching fusion pair index
    reps = e_data.quot.reps
    return [fcd.pairs.index(theta.pair_of_rep[reps[d]]) for d in range(len(reps))]


def test_end_side_dimension_counts(s3_chain):
    *_, data, pt, cd, e_data, fg, theta, ecd, fcd = s3_chain[5:]
    # one copy of iB^Pi per element of the stabilizer quotient
    ibpi = cd.span
    assert ecd.dim == e_data.quot.order * 3
    dims = [int((ecd.graded.deg == d).sum()) for d in range(e_data.quot.order)]
    assert dims == [3, 3]


def test_end_side_identity_component_is_the_corner_fixed_part(s3_chain):
    kg, b, ext, data, pt, cd = s3_chain[2:8]
    ecd = s3_chain[11]
    # evaluation at i carries degree-zero homs onto i B^P i
    p = kg.p
    imgs = ecd.values[0]  # the values at i, in B^P coordinates
    ibpi = gfp.row_basis(np.array([
        ecd.base.coords(kg.mul(kg.mul(pt.idem, r), pt.idem))
        for r in ecd.base.rows]), p)
    assert gfp.rank(np.vstack([imgs, ibpi]), p) == ibpi.shape[0]
    assert gfp.rank(imgs, p) == ibpi.shape[0]


def test_corner_side_components_have_equal_size(s3_chain):
    fg, theta, ecd, fcd = s3_chain[9:13]
    dims = [c.shape[0] for c in fcd.chunk_rows]
    assert len(set(dims)) == 1
    assert fcd.graded.alg.dim == sum(dims)
    assert fcd.pairs == fg.pairs


def test_corner_side_components_overlap_downstairs(s4_chain):
    # the component images are NOT independent inside the corner, which
    # is why the sum is kept formal: here 6 components of size 6 only
    # span 24 dimensions downstairs
    fcd = s4_chain[12]
    stacked = np.vstack(fcd.chunk_rows)
    assert stacked.shape[0] == 36
    assert gfp.rank(stacked, 2) == 24


def test_comparison_iso_small(s3_chain):
    ext, data, pt = s3_chain[4:7]
    theta, ecd, fcd = s3_chain[10:13]
    m = cl.psi_iso(ext, pt, ecd, fcd, theta)
    assert m.shape == (6, 6)
    assert gfp.rank(m, ext.kg.p) == 6


def test_comparison_iso_klein_four(s4_chain):
    ext, data, pt = s4_chain[4:7]
    theta, ecd, fcd = s4_chain[10:13]
    assert ecd.dim == 36
    m = cl.psi_iso(ext, pt, ecd, fcd, theta)
    assert gfp.rank(m, 2) == 36


def test_residuals_are_crossed_products_of_rank_one(s3_chain):
    e_data, fg, theta, ecd, fcd = s3_chain[8:13]
    re = cl.residual(ecd)
    rf = cl.residual(fcd)
    for r in (re, rf):
        assert r.graded.alg.dim == len(fg.pairs)
        assert sorted(r.graded.deg.tolist()) == list(range(len(fg.pairs)))


def test_residual_of_end_side_matches_residual_of_corner_side(s3_chain):
    e_data, fg, theta, ecd, fcd = s3_chain[8:13]
    re = cl.residual(ecd)
    rf = cl.residual(fcd)
    gm = _theta_degree_map(e_data, theta, fcd)
    assert cl.residuals_match(re, rf, group_map=gm)


def test_residual_matches_the_local_block_construction(s3_chain):
    kg, b, ext, data, pt = s3_chain[2:7]
    c3 = s3_chain[1]
    e_data, fg, theta, ecd = s3_chain[8:12]
    lbd = bl.local_block_data(kg, c3, b, data, pt)
    lres = cl.local_residual(ext, data, pt, e_data, lbd)
    assert cl.residuals_match(cl.residual(ecd), lres)


def test_residual_chain_klein_four(s4_chain):
    a4 = s4_chain[1]
    kg, b, ext, data, pt = s4_chain[2:7]
    e_data, fg, theta, ecd, fcd = s4_chain[8:13]
    re = cl.residual(ecd)
    rf = cl.residual(fcd)
    assert re.graded.alg.dim == 6
    gm = _theta_degree_map(e_data, theta, fcd)
    assert cl.residuals_match(re, rf, group_map=gm)
    lbd = bl.local_block_data(kg, a4, b, data, pt)
    lres = cl.local_residual(ext, data, pt, e_data, lbd)
    assert cl.residuals_match(re, lres)


def test_residual_refuses_a_1_component_that_is_not_a_field():
    # (k x k)[C2] over GF(2), basis e_i (x) x^a at 2a + i: a crossed
    # product with radical 0 whose 1-component GF(2) x GF(2) is
    # commutative but has two simple components
    sc = np.zeros((4, 4, 4), dtype=np.int64)
    for i in range(2):
        for a in range(2):
            for c in range(2):
                sc[2 * a + i, 2 * c + i, 2 * ((a + c) % 2) + i] = 1
    table = pg.GroupTable(np.array([[0, 1], [1, 0]]), (0, 1))
    g = gr.GradedAlgebra(al.Algebra(2, sc, np.array([1, 1, 0, 0])), table,
                         np.array([0, 0, 1, 1]))
    g.validate()
    g.verify_units([[1, 1], [1, 1]], "element 1 (x) x_d")
    with pytest.raises(al.VerificationError, match="^the residual 1-component "
                       "is not a field: it has 2 simple components$"):
        cl.residual(cl.CliffordExtensionData(graded=g))


def test_both_residual_builders_run_the_one_field_check(monkeypatch, s3_chain):
    kg, b, ext, data, pt = s3_chain[2:7]
    e_data, ecd = s3_chain[8], s3_chain[11]
    seen, real = [], cl._verify_field
    monkeypatch.setattr(cl, "_verify_field",
                        lambda one, what: seen.append((one.dim, what)) or real(one, what))
    cl.residual(ecd)
    cl.local_residual(ext, data, pt, e_data,
                      bl.local_block_data(kg, s3_chain[1], b, data, pt))
    assert seen == [(1, "residual 1-component"), (1, "local residual 1-component")]


def test_the_field_check_takes_a_1_dimensional_algebra_as_it_is(monkeypatch):
    def refuse(*args):
        raise AssertionError("structure computed for a 1-dimensional algebra")

    for name in ("is_commutative", "radical_rows", "simple_components"):
        monkeypatch.setattr(al.Algebra, name, refuse)
    cl._verify_field(al.Algebra(5, np.array([[[3]]]), np.array([2])), "test")


def test_the_corner_side_shares_the_radical_of_b_q(monkeypatch):
    # on SC2 at Q the 1-component of F is B^Q on B^Q's own basis, so inside
    # one report the radical that points_at derived serves the residual too
    derived = []
    real = al._radical

    def counting(a, seed):
        derived.append((a.sc.tobytes(), a.unit.tobytes()))
        return real(a, seed)

    monkeypatch.setattr(al, "_radical", counting)
    s = next(s for s in wb.catalog() if s.name.startswith("SC2"))
    pipe = wb.Pipeline(s)
    with al.shared_invariants():
        at = pipe.pointed(at_q=True)
        pipe.residual_f(at)
    bq = at[0].span.alg
    one = pipe.clifford_f(at).graded.identity_span().alg
    assert at[0].P.order == 2
    assert (one.sc == bq.sc).all() and (one.unit == bq.unit).all()
    assert derived.count((bq.sc.tobytes(), bq.unit.tobytes())) == 1


def test_truncation_by_the_unit_changes_nothing(s3_chain):
    kg, b, ext, data, pt, cd = s3_chain[2:8]
    e_data, fg, theta, ecd, fcd = s3_chain[8:13]
    et = cl.embed_truncate(ext, data, pt, e_data, cd, fg, theta, ecd, fcd, b)
    assert et.diagram_commutes
    assert et.e_primed is not None
    assert et.base_primed.alg.dim == data.span.alg.dim


def test_truncation_by_a_proper_idempotent():
    # kS4 at p = 2 over the trivial subgroup: the unit of B splits as
    # three orthogonal primitives, so a point admits a truncating
    # idempotent strictly between i and 1
    s4 = pg.enumerate_group(
        (pg.parse_cycles("(0 1)", 4), pg.parse_cycles("(0 1 2 3)", 4)), 4)
    one = pg.from_elements([pg.identity_perm(4)], 4)
    kg = bl.GroupAlgebra(s4, 2)
    (b,) = bl.blocks(kg, s4)
    ext = bl.block_extension(kg, s4, b)
    data = bl.points_at(kg, s4, b, one)
    bp = data.span
    pt = data.points[0]
    rest = (bp.alg.unit % 2 - bp.coords(pt.idem)) % 2
    parts = al.primitive_summands(bp.alg, rest)
    assert len(parts) == 2
    e = np.mod(((bp.coords(pt.idem) + parts[0]) % 2) @ bp.rows, 2)
    assert not (e == b % 2).all() and not (e == pt.idem).all()
    cd, e_data, fg, theta = fu.fusion_report(ext, data, pt, s4)
    ecd = cl.build_E(ext, data, pt, e_data)
    fcd = cl.build_F(ext, data, cd, fg)
    et = cl.embed_truncate(ext, data, pt, e_data, cd, fg, theta, ecd, fcd, e)
    assert et.diagram_commutes
    assert et.e_primed is not None
    assert et.base_primed.alg.dim < data.span.alg.dim


@pytest.fixture(scope="module")
def sc4_chain():
    # D8 over itself at p = 2: |E| = 4, and the defect r_d r_e r_{de}^-1 of
    # some representative pairs is not itself a representative
    s = next(x for x in wb.catalog() if x.name == "SC4-D8-in-S4-classical")
    r = wb.resolve_scenario(s)
    data, pt = wb.resolve_subgroup(r, s, wb.DEFAULT_CAP_ORDER)
    cd, e_data, fg, theta = fu.fusion_report(r.ext, data, pt, r.g)
    ecd = cl.build_E(r.ext, data, pt, e_data)
    fcd = cl.build_F(r.ext, data, cd, fg)
    return r, data, pt, (e_data, cd, fg, theta, ecd, fcd)


@pytest.mark.parametrize("which", ["b", "i", "block cut"])
def test_truncation_with_defects_outside_the_representatives(sc4_chain, which):
    r, data, pt, chain = sc4_chain
    i_in = data.span.coords(pt.idem)
    (cut,) = [c for c in al.central_idempotents(data.span.alg)
              if (data.span.alg.mul(c, i_in) == i_in).all()]
    e = {"b": r.b, "i": pt.idem,
         "block cut": np.mod(cut @ data.span.rows, r.kg.p)}[which]
    et = cl.embed_truncate(r.ext, data, pt, *chain, e)
    assert et.diagram_commutes


# -- the endomorphism side against the induced-module construction -------------


def _twisted_homs(balg, quot, action, gen):
    """V = B gen on its RREF basis, the left multiplications on it and,
    per degree d, a basis of Hom(V, V twisted by d), where e_k acts on the
    twist as sigma_d^-1(e_k)."""
    p = balg.p
    eye_b = np.eye(balg.dim, dtype=np.int64)
    v_rows = gfp.row_basis(balg.mul(eye_b, gen), p)
    mats_v = al.structure_constants(eye_b, v_rows, v_rows, balg.mul,
                                    p).transpose(0, 2, 1)
    vmod = al.Module(balg, mats_v)
    vmod.check()
    sigma_inv = [gfp.inverse(action[r], p) for r in quot.reps]
    hom_bases = [al.hom_space(vmod, al.Module(
        balg, np.tensordot(si.T, mats_v, axes=1) % p)) for si in sigma_inv]
    return v_rows, mats_v, sigma_inv, hom_bases


def _induced_module_reference(balg, quot, action, interior, gen):
    """The endomorphism side built the long way: the full endomorphisms of
    the induced module (B * E) (x)_B V, V = B gen, on the basis u_f (x) v_j,
    checked to commute with the action of B * E and multiplied by opposite
    composition of the full matrices."""
    p, n, db = balg.p, quot.order, balg.dim
    v_rows, mats_v, sigma_inv, hom_bases = _twisted_homs(balg, quot, action, gen)
    nv = len(v_rows)
    eye_b = np.eye(db, dtype=np.int64)

    def left_on_v(coeff):
        return np.tensordot(coeff, mats_v, axes=1) % p

    over = gr.crossed_product(balg, quot, action, interior)
    dim_m = n * nv
    act_m = np.zeros((over.alg.dim, dim_m, dim_m), dtype=np.int64)
    for d in range(n):
        for f in range(n):
            df = quot.group.mul(d, f)
            coeffs = balg.mul(eye_b, interior[quot.defect(d, f)]) @ sigma_inv[df].T % p
            act_m[d * db:(d + 1) * db, df * nv:(df + 1) * nv,
                  f * nv:(f + 1) * nv] = left_on_v(coeffs)
    al.Module(over.alg, act_m).check()

    def full_endo(d, t):
        out = np.zeros((dim_m, dim_m), dtype=np.int64)
        for f in range(n):
            fd = quot.group.mul(f, d)
            coeff = sigma_inv[fd] @ interior[quot.defect(f, d)] % p
            out[fd * nv:(fd + 1) * nv, f * nv:(f + 1) * nv] = left_on_v(coeff) @ t % p
        return out

    fulls = [np.array([full_endo(d, t) for t in hom_bases[d]]) for d in range(n)]
    for m in np.concatenate(fulls):
        assert not ((m @ act_m - act_m @ m) % p).any()

    def compose(x, y):  # the opposite composition
        return y @ x % p

    return gr.graded_from_chunks(compose, np.eye(dim_m, dtype=np.int64), fulls,
                                 quot.group, p)


@pytest.fixture
def end_side_calls(monkeypatch):
    """Every call of clifford._end_crossed, as (arguments, result)."""
    calls, real = [], cl._end_crossed

    def recording(balg, quot, action, interior, gen, base=None):
        out = real(balg, quot, action, interior, gen, base)
        calls.append(((balg, quot, action, interior, gen), out))
        return out

    monkeypatch.setattr(cl, "_end_crossed", recording)
    return calls


# the catalog and the non-split blocks: GF(8) under C3 for F21 over C7 at
# p = 2, GF(4) under C2 for S3 over C3
REFERENCE_SCENARIOS = {s.name: s for s in wb.catalog()}
REFERENCE_SCENARIOS.update({
    f"F21-over-C7-block-{b}": wb.Scenario(
        name=f"F21-over-C7-block-{b}", p=2, degree=7,
        gens_g=["(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)"],
        gens_h=["(0 1 2 3 4 5 6)"], block=b)
    for b in (0, 1, 2)})
REFERENCE_SCENARIOS["S3-over-C3-block-0"] = wb.Scenario(
    name="S3-over-C3-block-0", p=2, degree=3, gens_g=["(0 1)", "(0 1 2)"],
    gens_h=["(0 1 2)"], block=0)


@pytest.mark.parametrize("name", sorted(REFERENCE_SCENARIOS))
def test_the_corner_is_the_induced_module_construction(name, end_side_calls):
    # build_E and local_residual at every local pointed group of the
    # scenario (SC2 at P and at Q) equal the induced-module construction
    # in structure constants, unit and grading
    pipe = wb.Pipeline(REFERENCE_SCENARIOS[name])
    ext = pipe.resolved().ext
    points = {pipe.pointed()[0].P.elements: pipe.pointed(),
              pipe.pointed(at_q=True)[0].P.elements: pipe.pointed(at_q=True)}
    for data, pt in points.values():
        e_data = pipe.fusion((data, pt))[1]
        cl.build_E(ext, data, pt, e_data)
        cl.local_residual(ext, data, pt, e_data, pipe.local_block((data, pt)))
    assert len(end_side_calls) == 2 * len(points)
    for args, out in end_side_calls:
        ref = _induced_module_reference(*args)
        assert np.array_equal(out.graded.alg.sc, ref.alg.sc)
        assert np.array_equal(out.graded.alg.unit, ref.alg.unit)
        assert np.array_equal(out.graded.deg, ref.deg)


def _truncate_reference(kg, quot, calls, e):
    """The cut t -> e t of every degreewise hom, computed on the whole
    module e B^P i one vector at a time and read off the primed hom basis;
    `calls` are the end-side calls of E and of the primed E."""
    p = kg.p
    homs, v_amb = [], []
    e_primed = calls[1][1]
    for (balg, _, action, _, gen), out in calls:
        v_rows, _, _, hom_bases = _twisted_homs(balg, quot, action, gen)
        homs.append(hom_bases)
        v_amb.append(v_rows @ out.base.rows % p)
    rows = []
    for d in range(quot.order):
        flat_primed = np.array([t.ravel() for t in homs[1][d]])
        for t in homs[0][d]:
            cols = []
            for r in v_amb[1]:
                c = gfp.coords_in_rows(v_amb[0], r, p)
                img = kg.mul(e, (t @ c.ravel()) @ v_amb[0] % p)
                cols.append(gfp.coords_in_rows(v_amb[1], img, p).ravel())
            tp = np.array(cols, dtype=np.int64).T
            coords = gfp.coords_in_rows(flat_primed, tp.ravel(), p)
            out = np.zeros(e_primed.dim, dtype=np.int64)
            out[e_primed.graded.deg == d] = coords.ravel()
            rows.append(out)
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("which", ["b", "i", "block cut"])
@pytest.mark.parametrize("name", ["SC1-S3-over-C3", "SC2-S4-over-A4"])
def test_the_truncation_map_is_the_cut_of_the_homs(name, which, end_side_calls):
    pipe = wb.Pipeline(REFERENCE_SCENARIOS[name])
    r = pipe.resolved()
    data, pt = at = pipe.pointed()
    cd, e_data, fg, theta = pipe.fusion(at)
    ecd = cl.build_E(r.ext, data, pt, e_data)
    fcd = pipe.clifford_f(at)
    i_in = data.span.coords(pt.idem)
    (cut,) = [c for c in al.central_idempotents(data.span.alg)
              if (data.span.alg.mul(c, i_in) == i_in).all()]
    e = {"b": r.b, "i": pt.idem,
         "block cut": np.mod(cut @ data.span.rows, r.kg.p)}[which]
    et = cl.embed_truncate(r.ext, data, pt, e_data, cd, fg, theta, ecd, fcd, e)
    assert et.diagram_commutes
    assert [out for _, out in end_side_calls] == [ecd, et.e_primed]
    want = _truncate_reference(r.kg, e_data.quot, end_side_calls, np.mod(e, r.kg.p))
    assert np.array_equal(et.e_map, want)


def test_the_end_side_certifies_the_corner_lemma(monkeypatch):
    # with one hom dropped, the values of a degree no longer span the
    # corner gen (B * E)_d gen, and the certificate says so
    real = cl.hom_space
    monkeypatch.setattr(cl, "hom_space", lambda m, n: real(m, n)[:-1])
    pipe = wb.Pipeline(REFERENCE_SCENARIOS["SC2-S4-over-A4"])
    data, pt = at = pipe.pointed()
    with pytest.raises(al.VerificationError, match="^the degree-0 homs are "
                       r"not a basis of the corner gen \(B \* E\)_d gen$"):
        cl.build_E(pipe.resolved().ext, data, pt, pipe.fusion(at)[1])


def test_diagonal_subgroup_of_a_product_scenario(s3_chain):
    s3 = s3_chain[0]
    ext, data, pt = s3_chain[4:7]
    report = cl.diagonal_tensor_check(ext, data, pt, ext, data, pt, s3, s3)
    assert report["common_pairs"] == 2
    assert report["isomorphic"]
    assert report["tensor_dims"] == report["diagonal_dims"]


def test_diagonal_tensor_check_refuses_past_the_cap_before_building(
        s3_chain, monkeypatch):
    # the tensor's dimension is predicted from its factors' components, so
    # a tensor above the cap is never built
    def refuse(*args, **kwargs):
        raise AssertionError("the tensor was built")

    monkeypatch.setattr(cl, "graded_tensor_diagonal", refuse)
    s3 = s3_chain[0]
    ext, data, pt = s3_chain[4:7]
    monkeypatch.setattr(cl, "TENSOR_DIM_CAP", 1)
    with pytest.raises(al.Inconclusive, match="exceeds the dimension cap 1"):
        cl.diagonal_tensor_check(ext, data, pt, ext, data, pt, s3, s3)


def test_graded_tensor_diagonal_matches_elementwise_products(s3_chain):
    # reference: e_a (x) e_b times e_c (x) e_d is the outer product of
    # e_a e_c and e_b e_d, read off at the basis positions (a', b')
    g = with_scanned_units(gr.graded_corner(s3_chain[4], s3_chain[4].b)[0])
    t = cl.graded_tensor_diagonal(g, g, [(0, 0), (1, 1)], g.group)
    basis = [(a, b) for k in range(2) for a in g.component_indices(k)
             for b in g.component_indices(k)]
    want = np.zeros_like(t.alg.sc)
    for i, (a, b) in enumerate(basis):
        for j, (c, d) in enumerate(basis):
            prod = np.outer(g.alg.sc[a, c], g.alg.sc[b, d]) % 3
            want[i, j] = [prod[x, y] for x, y in basis]
    assert t.component_dims() == [9, 9]
    assert (t.alg.sc == want).all()


def test_graded_map_check_survives_python_O():
    # python -O strips assert statements; _check_graded_map must still
    # refuse a map that is invertible, unital and degree-preserving but not
    # multiplicative: e_3 -> e_3 + e_4 inside the degree-1 component of kS3
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from blockfusion import blocks as bl, clifford as cl, gfp
        from blockfusion import graded as gr, permgroups as pg
        s3 = pg.enumerate_group(
            (pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)), 3)
        c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
        kg = bl.GroupAlgebra(s3, 3)
        ext = bl.block_extension(kg, c3, bl.blocks(kg, c3)[0])
        g, _ = gr.graded_corner(ext, ext.b)
        a = g.alg
        m = np.eye(6, dtype=np.int64)
        m[3, 4] = 1
        print("optimize", sys.flags.optimize)
        print("degrees", g.deg.tolist(), "unit", a.unit.tolist())
        print("invertible", gfp.is_invertible(m, 3))
        # rows of m are images: compare the image of each product with the
        # product of the images
        print("multiplicative", all((a.sc[i, j] @ m % 3 == a.mul(m[i], m[j])).all()
                                    for i in range(6) for j in range(6)))
        cl._check_graded_map(g, g, np.eye(6, dtype=np.int64))
        print("identity passed")
        try:
            cl._check_graded_map(g, g, m)
        except AssertionError as exc:
            print("refused:", exc)
    """)
    src = os.path.dirname(os.path.dirname(cl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1", "degrees [0, 0, 0, 1, 1, 1] unit [1, 0, 0, 0, 0, 0]",
        "invertible True", "multiplicative False", "identity passed",
        "refused: map is not a unital algebra map"]


def test_comparison_and_truncation_checks_survive_python_O():
    # python -O strips assert statements; psi_iso must still refuse a
    # degree map with two targets swapped and a Theta over other pairs,
    # and embed_truncate an element that is not idempotent
    script = textwrap.dedent("""
        import dataclasses, sys
        from blockfusion import blocks as bl, clifford as cl, fusion as fu
        from blockfusion import permgroups as pg
        s3 = pg.enumerate_group(
            (pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)), 3)
        c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
        kg = bl.GroupAlgebra(s3, 3)
        b = bl.blocks(kg, c3)[0]
        ext = bl.block_extension(kg, c3, b)
        data = bl.points_at(kg, c3, b, c3)
        (pt,) = data.points
        cd, e_data, fg, theta = fu.fusion_report(ext, data, pt, s3)
        ecd = cl.build_E(ext, data, pt, e_data)
        fcd = cl.build_F(ext, data, cd, fg)
        print("optimize", sys.flags.optimize)
        cl.psi_iso(ext, pt, ecd, fcd, theta)
        print("clean run passed", theta.degree_map)
        swapped = dataclasses.replace(theta, degree_map=theta.degree_map[::-1])
        other = dataclasses.replace(theta, fusion=dataclasses.replace(
            theta.fusion, pairs=theta.fusion.pairs[::-1]))
        for check in (
                lambda: cl.psi_iso(ext, pt, ecd, fcd, swapped),
                lambda: cl.psi_iso(ext, pt, ecd, fcd, other),
                lambda: cl.embed_truncate(ext, data, pt, e_data, cd, fg, theta,
                                          ecd, fcd, 2 * b % 3)):
            try:
                check()
                print("passed")
            except AssertionError as exc:
                print("refused:", exc)
    """)
    src = os.path.dirname(os.path.dirname(cl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1", "clean run passed [0, 1]",
        "refused: image misses the matching pair component",
        "refused: the corner side is graded by pairs other than Theta's image",
        "refused: truncating element is not idempotent"]


def factor_set_on(g, units):
    """The factor set of g on other units, one per degree, certified."""
    h = gr.GradedAlgebra(g.alg, g.group, g.deg)
    h.verify_units([u[g.deg == d] for d, u in enumerate(units)], "chosen unit")
    return gr.factor_set(h)


@pytest.mark.parametrize("name", sorted(REFERENCE_SCENARIOS))
def test_carried_and_scanned_units_give_equivalent_factor_sets(name):
    # the residuals read the units their builders certified; a factor set
    # depends on the units, its class does not: on every residual (E, F and
    # local, SC2 at P and at Q) the factor set on the carried units is
    # equivalent to those on the units homogeneous_unit scans for and on
    # these times the last unit c of the 1-component (c = 1 over GF(2))
    pipe = wb.Pipeline(REFERENCE_SCENARIOS[name])
    ext = pipe.resolved().ext
    points = {pipe.pointed()[0].P.elements: pipe.pointed(),
              pipe.pointed(at_q=True)[0].P.elements: pipe.pointed(at_q=True)}
    for data, pt in points.values():
        e_data = pipe.fusion((data, pt))[1]
        for res in (cl.residual(cl.build_E(ext, data, pt, e_data)),
                    pipe.residual_f((data, pt)),
                    cl.local_residual(ext, data, pt, e_data,
                                      pipe.local_block((data, pt)))):
            g = res.graded
            scanned = np.array([gr.homogeneous_unit(g, d)
                                for d in range(g.group.order)])
            one = g.identity_span()
            c = one.lift(list(al.iter_units(one.alg))[-1])
            for units in (scanned, g.alg.mul(c, scanned)):
                assert gr.factor_sets_equivalent(
                    res.factor_data, factor_set_on(g, units)) is not None


# -- the local residual on z Q against the maximal-ideal quotient --------------


def _max_ideal_local_residual(ext, e_data, lbd):
    """The local residual built the long way: the quotient of the block
    B(P) b_delta by its maximal ideal M, the radical plus the simple
    components that Br(i) does not hit, whose simple components are
    derived again.  Returns (residual, dim M)."""
    p = ext.kg.p
    span = lbd.block_span
    ssq = span.alg.semisimple_quotient()
    eye = np.eye(ssq.alg.dim, dtype=np.int64)
    chunks = [span.alg.radical_rows()]
    for cp in span.alg.simple_components():
        if cp.index != lbd.component.index:
            ideal = gfp.row_basis(ssq.alg.mul(cp.central_idempotent, eye), p)
            chunks.append(ideal @ ssq.section % p)
    max_ideal = gfp.row_basis(np.vstack(chunks), p)
    quo = span.alg.quotient_by_ideal(max_ideal)
    action, interior = cl._interior_action(ext.kg, e_data.quot, span, lbd.b_gamma)
    acts = quo.proj @ np.array(list(action.values())) @ quo.section.T % p
    (comp,) = quo.alg.simple_components()
    out = cl._end_crossed(quo.alg, e_data.quot, dict(zip(action, acts)),
                          {c: quo.project(v) for c, v in interior.items()},
                          comp.primitive_bar)
    out.factor_data = gr.factor_set(out.graded)
    return out, max_ideal.shape[0]


S4_GENS, A4_GENS = ["(0 1)", "(0 1 2 3)"], ["(0 1 2)", "(1 2 3)"]
# P trivial: B(P) b_delta is kA4 over GF(2), whose simple components are
# GF(2) and GF(4), one for each of its two local points
KA4_TRIVIAL_P = wb.Scenario(name="S4-over-A4-p2-trivial-P", p=2, degree=4,
                            gens_g=S4_GENS, gens_h=A4_GENS, subgroup=["()"])
LOCAL_SCENARIOS = dict(REFERENCE_SCENARIOS)
LOCAL_SCENARIOS.update({s.name: s for s in (
    wb.Scenario(name="S3-over-S3-p2-block-0", p=2, degree=3,
                gens_g=["(0 1)", "(0 1 2)"], gens_h=["(0 1)", "(0 1 2)"], block=0),
    *(wb.Scenario(name=f"S4-over-S4-p3-block-{b}", p=3, degree=4,
                  gens_g=S4_GENS, gens_h=S4_GENS, block=b) for b in (0, 1)),
    wb.Scenario(name="S4-over-A4-p3", p=3, degree=4, gens_g=S4_GENS,
                gens_h=A4_GENS),
    wb.Scenario(name="S4-over-V4-p2", p=2, degree=4, gens_g=S4_GENS,
                gens_h=["(0 1)(2 3)", "(0 2)(1 3)"]),
    KA4_TRIVIAL_P)})


@pytest.mark.parametrize("name", sorted(LOCAL_SCENARIOS))
def test_the_local_residual_on_z_q_is_the_maximal_ideal_quotient(name):
    # at every local point of P (and of Q, for SC2) the residual on the
    # corner z Q matches the one on B(P) b_delta / M, and the component's
    # dimension is that of the quotient
    pipe = wb.Pipeline(LOCAL_SCENARIOS[name])
    ext = pipe.resolved().ext
    groups = {pipe.pointed(q)[0].P.elements: pipe.pointed(q)[0]
              for q in (False, True)}
    for data in groups.values():
        for pt in [pt for pt in data.points if pt.local]:
            e_data, lbd = pipe.fusion((data, pt))[1], pipe.local_block((data, pt))
            old, dim_m = _max_ideal_local_residual(ext, e_data, lbd)
            new = cl.local_residual(ext, data, pt, e_data, lbd)
            assert cl.residuals_match(old, new)
            assert lbd.component.component_dim == lbd.block_span.alg.dim - dim_m


def test_each_point_of_ka4_hits_its_own_component():
    pipe = wb.Pipeline(KA4_TRIVIAL_P)
    data = pipe.pointed()[0]
    assert [pt.local for pt in data.points] == [True, True]
    lbds = [pipe.local_block((data, pt)) for pt in data.points]
    assert all(len(lbd.block_span.alg.simple_components()) == 2 for lbd in lbds)
    assert sorted((lbd.component.index, lbd.component.end_field_degree)
                  for lbd in lbds) == [(0, 1), (1, 2)]


def _two_component_mutant():
    """The local block data of KA4_TRIVIAL_P's first point with z the sum
    of both central idempotents, so z Q is GF(2) x GF(4), not simple."""
    pipe = wb.Pipeline(KA4_TRIVIAL_P)
    at = pipe.pointed()
    lbd = pipe.local_block(at)
    z = sum(cp.central_idempotent for cp in lbd.block_span.alg.simple_components())
    mutant = dataclasses.replace(lbd, component=dataclasses.replace(
        lbd.component, central_idempotent=z % 2))
    return pipe.resolved().ext, at, pipe.fusion(at)[1], lbd, mutant


def test_the_centre_check_refuses_a_sum_of_two_components():
    ext, (data, pt), e_data, lbd, mutant = _two_component_mutant()
    assert lbd.component.end_field_degree == 1
    cl.local_residual(ext, data, pt, e_data, lbd)
    with pytest.raises(al.VerificationError, match="^the local quotient is not "
                       "simple: its centre has dimension 3, not 1$"):
        cl.local_residual(ext, data, pt, e_data, mutant)


def test_the_centre_check_survives_python_O():
    # python -O strips assert statements; local_residual must still refuse
    # a z that is the sum of two simple components
    script = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        from blockfusion import clifford as cl
        from test_clifford import _two_component_mutant
        ext, (data, pt), e_data, lbd, mutant = _two_component_mutant()
        print("optimize", sys.flags.optimize)
        cl.local_residual(ext, data, pt, e_data, lbd)
        print("clean run passed")
        try:
            cl.local_residual(ext, data, pt, e_data, mutant)
            print("passed")
        except AssertionError as exc:
            print("refused:", exc)
    """)
    src = os.path.dirname(os.path.dirname(cl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script, os.path.dirname(__file__)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1", "clean run passed",
        "refused: the local quotient is not simple: its centre has dimension 3, not 1"]


def test_the_local_residual_quotients_by_no_ideal(monkeypatch, s3_chain):
    # the local block already holds Q = B(P) b_delta / J and its simple
    # components; the local residual cuts Q by z instead of forming a quotient
    kg, b, ext, data, pt = s3_chain[2:7]
    lbd = bl.local_block_data(kg, s3_chain[1], b, data, pt)
    re = cl.residual(s3_chain[11])

    def refuse(*args):
        raise AssertionError("local_residual formed a quotient")

    monkeypatch.setattr(al.Algebra, "quotient_by_ideal", refuse)
    monkeypatch.setattr(al, "_simple_components", refuse)
    assert cl.residuals_match(re, cl.local_residual(ext, data, pt, s3_chain[8], lbd))
