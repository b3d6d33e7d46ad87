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
from blockfusion import permgroups as pg
from blockfusion import workbench as wb


def s3_over_c3():
    s3 = pg.enumerate_group(
        (pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)), 3)
    c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
    kg = bl.GroupAlgebra(s3, 3)
    b = bl.blocks(kg, c3)[0]
    ext = bl.block_extension(kg, c3, b)
    return s3, c3, kg, b, ext


def test_aut_gbar_matches_its_loop_definition():
    # S4 / V4 is S3, so conjugation in the quotient needs the true inverse
    s4 = pg.enumerate_group([pg.parse_cycles("(0 1)", 4),
                             pg.parse_cycles("(0 1 2 3)", 4)], 4)
    v4 = pg.enumerate_group([pg.parse_cycles("(0 1)(2 3)", 4),
                             pg.parse_cycles("(0 2)(1 3)", 4)], 4)
    quot = pg.quotient(s4, v4)
    t = quot.group
    for P in pg.p_subgroups(s4, 2):
        want = [(phi, g) for phi in pg.aut_group(P) for g in range(t.order)
                if all(quot.omega_of(P.elements[phi[k]])
                       == t.mul(t.mul(g, quot.omega_of(u)), t.inv(g))
                       for k, u in enumerate(P.elements))]
        assert fu.aut_gbar(quot, P) == want


def test_aut_gbar_splits_for_central_quotient():
    # P = C3 inside H, Gbar = C2: every (phi, gbar) is compatible,
    # so the pair group is Aut(C3) x Gbar of order 4
    s3, c3, kg, b, ext = s3_over_c3()
    pairs = fu.aut_gbar(ext.quot, c3)
    assert len(pairs) == 4
    degrees = sorted(g for _, g in pairs)
    assert degrees == [0, 0, 1, 1]


def test_pair_table_is_a_group():
    s3, c3, kg, b, ext = s3_over_c3()
    pairs = fu.aut_gbar(ext.quot, c3)
    table = fu.pair_table(pairs, ext.quot.group)
    table.validate()
    assert table.order == 4


def test_fusion_report_s3_over_c3():
    s3, c3, kg, b, ext = s3_over_c3()
    data = bl.points_at(kg, c3, b, c3)
    (pt,) = data.points
    cd, e_data, f, theta = fu.fusion_report(ext, data, pt, s3)
    assert e_data.quot.order == 2
    assert f.order == 2
    # one pair per degree of Gbar
    assert sorted(g for _, g in f.pairs) == [0, 1]
    # witnesses really are the recorded pairs
    for (phi, gbar), w in f.witnesses.items():
        assert cd.graded.degree_of(w) == gbar


def test_fusion_at_trivial_subgroup_is_gbar():
    s3, c3, kg, b, ext = s3_over_c3()
    one = pg.from_elements([pg.identity_perm(3)], 3)
    data = bl.points_at(kg, c3, b, one)
    (pt,) = data.points
    assert pt.local
    e_data = fu.fusion_E(kg, c3, data, pt, s3)
    assert e_data.quot.order == ext.quot.order == 2


def test_classical_fusion_gbar_trivial():
    # G = H = S3 at p = 3: Gbar = 1, so F lives entirely in degree 0 and
    # reduces to N_G(P_gamma)/C_G(P) acting on P = C3 by conjugation
    s3 = pg.enumerate_group(
        (pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)), 3)
    c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
    kg = bl.GroupAlgebra(s3, 3)
    bs = bl.blocks(kg, s3)
    b = next(x for x in bs if bl.is_principal_block(kg, x))
    ext = bl.block_extension(kg, s3, b)
    assert ext.quot.order == 1
    data = bl.points_at(kg, s3, b, c3)
    loc = [p for p in data.points if p.local]
    assert len(loc) == 1
    cd, e_data, f, theta = fu.fusion_report(ext, data, loc[0], s3)
    assert f.order == 2
    assert all(g == 0 for _, g in f.pairs)


def test_fusion_s4_over_a4_at_klein_four():
    s4 = pg.enumerate_group(
        (pg.parse_cycles("(0 1)", 4), pg.parse_cycles("(0 1 2 3)", 4)), 4)
    a4 = pg.enumerate_group(
        (pg.parse_cycles("(0 1 2)", 4), pg.parse_cycles("(0 1)(2 3)", 4)), 4)
    v4 = pg.enumerate_group(
        (pg.parse_cycles("(0 1)(2 3)", 4), pg.parse_cycles("(0 2)(1 3)", 4)), 4)
    kg = bl.GroupAlgebra(s4, 2)
    (b,) = bl.invariant_blocks(kg, a4)
    ext = bl.block_extension(kg, a4, b)
    data = bl.points_at(kg, a4, b, v4)
    (pt,) = data.points
    assert pt.local
    cd, e_data, f, theta = fu.fusion_report(ext, data, pt, s4)
    # N_G(V4) = S4, C_H(V4) = V4, so E = S4/V4 of order 6; F matches
    assert e_data.quot.order == 6
    assert f.order == 6
    # nonabelian: some pair composition must not commute
    t = f.table
    assert any(t.mul(i, j) != t.mul(j, i)
               for i in range(t.order) for j in range(t.order))


def test_corner_refuses_non_injective_structural_map():
    # the dimension-one block of kC3 over GF(2) collapses the group to 1,
    # so u -> u i is not injective on C3
    c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
    kg = bl.GroupAlgebra(c3, 2)
    bs = bl.blocks(kg, c3)
    b = next(x for x in bs if bl.block_ideal_dim(kg, c3, x) == 1)
    ext = bl.block_extension(kg, c3, b)
    data = bl.points_at(kg, c3, b, c3)
    (pt,) = data.points
    with pytest.raises(ValueError, match="injective"):
        fu.corner_data(ext, data, pt)


def test_theta_witness_conjugates_like_its_group_element():
    s3, c3, kg, b, ext = s3_over_c3()
    data = bl.points_at(kg, c3, b, c3)
    (pt,) = data.points
    cd, e_data, f, theta = fu.fusion_report(ext, data, pt, s3)
    for g, (phi, gbar) in theta.pair_of_rep.items():
        for k, u in enumerate(c3.elements):
            assert pg.pconj(g, u) == c3.elements[phi[k]]
        assert ext.quot.omega_of(g) == gbar


def test_oracle_comparison_survives_python_O():
    # python -O strips assert statements; fusion_report must still compare
    # the direct F with the normalizer F and refuse a dropped pair
    script = textwrap.dedent("""
        import sys
        from blockfusion import blocks as bl, fusion as fu, permgroups as pg
        s3 = pg.enumerate_group(
            (pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)), 3)
        c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
        kg = bl.GroupAlgebra(s3, 3)
        b = bl.blocks(kg, c3)[0]
        ext = bl.block_extension(kg, c3, b)
        data = bl.points_at(kg, c3, b, c3)
        (pt,) = data.points
        print("optimize", sys.flags.optimize)
        fu.fusion_report(ext, data, pt, s3)
        print("clean run passed")
        real = fu.fusion_F_normalizer

        def drop_a_pair(ext, cd):
            f = real(ext, cd)
            return fu.FusionGroup(f.pairs[1:], f.table, f.witnesses)

        fu.fusion_F_normalizer = drop_a_pair
        try:
            fu.fusion_report(ext, data, pt, s3)
        except AssertionError as exc:
            print("refused:", exc)
    """)
    src = os.path.dirname(os.path.dirname(fu.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines == ["optimize 1", "clean run passed",
                     "refused: direct and normalizer F disagree"]


def test_pair_table_refuses_a_set_that_is_not_closed():
    s3, c3, kg, b, ext = s3_over_c3()
    pairs = sorted(fu.aut_gbar(ext.quot, c3))
    ident = (tuple(range(c3.order)), 0)
    open_set = [pr for pr in pairs if pr != ident]  # loses the identity
    with pytest.raises(al.VerificationError,
                       match="pair set is not closed under composition"):
        fu.pair_table(open_set, ext.quot.group)


def reference_intertwiners(cd, phi, gbar):
    """W(phi, gbar) from the conditions at every element of P."""
    a = cd.graded.alg
    p = a.p
    comp = cd.graded.component_rows(gbar)
    system = np.vstack([
        (a.right_mult(cd.p_images[u])
         - a.left_mult(cd.p_images[cd.P.elements[phi[k]]])) @ comp.T % p
        for k, u in enumerate(cd.P.elements)])
    return gfp.row_basis(gfp.nullspace(system, p).T @ comp % p, p)


@pytest.fixture(scope="module")
def catalog_corners():
    """(scenario name, Pipeline, (data, point)) at P and, where given, at Q."""
    out = []
    for s in wb.catalog():
        pipe = wb.Pipeline(s)
        for at_q in ((False, True) if s.q is not None else (False,)):
            out.append((s.name, pipe, pipe.pointed(at_q=at_q)))
    return out


def test_intertwiners_from_generators_equal_those_from_all_of_P(catalog_corners):
    checked = 0
    for name, pipe, at in catalog_corners:
        cd, _, fg, _ = pipe.fusion(at)
        fcd = pipe.clifford_f(at)
        # build_F's components are the reference spaces over all of P
        assert len(fcd.chunk_rows) == len(fg.pairs)
        for (phi, gbar), chunk in zip(fg.pairs, fcd.chunk_rows):
            assert np.array_equal(chunk, reference_intertwiners(cd, phi, gbar)), name
        # and so is every candidate pair's space, unit or not
        for phi, gbar in fu.aut_gbar(pipe.resolved().ext.quot, cd.P):
            assert np.array_equal(cd.intertwiners(phi, gbar),
                                  reference_intertwiners(cd, phi, gbar)), name
            checked += 1
    assert checked == 1 + 4 + 12 + 2 + 2 + 8  # SC0, SC1, SC2 at P and Q, SC3, SC4


def test_each_intertwiner_space_is_built_once_and_reused(monkeypatch):
    sc2 = next(s for s in wb.catalog() if s.name.startswith("SC2"))
    pipe = wb.Pipeline(sc2)
    ext, at = pipe.resolved().ext, pipe.pointed()
    calls = []
    real = fu.intertwiner_rows
    monkeypatch.setattr(fu, "intertwiner_rows",
                        lambda *args: calls.append(args) or real(*args))
    cd = fu.corner_data(ext, *at)
    fg = fu.fusion_F_direct(ext, cd)
    assert len(calls) == len(fu.aut_gbar(ext.quot, cd.P)) == 12
    cl.build_F(ext, at[0], cd, fg)
    assert len(calls) == 12


def test_normalizer_oracle_builds_no_intertwiner_space(monkeypatch):
    s3, c3, kg, b, ext = s3_over_c3()
    data = bl.points_at(kg, c3, b, c3)
    cd = fu.corner_data(ext, data, data.points[0])

    def refuse(*args):
        raise RuntimeError("the oracle must stay independent")

    monkeypatch.setattr(fu, "intertwiner_rows", refuse)
    monkeypatch.setattr(al, "intertwiner_rows", refuse)
    monkeypatch.setattr(fu.CornerData, "intertwiners", refuse)
    assert fu.fusion_F_normalizer(ext, cd).order == 2


def test_theta_degree_map_indexes_the_pairs_of_each_representative(catalog_corners):
    for name, pipe, at in catalog_corners:
        _, e_data, fg, theta = pipe.fusion(at)
        assert theta.fusion.pairs == fg.pairs
        assert theta.degree_map == [fg.pairs.index(theta.pair_of_rep[g])
                                    for g in e_data.quot.reps], name


def test_theta_checks_survive_python_O():
    # python -O strips assert statements; Theta must still refuse a
    # representative set that repeats a coset, and a broken E table
    script = textwrap.dedent("""
        import dataclasses, sys
        import numpy as np
        from blockfusion import blocks as bl, fusion as fu, permgroups as pg
        s3 = pg.enumerate_group(
            (pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)), 3)
        c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
        kg = bl.GroupAlgebra(s3, 3)
        b = bl.blocks(kg, c3)[0]
        ext = bl.block_extension(kg, c3, b)
        data = bl.points_at(kg, c3, b, c3)
        (pt,) = data.points
        print("optimize", sys.flags.optimize)
        cd, e_data, f, theta = fu.fusion_report(ext, data, pt, s3)
        print("clean run passed", theta.degree_map)
        quot = e_data.quot
        tampered = [
            # (0 1 2) lies in the coset of the identity
            dataclasses.replace(quot, reps=(quot.reps[0], c3.elements[1])),
            dataclasses.replace(quot, group=pg.GroupTable(
                np.array([[0, 1], [1, 1]]), quot.group.labels)),
        ]
        for q in tampered:
            try:
                fu.theta_check(ext, data, pt, cd,
                               dataclasses.replace(e_data, quot=q))
                print("passed")
            except AssertionError as exc:
                print("refused:", exc)
    """)
    src = os.path.dirname(os.path.dirname(fu.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1", "clean run passed [0, 1]",
        "refused: Theta is not injective on E",
        "refused: Theta is not multiplicative"]


def test_defect_corrects_the_product_of_two_representatives():
    # r_d r_e = defect(d, e) r_{de} with the defect in H, for every catalog
    # G/H and every E = N_G(P_gamma)/C_H(P) at a local pointed group; the
    # representatives of A4/V4 and S4/V4 form no subgroup, and some of
    # their defects do not commute with r_{de}, so the order of the product
    # is tested too
    v4 = pg.enumerate_group([pg.parse_cycles("(0 1)(2 3)", 4),
                             pg.parse_cycles("(0 2)(1 3)", 4)], 4)
    quots = [pg.quotient(pg.enumerate_group([pg.parse_cycles(c, 4) for c in gens], 4), v4)
             for gens in (["(0 1 2)", "(1 2 3)"], ["(0 1)", "(0 1 2 3)"])]
    for s in wb.catalog():
        r = wb.resolve_scenario(s)
        quots.append(r.ext.quot)
        quots += [fu.fusion_E(r.kg, r.h, data, pt, r.g).quot
                  for data, pt in bl.local_pointed_groups(r.kg, r.h, r.b, r.g)]
    assert len(quots) == 2 + 5 + 38
    for quot in quots:
        for d in range(quot.order):
            for e in range(quot.order):
                c = quot.defect(d, e)
                assert c in quot.h
                assert pg.pmul(quot.reps[d], quot.reps[e]) == \
                    pg.pmul(c, quot.reps[quot.group.mul(d, e)])
