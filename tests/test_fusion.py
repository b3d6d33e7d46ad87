import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from blockfusion import blocks as bl
from blockfusion import fusion as fu
from blockfusion import permgroups as pg


def s3_over_c3():
    s3 = pg.enumerate_group(
        (pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)), 3)
    c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
    kg = bl.GroupAlgebra(s3, 3)
    b = bl.blocks(kg, c3)[0]
    ext = bl.block_extension(kg, c3, b)
    return s3, c3, kg, b, ext


def test_aut_gbar_splits_for_central_quotient():
    # P = C3 inside H, Gbar = C2: every (phi, gbar) is compatible,
    # so the pair group is Aut(C3) x Gbar of order 4
    s3, c3, kg, b, ext = s3_over_c3()
    pairs = fu.aut_gbar(ext.quot, c3)
    assert len(pairs) == 4
    degrees = sorted(g for _, g in pairs)
    assert degrees == [0, 0, 1, 1]


def test_int_gbar_abelian_p_gives_identity_times_gbar():
    s3, c3, kg, b, ext = s3_over_c3()
    pairs = fu.int_gbar(ext.quot, c3)
    ident = tuple(range(c3.order))
    assert sorted(pairs) == [(ident, 0), (ident, 1)]


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
