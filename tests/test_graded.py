import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfusion import algebra as alg
from blockfusion import blocks as bl
from blockfusion import gfp
from blockfusion import graded as gr
from blockfusion import permgroups as pg
from blockfusion import workbench as wb

from test_algebra import FIELDS, all_units, polynomial_field, random_invertible, rebased


def grp(degree, *cycles):
    gens = tuple(pg.parse_cycles(c, degree) for c in cycles)
    return pg.enumerate_group(gens, degree)


S3 = grp(3, "(0 1)", "(0 1 2)")
C3 = grp(3, "(0 1 2)")


def crossed_by_conjugation(g, n, p):
    """kN * G/N with G acting on kN by conjugation and N by its elements."""
    kn = bl.GroupAlgebra(n, p)
    action = {}
    for x in g.elements:
        m = np.zeros((n.order, n.order), dtype=np.int64)
        for i, h in enumerate(n.elements):
            m[kn.index(pg.pconj(x, h)), i] = 1
        action[x] = m
    interior = {c: kn.vec_of(c) for c in n.elements}
    kn_alg = kn.span(np.eye(kn.n, dtype=np.int64)).alg
    return gr.crossed_product(kn_alg, pg.quotient(g, n), action, interior)


def sc1_graded():
    kg = bl.GroupAlgebra(S3, 3)
    b = bl.blocks(kg, C3)[0]
    ext = bl.block_extension(kg, C3, b)
    return kg, ext, gr.graded_corner(ext, ext.b)


def with_scanned_units(g):
    """g carrying the units that homogeneous_unit scans for, certified."""
    g.verify_units([gr.homogeneous_unit(g, d)[g.deg == d]
                    for d in range(g.group.order)], "scanned unit")
    return g


def twisted_c2_over_gf3(alpha_ss):
    """GF(3)^alpha[C2] with x^2 = alpha_ss, carrying the units 1 and x."""
    sc = np.zeros((2, 2, 2), dtype=np.int64)
    sc[0, 0, 0] = 1
    sc[0, 1, 1] = 1
    sc[1, 0, 1] = 1
    sc[1, 1, 0] = alpha_ss
    table = pg.GroupTable(np.array([[0, 1], [1, 0]]), (0, 1))
    g = gr.GradedAlgebra(alg.Algebra(3, sc, np.array([1, 0])), table, np.array([0, 1]))
    g.verify_units([[1], [1]], "element x_d")
    return g


def test_graded_from_extension_valid():
    _, ext, (g, span) = sc1_graded()
    g.validate()
    assert g.component_dims() == [3, 3]
    assert g.units is None
    with_scanned_units(g)  # the corner of SC1 is a crossed product
    assert (span.lift(g.alg.unit) == ext.b).all()


def test_degree_of():
    _, _, (g, _) = sc1_graded()
    e0 = np.eye(6, dtype=np.int64)
    assert g.degree_of(e0[0]) == 0
    assert g.degree_of(e0[3]) == 1
    assert g.degree_of((e0[0] + e0[3]) % 3) is None
    assert g.degree_of(np.zeros(6, dtype=np.int64)) == 0


def test_graded_corner_of_full_unit_is_whole():
    kg, ext, (g, span) = sc1_graded()
    assert g.component_dims() == [len(ext.component_rows(d)) for d in range(2)]
    assert (gfp.row_basis(span.rows, 3) == gfp.row_basis(ext.rows, 3)).all()


C2_TABLE = pg.GroupTable(np.array([[0, 1], [1, 0]]), (0, 1))


def test_graded_from_chunks_refuses_a_product_that_leaves_its_degree():
    # kC4 graded by C2: the pieces span{1, g^2}, span{g, g^3} are a grading,
    # span{1, g}, span{g^2, g^3} are not, since g * g leaves degree 0
    c4 = grp(4, "(0 1 2 3)")
    kg = bl.GroupAlgebra(c4, 3)
    g = c4.generators[0]
    powers = [pg.identity_perm(4), g, pg.pmul(g, g), pg.pmul(g, pg.pmul(g, g))]
    vecs = np.array([kg.vec_of(x) for x in powers])
    good = gr.graded_from_chunks(kg.mul, kg.unit, [vecs[[0, 2]], vecs[[1, 3]]],
                                 C2_TABLE, 3)
    assert good.component_dims() == [2, 2] and (good.alg.unit == [1, 0, 0, 0]).all()
    with pytest.raises(ValueError, match="a product of degrees 0 and 0 leaves "
                                         "the degree-0 piece"):
        gr.graded_from_chunks(kg.mul, kg.unit, [vecs[[0, 1]], vecs[[2, 3]]],
                              C2_TABLE, 3)


def test_graded_corner_is_the_single_solve_over_its_stacked_rows():
    # reference: one structure_constants call of the stacked pieces of iAi
    # in themselves, at every local pointed group of the catalog
    checked = 0
    for s in wb.catalog():
        r = wb.resolve_scenario(s)
        kg, p = r.kg, r.kg.p
        for _, pt in bl.local_pointed_groups(r.kg, r.h, r.b, r.g):
            g, span = gr.graded_corner(r.ext, pt.idem)
            pieces = [gfp.row_basis(kg.mul(kg.mul(pt.idem, r.ext.component_rows(d)),
                                           pt.idem), p)
                      for d in range(r.ext.quot.order)]
            rows = np.vstack(pieces)
            assert np.array_equal(span.rows, rows), s.name
            assert span.alg is g.alg
            assert np.array_equal(g.alg.sc, alg.structure_constants(rows, rows, rows,
                                                                    kg.mul, p))
            assert np.array_equal(g.alg.unit, gfp.coords_in_rows(rows, pt.idem, p)[0])
            assert np.array_equal(g.deg, np.repeat(np.arange(len(pieces)),
                                                   [len(c) for c in pieces]))
            checked += 1
    assert checked == 38


def test_homogeneous_unit():
    _, _, (g, _) = sc1_graded()
    assert (gr.homogeneous_unit(g, 0) == g.alg.unit).all()
    u = gr.homogeneous_unit(g, 1)
    assert u is not None
    assert g.degree_of(u) == 1 and g.alg.is_unit_element(u)


def test_graded_radical_quotient_dims():
    # J(kC3) has dim 2 per component: 6 - 4 = 2
    _, _, (g, _) = sc1_graded()
    q, proj, section = gr.graded_radical_quotient(with_scanned_units(g))
    assert q.component_dims() == [1, 1]
    q.validate()
    # projection is an algebra map
    for i in range(6):
        for j in range(6):
            x = np.eye(6, dtype=np.int64)[i]
            y = np.eye(6, dtype=np.int64)[j]
            lhs = (proj @ g.alg.mul(x, y)) % 3
            rhs = q.alg.mul((proj @ x) % 3, (proj @ y) % 3)
            assert (lhs == rhs).all()


def test_graded_radical_quotient_semisimple_unchanged_dim():
    t = twisted_c2_over_gf3(1)
    q, _, _ = gr.graded_radical_quotient(t)
    assert q.alg.dim == t.alg.dim


def test_factor_set_trivial_for_group_algebra():
    # k[C2] graded by itself: alpha is identically 1
    t = twisted_c2_over_gf3(1)
    fs = gr.factor_set(t)
    for d in range(2):
        for e in range(2):
            assert (fs.alpha[d, e] == fs.component.unit).all()


def test_factor_set_extracts_twist():
    fs = gr.factor_set(twisted_c2_over_gf3(2))
    assert (fs.alpha[1, 1] == np.array([2])).all()


def test_factor_set_matches_its_loop_definition():
    # A4 acts on kV4 by 3-cycles, so the action matrices are not symmetric
    a4 = grp(4, "(0 1 2)", "(1 2 3)")
    v4 = grp(4, "(0 1)(2 3)", "(0 2)(1 3)")
    for g in (sc1_graded()[2][0], crossed_by_conjugation(a4, v4, 2),
              crossed_by_conjugation(S3, C3, 2)):
        a, n = g.alg, g.group.order
        units = [gr.homogeneous_unit(g, d) for d in range(n)]
        fs = gr.factor_set(with_scanned_units(g))
        ispan = g.identity_span()
        for d in range(n):
            uinv = a.inverse_element(units[d])
            for k, row in enumerate(ispan.rows):
                conj = a.mul(a.mul(units[d], row), uinv)
                assert (fs.action[d, :, k] == ispan.coords(conj)).all()
            for e in range(n):
                de = g.group.mul(d, e)
                val = a.mul(a.mul(units[d], units[e]), a.inverse_element(units[de]))
                assert (fs.alpha[d, e] == ispan.coords(val)).all()


def test_factor_sets_equivalence_vs_twist():
    # H^2(C2, GF(3)^x) has order 2: 1 and 2 are inequivalent
    f1 = gr.factor_set(twisted_c2_over_gf3(1))
    f2 = gr.factor_set(twisted_c2_over_gf3(2))
    assert gr.factor_sets_equivalent(f1, f1)
    assert gr.factor_sets_equivalent(f2, f2)
    assert not gr.factor_sets_equivalent(f1, f2)


def test_factor_sets_equivalent_different_unit_choice():
    t = twisted_c2_over_gf3(1)
    fs1 = gr.factor_set(t)
    t.verify_units([[1], [2]], "element 2 x_d")
    fs2 = gr.factor_set(t)
    assert gr.factor_sets_equivalent(fs1, fs2)


def test_graded_iso_search_matches_factor_set_verdicts():
    t1 = twisted_c2_over_gf3(1)
    t2 = twisted_c2_over_gf3(2)
    assert gr.graded_iso_search(t1, t1) is not None
    assert gr.graded_iso_search(t1, t2) is None


def test_crossed_product_reconstructs_group_algebra():
    # kC3 * C2 with S3 acting by conjugation is kS3 with its C2-grading:
    # x u_d -> x r_d, r_d the representative of degree d, is a graded
    # isomorphism
    kg, _, (g, span) = sc1_graded()
    cp = crossed_by_conjugation(S3, C3, 3)
    assert cp.alg.dim == 6
    assert cp.component_dims() == [3, 3]
    images = [kg.mul(kg.vec_of(x), kg.vec_of(r))
              for r in pg.quotient(S3, C3).reps for x in C3.elements]
    gr._check_graded_map(cp, g, span.coords(np.array(images)))


def test_crossed_product_trivial_group_is_base():
    cp = crossed_by_conjugation(C3, C3, 3)
    assert cp.alg.dim == 3 and cp.group.order == 1


def test_crossed_product_above_the_scan_cap_checks_its_own_units():
    # kC21 * C2 inside the dihedral group of order 42 at p = 2: a scan of a
    # component covers 2^21 elements, above the cap, so only the units
    # 1 (x) x_d that crossed_product certified can give the radical
    # quotient and the factor sets
    rotation = "(" + " ".join(map(str, range(21))) + ")"
    reflection = "".join(f"({i} {21 - i})" for i in range(1, 11))
    d42 = grp(21, rotation, reflection)
    c21 = grp(21, rotation)
    assert d42.order == 42 and 2**21 > alg.EXHAUSTIVE_CAP
    cp = crossed_by_conjugation(d42, c21, 2)
    assert cp.component_dims() == [21, 21]
    with pytest.raises(alg.Inconclusive):
        gr.homogeneous_unit(cp, 1)
    # 21 is odd, so kC21 is semisimple and the quotient is cp itself
    q, proj, _ = gr.graded_radical_quotient(cp)
    assert q.component_dims() == [21, 21]
    assert (q.units == cp.units @ proj.T % 2).all()
    for g in (cp, q):
        fs = gr.factor_set(g)
        # the reflection squares to 1, and acts on kC21 by inversion
        assert (fs.alpha == fs.component.unit).all()
        assert (fs.action[0] == np.eye(21, dtype=np.int64)).all()
        assert (fs.action[1] @ fs.action[1] % 2 == np.eye(21, dtype=np.int64)).all()
        assert (fs.action[1] != np.eye(21, dtype=np.int64)).any()


def _run_optimized(script):
    """Run a script under python -O; its output lines."""
    src = os.path.dirname(os.path.dirname(gr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cocycle_check_survives_python_O():
    # python -O strips assert statements; the cocycle check must still
    # refuse a factor set whose alpha(1, 1) is no longer the unit
    out = _run_optimized("""
        import sys
        from blockfusion import blocks as bl, graded as gr, permgroups as pg
        s3 = pg.enumerate_group(
            (pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)), 3)
        c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
        kg = bl.GroupAlgebra(s3, 3)
        ext = bl.block_extension(kg, c3, bl.blocks(kg, c3)[0])
        g, _ = gr.graded_corner(ext, ext.b)
        g.verify_units([gr.homogeneous_unit(g, d)[g.deg == d] for d in range(2)],
                       "unit")
        print("optimize", sys.flags.optimize)
        fs = gr.factor_set(g)
        print("alpha(1, 1)", fs.alpha[0, 0].tolist())
        fs.alpha[0, 0, 0] = 2
        try:
            gr._verify_cocycle(fs.component, fs)
        except ValueError as exc:
            print("refused:", exc)
    """)
    assert out == ["optimize 1", "alpha(1, 1) [1, 0, 0]",
                   "refused: twisted cocycle identity fails"]


def test_graded_checks_survive_python_O():
    # python -O strips assert statements; the grading law, the factor
    # set's need of certified units and the crossed-product certificate,
    # in each degree, must still be checked
    out = _run_optimized("""
        import sys
        import numpy as np
        from blockfusion import blocks as bl, graded as gr, permgroups as pg
        s3 = pg.enumerate_group(
            (pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)), 3)
        c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
        kg = bl.GroupAlgebra(s3, 3)
        ext = bl.block_extension(kg, c3, bl.blocks(kg, c3)[0])
        g, _ = gr.graded_corner(ext, ext.b)
        print("optimize", sys.flags.optimize)
        g.validate()
        print("degrees", g.deg.tolist())
        deg = g.deg.copy()
        deg[[2, 3]] = deg[[3, 2]]  # one basis element in each degree swapped
        unit1 = gr.homogeneous_unit(g, 1)[3:]
        # 1 + e_1 + e_2 lies in the radical of the local 1-component
        for check in (gr.GradedAlgebra(g.alg, g.group, deg).validate,
                      lambda: gr.factor_set(g),
                      lambda: g.verify_units([[1, 0, 0], [0, 0, 0]], "element"),
                      lambda: g.verify_units([[1, 1, 1], unit1], "element"),
                      lambda: gr.factor_set(g),
                      lambda: g.verify_units([[1, 0, 0], unit1], "element"),
                      lambda: gr.factor_set(g)):
            try:
                check()
                print("passed")
            except AssertionError as exc:
                print("refused:", exc)
    """)
    assert out == ["optimize 1", "degrees [0, 0, 0, 1, 1, 1]",
                   "refused: grading broken on products",
                   "refused: the graded algebra carries no units",
                   "refused: the degree-1 element is not a unit",
                   "refused: the degree-0 element is not a unit",
                   "refused: the graded algebra carries no units",
                   "passed", "passed"]


def rebased_graded(g, rng):
    """g on a random basis that keeps every basis vector homogeneous."""
    p, dim = g.p, g.alg.dim
    t = np.zeros((dim, dim), dtype=np.int64)
    for d in range(g.group.order):
        idx = g.component_indices(d)
        t[np.ix_(idx, idx)] = random_invertible(len(idx), p, rng)
    return with_scanned_units(gr.GradedAlgebra(rebased(g.alg, t), g.group, g.deg.copy()))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_isos_are_algebra_maps_in_any_basis(name):
    f, p = FIELDS[name]
    field = polynomial_field(f, p)
    n = field.dim
    rng = np.random.default_rng(5)
    for _ in range(4):
        src = rebased(field, random_invertible(n, p, rng))
        dst = rebased(field, random_invertible(n, p, rng))
        isos = gr._field_isos(src, dst)
        # the Galois group of GF(p^n) over GF(p) has order n
        assert len(isos) == n
        assert len({m.tobytes() for m in isos}) == n
        assert all(alg.check_algebra_map(m, src, dst) for m in isos)


def f21_block0_residual():
    """The residual corner extension of F21 over C7 at p = 2, block 0:
    GF(8) under C3 by Frobenius."""
    s = wb.Scenario(name="F21-over-C7-block-0", p=2, degree=7,
                    gens_g=["(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)"],
                    gens_h=["(0 1 2 3 4 5 6)"], block=0)
    pipe = wb.Pipeline(s)
    return pipe.residual_f(pipe.pointed()).graded


def assert_graded_iso(iso, g1, g2, group_map=None):
    """iso (columns: images of g1's basis) is an algebra isomorphism that
    sends degree d to degree group_map[d]."""
    gm = np.arange(g1.group.order) if group_map is None else np.array(group_map)
    assert iso is not None and gfp.is_invertible(iso, g1.p)
    assert alg.check_algebra_map(iso, g1.alg, g2.alg)
    assert not ((iso != 0) & (g2.deg[:, None] != gm[g1.deg])).any()


@pytest.mark.parametrize("make", [lambda: twisted_c2_over_gf3(2),
                                  f21_block0_residual],
                         ids=["twisted C2 over GF(3)",
                              "F21 over C7 at p = 2, block 0 residual"])
def test_graded_isos_survive_a_change_of_basis(make):
    g = make()
    rng = np.random.default_rng(11)
    for h in [rebased_graded(g, rng) for _ in range(5)]:
        assert gr.factor_sets_equivalent(gr.factor_set(h), gr.factor_set(g))
        assert_graded_iso(gr.graded_iso_search(h, g), h, g)
        assert_graded_iso(gr.graded_iso_search(g, h), g, h)


def test_factor_sets_over_a_field_past_the_cap_are_refused(monkeypatch):
    # the residual over GF(8): its 7 units are enumerated only within the cap
    f = gr.factor_set(f21_block0_residual())
    monkeypatch.setattr(alg, "EXHAUSTIVE_CAP", 7)
    with pytest.raises(alg.Inconclusive, match=r"^unit scan of size 2\^3 exceeds cap 7$"):
        gr.factor_sets_equivalent(f, f)
    monkeypatch.setattr(alg, "EXHAUSTIVE_CAP", 8)
    assert gr.factor_sets_equivalent(f, f) is not None


def test_crossed_products_over_a_non_field_are_refused():
    # kS3 over C3 at p = 3: the 1-component kC3 is local, not a field
    g = crossed_by_conjugation(S3, C3, 3)
    h = rebased_graded(g, np.random.default_rng(11))
    refusal = "^the 1-component is not a field: its radical is not 0$"
    with pytest.raises(alg.VerificationError, match=refusal):
        gr.factor_sets_equivalent(gr.factor_set(h), gr.factor_set(g))
    with pytest.raises(alg.VerificationError, match=refusal):
        gr.graded_iso_search(g, h)


def cyclic_table(n):
    return np.add.outer(np.arange(n), np.arange(n)) % n


def permutation_table(group):
    """The multiplication table of a permutation group, identity first."""
    index = {x: k for k, x in enumerate(group.elements)}
    t = np.array([[index[pg.pmul(x, y)] for y in group.elements]
                  for x in group.elements])
    assert index[pg.identity_perm(group.degree)] == 0
    return t


def sign(x):
    return sum(x[j] > x[i] for i in range(len(x)) for j in range(i)) % 2


C2xC2 = np.bitwise_xor.outer(np.arange(4), np.arange(4))
# per group: its table and homomorphisms f to Z/m, as (f, m); the carry
# cocycle floor((f(d) + f(e)) / m) of each, raised to a random power, and
# for C2 x C2 the bimultiplicative (-1)^(a(d) b(e)), give random classes
COCYCLE_GROUPS = {
    "C4": (cyclic_table(4), [(np.arange(4), 4), (np.arange(4) % 2, 2)]),
    "C2xC2": (C2xC2, [(np.arange(4) & 1, 2), (np.arange(4) >> 1, 2),
                      ((np.arange(4) & 1) ^ (np.arange(4) >> 1), 2)]),
    "S3": (permutation_table(S3), [(np.array([sign(x) for x in S3.elements]), 2)]),
}


def twisted_group_algebra(t, alpha, q):
    """GF(q)^alpha[G], graded by G: u_d u_e = alpha(d, e) u_de, carrying
    the units u_d."""
    n = len(t)
    sc = np.zeros((n, n, n), dtype=np.int64)
    sc[np.arange(n)[:, None], np.arange(n)[None], t] = alpha
    g = gr.GradedAlgebra(alg.Algebra(q, sc, np.eye(n, dtype=np.int64)[0]),
                         pg.GroupTable(t, tuple(range(n))), np.arange(n))
    g.verify_units(np.ones((n, 1), dtype=np.int64), "element u_d")
    return g


def scalar_factor_set(t, alpha, q):
    return gr.factor_set(twisted_group_algebra(t, alpha, q))


def random_cocycle(group, q, rng):
    t, homs = COCYCLE_GROUPS[group]
    alpha = np.ones(t.shape, dtype=np.int64)
    for f, m in homs:
        carry = (f[:, None] + f[None, :]) // m
        alpha = alpha * np.where(carry, rng.integers(1, q), 1) % q
    if group == "C2xC2":
        a, b = np.arange(4) & 1, np.arange(4) >> 1
        alpha = alpha * np.where(np.outer(a, b), rng.choice([1, q - 1]), 1) % q
    return alpha


def coboundary(t, q, rng):
    """b(d) b(e) b(de)^-1 for a random cochain b of units with b(1) = 1."""
    b = np.concatenate([[1], rng.integers(1, q, size=len(t) - 1)])
    binv = np.array([pow(int(x), q - 2, q) for x in b])
    return b[:, None] * b[None, :] * binv[t] % q


def cochains_that_rescale(f1, f2, q):
    """Reference: every cochain c of GF(q)^x with c(1) = 1, over all
    (q - 1)^(n - 1), with alpha1(d, e) c(de) = c(d) c(e) alpha2(d, e)."""
    t = f1.group.table
    a1, a2 = f1.alpha[..., 0], f2.alpha[..., 0]
    cs = np.array([(1,) + c for c in itertools.product(range(1, q),
                                                        repeat=len(t) - 1)])
    lhs = a1 * cs[:, t] % q
    rhs = cs[:, :, None] * cs[:, None, :] * a2 % q
    return cs[(lhs == rhs).all(axis=(1, 2))]


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("group", sorted(COCYCLE_GROUPS))
def test_cochain_search_agrees_with_full_enumeration(group, q):
    t = COCYCLE_GROUPS[group][0]
    rng = np.random.default_rng(q)
    verdicts = []
    for _ in range(8):
        a1 = random_cocycle(group, q, rng)
        f1 = scalar_factor_set(t, a1, q)
        for a2 in (a1 * coboundary(t, q, rng) % q, random_cocycle(group, q, rng)):
            f2 = scalar_factor_set(t, a2, q)
            witness = gr.factor_sets_equivalent(f1, f2)
            reference = cochains_that_rescale(f1, f2, q)
            assert (witness is not None) == (len(reference) > 0)
            if witness is not None:
                sigma, c = witness
                assert (sigma == 1).all()
                assert any((c.ravel() == r).all() for r in reference)
            verdicts.append(witness is not None)
    assert all(verdicts[::2]) and not all(verdicts[1::2])


def test_graded_iso_search_follows_a_non_identity_group_map():
    # GF(7)^alpha[C3] with u^3 = zeta: inversion of C3 takes it to the
    # algebra with u^3 = zeta^-1, and zeta = 3 is not zeta^-1 = 5 up to
    # cubes (the cubes of GF(7)^x are 1 and 6)
    t, inversion = cyclic_table(3), [0, 2, 1]
    carry = np.add.outer(np.arange(3), np.arange(3)) // 3
    g3, g5 = (twisted_group_algebra(t, np.where(carry, z, 1), 7) for z in (3, 5))
    iso = gr.graded_iso_search(g3, g5, group_map=inversion)
    assert_graded_iso(iso, g3, g5, inversion)
    assert gr.graded_iso_search(g3, g3, group_map=inversion) is None
    assert gr.graded_iso_search(g3, g5) is None
    assert_graded_iso(gr.graded_iso_search(g3, g3), g3, g3)


# -- the graded associativity kernel and Passman's identities against the
# -- dense check --------------------------------------------------------------

# the grading groups, each with its table and the homomorphisms whose
# carry cocycles give the scalar 2-cocycles of the crossed products
GRADINGS = {"C2": (cyclic_table(2), [(np.arange(2), 2)]),
            "C3": (cyclic_table(3), [(np.arange(3), 3)]),
            "C2xC2": COCYCLE_GROUPS["C2xC2"], "S3": COCYCLE_GROUPS["S3"]}
CERTIFICATE_SETTINGS = settings(max_examples=40, deadline=None)


def dense_refuses(a):
    """Whether Algebra's dense check (Module.check on the left-regular
    matrices, then the right unit) refuses a."""
    try:
        a._check_axioms()
    except ValueError:
        return True
    return False


def kernel_refuses(g):
    try:
        g.check_associative()
    except ValueError:
        return True
    return False


@st.composite
def graded_assemblies(draw):
    """A graded_from_chunks assembly inside M_N(GF(p)): M_n or its upper
    triangular matrices with the elementary grading (E_ij in degree
    g_i g_j^-1), beside the regular representation of the grading group
    (P_g in degree g), so that every piece is nonempty and pieces differ
    in size; each piece on a random basis of its span."""
    t = GRADINGS[draw(st.sampled_from(sorted(GRADINGS)))][0]
    m = len(t)
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    upper = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    size = n + m
    inv = [int(np.flatnonzero(t[g] == 0)[0]) for g in range(m)]
    pieces = [[] for _ in range(m)]
    for i, j in itertools.product(range(n), repeat=2):
        if j >= i or not upper:
            x = np.zeros((size, size), dtype=np.int64)
            x[i, j] = 1
            pieces[t[labels[i], inv[labels[j]]]].append(x)
    for g in range(m):
        x = np.zeros((size, size), dtype=np.int64)
        x[n + t[g], n + np.arange(m)] = 1  # e_h -> e_gh
        pieces[g].append(x)
    pieces = [np.tensordot(random_invertible(len(c), p, rng), np.array(c), axes=1) % p
              for c in pieces]
    return gr.graded_from_chunks(lambda x, y: x @ y % p, np.eye(size, dtype=np.int64),
                                 pieces, pg.GroupTable(t, tuple(range(m))), p,
                                 check=False)


@CERTIFICATE_SETTINGS
@given(graded_assemblies(), st.data())
def test_graded_kernel_agrees_with_the_dense_check(g, data):
    assert min(g.component_dims()) >= 1
    assert not kernel_refuses(g) and not dense_refuses(g.alg)
    # one structure constant changed inside a block the grading allows
    p, dim = g.p, g.alg.dim
    i, j = data.draw(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)))
    k = data.draw(st.sampled_from(list(g.component_indices(g.group.mul(g.deg[i], g.deg[j])))))
    sc = g.alg.sc.copy()
    sc[i, j, k] = (sc[i, j, k] + data.draw(st.integers(1, p - 1))) % p
    mutant = gr.GradedAlgebra(alg.Algebra(p, sc, g.alg.unit, check=False), g.group, g.deg)
    assert kernel_refuses(mutant) == dense_refuses(mutant.alg)


def test_graded_kernel_takes_pieces_of_unequal_size():
    # M_3(GF(3)) graded by C2 through the labels (0, 0, 1): degree 0 holds
    # 5 matrix units, degree 1 holds 4, each beside one of P_0, P_1
    t = cyclic_table(2)
    pieces = [[], []]
    for i, j in itertools.product(range(3), repeat=2):
        x = np.zeros((5, 5), dtype=np.int64)
        x[i, j] = 1
        pieces[(i == 2) ^ (j == 2)].append(x)
    for g in range(2):
        x = np.zeros((5, 5), dtype=np.int64)
        x[3 + t[g], 3 + np.arange(2)] = 1
        pieces[g].append(x)
    g = gr.graded_from_chunks(lambda x, y: x @ y % 3, np.eye(5, dtype=np.int64),
                              [np.array(c) for c in pieces],
                              pg.GroupTable(t, (0, 1)), 3)
    assert g.component_dims() == [6, 5]
    assert not kernel_refuses(g)
    # every structure constant inside an allowed block, changed alone:
    # the kernel gives the dense check's verdict on each, and for every
    # e_i some change in e_i's products is refused
    refused = set()
    for i, j in itertools.product(range(g.alg.dim), repeat=2):
        for k in g.component_indices(g.group.mul(g.deg[i], g.deg[j])):
            sc = g.alg.sc.copy()
            sc[i, j, k] = (sc[i, j, k] + 1) % 3
            mutant = gr.GradedAlgebra(alg.Algebra(3, sc, g.alg.unit, check=False),
                                      g.group, g.deg)
            if kernel_refuses(mutant):
                refused.add(i)
            assert kernel_refuses(mutant) == dense_refuses(mutant.alg)
    assert refused == set(range(g.alg.dim))


def test_graded_kernel_reads_every_chunk():
    # k 1 + k z + k z' in degree 0 and x_0, x_1, x_2 in degree 1 of C2, all
    # products of non-units 0 but x_2 z = x_2: the law fails only at
    # triples (x_2, z, z), and the kernel reads the 3 elements of a degree
    # in chunks of 2, so x_2 is alone in the last chunk
    sc = np.zeros((6, 6, 6), dtype=np.int64)
    sc[0, np.arange(6), np.arange(6)] = sc[np.arange(6), 0, np.arange(6)] = 1
    sc[5, 1, 5] = 1
    g = gr.GradedAlgebra(alg.Algebra(3, sc, np.eye(6, dtype=np.int64)[0], check=False),
                         pg.GroupTable(cyclic_table(2), (0, 1)),
                         np.array([0, 0, 0, 1, 1, 1]))
    assert dense_refuses(g.alg)
    with pytest.raises(ValueError, match=r"^\(e_5 e_1\) e_1 is not e_5 \(e_1 e_1\): "
                       "the product is not associative$"):
        g.check_associative()


def coefficient_algebras(p):
    """B for the crossed products: k[C2], k[C3], M_2 and its upper
    triangular matrices, each with the list of its units."""
    def matmul(x, y):
        return (x.reshape(x.shape[:-1] + (2, 2)) @ y.reshape(y.shape[:-1] + (2, 2))
                % p).reshape(np.broadcast_shapes(x.shape, y.shape))

    def on_basis(mul, basis):  # the unit first
        sc = alg.structure_constants(basis, basis, basis, mul, p)
        return alg.Algebra(p, sc, np.eye(len(basis), dtype=np.int64)[0])

    # 1, E_01, E_10, E_11 as flattened 2 x 2 matrices
    m2 = np.array([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    out = [twisted_group_algebra(cyclic_table(n), np.ones((n, n), dtype=np.int64), p).alg
           for n in (2, 3)]
    out += [on_basis(matmul, m2), on_basis(matmul, m2[[0, 1, 3]])]
    return [(b, np.array(all_units(b))) for b in out]


COEFFICIENTS = {p: coefficient_algebras(p) for p in (2, 3, 5)}


def conjugation(b, u):
    """The matrix of x -> u x u^-1 on coordinate columns."""
    eye = np.eye(b.dim, dtype=np.int64)
    return b.mul(b.mul(u, eye), b.inverse_element(u)).T


def crossed_setup(b, t, sigma, alpha):
    """crossed_product's inputs for sigma (n, db, db) and alpha (n, n, db):
    representatives r_d and one defect c_de per pair, acting by
    conjugation with interior image alpha(d, e)."""
    n = len(t)
    reps = tuple(("r", d) for d in range(n))
    defects = tuple(tuple(("c", d, e) for e in range(n)) for d in range(n))
    quot = pg.QuotientSetup(None, None, reps, {}, pg.GroupTable(t, reps), defects)
    action = {r: sigma[d] for d, r in enumerate(reps)}
    interior = {}
    for d, e in itertools.product(range(n), repeat=2):
        action[defects[d][e]] = conjugation(b, alpha[d, e])
        interior[defects[d][e]] = alpha[d, e]
    return quot, action, interior


def crossed_by_formula(b, t, sigma, alpha):
    """The algebra (a x_d)(b x_e) = a sigma_d(b) alpha(d, e) x_de, one basis
    pair at a time, without a check."""
    n, db, p = len(t), b.dim, b.p
    eye = np.eye(db, dtype=np.int64)
    sc = np.zeros((n * db,) * 3, dtype=np.int64)
    for d, e, i, j in itertools.product(range(n), range(n), range(db), range(db)):
        x = b.mul(eye[i], b.mul(sigma[d][:, j], alpha[d, e]))
        sc[d * db + i, e * db + j, t[d, e] * db:(t[d, e] + 1) * db] = x
    unit = np.zeros(n * db, dtype=np.int64)
    unit[:db] = b.unit
    return alg.Algebra(p, sc, unit, check=False)


def broken_identities(b, t, sigma, alpha):
    """Which of Passman's identities fail, by a loop over d, e, f and B's basis."""
    n, p = len(t), b.p
    broken = set()
    for d, e in itertools.product(range(n), repeat=2):
        for j in range(b.dim):
            c = np.eye(b.dim, dtype=np.int64)[j]
            if (b.mul(sigma[d] @ (sigma[e] @ c) % p, alpha[d, e])
                    != b.mul(alpha[d, e], sigma[t[d, e]] @ c % p)).any():
                broken.add("twisted action")
        for f in range(n):
            if (b.mul(alpha[d, e], alpha[t[d, e], f])
                    != b.mul(sigma[d] @ alpha[e, f] % p, alpha[d, t[e, f]])).any():
                broken.add("cocycle")
    return broken


@st.composite
def crossed_products(draw):
    """(B, table, sigma, alpha, kind): sigma_d = ad(u_d) and alpha(d, e) =
    w(d, e) u_d u_e u_de^-1 for random units u_d of B (u_1 = 1) and a
    normalized scalar 2-cocycle w, so the defects are rarely 1 and both
    identities hold; then, by `kind`, one alpha(d, e) with d, e != 1 is
    scaled (the twisted action still holds), or with every u_d = 1 one
    sigma_d, d != 1, is composed with a conjugation (the cocycle identity
    still holds), or nothing is changed."""
    p = draw(st.sampled_from([2, 3, 5]))
    b, units = draw(st.sampled_from(COEFFICIENTS[p]))
    t, homs = GRADINGS[draw(st.sampled_from(sorted(GRADINGS)))]
    n = len(t)
    kind = draw(st.sampled_from(["valid", "cocycle", "action"]))
    pick = st.integers(0, len(units) - 1)
    u = np.array([b.unit] + [units[draw(pick)] for _ in range(n - 1)])
    if kind == "action":
        u[:] = b.unit
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    w = np.ones((n, n), dtype=np.int64)
    for f, m in homs:
        w = w * np.where((f[:, None] + f[None, :]) // m, rng.integers(1, p), 1) % p
    uinv = np.array([b.inverse_element(x) for x in u])
    sigma = np.array([conjugation(b, x) for x in u])
    alpha = w[:, :, None] * b.mul(b.mul(u[:, None], u[None]), uinv[t]) % p
    if kind == "cocycle" and n > 1 and p > 2:
        d, e = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        alpha[d, e] = alpha[d, e] * draw(st.integers(2, p - 1)) % p
    if kind == "action" and n > 1:
        d = draw(st.integers(1, n - 1))
        sigma[d] = conjugation(b, units[draw(pick)]) @ sigma[d] % p
    return b, t, sigma, alpha, kind


@CERTIFICATE_SETTINGS
@given(crossed_products())
def test_passman_identities_agree_with_the_dense_check(case):
    b, t, sigma, alpha, kind = case
    broken = broken_identities(b, t, sigma, alpha)
    # each mutant breaks at most the identity it aims at
    assert broken <= {"valid": set(), "cocycle": {"cocycle"},
                      "action": {"twisted action"}}[kind]
    try:
        g = gr.crossed_product(b, *crossed_setup(b, t, sigma, alpha))
        refusal = None
    except alg.VerificationError as exc:
        refusal = str(exc)
    assert (refusal is not None) == bool(broken) == dense_refuses(
        crossed_by_formula(b, t, sigma, alpha))
    if refusal is None:
        assert (g.alg.sc == crossed_by_formula(b, t, sigma, alpha).sc).all()
    else:
        assert next(iter(broken)) in refusal


def test_each_identity_alone_is_refused():
    # B = M_2(GF(3)); kC3 is commutative, so no twisted action fails there
    b, units = COEFFICIENTS[3][2]
    eye = np.eye(4, dtype=np.int64)
    # over C2 with alpha = 1 and sigma_1 = ad(v), v^2 not central:
    # sigma_1 sigma_1 = ad(v^2) is not sigma_0 = id, and the cocycle
    # identity holds, as every alpha is 1
    v = next(x for x in units
             if (conjugation(b, x) @ conjugation(b, x) % 3 != eye).any())
    action = np.array([eye, conjugation(b, v)])
    ones = np.broadcast_to(b.unit, (2, 2, 4)).copy()
    # over C3 with sigma = id and alpha(1, 1) = 2, the rest 1: at d = e = 1,
    # f = 2, alpha(1, 1) alpha(2, 2) = 2 but alpha(1, 2) alpha(1, 0) = 1
    scaled = np.broadcast_to(b.unit, (3, 3, 4)).copy()
    scaled[1, 1] = 2 * b.unit % 3
    for t, sigma, alpha, which in (
            (cyclic_table(2), action, ones, "twisted action"),
            (cyclic_table(3), np.array([eye] * 3), scaled, "cocycle")):
        assert broken_identities(b, t, sigma, alpha) == {which}
        assert dense_refuses(crossed_by_formula(b, t, sigma, alpha))
        with pytest.raises(alg.VerificationError, match=which):
            gr.crossed_product(b, *crossed_setup(b, t, sigma, alpha))


def test_certificates_survive_python_O():
    # python -O strips assert statements; the graded kernel and the
    # crossed-product identities must still refuse
    out = _run_optimized("""
        import sys
        import numpy as np
        from blockfusion import algebra as alg, graded as gr, permgroups as pg
        t = np.array([[0, 1], [1, 0]])
        table = pg.GroupTable(t, (0, 1))
        sc = np.zeros((2, 2, 2), dtype=np.int64)
        sc[0, 0, 0] = sc[0, 1, 1] = sc[1, 0, 1] = sc[1, 1, 0] = 1
        print("optimize", sys.flags.optimize)
        sc[1, 1, 0] = 2  # x_1 x_1 = 2: GF(3)^alpha[C2], associative
        gr.GradedAlgebra(alg.Algebra(3, sc, [1, 0], check=False), table,
                         np.array([0, 1])).check_associative()
        print("twisted passed")
        sc[1, 0, 1] = 2  # x_1 1 = 2 x_1
        try:
            gr.GradedAlgebra(alg.Algebra(3, sc, [1, 0], check=False), table,
                             np.array([0, 1])).check_associative()
        except ValueError as exc:
            print("refused:", exc)
        reps = ("r0", "r1")
        defects = (("c00", "c01"), ("c10", "c11"))
        quot = pg.QuotientSetup(None, None, reps, {}, pg.GroupTable(t, reps), defects)
        one = alg.Algebra(3, np.ones((1, 1, 1)), [1])
        action = dict.fromkeys(reps + sum(defects, ()), np.eye(1, dtype=np.int64))
        interior = {"c00": [1], "c01": [1], "c10": [2], "c11": [1]}
        try:
            gr.crossed_product(one, quot, action, interior)
        except AssertionError as exc:
            print("refused:", exc)
    """)
    assert out == ["optimize 1", "twisted passed",
                   "refused: the unit is not a right identity",
                   "refused: alpha(d, 1) is not 1 at d = 1"]
