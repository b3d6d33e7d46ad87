import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockfusion import algebra as alg
from blockfusion import blocks as bl
from blockfusion import gfp
from blockfusion import permgroups as pg


def cyclic_group_algebra(n, p):
    sc = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            sc[i, j, (i + j) % n] = 1
    unit = np.zeros(n, dtype=np.int64)
    unit[0] = 1
    return alg.Algebra(p, sc, unit)


def group_algebra(grp, p):
    """k[grp] on its group basis: the span of the identity rows of kG."""
    kg = bl.GroupAlgebra(grp, p)
    return kg.span(np.eye(kg.n, dtype=np.int64)).alg


def matrix_algebra(n, p):
    d = n * n
    basis = [np.zeros((n, n), dtype=np.int64) for _ in range(d)]
    for k in range(d):
        basis[k][k // n, k % n] = 1
    sc = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            sc[i, j] = ((basis[i] @ basis[j]) % p).reshape(-1)
    return alg.Algebra(p, sc, np.eye(n, dtype=np.int64).reshape(-1))


def test_axiom_check_rejects_nonassociative():
    sc = np.zeros((2, 2, 2), dtype=np.int64)
    sc[0, 0, 0] = 1
    sc[0, 1, 1] = 1
    sc[1, 0, 0] = 1  # e1*e0 = e0 while e0 is a left unit
    sc[1, 1, 0] = 1  # (e1 e1) e1 = e1 but e1 (e1 e1) = e0
    with pytest.raises(ValueError):
        alg.Algebra(2, sc, np.array([1, 0]))


def test_arithmetic_basics():
    a = cyclic_group_algebra(3, 5)
    x = np.array([1, 2, 0])
    y = np.array([0, 1, 1])
    assert (a.mul(a.unit, x) == x).all()
    assert (a.mul(x, y) == a.left_mult(x) @ y % 5).all()
    assert (a.mul(x, y) == a.right_mult(y) @ x % 5).all()
    assert (a.power(x, 3) == a.mul(x, a.mul(x, x))).all()
    assert a.is_unit_element(x) == gfp.is_invertible(a.left_mult(x), 5)


def test_inverse_element():
    a = cyclic_group_algebra(3, 2)
    g = np.array([0, 1, 0])
    inv = a.inverse_element(g)
    assert (a.mul(g, inv) == a.unit).all()
    # 1 + g + g^2 kills (1 - g), so it cannot be invertible
    with pytest.raises(ValueError):
        a.inverse_element(np.array([1, 1, 1]))


def test_center_of_matrix_algebra_is_scalars():
    m = matrix_algebra(2, 3)
    rows = m.center_rows()
    assert rows.shape[0] == 1
    assert gfp.in_rowspace(rows, m.unit, 3)


def test_radical_of_modular_cyclic_group_algebra():
    # kC3 over GF(3) is local; the augmentation ideal is the radical
    a = cyclic_group_algebra(3, 3)
    rad = a.radical_rows()
    assert rad.shape[0] == 2
    for r in rad:
        assert int(r.sum()) % 3 == 0  # augmentation zero
    assert not gfp.in_rowspace(rad, a.unit, 3)


def test_radical_semisimple_cases():
    assert cyclic_group_algebra(3, 2).radical_rows().shape[0] == 0
    assert matrix_algebra(2, 2).radical_rows().shape[0] == 0


def test_radical_exhaustive_oracle_small():
    # over GF(2), dim 3: compare with brute-force largest nilpotent ideal
    a = cyclic_group_algebra(3, 2)
    b = cyclic_group_algebra(4, 2)
    for alg_ in (a, b):
        rad = alg_.radical_rows()
        nilpotents = []
        for idx in np.ndindex(*([2] * alg_.dim)):
            x = np.array(idx, dtype=np.int64)
            if not alg_.power(x, alg_.dim + 1).any():
                nilpotents.append(x)
        # radical elements are nilpotent here (commutative case)
        for r in rad:
            assert not alg_.power(r, alg_.dim + 1).any()
        nil_span = gfp.row_basis(np.array(nilpotents).reshape(-1, alg_.dim), 2)
        assert rad.shape[0] <= nil_span.shape[0]


def test_composition_factors_of_regular_module():
    a = cyclic_group_algebra(3, 3)
    factors = alg.composition_factors(alg.regular_module(a))
    assert sorted(f.dim for f in factors) == [1, 1, 1]
    m = matrix_algebra(2, 2)
    factors = alg.composition_factors(alg.regular_module(m))
    assert sorted(f.dim for f in factors) == [2, 2]
    for f in factors:
        f.check()


def test_submodule_and_quotient_respect_action():
    a = cyclic_group_algebra(4, 2)
    reg = alg.regular_module(a)
    rows = alg.spin(np.array([1, 1, 1, 1]), reg.mats, 2)
    sub = alg.submodule_restrict(reg, rows)
    quo = alg.quotient_module(reg, rows)
    sub.check()
    quo.check()
    assert sub.dim + quo.dim == reg.dim


def test_module_check_survives_python_O():
    # python -O strips assert statements; Module.check must still refuse
    # the regular module of kC3 with one entry of one action matrix changed
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from blockfusion import algebra as alg, blocks as bl, permgroups as pg
        c3 = pg.enumerate_group((pg.parse_cycles("(0 1 2)", 3),), 3)
        kg = bl.GroupAlgebra(c3, 3)
        reg = alg.regular_module(kg.span(np.eye(kg.n, dtype=np.int64)).alg)
        print("optimize", sys.flags.optimize)
        reg.check()
        print("regular passed")
        mats = reg.mats.copy()
        mats[1, 0, 0] = (mats[1, 0, 0] + 1) % 3
        try:
            alg.Module(reg.algebra, mats).check()
        except ValueError as exc:
            print("refused:", exc)
    """)
    src = os.path.dirname(os.path.dirname(alg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1", "regular passed",
        "refused: e_1 e_1 does not act as e_1 after e_1: "
        "the action is not associative"]


def test_nilradical_commutative():
    a = cyclic_group_algebra(3, 3)
    nil = alg.nilradical_commutative(a)
    assert nil.shape[0] == 2
    sem = cyclic_group_algebra(3, 2)
    assert alg.nilradical_commutative(sem).shape[0] == 0


def test_split_commutative_semisimple_splits_x3_minus_1():
    # GF(2)[x]/(x^3 - 1): one rational point and one quadratic factor
    a = cyclic_group_algebra(3, 2)
    idems = alg.split_commutative_semisimple(a)
    assert len(idems) == 2
    total = (idems[0] + idems[1]) % 2
    assert (total == a.unit).all()


def test_split_commutative_semisimple_fully_split():
    # GF(3)[x]/(x^2 - 1) = GF(3) x GF(3)
    a = cyclic_group_algebra(2, 3)
    idems = alg.split_commutative_semisimple(a)
    assert len(idems) == 2


def test_lift_idempotent_through_radical():
    # GF(2)[C6] = GF(2)[C2] (x) GF(2)[C3]: radical is nonzero, idempotents lift
    a = cyclic_group_algebra(6, 2)
    ssq = a.semisimple_quotient()
    comps = a.simple_components()
    assert len(comps) == 2
    for comp in comps:
        e = alg.primitive_idempotent_in(a, comp)
        assert a.is_idempotent(e)
        assert (ssq.project(e) == comp.primitive_bar).all()


def test_simple_components_group_algebra_gf2_c3():
    a = cyclic_group_algebra(3, 2)
    comps = a.simple_components()
    profile = sorted((c.matrix_size, c.end_field_degree) for c in comps)
    assert profile == [(1, 1), (1, 2)]


def test_simple_components_matrix_algebra():
    m = matrix_algebra(2, 2)
    comps = m.simple_components()
    assert len(comps) == 1
    c = comps[0]
    assert (c.matrix_size, c.end_field_degree, c.component_dim) == (2, 1, 4)


def test_primitive_idempotents_and_same_point_in_m2():
    m = matrix_algebra(2, 2)
    comp = m.simple_components()[0]
    e = alg.primitive_idempotent_in(m, comp)
    f = (m.unit - e) % 2
    assert len(alg.primitive_summands(m, e)) == 1
    assert len(alg.primitive_summands(m, f)) == 1
    assert len(alg.primitive_summands(m, m.unit)) == 2
    assert alg.same_point(m, e, f)
    # direct conjugacy witness: some unit u with u e u^-1 = f
    found = False
    for u in alg.iter_units(m):
        if (m.mul(m.mul(u, e), m.inverse_element(u)) == f).all():
            found = True
            break
    assert found


def test_same_point_distinguishes_components():
    a = cyclic_group_algebra(3, 2)
    comps = a.simple_components()
    e0 = alg.primitive_idempotent_in(a, comps[0])
    e1 = alg.primitive_idempotent_in(a, comps[1])
    assert not alg.same_point(a, e0, e1)
    with pytest.raises(ValueError):
        alg.same_point(a, a.unit, e0)  # unit is not primitive here


def test_primitive_summands_partition_the_unit():
    m = matrix_algebra(2, 2)
    parts = alg.primitive_summands(m, m.unit)
    assert len(parts) == 2
    for e in parts:
        assert m.is_idempotent(e)
        assert len(alg.primitive_summands(m, e)) == 1
    a = cyclic_group_algebra(3, 3)  # local: unit already primitive
    assert len(alg.primitive_summands(a, a.unit)) == 1


def test_corner_and_subalgebra():
    m = matrix_algebra(2, 3)
    e = np.zeros(4, dtype=np.int64)
    e[0] = 1  # E11
    corner = m.corner(e)
    assert corner.alg.dim == 1
    assert (corner.lift(corner.alg.unit) == e).all()
    sub = m.subalgebra(np.vstack([m.unit]))
    assert sub.alg.dim == 1


def test_quotient_algebra_projection_is_homomorphism():
    a = cyclic_group_algebra(3, 3)
    q = a.quotient_by_ideal(a.radical_rows())
    assert q.alg.dim == 1
    for i in range(3):
        for j in range(3):
            x = np.eye(3, dtype=np.int64)[i]
            y = np.eye(3, dtype=np.int64)[j]
            lhs = q.project(a.mul(x, y))
            rhs = q.alg.mul(q.project(x), q.project(y))
            assert (lhs == rhs).all()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotient_by_section_matches_the_inverse_of_rows_and_section(p):
    # the projection read off the RREF is the last block of the inverse of
    # [rows; section], the map that kills the rows and fixes the section
    @KERNEL_SETTINGS
    @given(hnp.arrays(np.int64, st.tuples(st.integers(0, 4), st.integers(1, 5)),
                      elements=st.integers(0, p - 1)))
    def check(rows):
        section, proj = alg.quotient_by_section(rows, rows.shape[1], p)
        basis = gfp.row_basis(rows, p)
        assert len(basis) + len(section) == rows.shape[1]
        inv = gfp.inverse(np.vstack([basis, section]).T, p)
        assert (proj == inv[len(basis):]).all()

    check()


def test_hom_space_of_regular_module():
    # End of the regular module is the opposite algebra: dim matches
    a = cyclic_group_algebra(2, 2)
    reg = alg.regular_module(a)
    assert len(alg.hom_space(reg, reg)) == 2
    for h in alg.hom_space(reg, reg):
        for i in range(2):
            assert ((h @ reg.mats[i]) % 2 == (reg.mats[i] @ h) % 2).all()


def test_module_iso_positive_and_negative():
    m = matrix_algebra(2, 2)
    factors = alg.composition_factors(alg.regular_module(m))
    homs = alg.hom_space(factors[0], factors[1])
    c = alg.invertible_combination(homs, 2)
    assert c is not None
    assert gfp.is_invertible(np.tensordot(c, homs, axes=1) % 2, 2)
    a = cyclic_group_algebra(3, 2)
    fs = alg.composition_factors(alg.regular_module(a))
    one = [f for f in fs if f.dim == 1][0]
    two = [f for f in fs if f.dim == 2][0]
    # no module map between the two simples of GF(2)[C3] at all
    assert alg.hom_space(one, two) == []
    assert alg.invertible_combination(alg.hom_space(one, two), 2) is None


def test_iter_units_counts():
    a = cyclic_group_algebra(2, 2)  # GF(2)[C2] local: units = 1 + rad
    units = list(alg.iter_units(a))
    assert len(units) == 2
    m = matrix_algebra(2, 2)  # GL(2,2) has order 6
    assert len(list(alg.iter_units(m))) == 6


def test_find_unit_in_space():
    m = matrix_algebra(2, 2)
    u = alg.find_unit_in_space(m, np.eye(4, dtype=np.int64))
    assert u is not None and m.is_unit_element(u)
    # strictly upper triangular span has no units
    rows = np.zeros((1, 4), dtype=np.int64)
    rows[0, 1] = 1
    assert alg.find_unit_in_space(m, rows) is None


def test_frobenius_matrix_requires_commutative():
    with pytest.raises(ValueError):
        alg.frobenius_matrix(matrix_algebra(2, 2))


# -- the structure-constant and algebra-map kernels against scalar loops ------

def small_group(degree, *cycles):
    return pg.enumerate_group(tuple(pg.parse_cycles(c, degree) for c in cycles), degree)


SMALL_GROUPS = (small_group(3, "(0 1 2)"), small_group(3, "(0 1)", "(0 1 2)"),
                small_group(4, "(0 1 2 3)"))
KERNEL_SETTINGS = settings(max_examples=30, deadline=None)


def add_at_mul(kg, x, y):
    """The convolution x*y in kG, one np.add.at per group element, on
    Python integers, so exact for every p."""
    out = np.zeros(kg.n, dtype=object)
    for i in np.nonzero(x)[0]:
        np.add.at(out, kg.mtable[i], int(x[i]) * np.asarray(y, dtype=object))
    return (out % kg.p).astype(np.int64)


def einsum_mul(a, x, y):
    return np.einsum("i,j,ijk->k", x, y, a.sc) % a.p


def pairwise_sc(rows, mul, p):
    """Structure constants of a closed span, one product and one solve per pair."""
    d = rows.shape[0]
    sc = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            c = gfp.coords_in_rows(rows, mul(rows[i], rows[j]), p)
            assert c is not None
            sc[i, j] = c.ravel()
    return sc


def closure(kg, rows):
    span = gfp.row_basis(rows, kg.p)
    while True:
        prods = np.array([add_at_mul(kg, x, y) for x in span for y in span])
        grown = gfp.row_basis(np.vstack([span, prods]), kg.p)
        if grown.shape[0] == span.shape[0]:
            return span
        span = grown


def averaging_idempotents(kg):
    """e = |H|^-1 sum H for the cyclic p'-subgroups H, and 1 - e."""
    p = kg.p
    out = []
    for g in kg.grp.elements:
        h = pg.enumerate_group((g,), kg.grp.degree)
        if h.order % p:
            e = gfp.inv_mod(h.order, p) * kg.sum_over(h.elements) % p
            out += [e, (kg.unit - e) % p]
    return out


@st.composite
def closed_spans(draw, p):
    """(group algebra, rows): a random subalgebra of kG or a corner ekGe."""
    kg = bl.GroupAlgebra(draw(st.sampled_from(SMALL_GROUPS)), p)
    if draw(st.booleans()):
        e = draw(st.sampled_from(averaging_idempotents(kg)))
        corner = [add_at_mul(kg, add_at_mul(kg, e, g), e) for g in np.eye(kg.n, dtype=np.int64)]
        return kg, gfp.row_basis(np.array(corner), p)
    gens = draw(hnp.arrays(np.int64, (draw(st.integers(1, 2)), kg.n),
                           elements=st.integers(0, p - 1)))
    return kg, closure(kg, np.vstack([kg.unit, gens]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_structure_constants_match_pairwise_loop(p):
    @KERNEL_SETTINGS
    @given(closed_spans(p))
    def check(case):
        kg, rows = case
        want = pairwise_sc(rows, lambda x, y: add_at_mul(kg, x, y), p)
        assert (alg.structure_constants(rows, rows, rows, kg.mul, p) == want).all()
        # the same span through the full structure constants of kG
        a = kg.span(np.eye(kg.n, dtype=np.int64)).alg
        assert (alg.structure_constants(rows, rows, rows, a.mul, p) == want).all()

    check()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_structure_constants_reject_an_open_span(p):
    @KERNEL_SETTINGS
    @given(st.sampled_from(SMALL_GROUPS), st.data())
    def check(grp, data):
        kg = bl.GroupAlgebra(grp, p)
        rows = gfp.row_basis(data.draw(hnp.arrays(
            np.int64, (data.draw(st.integers(1, 3)), kg.n),
            elements=st.integers(0, p - 1))), p)
        assume(rows.shape[0])
        if closure(kg, rows).shape[0] > rows.shape[0]:
            with pytest.raises(ValueError, match="not closed under multiplication"):
                alg.structure_constants(rows, rows, rows, kg.mul, p)
        else:
            alg.structure_constants(rows, rows, rows, kg.mul, p)

    check()


def scalar_is_algebra_map(m, a, b):
    p = a.p
    if ((m @ a.unit) % p != b.unit).any():
        return False
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = (m @ a.sc[i, j]) % p
            if (lhs != einsum_mul(b, m[:, i], m[:, j])).any():
                return False
    return True


def test_algebra_map_check_matches_scalar_loop():
    algebras = [matrix_algebra(2, 3), matrix_algebra(2, 2),
                group_algebra(SMALL_GROUPS[1], 2)]

    @KERNEL_SETTINGS
    @given(st.sampled_from(algebras), st.data())
    def check(a, data):
        p = a.p
        u = data.draw(hnp.arrays(np.int64, a.dim, elements=st.integers(0, p - 1)))
        assume(a.is_unit_element(u))
        uinv = a.inverse_element(u)
        # columns: u e_i u^-1, an inner automorphism
        inner = np.array([einsum_mul(a, einsum_mul(a, u, e), uinv)
                          for e in np.eye(a.dim, dtype=np.int64)]).T
        assert alg.check_algebra_map(inner, a, a)
        assert scalar_is_algebra_map(inner, a, a)
        other = data.draw(st.sampled_from(["random", "perturbed"]))
        if other == "random":
            m = data.draw(hnp.arrays(np.int64, (a.dim, a.dim),
                                     elements=st.integers(0, p - 1)))
        else:
            m = inner.copy()
            i, j = data.draw(st.integers(0, a.dim - 1)), data.draw(st.integers(0, a.dim - 1))
            m[i, j] = (m[i, j] + data.draw(st.integers(1, p - 1))) % p
        assert alg.check_algebra_map(m, a, a) == scalar_is_algebra_map(m, a, a)

    check()


@pytest.mark.parametrize("p", [65537, 3037000493])
def test_group_algebra_mul_broadcast_is_exact_at_large_p(p):
    # entries near 65537 make products exceed 2^32; near 3037000493, the
    # largest prime with p^2 < 2^63, they exceed the 2^53 of a float

    @KERNEL_SETTINGS
    @given(st.sampled_from(SMALL_GROUPS), st.data())
    def check(grp, data):
        kg = bl.GroupAlgebra(grp, p)
        big = st.integers(p - 3, p - 1) | st.integers(0, p - 1)
        x = data.draw(hnp.arrays(np.int64, (data.draw(st.integers(1, 3)), kg.n), elements=big))
        y = data.draw(hnp.arrays(np.int64, (data.draw(st.integers(1, 3)), kg.n), elements=big))
        prods = kg.mul(x[:, None], y[None, :])
        assert prods.shape == (len(x), len(y), kg.n)
        for i in range(len(x)):
            for j in range(len(y)):
                assert (prods[i, j] == add_at_mul(kg, x[i], y[j])).all()
        assert (kg.mul(x[0], y[0]) == add_at_mul(kg, x[0], y[0])).all()

    check()


def test_submodule_restrict_matches_per_matrix_solves_and_refuses():
    s3 = pg.enumerate_group((pg.parse_cycles("(0 1)", 3),
                             pg.parse_cycles("(0 1 2)", 3)), 3)
    reg = alg.regular_module(group_algebra(s3, 3))
    rows = alg.spin(np.array([1, 2, 0, 0, 0, 0]), reg.mats, 3)
    assert 0 < rows.shape[0] < 6
    sub = alg.submodule_restrict(reg, rows)
    basis = gfp.row_basis(rows, 3)
    for m, x in zip(reg.mats, sub.mats):
        assert (x == gfp.solve(basis.T, m @ basis.T % 3, 3)).all()
    sub.check()
    # two group elements span no left ideal of kS3
    with pytest.raises(ValueError, match="do not span a submodule"):
        alg.submodule_restrict(reg, np.eye(6, dtype=np.int64)[:2])


# -- the trace-ideal radical against the meataxe and brute force ---------------

RADICAL_GROUPS = {
    "S3": (small_group(3, "(0 1)", "(0 1 2)"), (2, 3)),
    "A4": (small_group(4, "(0 1 2)", "(1 2 3)"), (2, 3)),
    "D8": (small_group(4, "(0 1 2 3)", "(0 2)"), (2,)),
    "S4": (small_group(4, "(0 1)", "(0 1 2 3)"), (2, 3)),
    "C9": (small_group(9, "(0 1 2 3 4 5 6 7 8)"), (3,)),
    "D10": (small_group(5, "(0 1 2 3 4)", "(1 4)(2 3)"), (2, 5)),
    "C7": (small_group(7, "(0 1 2 3 4 5 6)"), (7,)),
    "S3xC3": (small_group(6, "(0 1)", "(0 1 2)", "(3 4 5)"), (3,)),
}
RADICAL_SETTINGS = settings(max_examples=25, deadline=None)


def meataxe_oracle(a):
    return alg._meataxe_radical(a, alg.DEFAULT_SEED)


@pytest.mark.parametrize("name, p", [(name, p) for name, (_, ps) in RADICAL_GROUPS.items()
                                     for p in ps])
def test_radical_matches_meataxe_on_group_algebras(name, p):
    a = group_algebra(RADICAL_GROUPS[name][0], p)
    assert np.array_equal(a.radical_rows(), meataxe_oracle(a))


def matrix_subalgebra(gens, n, p):
    """The subalgebra of M_n(GF(p)) generated by 1 and `gens` (n x n arrays),
    on the RREF basis of its span, each element flattened to n^2 entries."""
    def mul(x, y):
        shape = np.broadcast_shapes(x.shape, y.shape)[:-1]
        return (x.reshape(x.shape[:-1] + (n, n)) @ y.reshape(y.shape[:-1] + (n, n))
                % p).reshape(shape + (n * n,))

    eye = np.eye(n, dtype=np.int64).ravel()
    span = gfp.row_basis(np.vstack([eye] + [np.asarray(g).ravel() for g in gens]), p)
    while True:
        prods = mul(span[:, None], span[None, :]).reshape(-1, n * n)
        grown = gfp.row_basis(np.vstack([span, prods]), p)
        if grown.shape[0] == span.shape[0]:
            break
        span = grown
    sc = alg.structure_constants(span, span, span, mul, p)
    return alg.Algebra(p, sc, gfp.coords_in_rows(span, eye, p).ravel())


@st.composite
def matrix_subalgebras(draw, max_size=None):
    """A subalgebra of M_n(GF(p)), n <= 3, generated by one or two random
    block upper-triangular matrices, so that its radical is often nonzero."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else set())
    block = np.searchsorted(cuts, np.arange(n), side="right")
    mask = block[:, None] <= block[None, :]
    gens = [draw(hnp.arrays(np.int64, (n, n), elements=st.integers(0, p - 1))) * mask
            for _ in range(draw(st.integers(1, 2)))]
    return matrix_subalgebra(gens, n, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_radical_of_upper_triangular_matrices_is_strictly_upper(p, n):
    units = np.eye(n * n, dtype=np.int64).reshape(-1, n, n)
    a = matrix_subalgebra([e for e in units if not np.tril(e, -1).any()], n, p)
    assert a.dim == n * (n + 1) // 2
    rad = a.radical_rows()
    assert np.array_equal(rad, meataxe_oracle(a))
    assert rad.shape[0] == n * (n - 1) // 2


@RADICAL_SETTINGS
@given(matrix_subalgebras())
def test_radical_matches_meataxe_on_matrix_subalgebras(a):
    assert np.array_equal(a.radical_rows(), meataxe_oracle(a))


def brute_radical(a):
    """J(A) by enumeration of A x A: the x for which a x is nilpotent for
    every a.  J(A) is the largest nilpotent ideal, and for a
    finite-dimensional algebra it is exactly this set."""
    p, d = a.p, a.dim
    elems = np.array(list(np.ndindex(*[p] * d)), dtype=np.int64).reshape(p**d, d)
    prods = a.mul(elems[:, None], elems[None, :])  # [s, t] = elems[s] elems[t]
    power = prods
    for _ in range(d - 1):
        power = a.mul(power, prods)
    members = elems[~power.any(axis=-1).any(axis=0)]
    rows = gfp.row_basis(members, p)
    assert len(members) == p ** rows.shape[0]  # a subspace
    return rows


SMALL_GROUP_ALGEBRAS = [(small_group(n, "(" + " ".join(map(str, range(n))) + ")"), 2)
                        for n in range(2, 7)] + [
    (small_group(3, "(0 1)", "(0 1 2)"), 2), (small_group(3, "(0 1 2)"), 3),
    (small_group(2, "(0 1)"), 3), (small_group(2, "(0 1)"), 5), (small_group(2, "(0 1)"), 7)]


@pytest.mark.parametrize("grp, p", SMALL_GROUP_ALGEBRAS)
def test_radical_matches_brute_force_on_small_group_algebras(grp, p):
    a = group_algebra(grp, p)
    assert p ** a.dim <= 64
    assert np.array_equal(a.radical_rows(), brute_radical(a))


@RADICAL_SETTINGS
@given(matrix_subalgebras())
def test_radical_matches_brute_force_on_matrix_subalgebras(a):
    assume(a.p ** a.dim <= 64)
    assert np.array_equal(a.radical_rows(), brute_radical(a))


@pytest.mark.parametrize("name, p", [("S4", 2), ("A4", 3), ("S3xC3", 3)])
def test_radical_does_not_depend_on_the_seed(name, p):
    grp = RADICAL_GROUPS[name][0]
    rads = [group_algebra(grp, p).radical_rows(seed) for seed in (0, 1, 7)]
    assert all(np.array_equal(r, rads[0]) for r in rads)


def test_radical_refuses_int64_overflow():
    # d (p d)^2 >= 2^63: the lifted products would not be exact
    a = cyclic_group_algebra(2, 3037000493)
    with pytest.raises(ValueError, match="too large"):
        a.radical_rows()


def wrong_radicals():
    """(algebra, rows, law) triples: a wrong radical and the law it breaks."""
    s3 = group_algebra(RADICAL_GROUPS["S3"][0], 3)
    c3 = cyclic_group_algebra(3, 3)  # local, so J + k1 is all of it
    out = []
    for a in (s3, c3):
        j = a.radical_rows()
        j2 = gfp.row_basis(a.mul(j[:, None], j[None, :]).reshape(-1, a.dim), 3)
        out += [(a, j[:-1], "two-sided ideal"),
                (a, gfp.row_basis(np.vstack([j, a.unit]), 3),
                 "two-sided ideal" if a is s3 else "nilpotent"),
                (a, j2, "semisimple")]
    return out


@pytest.mark.parametrize("k", range(6))
def test_verify_radical_names_the_broken_law(k):
    a, rows, law = wrong_radicals()[k]
    with pytest.raises(alg.VerificationError, match=law):
        alg._verify_radical(a, rows, alg.DEFAULT_SEED)


def test_verify_radical_survives_python_O():
    script = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import test_algebra as t
        from blockfusion import algebra as alg
        print("optimize", sys.flags.optimize)
        for a, rows, law in t.wrong_radicals():
            try:
                alg._verify_radical(a, rows, alg.DEFAULT_SEED)
                print("passed")
            except alg.VerificationError as exc:
                print(law in str(exc))
    """)
    src = os.path.dirname(os.path.dirname(alg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script, os.path.dirname(__file__)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["optimize 1"] + ["True"] * 6


# -- intertwiner spaces against brute force -------------------------------------

INTERTWINER_ALGEBRAS = {
    (name, p): make(p) for p in (2, 3) for name, make in (
        ("kS3", lambda p: group_algebra(SMALL_GROUPS[1], p)),
        ("kC4", lambda p: cyclic_group_algebra(4, p)),
        ("M2", lambda p: matrix_algebra(2, p)))}


def enumerate_span(rows, p):
    """Every element of the row span, with repeats when rows are dependent."""
    r, d = rows.shape
    coeffs = np.array(list(np.ndindex(*[p] * r)), dtype=np.int64).reshape(p**r, r)
    return coeffs @ rows % p


@st.composite
def intertwiner_systems(draw):
    """(algebra, rows, xs, ys): a span of dimension <= 4 and up to two
    conditions v x = y v, with y = x (a centralizer) or y drawn freely."""
    a = INTERTWINER_ALGEBRAS[draw(st.sampled_from(sorted(INTERTWINER_ALGEBRAS)))]
    vecs = st.integers(0, a.p - 1)
    rows = draw(hnp.arrays(np.int64, (draw(st.integers(0, 4)), a.dim), elements=vecs))
    xs = draw(hnp.arrays(np.int64, (draw(st.integers(0, 2)), a.dim), elements=vecs))
    ys = xs.copy() if draw(st.booleans()) else draw(
        hnp.arrays(np.int64, xs.shape, elements=vecs))
    return a, rows, xs, ys


@settings(max_examples=80, deadline=None)
@given(intertwiner_systems())
def test_intertwiner_rows_match_brute_force(system):
    a, rows, xs, ys = system
    p = a.p
    got = alg.intertwiner_rows(a, rows, xs, ys)
    assert np.array_equal(got, gfp.row_basis(got, p))  # RREF rows
    want = {tuple(v) for v in enumerate_span(rows, p)
            if all((a.mul(v, x) == a.mul(y, v)).all() for x, y in zip(xs, ys))}
    assert {tuple(v) for v in enumerate_span(got, p)} == want


@pytest.mark.parametrize("key", sorted(INTERTWINER_ALGEBRAS))
def test_center_rows_match_brute_force(key):
    a = INTERTWINER_ALGEBRAS[key]
    eye = np.eye(a.dim, dtype=np.int64)
    everything = enumerate_span(eye, a.p)
    commuting = a.mul(everything[:, None], eye[None]) == a.mul(eye[None], everything[:, None])
    want = {tuple(v) for v in everything[commuting.all(axis=(1, 2))]}
    assert {tuple(v) for v in enumerate_span(a.center_rows(), a.p)} == want


def test_invertible_combination_is_none_only_without_an_invertible_element():
    # the matrices [[x, y], [0, 0]] hold no invertible one
    assert alg.invertible_combination([np.array([[1, 0], [0, 0]]),
                                       np.array([[0, 1], [0, 0]])], 2) is None
    assert alg.invertible_combination([], 2) is None
    # e_11 and e_22 are singular, their sum is not
    c = alg.invertible_combination([np.array([[1, 0], [0, 0]]),
                                    np.array([[0, 0], [0, 1]])], 2)
    assert c.tolist() == [1, 1]


def first_invertible_combination(mats, p):
    """The first c in np.ndindex order with sum_k c_k mats[k] invertible."""
    for c in np.ndindex(*[p] * len(mats)):
        if gfp.is_invertible(np.tensordot(c, mats, axes=1) % p, p):
            return list(c)
    return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invertible_combination_is_the_first_in_scan_order(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, {2: 7, 3: 5, 5: 4}[p]))
    # a shared right factor e makes every combination singular when e is
    xs = data.draw(hnp.arrays(np.int64, (n, d, d), elements=st.integers(0, p - 1)))
    e = data.draw(hnp.arrays(np.int64, (d, d), elements=st.integers(0, p - 1)))
    mats = xs @ e % p
    got = alg.invertible_combination(list(mats), p)
    want = first_invertible_combination(mats, p)
    assert (got if got is None else got.tolist()) == want


def test_invertible_combination_unpacked_over_gf2():
    # 40 x 40 over GF(2) is too wide for packed rows; mats[2] = 0 and
    # mats[1] are singular, the first invertible sum is mats[0] + mats[1]
    d = 40
    top = np.diag([1] * (d - 1) + [0])
    mats = [top, np.eye(d, dtype=np.int64) - top, np.zeros((d, d), dtype=np.int64)]
    assert not alg._packs(2, d)
    assert alg.invertible_combination(mats, 2).tolist() == [1, 1, 0]
    assert first_invertible_combination(mats, 2) == [1, 1, 0]


def test_invertible_combination_is_inconclusive_beyond_the_cap():
    # 2^21 combinations exceed EXHAUSTIVE_CAP
    mats = [np.array([[1, 0], [0, 0]])] * 21
    assert 2**21 > alg.EXHAUSTIVE_CAP
    with pytest.raises(alg.Inconclusive, match="exceeds cap"):
        alg.invertible_combination(mats, 2)


# -- derived invariants, cached on each algebra ----------------------------------


def count_calls(monkeypatch, name):
    """Record the algebra each call of algebra.<name> gets."""
    seen = []
    orig = getattr(alg, name)

    def recording(a, *args):
        seen.append(a)
        return orig(a, *args)

    monkeypatch.setattr(alg, name, recording)
    return seen


def s3_mod_3():
    return group_algebra(RADICAL_GROUPS["S3"][0], 3)


def test_simple_components_are_cached_per_seed(monkeypatch):
    radicals = count_calls(monkeypatch, "_radical")
    components = count_calls(monkeypatch, "_simple_components")
    a = matrix_algebra(2, 3)
    by_seed = {seed: a.simple_components(seed) for seed in (1, 2)}
    assert a.simple_components(1) is by_seed[1]
    assert a.simple_components(2) is by_seed[2]
    assert len(components) == 2
    for seed, comps in by_seed.items():
        fresh = matrix_algebra(2, 3).simple_components(seed)
        assert [c.primitive_bar.tolist() for c in comps] == \
            [c.primitive_bar.tolist() for c in fresh]
    # two equal algebras each derive their radical once, however often asked
    b, c = s3_mod_3(), s3_mod_3()
    for x in (b, c, b, c):
        x.radical_rows()
        x.semisimple_quotient()
        x.simple_components()
    assert np.array_equal(b.radical_rows(), c.radical_rows())
    assert [sum(x is y for x in radicals) for y in (b, c)] == [1, 1]


def test_cached_invariants_are_read_only():
    a = s3_mod_3()
    q = a.semisimple_quotient()
    comp = a.simple_components()[0]
    arrays = [a.radical_rows(), q.proj, q.section, q.alg.sc, q.alg.unit,
              comp.central_idempotent, comp.primitive_bar]
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            x += 1
    assert a.radical_rows().any()


@pytest.mark.parametrize("a", [matrix_algebra(2, 3), s3_mod_3(),
                               cyclic_group_algebra(4, 2)])
def test_corner_at_the_unit_is_the_algebra_on_the_identity_rows(a):
    corner = a.corner(a.unit)
    built = alg.span_algebra(np.eye(a.dim, dtype=np.int64), a.mul, a.unit, a.p)
    assert corner.alg is a
    assert np.array_equal(corner.rows, built.rows)
    assert np.array_equal(corner.alg.sc, built.alg.sc)
    assert np.array_equal(corner.alg.unit, built.alg.unit)
