import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfusion import permgroups as pg


S3_GENS = [pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)]
S4_GENS = [pg.parse_cycles("(0 1)", 4), pg.parse_cycles("(0 1 2 3)", 4)]


def test_parse_and_format_cycles():
    assert pg.parse_cycles("(0 1)(2 3)", 4) == (1, 0, 3, 2)
    assert pg.parse_cycles("()", 3) == (0, 1, 2)
    assert pg.format_cycles((1, 0, 3, 2)) == "(0 1)(2 3)"
    assert pg.format_cycles((0, 1, 2)) == "()"
    with pytest.raises(ValueError):
        pg.parse_cycles("(0 3)", 3)
    with pytest.raises(ValueError):
        pg.parse_cycles("(0 1)(1 2)", 3)


def test_enumerate_trivial_and_c2():
    assert pg.enumerate_group([], 3).order == 1
    assert pg.enumerate_group([pg.parse_cycles("(0 1)", 2)], 2).order == 2


def test_enumerate_s3():
    # textbook closure: two generators give all 6 elements
    g = pg.enumerate_group(S3_GENS, 3)
    assert g.order == 6
    assert g.elements[0] == (0, 1, 2)


def test_enumerate_cap():
    with pytest.raises(pg.CapExceeded):
        pg.enumerate_group(S4_GENS, 4, cap=10)


def test_normalizer():
    s4 = pg.enumerate_group(S4_GENS, 4)
    c3 = pg.enumerate_group([pg.parse_cycles("(0 1 2)", 4)], 4)
    nz = pg.normalizer(s4, c3)
    assert nz.order == 6
    # brute-force oracle over all 24 elements
    expected = [
        x
        for x in s4.elements
        if all(pg.pconj(x, t) in c3 for t in c3.elements)
    ]
    assert set(nz.elements) == set(expected)
    assert pg.normalizer(s4, s4).order == 24
    assert pg.normalizer(s4, pg.trivial_group(4)).order == 24


def test_centralizer():
    s3 = pg.enumerate_group(S3_GENS, 3)
    c3 = pg.enumerate_group([pg.parse_cycles("(0 1 2)", 3)], 3)
    cz = pg.centralizer(s3, c3)
    assert cz.order == 3
    assert set(cz.elements) == set(c3.elements)
    assert pg.centralizer(s3, pg.trivial_group(3)).order == 6
    assert pg.centralizer(c3, c3).order == 3  # abelian


def test_quotient_s4_a4():
    s4 = pg.enumerate_group(S4_GENS, 4)
    a4 = pg.enumerate_group(
        [pg.parse_cycles("(0 1 2)", 4), pg.parse_cycles("(1 2 3)", 4)], 4
    )
    q = pg.quotient(s4, a4)
    assert q.order == 2
    for x in s4.elements:
        for y in s4.elements:
            assert q.group.mul(q.omega_of(x), q.omega_of(y)) == q.omega_of(pg.pmul(x, y))
    kernel = [x for x in s4.elements if q.omega_of(x) == q.group.identity]
    assert set(kernel) == set(a4.elements)


def test_quotient_trivial_cases():
    s3 = pg.enumerate_group(S3_GENS, 3)
    assert pg.quotient(s3, s3).order == 1
    assert pg.quotient(s3, pg.trivial_group(3)).order == 6


def test_quotient_rejects_non_normal():
    s3 = pg.enumerate_group(S3_GENS, 3)
    c2 = pg.enumerate_group([pg.parse_cycles("(0 1)", 3)], 3)
    with pytest.raises(ValueError):
        pg.quotient(s3, c2)


def test_p_subgroups():
    assert len(pg.p_subgroups(pg.trivial_group(2), 2)) == 1
    c2 = pg.enumerate_group([pg.parse_cycles("(0 1)", 2)], 2)
    assert [s.order for s in pg.p_subgroups(c2, 2)] == [1, 2]
    s3 = pg.enumerate_group(S3_GENS, 3)
    subs = pg.p_subgroups(s3, 3)
    assert [s.order for s in subs] == [1, 3]
    # exhaustive oracle for S4 at p=2: 1 trivial, 9 of order 2, 7 of order 4,
    # 3 Sylow D8s
    s4 = pg.enumerate_group(S4_GENS, 4)
    subs4 = pg.p_subgroups(s4, 2)
    from collections import Counter

    assert Counter(s.order for s in subs4) == {1: 1, 2: 9, 4: 7, 8: 3}


def test_aut_group_small():
    c2 = pg.enumerate_group([pg.parse_cycles("(0 1)", 2)], 2)
    assert len(pg.aut_group(c2)) == 1
    c3 = pg.enumerate_group([pg.parse_cycles("(0 1 2)", 3)], 3)
    assert len(pg.aut_group(c3)) == 2
    v4 = pg.enumerate_group(
        [pg.parse_cycles("(0 1)(2 3)", 4), pg.parse_cycles("(0 2)(1 3)", 4)], 4
    )
    auts = pg.aut_group(v4)
    assert len(auts) == 6
    # closed under composition and inverses, containing the identity
    ident = tuple(range(v4.order))
    assert ident in auts
    for a in auts:
        assert any(pg.aut_compose(a, b) == ident for b in auts)
        for b in auts:
            assert pg.aut_compose(a, b) in auts
    # every automorphism is a homomorphism
    for a in auts:
        for i, x in enumerate(v4.elements):
            for j, y in enumerate(v4.elements):
                k = v4.index(pg.pmul(x, y))
                assert a[k] == v4.index(
                    pg.pmul(v4.elements[a[i]], v4.elements[a[j]])
                )


def test_aut_group_known_orders():
    c4 = pg.enumerate_group([pg.parse_cycles("(0 1 2 3)", 4)], 4)
    c2_3 = pg.enumerate_group([pg.parse_cycles(c, 6)
                               for c in ("(0 1)", "(2 3)", "(4 5)")], 6)
    q8 = pg.enumerate_group([pg.parse_cycles("(0 1 2 3)(4 5 6 7)", 8),
                             pg.parse_cycles("(0 4 2 6)(1 7 3 5)", 8)], 8)
    c8 = pg.enumerate_group([pg.parse_cycles("(0 1 2 3 4 5 6 7)", 8)], 8)
    assert [g.order for g in (c4, c2_3, q8, c8)] == [4, 8, 8, 8]
    assert [len(pg.aut_group(g)) for g in (c4, c2_3, q8, c8)] == [2, 168, 24, 4]


def test_aut_group_d8():
    d8 = pg.enumerate_group(
        [pg.parse_cycles("(0 1 2 3)", 4), pg.parse_cycles("(0 2)", 4)], 4
    )
    assert d8.order == 8
    assert len(pg.aut_group(d8)) == 8


def test_is_table_hom_refuses_a_map_with_two_images_swapped():
    s3 = pg.enumerate_group(S3_GENS, 3)
    t = np.array([[s3.index(pg.pmul(x, y)) for y in s3.elements] for x in s3.elements])
    table = pg.GroupTable(t, s3.elements)
    ident = list(range(s3.order))
    assert pg.is_table_hom(ident, table, table)
    # conjugation by (0 1) is an automorphism, so a homomorphism
    conj = [s3.index(pg.pconj(S3_GENS[0], x)) for x in s3.elements]
    assert conj != ident and pg.is_table_hom(conj, table, table)
    swapped = list(conj)
    j, k = s3.index(S3_GENS[0]), s3.index(S3_GENS[1])
    swapped[j], swapped[k] = swapped[k], swapped[j]
    assert not pg.is_table_hom(swapped, table, table)


def test_aut_group_check_survives_python_O():
    # python -O strips assert statements; aut_group must still refuse an
    # element list that is not a group (S3 with one element dropped)
    script = textwrap.dedent("""
        import sys
        from blockfusion import permgroups as pg
        s3 = pg.enumerate_group(
            (pg.parse_cycles("(0 1)", 3), pg.parse_cycles("(0 1 2)", 3)), 3)
        print("optimize", sys.flags.optimize)
        print("automorphisms", len(pg.aut_group(s3)))
        broken = pg.PermGroup(3, s3.generators, s3.elements[:-1])
        try:
            pg.aut_group(broken)
            print("passed")
        except AssertionError as exc:
            print("refused:", exc)
    """)
    src = os.path.dirname(os.path.dirname(pg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1", "automorphisms 6",
        "refused: the elements of P do not form a group"]


# -- GroupTable against its brute-force definitions ---------------------------

TABLE_GROUPS = [
    pg.enumerate_group(gens, degree) for gens, degree in (
        (S3_GENS, 3),
        ([pg.parse_cycles("(0 1 2 3)", 4)], 4),
        ([pg.parse_cycles("(0 1)(2 3)", 4), pg.parse_cycles("(0 2)(1 3)", 4)], 4),
        ([pg.parse_cycles("(0 1 2 3)", 4), pg.parse_cycles("(0 2)", 4)], 4),
        ([pg.parse_cycles("(0 1 2 3)(4 5 6 7)", 8),
          pg.parse_cycles("(0 4 2 6)(1 7 3 5)", 8)], 8),
        ([pg.parse_cycles("(0 1 2)", 4), pg.parse_cycles("(1 2 3)", 4)], 4),
    )
]

# the smallest non-associative loop: a Latin square with identity 0
LOOP5 = np.array([[0, 1, 2, 3, 4],
                  [1, 0, 3, 4, 2],
                  [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1],
                  [4, 3, 1, 2, 0]])


def brute_identity(t):
    n = len(t)
    for i in range(n):
        if all(t[i, j] == j and t[j, i] == j for j in range(n)):
            return i
    return None


def brute_inv(t, i):
    e = brute_identity(t)
    return next((j for j in range(len(t)) if t[i, j] == e), None)


def brute_validate(t):
    """The first law a square table breaks, as GroupTable names it."""
    n = len(t)
    for i in range(n):
        if sorted(t[i]) != list(range(n)) or sorted(t[:, i]) != list(range(n)):
            return "table rows/columns are not permutations"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[t[i, j], k] != t[i, t[j, k]]:
                    return "table is not associative"
    if brute_identity(t) is None:
        return "no identity element; not a group table"
    return None


def agrees_with_brute_force(t):
    table = pg.GroupTable(t, tuple(range(len(t))))
    e = brute_identity(t)
    if e is None:
        with pytest.raises(ValueError, match="^no identity element; not a group table$"):
            table.identity
    else:
        assert table.identity == e
        for i in range(len(t)):
            j = brute_inv(t, i)
            if j is None:
                with pytest.raises(ValueError, match="^no inverse; not a group table$"):
                    table.inv(i)
            else:
                assert table.inv(i) == j
    msg = brute_validate(t)
    if msg is None:
        table.validate()
    else:
        with pytest.raises(ValueError, match=f"^{msg}$"):
            table.validate()


def relabelled(grp, sigma):
    """grp's table with element k renamed sigma[k]."""
    t = grp.mult_table()
    out = np.empty_like(t)
    out[np.ix_(sigma, sigma)] = np.asarray(sigma)[t]
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLE_GROUPS), st.data())
def test_group_table_of_relabelled_group_matches_brute_force(grp, data):
    sigma = data.draw(st.permutations(range(grp.order)))
    t = relabelled(grp, sigma)
    assert brute_validate(t) is None
    agrees_with_brute_force(t)


def brute_closure(t, gens, e):
    """The subgroup the elements gens generate, by products until stable."""
    sub = {e}
    while True:
        more = sub | {int(t[x, g]) for x in sub for g in gens}
        if more == sub:
            return sub
        sub = more


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLE_GROUPS), st.data())
def test_spanning_tree_reaches_every_element_from_greedy_generators(grp, data):
    t = relabelled(grp, data.draw(st.permutations(range(grp.order))))
    e = brute_identity(t)
    gens, steps = pg.GroupTable(t, tuple(range(len(t)))).spanning_tree()
    # greedy: each generator lies outside what the earlier ones generate
    assert all(g not in brute_closure(t, gens[:k], e) for k, g in enumerate(gens))
    assert brute_closure(t, gens, e) == set(range(len(t)))
    assert steps[:len(gens)] == [(g, e, k) for k, g in enumerate(gens)]
    reached = [e]
    for z, y, k in steps:
        assert y in reached and z == t[y, gens[k]]
        reached.append(z)
    assert sorted(reached) == list(range(len(t)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLE_GROUPS + [LOOP5]), st.data())
def test_group_table_of_isotope_matches_brute_force(base, data):
    # t'(i, j) = gamma(t(alpha i, beta j)) is still a Latin square, but it
    # may lose the identity, the inverses or associativity
    t = base if isinstance(base, np.ndarray) else base.mult_table()
    n = len(t)
    alpha, beta, gamma = (np.array(data.draw(st.permutations(range(n))))
                          for _ in range(3))
    agrees_with_brute_force(gamma[t[np.ix_(alpha, beta)]])


def test_group_table_refusals_name_the_broken_law():
    assert brute_identity(LOOP5) == 0
    agrees_with_brute_force(LOOP5)
    with pytest.raises(ValueError, match="^table is not associative$"):
        pg.GroupTable(LOOP5, tuple(range(5))).validate()
    # x - y mod 5: a Latin square with a right identity but no identity
    sub = (np.arange(5)[:, None] - np.arange(5)[None, :]) % 5
    agrees_with_brute_force(sub)
    with pytest.raises(ValueError, match="^no identity element; not a group table$"):
        pg.GroupTable(sub, tuple(range(5))).identity
    # an identity, but row 1 never reaches it
    no_inv = np.array([[0, 1, 2], [1, 1, 1], [2, 1, 2]])
    agrees_with_brute_force(no_inv)
    with pytest.raises(ValueError, match="^no inverse; not a group table$"):
        pg.GroupTable(no_inv, (0, 1, 2)).inv(1)
    with pytest.raises(ValueError, match="^table rows/columns are not permutations$"):
        pg.GroupTable(no_inv, (0, 1, 2)).validate()
    # every row a permutation, every column constant
    rows_only = np.tile(np.arange(3), (3, 1))
    agrees_with_brute_force(rows_only)
    with pytest.raises(ValueError, match="^table rows/columns are not permutations$"):
        pg.GroupTable(rows_only, (0, 1, 2)).validate()
    with pytest.raises(ValueError, match="^malformed group table$"):
        pg.GroupTable(np.zeros((2, 2), dtype=np.int64), (0,)).validate()
