import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

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
        assert pg.aut_inverse(a) in auts
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
