"""The batched unit scans keep the order of a scalar np.ndindex scan.

Each reference below walks the coefficient grid one vector at a time and
decides invertibility with the scalar `Algebra.is_unit_element`; the
batched scans must return the same first hit, the same sequence, and the
same fusion pairs with the same first witnesses.
"""
import numpy as np
import pytest

from blockfusion import algebra as alg
from blockfusion import fusion as fu
from blockfusion import gfp
from blockfusion import graded as gr
from blockfusion import workbench as wb

from test_algebra import cyclic_group_algebra, matrix_algebra


def scalar_units(a, rows):
    """Units in the row span of `rows`, in np.ndindex order of coefficients."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, a.dim)
    for tup in np.ndindex(*([a.p] * rows.shape[0])):
        x = np.mod(np.asarray(tup, dtype=np.int64) @ rows, a.p)
        if x.any() and a.is_unit_element(x):
            yield x


def scalar_normalizer(cd):
    """The scalar corner oracle: (phi, gbar) -> first witness."""
    g = cd.graded
    a = g.alg
    image_index = {tuple(v): u for u, v in cd.p_images.items()}
    found = {}
    for d in range(g.group.order):
        rows = np.eye(a.dim, dtype=np.int64)[g.component_indices(d)]
        for v in scalar_units(a, rows):
            vinv = a.inverse_element(v)
            phi = []
            for u in cd.P.elements:
                target = image_index.get(tuple(a.mul(a.mul(v, cd.p_images[u]), vinv)))
                if target is None:
                    break
                phi.append(cd.P.index(target))
            else:
                found.setdefault((tuple(phi), d), v)
    return found


ALGEBRAS = {
    "C2 over GF(2)": cyclic_group_algebra(2, 2),
    "C7 over GF(2)": cyclic_group_algebra(7, 2),  # 128 candidates, 4 chunks
    "C4 over GF(3)": cyclic_group_algebra(4, 3),
    "M2 over GF(2)": matrix_algebra(2, 2),
    "M2 over GF(3)": matrix_algebra(2, 3),
    "M2 over GF(5)": matrix_algebra(2, 5),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_iter_units_is_the_scalar_sequence(name):
    a = ALGEBRAS[name]
    got = list(alg.iter_units(a))
    want = list(scalar_units(a, np.eye(a.dim, dtype=np.int64)))
    assert len(got) == len(want)
    assert all((x == y).all() for x, y in zip(got, want))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_find_unit_in_space_is_the_scalar_first_hit(name):
    a = ALGEBRAS[name]
    rng = np.random.default_rng(3)
    spans = [np.eye(a.dim, dtype=np.int64)[::-1]]
    spans += [rng.integers(0, a.p, size=(k, a.dim)) for k in (1, 2, 3, a.dim)]
    for rows in spans:
        basis = gfp.row_basis(rows, a.p)
        want = next(scalar_units(a, basis), None)
        got = alg.find_unit_in_space(a, rows)
        assert (got is None) == (want is None)
        if want is not None:
            assert (got == want).all()


@pytest.fixture(scope="module")
def corners():
    """Corner data of SC1, SC3 and SC4 at their defect pointed groups."""
    out = {}
    for s in wb.catalog():
        if s.name.split("-")[0] in ("SC1", "SC3", "SC4"):
            r = wb.resolve_scenario(s)
            data, pt = wb.resolve_subgroup(r, s, wb.DEFAULT_CAP_ORDER)
            out[s.name] = (r, fu.corner_data(r.ext, data, pt))
    assert len(out) == 3
    return out


def test_homogeneous_unit_is_the_scalar_first_hit(corners):
    graded = [gr.graded_from_extension(r.ext)[0] for r, _ in corners.values()]
    graded += [cd.graded for _, cd in corners.values()]
    for g in graded:
        for d in range(1, g.group.order):
            rows = np.eye(g.alg.dim, dtype=np.int64)[g.component_indices(d)]
            want = next(scalar_units(g.alg, rows), None)
            got = gr.homogeneous_unit(g, d)
            assert (got is None) == (want is None)
            if want is not None:
                assert (got == want).all()


def test_normalizer_pairs_and_first_witnesses_match_scalar_scan(corners):
    for name, (r, cd) in corners.items():
        want = scalar_normalizer(cd)
        f = fu.fusion_F_normalizer(r.ext, cd)
        assert f.pairs == sorted(want), name
        for pair, w in want.items():
            assert (f.witnesses[pair] == w).all(), (name, pair)


def test_scans_raise_inconclusive_past_the_cap():
    m = matrix_algebra(2, 2)
    assert issubclass(alg.Inconclusive, RuntimeError)
    with pytest.raises(alg.Inconclusive, match="exceeds cap"):
        alg.find_unit_in_space(m, np.eye(4, dtype=np.int64), cap=15)
    with pytest.raises(alg.Inconclusive):
        list(alg.iter_units(m, cap=15))
    # at the cap itself the scan still runs
    assert alg.find_unit_in_space(m, np.eye(4, dtype=np.int64), cap=16) is not None


def test_unit_scan_yields_inverses():
    a = matrix_algebra(2, 3)
    for units, invs in alg.unit_scan(a, np.eye(a.dim, dtype=np.int64)):
        for v, w in zip(units, invs):
            assert (a.mul(v, w) == a.unit).all() and (a.mul(w, v) == a.unit).all()
