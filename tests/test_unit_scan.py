"""The batched unit scans keep the order of a scalar np.ndindex scan.

Each reference below walks the coefficient grid one vector at a time and
decides invertibility with the scalar `Algebra.is_unit_element`; the
batched scans must return the same first hit, the same sequence, and the
same fusion pairs with the same first witnesses.
"""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockfusion import algebra as alg
from blockfusion import blocks as bl
from blockfusion import fusion as fu
from blockfusion import gfp
from blockfusion import graded as gr
from blockfusion import permgroups as pg
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
    "C7 over GF(2)": cyclic_group_algebra(7, 2),  # 128 candidates, 7 chunks
    "C4 over GF(3)": cyclic_group_algebra(4, 3),
    "M2 over GF(2)": matrix_algebra(2, 2),
    "M2 over GF(3)": matrix_algebra(2, 3),
    "M2 over GF(5)": matrix_algebra(2, 5),
    # scans that cross both the low-digit table and the high digits
    "C9 over GF(2)": cyclic_group_algebra(9, 2),  # 512 candidates, 9 chunks
    "C6 over GF(3)": cyclic_group_algebra(6, 3),  # 729 candidates, 7 chunks
    "C5 over GF(5)": cyclic_group_algebra(5, 5),  # 3,125 candidates, 27 chunks
}


def c33_span():
    """kC33 over GF(2) with a 3-row span holding both units and non-units:
    d = 33 is past gfp.PACKED_WIDTH, so its scan eliminates unpacked."""
    rows = np.zeros((3, 33), dtype=np.int64)
    rows[0, [0, 11]] = 1  # 1 + x^11 divides x^33 - 1, so it is a zero divisor
    rows[1, [0, 1, 3]] = 1
    rows[2, [2, 5, 30]] = 1
    return cyclic_group_algebra(33, 2), rows


SCANS = {name: (a, np.eye(a.dim, dtype=np.int64)) for name, a in ALGEBRAS.items()}
SCANS["3-row span of C33 over GF(2)"] = c33_span()


def chunk_count(p, r):
    """p^(r - m) + max(m - 1, 0), m the largest integer <= r with
    p^m <= UNIT_SCAN_CHUNK: one chunk for r = 0, p^r chunks of one vector
    for m = 0, else one chunk per low digit and then one per nonzero value
    of the high digits."""
    m = 0
    while m < r and p ** (m + 1) <= alg.UNIT_SCAN_CHUNK:
        m += 1
    return p ** (r - m) + max(m - 1, 0)


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
    graded = [gr.graded_corner(r.ext, r.ext.b)[0] for r, _ in corners.values()]
    graded += [cd.graded for _, cd in corners.values()]
    for g in graded:
        for d in range(1, g.group.order):
            rows = np.eye(g.alg.dim, dtype=np.int64)[g.component_indices(d)]
            want = next(scalar_units(g.alg, rows), None)
            got = gr.homogeneous_unit(g, d)
            assert (got is None) == (want is None)
            if want is not None:
                assert (got == want).all()


@pytest.fixture(scope="module")
def sc2_corner():
    """SC2's defect corner: dimension 24, so its scans take the packed path
    with d > 8, over two components of 2^12 vectors."""
    s = next(s for s in wb.catalog() if s.name.startswith("SC2"))
    r = wb.resolve_scenario(s)
    data, pt = wb.resolve_subgroup(r, s, wb.DEFAULT_CAP_ORDER)
    cd = fu.corner_data(r.ext, data, pt)
    assert cd.graded.alg.dim == 24 and cd.graded.component_dims() == [12, 12]
    return r, cd


@pytest.fixture(scope="module")
def sc2_scalar(sc2_corner):
    return scalar_normalizer(sc2_corner[1])


def assert_same_normalizer(got, want, name=""):
    assert sorted(got) == sorted(want), name
    for pair, w in want.items():
        assert (got[pair] == w).all(), (name, pair)


def test_normalizer_pairs_and_first_witnesses_match_scalar_scan(corners, sc2_corner,
                                                                sc2_scalar):
    for name, (r, cd) in {**corners, "SC2": sc2_corner}.items():
        f = fu.fusion_F_normalizer(r.ext, cd)
        want = sc2_scalar if name == "SC2" else scalar_normalizer(cd)
        assert_same_normalizer(f.witnesses, want, name)
        assert f.pairs == sorted(f.witnesses)


def permutation_match(a, v, images):
    """The k -> k' with v y_k = y_k' v, the y the images, as a tuple when
    it is a permutation, else None."""
    vy = np.einsum("i,uj,ijk->uk", v, images, a.sc) % a.p
    yv = np.einsum("ui,j,ijk->uk", images, v, a.sc) % a.p
    match = (vy[:, None] == yv[None]).all(axis=2)
    if (match.sum(axis=0) == 1).all() and (match.sum(axis=1) == 1).all():
        return tuple(match.argmax(axis=1).tolist())
    return None


def component_scan(g, d):
    """The vectors of component d in the scan order of the coefficients."""
    rows = g.component_rows(d)
    return np.array(list(np.ndindex(*[g.alg.p] * len(rows))), dtype=np.int64) @ rows % g.alg.p


def test_normalizer_solves_only_undecided_permutation_survivors(sc2_corner, sc2_scalar,
                                                                 monkeypatch):
    r, cd = sc2_corner
    g = cd.graded
    a = g.alg
    images = np.array([cd.p_images[u] for u in cd.P.elements])
    scanned, solved = [], []
    real_scan, real_solve = fu._span_sums, fu._solve_stack

    def scan(*args):
        for coeffs, sums in real_scan(*args):
            scanned.append(len(coeffs))
            yield coeffs, sums

    def solve(stack, rhs, p):
        is_unit, x = real_solve(stack, rhs, p)
        solved.append((np.array(stack), is_unit))
        return is_unit, x

    monkeypatch.setattr(fu, "_span_sums", scan)
    monkeypatch.setattr(fu, "_solve_stack", solve)
    f = fu.fusion_F_normalizer(r.ext, cd)
    # the linear test sees every vector of both components
    assert sum(scanned) == 2 * 2**12
    # the solver's rows are v's packed left multiplications, which name v
    vectors = np.concatenate([component_scan(g, d) for d in range(2)])
    index = {key: i for i, key in enumerate(map(bytes, gfp.pack_gf2(
        np.einsum("ni,ijk->nkj", vectors, a.sc) % 2)))}
    assert len(index) == len(vectors) - 1  # the zero vector lies in both
    decided, seen = set(), set()
    for stack, is_unit in solved:
        new = set()
        for key, unit in zip(map(bytes, stack), is_unit):
            i = index[key]
            d = i // 2**12
            phi = permutation_match(a, vectors[i], images)
            assert phi is not None and (phi, d) not in decided
            assert unit == a.is_unit_element(vectors[i])
            seen.add(i)
            if unit:
                new.add((phi, d))
        decided |= new
    # every survivor of a pair up to the pair's first unit was solved
    first = {}
    for i, v in enumerate(vectors):
        phi = permutation_match(a, v, images)
        pair = (phi, i // 2**12)
        if phi is not None and pair not in first:
            assert i in seen
            if a.is_unit_element(v):
                first[pair] = v
    assert_same_normalizer(f.witnesses, first)
    assert_same_normalizer(f.witnesses, sc2_scalar)


def test_every_normalizing_unit_has_a_permutation_match(corners, sc2_corner):
    # soundness of the oracle's filter: a unit v with v y_k = y_k' v for some
    # k' at every k (the linear test) has a permutation match; the units
    # that fail the linear test do not normalize Pi
    for name, (_, cd) in {**corners, "SC2": sc2_corner}.items():
        g = cd.graded
        a = g.alg
        images = np.array([cd.p_images[u] for u in cd.P.elements])
        for d in range(g.group.order):
            units = np.array(list(scalar_units(a, g.component_rows(d))))
            vy = np.einsum("ni,uj,ijk->nuk", units, images, a.sc) % a.p
            yv = np.einsum("ui,nj,ijk->nuk", images, units, a.sc) % a.p
            linear = (vy[:, :, None] == yv[:, None]).all(axis=3).any(axis=2).all(axis=1)
            assert linear.any(), (name, d)
            for v in units[linear]:
                assert permutation_match(a, v, images) is not None, (name, d)


# (G, N): kG graded by G/N; every component has |N| elements
GRADINGS = [
    (("(0 1 2 3)",), ("(0 2)(1 3)",), 4),
    (("(0 1)", "(0 1 2)"), ("(0 1 2)",), 3),
    (("(0 1 2 3 4 5)",), ("(0 2 4)(1 3 5)",), 6),
    (("(0 1 2 3)", "(0 2)"), ("(0 1 2 3)",), 4),
    (("(0 1 2)", "(1 2 3)"), ("(0 1)(2 3)", "(0 2)(1 3)"), 4),
    (("(0 1 2 3 4 5 6 7 8)",), ("(0 1 2 3 4 5 6 7 8)",), 9),
    (("(0 1 2 3)",), ("(0 1 2 3)",), 4),
]


@st.composite
def normalizer_systems(draw):
    """A group algebra kG graded by G/N on a random homogeneous basis,
    with 1 to 3 distinct elements standing in for Pi: group elements,
    which group elements normalize, or random vectors.  The span
    row-reduces the stacked pieces, so each span row is labelled by the
    coset of its support, and the grading is validated."""
    p = draw(st.sampled_from([2, 3, 5]))
    gens_g, gens_n, degree = draw(st.sampled_from(GRADINGS))
    g = pg.enumerate_group(tuple(pg.parse_cycles(c, degree) for c in gens_g), degree)
    n = pg.enumerate_group(tuple(pg.parse_cycles(c, degree) for c in gens_n), degree)
    quot = pg.quotient(g, n)
    # the scalar reference visits every vector: keep the scans small
    assume(p ** n.order * quot.order <= 1250)
    kg = bl.GroupAlgebra(g, p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for d in range(quot.order):
        idx = [kg.index(x) for x in g.elements if quot.omega_of(x) == d]
        block = np.eye(n.order, dtype=np.int64)
        while draw(st.booleans()):
            block = rng.integers(0, p, size=(n.order, n.order))
            if gfp.is_invertible(block, p):
                break
            block = np.eye(n.order, dtype=np.int64)
        piece = np.zeros((n.order, kg.n), dtype=np.int64)
        piece[:, idx] = block
        rows.append(piece)
    span = kg.span(np.vstack(rows))
    deg = [quot.omega_of(g.elements[np.flatnonzero(r)[0]]) for r in span.rows]
    graded = gr.GradedAlgebra(span.alg, quot.group, np.array(deg))
    graded.validate()
    images = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            y = span.coords(kg.vec_of(g.elements[draw(st.integers(0, g.order - 1))]))
        else:
            y = rng.integers(0, p, size=kg.n)
        if not any((y == z).all() for z in images):
            images.append(y)
    return graded, np.array(images)


@settings(max_examples=30, deadline=None)
@given(normalizer_systems())
def test_normalizing_units_match_scalar_scan(system):
    graded, images = system
    labels = list(range(len(images)))
    cd = SimpleNamespace(graded=graded, p_images=dict(zip(labels, images)),
                         P=SimpleNamespace(elements=labels, index=labels.index))
    assert_same_normalizer(fu._normalizing_units(graded, images), scalar_normalizer(cd))


def test_scans_raise_inconclusive_past_the_cap(monkeypatch):
    m = matrix_algebra(2, 2)
    assert issubclass(alg.Inconclusive, RuntimeError)
    monkeypatch.setattr(alg, "EXHAUSTIVE_CAP", 15)
    with pytest.raises(alg.Inconclusive, match="exceeds cap 15"):
        alg.find_unit_in_space(m, np.eye(4, dtype=np.int64))
    with pytest.raises(alg.Inconclusive):
        list(alg.iter_units(m))
    # at the cap itself the scan still runs
    monkeypatch.setattr(alg, "EXHAUSTIVE_CAP", 16)
    assert alg.find_unit_in_space(m, np.eye(4, dtype=np.int64)) is not None


# the chunks and scan order of the one generator behind every unit search,
# and the first hit of find_unit_in_space
@pytest.mark.parametrize("name", sorted(SCANS))
def test_unit_scan_is_the_scalar_sequence_with_inverses(name):
    a, rows = SCANS[name]
    lmul = np.array([a.left_mult(r) for r in rows])
    chunks = list(alg._invertible_combinations(lmul, a.p))
    assert len(chunks) == chunk_count(a.p, rows.shape[0])
    got = [c @ rows % a.p for hits in chunks for c in hits]
    want = list(scalar_units(a, rows))
    assert 0 < len(want) < a.p ** rows.shape[0] - 1
    assert len(got) == len(want)
    assert all((x == y).all() for x, y in zip(got, want))
    first = alg.find_unit_in_space(a, rows)
    want_first = next(scalar_units(a, gfp.row_basis(rows, a.p)))
    assert (first == want_first).all()


@pytest.mark.parametrize("name", ["C9 over GF(2)", "C6 over GF(3)", "C5 over GF(5)"])
def test_a_first_unit_at_index_1_costs_one_solve_of_p_candidates(name, monkeypatch):
    # over the identity rows the second vector of the scan is the last
    # group element, a unit
    a = ALGEBRAS[name]
    rows = np.eye(a.dim, dtype=np.int64)
    assert (next(scalar_units(a, rows)) == rows[-1]).all()
    solved = []
    real = alg._solve_stack

    def counting(stack, rhs, p):
        solved.append(len(stack))
        return real(stack, rhs, p)

    monkeypatch.setattr(alg, "_solve_stack", counting)
    unit = alg.find_unit_in_space(a, rows)
    assert (unit == rows[-1]).all()
    assert solved == [a.p]
