import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockfusion import gfp


def test_fieldspec_accepts_primes():
    assert gfp.FieldSpec(2).p == 2
    assert gfp.FieldSpec(97).p == 97


@pytest.mark.parametrize("p", [1, 4, 6, 91, 101])
def test_fieldspec_rejects_nonprimes(p):
    with pytest.raises(ValueError):
        gfp.FieldSpec(p)


def test_rank_identity():
    assert gfp.rank(np.eye(3, dtype=int), 3) == 3


def test_rank_zero():
    assert gfp.rank(np.zeros((2, 5), dtype=int), 2) == 0


def test_rank_equal_rows():
    assert gfp.rank([[1, 1], [1, 1]], 2) == 1


def test_solve_identity():
    b = np.array([[1], [2], [0]])
    x = gfp.solve(np.eye(3, dtype=int), b, 3)
    assert (x == b).all()


def test_solve_inconsistent():
    assert gfp.solve(np.zeros((2, 2), dtype=int), [[1], [0]], 2) is None


def test_solve_scalar_inverse():
    x = gfp.solve([[2]], [[1]], 3)
    assert x is not None and x[0, 0] == 2


def test_nullspace_identity_and_zero():
    assert gfp.nullspace(np.eye(4, dtype=int), 5).shape[1] == 0
    assert gfp.nullspace(np.zeros((3, 3), dtype=int), 5).shape[1] == 3


def test_nullspace_parity():
    ns = gfp.nullspace([[1, 1]], 2)
    assert ns.shape == (2, 1)
    assert (ns[:, 0] == [1, 1]).all()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_transpose_and_nullity_sweep(p):
    rng = np.random.default_rng(12)
    for _ in range(25):
        m = rng.integers(0, p, size=rng.integers(1, 7, size=2))
        assert gfp.rank(m, p) == gfp.rank(m.T, p)
        ns = gfp.nullspace(m, p)
        assert gfp.rank(m, p) + ns.shape[1] == m.shape[1]
        assert not gfp.matmul(m, ns, p).any()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_exactness_sweep(p):
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.integers(0, p, size=(4, 3))
        x0 = rng.integers(0, p, size=(3, 2))
        b = gfp.matmul(a, x0, p)
        x = gfp.solve(a, b, p)
        assert x is not None
        assert (gfp.matmul(a, x, p) == b).all()


def test_rowspace_helpers():
    basis = gfp.row_basis([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2)
    assert basis.shape[0] == 2
    assert gfp.in_rowspace(basis, [1, 0, 1], 2)
    assert not gfp.in_rowspace(basis, [1, 0, 0], 2)
    meet = gfp.intersect_rowspaces([[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]], 3)
    assert meet.shape[0] == 1 and (meet[0] == [0, 1, 0]).all()


def test_inverse():
    a = [[1, 1], [0, 1]]
    inv = gfp.inverse(a, 5)
    assert (gfp.matmul(a, inv, 5) == np.eye(2)).all()
    with pytest.raises(ValueError):
        gfp.inverse([[1, 1], [1, 1]], 2)


# -- batched elimination against the scalar routines ---------------------------


@st.composite
def stacks(draw, p, dims):
    """A stack of random matrices over GF(p); some are made singular by
    setting their last row to a multiple of the first (or to zero)."""
    d = draw(dims)
    n = draw(st.integers(1, 4))
    m = draw(hnp.arrays(np.int64, (n, d, d), elements=st.integers(0, p - 1)))
    singular = draw(hnp.arrays(np.bool_, (n,)))
    if d:
        k = draw(st.integers(0, p - 1))
        m[singular, -1] = (k * m[singular, 0]) % p if d > 1 else 0
    return m


def _check_batch_inverse(m, p):
    # [L | I]: the solutions are the inverses
    is_unit, inv = gfp.batch_solve(m, np.eye(m.shape[1], dtype=np.int64), p)
    assert is_unit.shape == (m.shape[0],) and inv.shape == m.shape
    for a, ok, x in zip(m, is_unit, inv):
        assert ok == gfp.is_invertible(a, p)
        if ok:
            assert (x == gfp.inverse(a, p)).all()
        else:
            assert not x.any()


BATCH_SETTINGS = settings(max_examples=40, deadline=None)


@pytest.mark.parametrize("p", [3, 5])
def test_batch_inverse_matches_scalar_odd_p(p):
    @BATCH_SETTINGS
    @given(stacks(p, st.integers(0, 9)))
    def check(m):
        _check_batch_inverse(m, p)

    check()


@BATCH_SETTINGS
@given(stacks(2, st.integers(0, 32)))
def test_batch_inverse_matches_scalar_gf2_packed(m):
    _check_batch_inverse(m, 2)


@settings(max_examples=15, deadline=None)
@given(stacks(2, st.integers(33, 40)))
def test_batch_inverse_matches_scalar_gf2_wide(m):
    _check_batch_inverse(m, 2)


@pytest.mark.parametrize("p", [40009, 65537, 3037000493])
def test_batch_inverse_matches_scalar_large_p(p):
    # entries near p overflow 32-bit products, and at the largest prime with
    # p^2 < 2^63 any unreduced entry overflows 64-bit ones; a zero top-left
    # entry makes the first pivot come from a lower row
    @settings(max_examples=25, deadline=None)
    @given(stacks(p, st.integers(2, 6)))
    def check(m):
        m[:, 0, 0] = 0
        _check_batch_inverse(m, p)

    check()
    _check_batch_inverse(np.array([[[0, p - 1], [p - 1, p - 2]]]), p)


def test_batch_solve_refuses_p_past_int64():
    with pytest.raises(ValueError):
        gfp.batch_solve(np.eye(2, dtype=np.int64)[None], np.eye(2), 3037000507)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_batch_solve_matches_scalar_solve(p):
    @BATCH_SETTINGS
    @given(stacks(p, st.integers(1, 12)), st.data())
    def check(m, data):
        d = m.shape[1]
        rhs = data.draw(hnp.arrays(np.int64, (d, data.draw(st.integers(1, 3))),
                                   elements=st.integers(0, p - 1)))
        is_unit, x = gfp.batch_solve(m, rhs, p)
        for a, ok, xa in zip(m, is_unit, x):
            assert ok == gfp.is_invertible(a, p)
            if ok:
                assert (xa == gfp.solve(a, rhs, p)).all()
            else:
                assert not xa.any()

    check()


@BATCH_SETTINGS
@given(stacks(2, st.integers(0, 32)), st.data())
def test_packed_gf2_kernel_matches_batch_solve(m, data):
    # also against the int64 elimination, which batch_solve does not take
    # at these sizes
    rhs = data.draw(hnp.arrays(np.int64, (m.shape[1], data.draw(st.integers(1, 32))),
                               elements=st.integers(0, 1)))
    is_unit, x = gfp.solve_packed_gf2(gfp.pack_gf2(m), rhs)
    for want_unit, want_x in (gfp.batch_solve(m, rhs, 2),
                              gfp._batch_solve_modp(m, rhs, 2)):
        assert (is_unit == want_unit).all() and (x == want_x).all()


def test_packed_gf2_kernel_refuses_past_the_word():
    with pytest.raises(ValueError):
        gfp.solve_packed_gf2(np.zeros((1, 33), dtype=np.int64),
                             np.zeros((33, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        gfp.solve_packed_gf2(np.zeros((1, 2), dtype=np.int64),
                             np.zeros((2, 33), dtype=np.int64))


@pytest.mark.parametrize("d, packed", [(1, True), (32, True), (33, False)])
def test_batch_inverse_branch_at_p2(monkeypatch, d, packed):
    # over GF(2) the packed XOR branch inverts exactly when 2d <= 64
    calls = []
    real = gfp._batch_solve_gf2
    monkeypatch.setattr(gfp, "_batch_solve_gf2",
                        lambda *a: calls.append(1) or real(*a))
    eye = np.eye(d, dtype=np.int64)
    is_unit, inv = gfp.batch_solve(eye[None], eye, 2)
    assert is_unit.all() and (inv[0] == np.eye(d)).all()
    assert bool(calls) == packed


# -- the scalar routines against enumeration of GF(p)^n, p in {2, 3}, n <= 3 ---


BRUTE_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def small_systems(draw):
    """(p, a): a matrix over GF(p) with at most 3 rows and 1 to 3 columns."""
    p = draw(st.sampled_from([2, 3]))
    shape = (draw(st.integers(0, 3)), draw(st.integers(1, 3)))
    return p, draw(hnp.arrays(np.int64, shape, elements=st.integers(0, p - 1)))


def grid(p, n):
    """Every vector of GF(p)^n, one per row."""
    return np.array(list(itertools.product(range(p), repeat=n)),
                    dtype=np.int64).reshape(p**n, n)


def span_set(rows, p, n):
    """The row span, enumerated: every combination of the rows."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, n)
    return {tuple(v) for v in grid(p, rows.shape[0]) @ rows % p}


def assert_independent(rows, p, n):
    assert len(span_set(rows, p, n)) == p ** len(rows)


@BRUTE_SETTINGS
@given(small_systems())
def test_rref_is_reduced_and_spans_the_rows(system):
    p, a = system
    n = a.shape[1]
    r, pivots = gfp.rref(a, p)
    assert r.shape == a.shape
    assert span_set(r, p, n) == span_set(a, p, n)
    assert list(pivots) == sorted(pivots)
    k = len(pivots)
    assert not r[k:].any()
    for row, c in enumerate(pivots):
        assert not r[row, :c].any() and r[row, c] == 1
        assert (r[:, c] == np.eye(len(r), dtype=np.int64)[row]).all()
    assert k == len(gfp.row_basis(a, p)) == gfp.rank(a, p)


@BRUTE_SETTINGS
@given(small_systems())
def test_row_basis_is_an_independent_spanning_set(system):
    p, a = system
    n = a.shape[1]
    b = gfp.row_basis(a, p)
    assert_independent(b, p, n)
    assert span_set(b, p, n) == span_set(a, p, n)


@BRUTE_SETTINGS
@given(small_systems())
def test_nullspace_is_every_solution_of_ax_0(system):
    p, a = system
    n = a.shape[1]
    kernel = {tuple(x) for x in grid(p, n) if not (a @ x % p).any()}
    basis = gfp.nullspace(a, p).T
    assert_independent(basis, p, n)
    assert span_set(basis, p, n) == kernel


@BRUTE_SETTINGS
@given(small_systems(), st.data())
def test_solve_finds_a_solution_iff_one_exists(system, data):
    p, a = system
    m, n = a.shape
    b = data.draw(hnp.arrays(np.int64, (m, 1), elements=st.integers(0, p - 1)))
    solutions = [x for x in grid(p, n) if (a @ x % p == b[:, 0]).all()]
    x = gfp.solve(a, b, p)
    if not solutions:
        assert x is None
    else:
        assert x is not None and x.shape == (n, 1)
        assert (a @ x % p == b).all()


# -- coordinates over an RREF basis are read off its pivot columns -------------


@st.composite
def spans_and_vectors(draw):
    """(p, basis, v): an RREF basis of at most 4 rows in GF(p)^n, p in
    {2, 3, 5}, n <= 5, and up to 24 vectors: combinations of the basis,
    zero vectors and arbitrary vectors, which may lie outside the span."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    a = draw(hnp.arrays(np.int64, (draw(st.integers(0, 4)), n),
                        elements=st.integers(0, p - 1)))
    basis = gfp.row_basis(a, p)
    k = draw(st.integers(0, 8))
    inside = draw(hnp.arrays(np.int64, (k, len(basis)),
                             elements=st.integers(0, p - 1))) @ basis % p
    anywhere = draw(hnp.arrays(np.int64, (draw(st.integers(0, 8)), n),
                               elements=st.integers(0, p - 1)))
    zeros = np.zeros((draw(st.integers(0, 8)), n), dtype=np.int64)
    order = draw(st.permutations(range(k + len(anywhere) + len(zeros))))
    v = np.vstack([inside, anywhere, zeros])[list(order)]
    return p, basis, v


def eliminated_coords(basis, v, p):
    """The coordinates by elimination of [basis.T | v.T], or None."""
    x = gfp.solve(basis.T, v.T, p)
    return None if x is None else x.T


@BRUTE_SETTINGS
@given(spans_and_vectors())
def test_coords_over_an_rref_basis_are_read_off_the_pivots(case):
    p, basis, v = case
    expected = eliminated_coords(basis, v, p)
    with mock.patch.object(gfp, "solve", wraps=gfp.solve) as solve:
        got = gfp.coords_in_rows(basis, v, p)
        inside = gfp.in_rowspace(basis, v, p)
    assert not solve.called
    assert inside == (expected is not None)
    if expected is None:
        assert got is None
    else:
        assert got.shape == (len(v), len(basis))
        assert (got == expected).all()


@BRUTE_SETTINGS
@given(spans_and_vectors(), st.data())
def test_coords_over_a_basis_not_in_rref_still_eliminate(case, data):
    p, basis, v = case
    r = len(basis)
    # mix the rows by an invertible matrix, or append a zero row
    mix = data.draw(hnp.arrays(np.int64, (r, r), elements=st.integers(0, p - 1)))
    if gfp.is_invertible(mix, p):
        other = mix @ basis % p
    else:
        other = np.vstack([basis, np.zeros((1, basis.shape[1]), dtype=np.int64)])
    assume(not (len(other) == r and (other == basis).all()))
    with mock.patch.object(gfp, "solve", wraps=gfp.solve) as solve:
        got = gfp.coords_in_rows(other, v, p)
    assert solve.called
    if eliminated_coords(basis, v, p) is None:
        assert got is None
    else:
        assert got is not None and (got @ other % p == v).all()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coords_over_the_empty_basis(p):
    empty = np.zeros((0, 3), dtype=np.int64)
    got = gfp.coords_in_rows(empty, np.zeros((4, 3), dtype=np.int64), p)
    assert got.shape == (4, 0)
    assert gfp.coords_in_rows(empty, [[0, 0, 0], [0, 1, 0]], p) is None
    assert gfp.in_rowspace(empty, [0, 0, 0], p)


# -- rref over GF(2) on packed rows against the column loop --------------------


def column_loop_rref(a, p):
    """Gauss-Jordan with one numpy pass per column: the reference that the
    packed GF(2) elimination must reproduce bit for bit."""
    m = gfp.asmat(a, p).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = (m[r] * gfp.inv_mod(m[r, c], p)) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


@st.composite
def gf2_matrices(draw):
    """0 to 70 rows of 0 to 130 columns over GF(2), so some rows are wider
    than a 64-bit word; some rows are sums of others, and the density
    varies so that sparse and dense matrices both occur."""
    rows, cols = draw(st.integers(0, 70)), draw(st.integers(0, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = (rng.random((rows, cols)) < draw(st.floats(0, 1))).astype(np.int64)
    for i in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=rows)):
        if rows > 1:
            m[i] = m[rng.integers(0, rows, size=draw(st.integers(1, 3)))].sum(axis=0) % 2
    return m


@settings(max_examples=120, deadline=None)
@given(gf2_matrices())
def test_rref_over_gf2_is_the_column_loop(m):
    got, pivots = gfp.rref(m, 2)
    want, want_pivots = column_loop_rref(m, 2)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want).all()
    assert pivots == want_pivots and all(type(c) is int for c in pivots)
