import numpy as np
import pytest
from hypothesis import given, settings
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


def test_kron_identities():
    assert (gfp.kron(np.eye(2, dtype=int), np.eye(3, dtype=int), 5) == np.eye(6)).all()
    assert not gfp.kron(np.zeros((2, 2), dtype=int), np.eye(3, dtype=int), 5).any()


def test_kron_definition_exhaustive():
    # direct-definition oracle on all positions of 2x2 inputs
    rng = np.random.default_rng(0)
    a = rng.integers(0, 3, size=(2, 2))
    b = rng.integers(0, 3, size=(2, 2))
    k = gfp.kron(a, b, 3)
    for i in range(2):
        for j in range(2):
            for r in range(2):
                for c in range(2):
                    assert k[i * 2 + r, j * 2 + c] == (a[i, j] * b[r, c]) % 3


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
