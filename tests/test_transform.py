"""Transform-layer tests: DCT matrix against scipy, orthonormality,
k-term approximation, and the tail-error measure."""

import itertools
import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from cad_defense import SensingOperator, best_k_term_error, top_k
from cad_defense.transform import _dct_matrix


# ---------------------------------------------------------------------------
# DCT matrix against the scipy oracle


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 784])
def test_dct_matrix_matches_scipy_oracle(n):
    # scipy's orthonormalized DCT-II of each basis vector gives F's columns
    mat = _dct_matrix(n)
    oracle = scipy.fft.dct(np.eye(n), type=2, norm="ortho", axis=0)
    assert np.allclose(mat, oracle, atol=1e-12)


@pytest.mark.parametrize("n", [2, 8, 64, 784])
def test_dct_matrix_orthonormal(n):
    mat = _dct_matrix(n)
    assert np.abs(mat @ mat.T - np.eye(n)).max() < 1e-10


def test_dct_matrix_is_cached_and_readonly():
    assert _dct_matrix(16) is _dct_matrix(16)
    with pytest.raises(ValueError):
        _dct_matrix(16)[0, 0] = 1.0
    with pytest.raises(ValueError):
        _dct_matrix(0)


# ---------------------------------------------------------------------------
# analyze / synthesize contracts


def test_analyze_zero_is_zero():
    op = SensingOperator(8)
    assert np.array_equal(op.analyze(np.zeros(8)), np.zeros(8))


def test_analyze_constant_ones_n8():
    # a constant signal concentrates all energy at coefficient 0: sqrt(8)
    op = SensingOperator(8)
    c = op.analyze(np.ones(8))
    assert abs(c[0] - np.sqrt(8.0)) < 1e-12
    assert np.abs(c[1:]).max() < 1e-12


def test_synthesize_zero_is_zero():
    op = SensingOperator(8)
    assert np.array_equal(op.synthesize(np.zeros(8)), np.zeros(8))


def test_synthesize_first_atom_is_constant_half():
    # the DC atom of the size-4 basis is the constant 1/sqrt(4) = 0.5
    op = SensingOperator(4)
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert np.allclose(op.synthesize(e0), np.full(4, 0.5), atol=1e-12)


@pytest.mark.parametrize("n", [8, 64, 100, 784])
def test_round_trip_identity(n):
    rng = np.random.default_rng(7)
    op = SensingOperator(n)
    s = rng.standard_normal(n)
    assert np.abs(op.synthesize(op.analyze(s)) - s).max() < 1e-10
    c = rng.standard_normal(n)
    assert np.abs(op.analyze(op.synthesize(c)) - c).max() < 1e-10


@pytest.mark.parametrize("n", [8, 64, 784])
def test_energy_preservation_batch(n):
    rng = np.random.default_rng(n)
    op = SensingOperator(n)
    for _ in range(1000 if n <= 64 else 100):
        s = rng.standard_normal(n)
        ns = np.linalg.norm(s)
        assert abs(np.linalg.norm(op.analyze(s)) - ns) <= 1e-10 * max(ns, 1.0)


def test_adjoint_consistency():
    # <A c, s> = <c, A* s> for the full operator and a row-subsampled one
    rng = np.random.default_rng(11)
    for op in (SensingOperator(16), SensingOperator(16, rows=np.arange(12))):
        c = rng.standard_normal(16)
        v = rng.standard_normal(op.m)
        assert abs(op.synthesize(c) @ v - c @ op.adjoint(v)) < 1e-10


def test_spectral_l2_linf_chain():
    # ||A e||_2 = ||e||_2 <= sqrt(n) ||e||_inf, equality iff all |e_i| equal
    rng = np.random.default_rng(3)
    op = SensingOperator(32)
    e = rng.standard_normal(32)
    ae = np.linalg.norm(op.synthesize(e))
    assert abs(ae - np.linalg.norm(e)) < 1e-10
    assert ae <= np.sqrt(32.0) * np.abs(e).max() + 1e-10
    flat = 0.7 * rng.choice((-1.0, 1.0), size=32)
    assert abs(np.linalg.norm(flat) - np.sqrt(32.0) * 0.7) < 1e-10


def test_dimension_and_finite_errors():
    op = SensingOperator(8)
    with pytest.raises(ValueError):
        op.analyze(np.zeros(7))
    with pytest.raises(ValueError):
        op.synthesize(np.zeros(9))
    with pytest.raises(ValueError):
        op.analyze(np.full(8, np.nan))


def test_subsampled_operator_rows():
    rows = np.array([1, 3, 5])
    op = SensingOperator(8, rows=rows)
    assert op.m == 3 and not op.is_full
    c = np.random.default_rng(0).standard_normal(8)
    full = SensingOperator(8).synthesize(c)
    assert np.allclose(op.synthesize(c), full[rows], atol=1e-12)
    with pytest.raises(ValueError):
        SensingOperator(8, rows=[1, 1, 2])
    with pytest.raises(ValueError):
        SensingOperator(8, rows=[8])


@pytest.mark.parametrize("n,rows,message", [
    (8.9, None, "n must be an integer"),
    (8.0, None, "n must be an integer"),
    (True, None, "n must be an integer"),
    ("8", None, "n must be an integer"),
    (0, None, "transform size must be >= 1"),
    (8, [0.5, 1.7], "rows must be integers"),
    (8, [True, False], "rows must be integers"),
    (8, [], "rows must be a non-empty 1-D index array"),
])
def test_operator_refuses_non_integer_n_and_rows(n, rows, message):
    # an int() or intp cast would floor 8.9 to 8, True to 1 and 0.5 to 0
    with pytest.raises(ValueError, match=message):
        SensingOperator(n, rows=rows)


def test_operator_takes_numpy_integers():
    op = SensingOperator(np.int64(8), rows=np.array([1, 3], dtype=np.uint8))
    assert type(op.n) is int and op.n == 8
    assert op.rows.dtype == np.intp and op.rows.tolist() == [1, 3]


@pytest.mark.parametrize("n", [1, 3, 8, 255, 256, 784])
def test_operator_matrices_start_on_64_byte_boundaries(n):
    full = SensingOperator(n)
    rows = np.arange(0, n, 2)
    sub = SensingOperator(n, rows=rows)
    # the operator's private A, which synthesize and adjoint read
    for mat in (full._matrix, sub._matrix, sub.gram, _dct_matrix(n)):
        assert mat.ctypes.data % 64 == 0
        assert not mat.flags.writeable
    assert sub._matrix.flags.c_contiguous
    # columns gathers from a column-major A: the full operator's own F^T
    # view, a row subset's read-only copy
    assert full._by_column is full._matrix
    assert sub._by_column.flags.f_contiguous and not sub._by_column.flags.writeable
    assert np.array_equal(sub.columns(np.arange(n)), _dct_matrix(n).T[rows])


# ---------------------------------------------------------------------------
# top_k


def test_top_k_direct_example():
    out = top_k(np.array([5.0, -3.0, 1.0, 0.0]), 2)
    assert np.array_equal(out, np.array([5.0, -3.0, 0.0, 0.0]))


def test_top_k_idempotent_on_sparse():
    c = np.array([0.0, 2.0, 0.0, -1.5, 0.0])
    assert np.array_equal(top_k(c, 2), c)


def test_top_k_tie_keeps_lowest_index():
    # both magnitude-2 entries give the same l2 error; the rule keeps index 0
    c = np.array([2.0, -2.0, 1.0])
    kept = top_k(c, 1)
    assert np.array_equal(kept, np.array([2.0, 0.0, 0.0]))
    for cand in (np.array([2.0, 0.0, 0.0]), np.array([0.0, -2.0, 0.0])):
        assert abs(np.linalg.norm(c - cand) - np.linalg.norm(c - kept)) < 1e-15


def test_top_k_boundaries():
    c = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(top_k(c, 0), np.zeros(3))
    assert np.array_equal(top_k(c, 3), c)
    assert np.array_equal(top_k(c, 5), c)
    assert top_k(c, 5) is not c
    with pytest.raises(ValueError):
        top_k(c, -1)


def test_top_k_minimizes_l2_by_enumeration():
    # exhaustive check over every k-subset support for small n
    rng = np.random.default_rng(21)
    for n, k in [(6, 2), (8, 3), (10, 4)]:
        c = rng.standard_normal(n)
        ours = np.linalg.norm(c - top_k(c, k))
        best = min(
            np.linalg.norm(np.where(np.isin(np.arange(n), sup), 0.0, c))
            for sup in itertools.combinations(range(n), k)
        )
        assert ours <= best + 1e-12


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 32))
def test_top_k_keeps_largest_magnitudes_lower_index_first(data, n):
    # a small value pool makes ties (and signed zeros) common
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                      st.floats(allow_nan=False, allow_infinity=False))
    c = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
    k = data.draw(st.integers(0, n + 2))
    out = top_k(c, k)
    assert np.all((out == 0.0) | (out == c))
    kept = np.flatnonzero(out)
    assert kept.size == min(k, np.count_nonzero(c))
    dropped = np.flatnonzero((c != 0.0) & (out == 0.0))
    i, j = np.ix_(kept, dropped)
    mag = np.abs(c)
    assert np.all((mag[i] > mag[j]) | ((mag[i] == mag[j]) & (i < j)))


# ---------------------------------------------------------------------------
# best_k_term_error


def test_best_k_term_error_zero_on_sparse():
    c = np.array([0.0, 4.0, 0.0, -1.0])
    assert best_k_term_error(c, 2) == 0.0


def test_best_k_term_error_example():
    assert abs(best_k_term_error(np.array([5.0, -3.0, 1.0, 0.5]), 2) - 1.5) < 1e-15


def test_best_k_term_error_matches_enumeration():
    # brute-force min of ||c - z||_1 over k-sparse z supported on c's indices
    rng = np.random.default_rng(17)
    for n, k in [(6, 2), (8, 3), (10, 5)]:
        c = rng.standard_normal(n)
        best = min(
            np.abs(np.where(np.isin(np.arange(n), sup), 0.0, c)).sum()
            for sup in itertools.combinations(range(n), k)
        )
        assert abs(best_k_term_error(c, k) - best) < 1e-12


def _argsort_top_k(c, k):
    """top_k as a stable argsort of -|c| computes it."""
    if k >= c.size:
        return c.copy()
    out = np.zeros_like(c)
    order = np.argsort(-np.abs(c), kind="stable")[:k]
    out[order] = c[order]
    return out


@settings(max_examples=500, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_top_k_gives_the_bytes_of_the_stable_argsort(data, n):
    # top_k selects rather than sorts; it keeps the set the stable argsort
    # keeps, so ties go to the lower index, both zeros tie, inf ranks above
    # every number and NaN below
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf,
                                       math.nan]), st.floats())
    c = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
    k = data.draw(st.integers(0, n + 2))
    assert top_k(c, k).tobytes() == _argsort_top_k(c, k).tobytes()


def test_top_k_gives_the_bytes_of_the_stable_argsort_at_solver_sizes():
    # n = 256 and 784 run np.partition's introselect past its small-array
    # path; pools of few values tie most entries
    rng = np.random.default_rng(17)
    for n in (256, 784):
        for pool in ([0.0, -0.0, 1.0, -1.0], [0.0, 2.0, math.nan, -math.inf], None):
            for _ in range(20):
                c = (rng.standard_normal(n) if pool is None
                     else rng.choice(np.array(pool), size=n))
                for k in (1, int(rng.integers(2, n)), n - 1):
                    assert top_k(c, k).tobytes() == _argsort_top_k(c, k).tobytes()
