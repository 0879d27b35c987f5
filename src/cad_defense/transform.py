"""Orthonormal DCT sensing model and k-sparse approximation helpers.

The pipeline observes pixel-domain signals y = A(xhat + e) where A is the
inverse of the real orthonormal DCT-II analysis transform F.  A is applied
as an explicit n-by-n matrix, so one application costs O(n^2); that cost is
deliberate and is what the per-iteration complexity accounting assumes.
Analysis and the synthesis of an observation stay n^2; the defence loop's
residual of an estimate with support S is a product with the columns
A[:, S] (see columns), which costs n |S|.  A row subset's solvers work
through its Gram matrix P = A^T A (see gram), built once per operator: a
Douglas-Rachford iteration applies P once, n^2 multiply-adds instead of the
2 m n of A then A^T, which pays when m > n / 2.
"""

from __future__ import annotations

import numbers
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "SensingOperator",
    "top_k",
    "best_k_term_error",
]


@lru_cache(maxsize=16)
def _dct_matrix(n: int) -> np.ndarray:
    """Return the n-by-n orthonormal DCT-II analysis matrix F.

    Row j holds the cosine atom sqrt(2/n) * cos(pi * j * (2i + 1) / (2n)),
    with the j = 0 row scaled by sqrt(1/n) so that F F^T = I.
    """
    if n < 1:
        raise ValueError(f"transform size must be >= 1, got {n}")
    i = np.arange(n)
    j = i[:, None]
    mat = _aligned_empty((n, n))
    np.cos(np.pi * j * (2 * i + 1) / (2.0 * n), out=mat)
    mat *= np.sqrt(2.0 / n)
    mat[0] *= np.sqrt(0.5)
    mat.setflags(write=False)
    return mat


def _aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    """Uninitialized C-ordered float64 array starting on a 64-byte boundary.

    Matrix-vector products over the operator matrices run measurably faster
    from such a boundary, and numpy alone does not promise one.
    """
    nbytes = shape[0] * shape[1] * 8
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start:start + nbytes].view(np.float64).reshape(shape)


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether value is an instance of kind (a type or numbers ABC), bools excluded."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_vector(x, n: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != n:
        raise ValueError(f"{name} must be a length-{n} vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


class SensingOperator:
    """Synthesis operator A = F^{-1} for the DCT basis, optionally row-subsampled.

    Parameters
    ----------
    n : int
        Ambient dimension of the spectral domain, an integer >= 1.
    rows : array_like of int, optional
        Measurement rows kept from the full operator: a non-empty array of
        distinct integers in [0, n).  None keeps all n rows, in which case A
        is orthonormal and analysis is its exact inverse.  Any other n or
        rows raises ValueError.
    """

    def __init__(self, n: int, rows=None):
        if not _is_number(n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {n!r}")
        self.n = int(n)
        self._analysis = _dct_matrix(self.n)         # F, shape (n, n)
        if rows is None:
            self.rows = None
            self._matrix = self._analysis.T          # full A = F^T
        else:
            rows = np.asarray(rows)
            if rows.ndim != 1 or rows.size == 0:
                raise ValueError("rows must be a non-empty 1-D index array")
            if not np.issubdtype(rows.dtype, np.integer):
                raise ValueError(f"rows must be integers, got dtype {rows.dtype}")
            rows = rows.astype(np.intp)
            if np.unique(rows).size != rows.size:
                raise ValueError("rows must be distinct")
            if rows.min() < 0 or rows.max() >= self.n:
                raise ValueError(f"rows must lie in [0, {self.n})")
            self.rows = rows
            self._matrix = np.take(self._analysis.T, self.rows, axis=0,
                                   out=_aligned_empty((self.rows.size, self.n)))
        self._matrix.setflags(write=False)

    @property
    def m(self) -> int:
        """Number of measurement rows."""
        return self._matrix.shape[0]

    @property
    def is_full(self) -> bool:
        return self.rows is None

    @property
    def matrix(self) -> np.ndarray:
        """The realized measurement matrix A (or its row restriction)."""
        return self._matrix

    @cached_property
    def gram(self) -> np.ndarray:
        """Read-only n-by-n Gram matrix P = A^T A, built on first use.

        On a row subset P is the orthogonal projector onto A's row space
        (A A^T = I), so P v - A^T y = A^T (A v - y) has the norm of
        A v - y.  numpy forms a matrix times its own transpose as a
        symmetric rank-k update, so P is exactly symmetric; its bytes do
        not depend on the BLAS thread count (a test pins that).
        """
        gram = np.matmul(self._matrix.T, self._matrix, out=_aligned_empty((self.n, self.n)))
        gram.setflags(write=False)
        return gram

    def analyze(self, s) -> np.ndarray:
        """Spectral coefficients F s of a full-length signal s."""
        s = _check_vector(s, self.n, "signal")
        return self._analysis @ s

    def synthesize(self, c) -> np.ndarray:
        """Signal A c, restricted to the operator's measurement rows."""
        c = _check_vector(c, self.n, "coefficients")
        return self._matrix @ c

    def adjoint(self, v) -> np.ndarray:
        """Adjoint application A^* v mapping measurements back to spectra."""
        v = _check_vector(v, self.m, "measurements")
        return self._matrix.T @ v

    def columns(self, idx) -> np.ndarray:
        """Column submatrix A[:, idx]: least squares on a candidate support,
        and the residual y - A[:, S] x[S] over an estimate's support S,
        m |S| multiply-adds instead of m n."""
        idx = np.asarray(idx, dtype=np.intp)
        return self._matrix[:, idx]

    def __repr__(self) -> str:
        sub = "full" if self.is_full else f"{self.m} rows"
        return f"SensingOperator(n={self.n}, {sub})"


def top_k(c, k: int) -> np.ndarray:
    """Best k-term approximation: keep the k largest-magnitude entries.

    Ties are broken toward the lower index.  k = 0 returns the zero vector
    and k >= len(c) returns a copy of c.
    """
    c = np.asarray(c, dtype=np.float64)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k >= c.shape[0]:
        return c.copy()
    out = np.zeros_like(c)
    if k == 0:
        return out
    # stable sort on negated magnitude keeps lower indices first among ties
    order = np.argsort(-np.abs(c), kind="stable")[:k]
    out[order] = c[order]
    return out


def best_k_term_error(c, k: int) -> float:
    """l1 norm of the k-term approximation tail; zero iff c is k-sparse."""
    c = np.asarray(c, dtype=np.float64)
    return float(np.abs(c - top_k(c, k)).sum())
