"""Low-rank factorizations of the Gaussian kernel K_ij = exp(-||x_i - x_j||^2).

``pivoted_cholesky_factor`` is the factor training uses: K = LL' + E with E
positive semidefinite and its trace measured, built one column at a time.

``gaussian_lowrank_factor`` is the polynomial (Chebyshev) factor: K is
replaced by U V' where (U V')_ij = p(||x_i - x_j||^2) for a degree-q
polynomial p certified to approximate exp(-z) on [0, B] within a dense-grid
sup-error bound, B being the squared dataset radius.  Expanding

    p(u + v - 2 <x_i, x_j>) = sum over (b0, b1, monomial m) of
        p_t * t! / (b0! b1! prod_a m_a!) * (-2)^{|m|} u^{b0} v^{b1} x_i^m x_j^m

with t = b0 + b1 + |m|, u = ||x_i||^2, v = ||x_j||^2, and folding the b1-sum
into the V side gives columns indexed by (b0, m) with b0 + |m| <= q, so the
rank is at most binom(q + d + 1, d + 1) <= binom(2d + 2q, 2q).  Columns whose
worst-case contribution falls below 1e-14 of the largest are pruned; the
pruned mass is certified against half of the error budget (the other half
covers the polynomial itself).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev, polynomial

from .exceptions import ValidationError

_GRID_POINTS = 10_001
_EDGE_POINTS = 800
_PRUNE_REL = 1e-14
_ORACLE_CAP = 4000
# Largest U + V the factorizer allocates (16 bytes per row per column).
_FACTOR_BYTES_CAP = 2 * 2 ** 30
_RADIUS_BLOCK = 256


def exact_gaussian_kernel(X):
    """Reference kernel matrix, exp(-squared distance), unit diagonal, for at
    most _ORACLE_CAP points."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n > _ORACLE_CAP:
        raise ValidationError(f"exact kernel oracle cap is n <= {_ORACLE_CAP}, got {n}")
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    K = np.exp(-d2)
    np.fill_diagonal(K, 1.0)
    return 0.5 * (K + K.T)


def squared_radius(X):
    """Largest squared pairwise distance, computed _RADIUS_BLOCK rows at a
    time so that no n x n array is formed."""
    X = np.asarray(X, dtype=float)
    sq = np.sum(X * X, axis=1)
    best = 0.0
    for i in range(0, X.shape[0], _RADIUS_BLOCK):
        rows = slice(i, i + _RADIUS_BLOCK)
        d2 = sq[rows, None] + sq[None, :] - 2.0 * (X[rows] @ X.T)
        best = max(best, float(d2.max()))
    return best


# Columns of a new pivoted-Cholesky factor's first buffer.
_PIVOT_CAPACITY = 64


@dataclass(frozen=True)
class PivotedCholesky:
    """K = LL' + E for the Gaussian kernel of n points, where E is positive
    semidefinite (up to rounding) and ``residual`` is its diagonal."""
    L: np.ndarray          # (n, k), Fortran order
    pivots: np.ndarray     # (k,) the point each column pivots on, in order
    residual: np.ndarray   # (n,) diag(E), clamped at 0

    @property
    def rank(self):
        return self.L.shape[1]

    @property
    def trace_residual(self):
        """tr(E); it bounds ||E||_2, so 0 <= x'Kx - x'LL'x <= tr(E) ||x||^2."""
        return float(self.residual.sum())


def _pivot_column(buf, X, residual, j, p):
    """Write column j of L, pivoted on point p, into the column-major buffer
    and subtract its square from the residual diagonal."""
    n = X.shape[0]
    col = buf[j * n:(j + 1) * n]
    diff = X - X[p]
    np.einsum("ij,ij->i", diff, diff, out=col)
    # Copies of x_p (p among them) get p's exact values, sqrt(residual[p])
    # and a zero residual, so a repeated point never pivots on rounding.
    same = col == 0.0
    np.negative(col, out=col)
    np.exp(col, out=col)
    if j:
        prev = buf[:j * n].reshape((n, j), order="F")
        col -= prev @ prev[p]
    pivot = math.sqrt(residual[p])
    col /= pivot
    col[same] = pivot
    residual -= col * col
    np.maximum(residual, 0.0, out=residual)
    residual[same] = 0.0


def _buffer_size(n, cols):
    """Elements of an n x cols buffer of L; refused over _FACTOR_BYTES_CAP."""
    need = 8 * n * cols
    if need > _FACTOR_BYTES_CAP:
        raise ValidationError(
            f"pivoted-Cholesky factor needs {need} bytes (n = {n}, {cols} "
            f"columns), over the cap of {_FACTOR_BYTES_CAP} bytes; use a larger "
            "tolerance or fewer points")
    return n * cols


def pivoted_cholesky_factor(X, tol, state=None) -> PivotedCholesky:
    """Greedy pivoted Cholesky factor of the Gaussian kernel of X, grown
    until tr(E) <= tol or k = n.  Once no residual entry is positive (as
    after duplicate points) tr(E) is 0, so it stops there too.

    Each column pivots on the largest residual diagonal entry: one kernel
    column exp(-||x_i - x_p||^2) minus the earlier columns, O(n (k + d))
    time; no n x n array is formed, and a factor over _FACTOR_BYTES_CAP is
    refused before it is allocated.  ``state``, a factor of the same X as
    this function returned it, is extended instead of rebuilt, and the
    result is bit-identical to the one-shot factor at the tighter tol.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError("X must be a 2-d data matrix")
    if not np.all(np.isfinite(X)):
        raise ValidationError("X has non-finite entries")
    if not tol >= 0:
        raise ValidationError(f"tol must be >= 0, got {tol}")
    n = X.shape[0]
    if state is None:
        k, pivots, residual = 0, [], np.ones(n)
    else:
        if state.L.shape[0] != n:
            raise ValidationError(f"state factors {state.L.shape[0]} points, X has {n}")
        k, pivots, residual = state.rank, list(state.pivots), state.residual.copy()
    # L lives in a private flat buffer that no view outlives (views are made
    # only inside _pivot_column), so it can grow by a quarter at a time and
    # finally shrink to n x k by reallocation, never holding two copies of
    # itself.  The reference check is off because a profiler's hold on the
    # bound method counts as a reference to buf, though not to its data.
    buf = np.empty(_buffer_size(n, min(n, max(_PIVOT_CAPACITY, k + k // 4))))
    if k:
        buf[:n * k] = state.L.ravel(order="F")
    while k < n and float(residual.sum()) > tol:
        p = int(np.argmax(residual))
        if buf.size < n * (k + 1):
            buf.resize(_buffer_size(n, min(n, k + k // 4)), refcheck=False)
        _pivot_column(buf, X, residual, k, p)
        pivots.append(p)
        k += 1
    buf.resize(n * k, refcheck=False)
    return PivotedCholesky(L=buf.reshape((n, k), order="F"),
                           pivots=np.array(pivots, dtype=np.intp), residual=residual)


def _certified_sup_error(coeffs, B):
    """Grid certificate for sup_{[0,B]} |p(x) - exp(-x)|: dense grid plus
    endpoint refinement, padded by a first-order bound on the between-node
    behavior (half grid gap times the max error derivative)."""
    xs = np.linspace(0.0, B, _GRID_POINTS)
    edge = np.geomspace(max(B * 1e-12, 1e-300), B * 0.01, _EDGE_POINTS)
    xs = np.concatenate([xs, edge, B - edge, [0.0, B]])
    with np.errstate(over="ignore", invalid="ignore"):
        vals = polynomial.polyval(xs, coeffs)
        grid_max = float(np.max(np.abs(vals - np.exp(-xs))))
        dcoeffs = polynomial.polyder(coeffs)
        deriv = np.abs(polynomial.polyval(xs, dcoeffs) + np.exp(-xs))
        out = grid_max + 0.5 * (B / (_GRID_POINTS - 1)) * float(deriv.max())
    return out if math.isfinite(out) else math.inf


def chebyshev_exp_coeffs(B, q):
    """Degree-q Chebyshev interpolant of exp(-x) on [0, B], in the monomial
    basis, together with its certified sup error."""
    if q < 1:
        raise ValidationError(f"degree must be >= 1, got {q}")
    ch = chebyshev.Chebyshev.interpolate(lambda x: np.exp(-x), q, domain=[0.0, B])
    coeffs = ch.convert(kind=polynomial.Polynomial).coef
    if coeffs.shape[0] < q + 1:
        coeffs = np.pad(coeffs, (0, q + 1 - coeffs.shape[0]))
    return coeffs, _certified_sup_error(coeffs, B)


def poly_degree(B, eps):
    """Smallest degree whose Chebyshev interpolant meets the grid-certified
    target, found by doubling then bisection."""
    if B < 1.0:
        raise ValidationError(f"need B >= 1, got {B}")
    if not 0 < eps < 1:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    q = 1
    while _certified_sup_error(chebyshev_exp_coeffs(B, q)[0], B) > eps:
        q *= 2
        if q > 512:
            raise ValidationError(
                f"no certified factor at eps = {eps:.3g} for squared radius "
                f"B = {B:.4g}: the degree search exceeded 512, and float64 "
                "rounding floors the certified error; the data's squared "
                "radius is too large for this eps (rescale the data or use a "
                "larger eps)")
    lo, hi = max(q // 2, 1), q
    while lo < hi:
        mid = (lo + hi) // 2
        if _certified_sup_error(chebyshev_exp_coeffs(B, mid)[0], B) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return hi


def rank_bound(d, q):
    return math.comb(2 * d + 2 * q, 2 * q)


def _monomials(X, q):
    """Graded enumeration of all monomials of degree <= q over the columns
    of X.  Each monomial extends its parent by one variable with index at
    most the parent's smallest incremented index, so every exponent tuple
    is produced exactly once and its value is one multiply into its own
    column of a preallocated column-major array."""
    n, d = X.shape
    X = np.asfortranarray(X)
    vals = np.empty((n, math.comb(q + d, d)), order="F")
    vals[:, 0] = 1.0
    order = [(0,) * d]
    frontier = [((0,) * d, d - 1, 0)]  # (exponent, max extendable var, column)
    for _ in range(q):
        nxt = []
        for e, amax, ci in frontier:
            for a in range(amax + 1):
                e2 = e[:a] + (e[a] + 1,) + e[a + 1:]
                np.multiply(vals[:, ci], X[:, a], out=vals[:, len(order)])
                nxt.append((e2, a, len(order)))
                order.append(e2)
        frontier = nxt
    degrees = np.array([sum(e) for e in order])
    inv_mfact = np.array([1.0 / math.prod(math.factorial(v) for v in e) for e in order])
    return vals, degrees, inv_mfact


@dataclass(frozen=True)
class KernelFactorization:
    U: np.ndarray
    V: np.ndarray
    degree: int
    rank: int
    radius: float            # B used for the polynomial certificate
    epsilon: float           # end-to-end entrywise budget
    coeffs: np.ndarray       # monomial coefficients of p
    sup_error: float         # certified polynomial sup error
    prune_slack: float       # certified mass of pruned columns
    shift: np.ndarray        # centroid subtracted before featurization
    kept_columns: np.ndarray  # bool per candidate column (b0, m): True where kept


def _feature_blocks(Xc, q, coeffs, sides):
    """Feature matrices for each requested side ("u", "v"), all built from
    one set of monomials, with one column per (b0, m) with b0 + |m| <= q in
    b0-major, graded monomial order.

    The monomials are graded, so those of degree <= q - b0 are a column
    prefix, and those of degree l a contiguous range inside it; each b0
    block is written straight into its slice of the preallocated output."""
    n = Xc.shape[0]
    norms = np.sum(Xc * Xc, axis=1)
    pows = np.vander(norms, q + 1, increasing=True)  # norms^0 .. norms^q
    mono, deg, inv_mfact = _monomials(Xc, q)
    upto = np.searchsorted(deg, np.arange(q + 1), side="right")  # #{m : |m| <= l}
    out = {side: np.empty((n, int(upto.sum())), order="F") for side in sides}
    fact = [math.factorial(t) for t in range(q + 1)]
    off = 0
    for b0 in range(q + 1):
        width = int(upto[q - b0])
        mono_b = mono[:, :width]
        cols = slice(off, off + width)
        if "u" in out:
            np.multiply(pows[:, b0:b0 + 1], mono_b, out=out["u"][:, cols])
        if "v" in out:
            # S[b0, l](v) = sum_b1 p_{b0+b1+l} (b0+b1+l)! / (b0! b1!) v^b1,
            # applied to the columns of degree l after the monomial scaling
            # cvec; that product order fixes the bits of V
            block = out["v"][:, cols]
            cvec = ((-2.0) ** deg[:width]) * inv_mfact[:width]
            np.multiply(mono_b, cvec, out=block)
            for l in range(q + 1 - b0):
                cs = [coeffs[b0 + b1 + l] * fact[b0 + b1 + l]
                      / (fact[b0] * math.factorial(b1))
                      for b1 in range(q + 1 - b0 - l)]
                start = int(upto[l - 1]) if l else 0
                block[:, start:int(upto[l])] *= polynomial.polyval(norms, np.array(cs))[:, None]
        off += width
    return [out[side] for side in sides]


def _column_magnitude(F):
    """max |F_ij| over each column, without an |F| copy."""
    return np.maximum(F.max(axis=0), -F.min(axis=0))


def _compact_columns(F, keep):
    """The columns of F where ``keep`` holds, moved to the front of F's own
    buffer (F is Fortran-ordered) and returned as a view of it.  A run of
    kept columns is one contiguous block, moved by one forward copy, which is
    safe while it overlaps its source because it only moves down."""
    n = F.shape[0]
    flat = F.reshape(-1, order="F")
    edges = np.flatnonzero(np.diff(np.concatenate(([0], keep.astype(np.int8), [0]))))
    dst = 0
    for start, stop in zip(edges[::2], edges[1::2]):
        if start != dst:
            flat[dst * n:(dst + stop - start) * n] = flat[start * n:stop * n]
        dst += stop - start
    return flat[:dst * n].reshape((n, dst), order="F")


def gaussian_lowrank_factor(X, eps):
    """Factor the Gaussian kernel of X so that ||Kv - UV'v||_inf <= eps ||v||_1.

    Refuses, before allocating them, a U and V that together need more than
    _FACTOR_BYTES_CAP bytes."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError("X must be a 2-d data matrix")
    if not np.all(np.isfinite(X)):
        raise ValidationError("X has non-finite entries")
    if not 0 < eps < 1:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    n, d = X.shape
    shift = X.mean(axis=0)
    Xc = X - shift
    B_data = squared_radius(Xc)
    B = max(B_data, 1.0)
    q = poly_degree(B, eps / 2.0)
    rank = math.comb(q + d + 1, d + 1)
    need = 16 * n * rank
    if need > _FACTOR_BYTES_CAP:
        raise ValidationError(
            f"factorization U and V need {need} bytes (n = {n}, rank "
            f"binom({q + d + 1},{d + 1}) = {rank}), over the cap of "
            f"{_FACTOR_BYTES_CAP} bytes; use a larger eps, fewer points or "
            "lower-dimensional data")
    coeffs, sup_err = chebyshev_exp_coeffs(B, q)
    U, V = _feature_blocks(Xc, q, coeffs, ("u", "v"))
    colmag = _column_magnitude(U) * _column_magnitude(V)
    thresh = _PRUNE_REL * float(colmag.max())
    prune = colmag < thresh
    slack = float(colmag[prune].sum())
    if slack > eps / 2.0:  # cannot happen at the 1e-14 threshold; keep the proof honest
        order_idx = np.argsort(colmag)
        csum = np.cumsum(colmag[order_idx])
        allowed = order_idx[csum <= eps / 2.0]
        prune = np.zeros(colmag.shape[0], dtype=bool)
        prune[allowed] = True
        prune &= colmag < thresh
        slack = float(colmag[prune].sum())
    keep = ~prune
    if prune.any():
        U, V = _compact_columns(U, keep), _compact_columns(V, keep)
    return KernelFactorization(U=U, V=V, degree=q,
                               rank=int(keep.sum()), radius=B, epsilon=eps,
                               coeffs=coeffs, sup_error=sup_err,
                               prune_slack=slack, shift=shift,
                               kept_columns=keep)


def feature_map(fact: KernelFactorization, Xq):
    """V-side features of new points in the factorization's column basis, so
    that  U_train @ feature_map(fact, Xq).T  approximates K(train, query)."""
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    d = fact.shift.shape[0]
    if Xq.ndim != 2 or Xq.shape[1] != d:
        raise ValidationError(f"queries have shape {Xq.shape}; the factor needs {d} columns")
    if not np.all(np.isfinite(Xq)):
        raise ValidationError("queries have non-finite entries")
    (full,) = _feature_blocks(Xq - fact.shift, fact.degree, fact.coeffs, ("v",))
    if full.shape[1] == fact.rank:  # nothing was pruned
        return full
    return _compact_columns(full, fact.kept_columns)


def scale_by_labels(U, V, y, in_place=False):
    """Row-scale both factors by +-1 labels: (D_y U)(D_y V)' = (UV') o (yy').

    A symmetric factorization (V is U) is scaled once and shared.  With
    ``in_place`` the rows of U and V themselves are scaled, for a factor that
    no one else holds; otherwise the scaled factors are new arrays."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.abs(y) == 1.0):
        raise ValidationError("labels must be +1 or -1")
    if not in_place:
        yU = y[:, None] * U
        return yU, (yU if V is U else y[:, None] * V)
    for F in (U,) if V is U else (U, V):
        F *= y[:, None]
    return U, V
