"""Sketch-based detection of drifted coordinates.

A shared Gaussian JL matrix sketches the scaled vectors H^{1/2}x and
H^{-1/2}s through their implicit-representation pieces.  The pieces are
kept side by side as the columns of one segment tree over the coordinate
order whose nodes double as the partition tree: a node stores Phi
restricted to its interval applied to the pieces restricted to the same
interval.  Every node keeps a timestamped
version list, so queries against any past snapshot replay nothing and
mutate nothing.

Updates are applied lazily: the deltas of each step are recorded with
their timestamp and reach the node sketches, in order, at the next query,
so a structure rebuilt before it is queried again never pays for them.

Heavy-coordinate queries descend from the root one tree level at a time,
expanding children whose sketch moved by at least 0.9 * eps since the
reference snapshot; a dyadic-lookback union over past snapshots plus an
exact per-candidate check keeps the approximation pair within its
local-norm tolerance.
"""
from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .exactds import ExactDS, UpdateDeltas

_JL_FLOOR = 25
_JL_CONST = 24.0
_LEVEL_SAFETY = 1.5  # extra headroom on the per-level tolerance split


def jl_sketch_matrix(n, delta_apx, seed):
    """Seeded Gaussian sketch matrix with variance 1/r entries."""
    if not 0 < delta_apx < 1:
        raise ValueError(f"delta_apx must be in (0, 1), got {delta_apx}")
    r = max(_JL_FLOOR, math.ceil(_JL_CONST * math.log(max(n, 2) / delta_apx)))
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / math.sqrt(r), size=(r, n)), r


class PartitionTree:
    """Complete binary tree over [0, n) in index order, heap-indexed."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("partition tree needs n >= 1")
        self.n = n
        p = 1
        while p < n:
            p *= 2
        self.base = p

    def root(self):
        return 1

    def interval(self, v):
        # Heap node v at depth d covers a width base/2^d slot, clipped to [0, n).
        depth = v.bit_length() - 1
        width = self.base >> depth
        lo = (v - (1 << depth)) * width
        return lo, min(lo + width, self.n)

    def is_empty(self, v):
        lo, hi = self.interval(v)
        return lo >= hi

    def is_leaf(self, v):
        lo, hi = self.interval(v)
        return hi - lo == 1

    def children(self, v):
        return [c for c in (2 * v, 2 * v + 1) if c < 2 * self.base and not self.is_empty(c)]

    def leaf_of(self, j):
        return self.base + j

    def path(self, j):
        v = self.leaf_of(j)
        out = []
        while v >= 1:
            out.append(v)
            v //= 2
        return out

    def nodes(self):
        return [v for v in range(1, 2 * self.base) if not self.is_empty(v)]


class VectorSketch:
    """Sketches of one vector (or the columns of one thin matrix) per tree node.

    Node v holds Phi_{chi(v)} x_{chi(v)}; coordinate updates touch the
    root-to-leaf path.  Touched nodes append (timestamp, value) versions
    lazily, so historical queries replay nothing; a node never updated
    serves its initial value for every timestamp.
    """

    def __init__(self, tree: PartitionTree, phi, x0, ts):
        self.tree = tree
        self.phi = phi
        x0 = np.asarray(x0, dtype=float)
        self.cols = None if x0.ndim == 1 else x0.shape[1]
        self.init_ts = ts
        # Bottom-up vectorized build over the padded heap.
        p = tree.base
        n = tree.n
        if self.cols is None:
            vals = np.zeros((2 * p, phi.shape[0]))
            vals[p:p + n] = (phi * x0).T
        else:
            vals = np.zeros((2 * p, phi.shape[0], self.cols))
            vals[p:p + n] = phi.T[:n, :, None] * x0[:, None, :]
        level = p
        while level > 1:
            half = level // 2
            vals[half:level] = vals[level: 2 * level:2] + vals[level + 1: 2 * level:2]
            level = half
        self.vals = vals
        self.versions = {}

    def update(self, idx, deltas, ts):
        touched = set()
        for pos, j in enumerate(np.asarray(idx, dtype=int)):
            contrib = (np.outer(self.phi[:, j], deltas[pos]) if self.cols is not None
                       else self.phi[:, j] * deltas[pos])
            for v in self.tree.path(int(j)):
                if v not in touched:
                    touched.add(v)
                    if v not in self.versions:
                        # first touch: freeze the initial value as a snapshot
                        self.versions[v] = ([self.init_ts], [self.vals[v].copy()])
                self.vals[v] = self.vals[v] + contrib
        for v in touched:
            ts_list, val_list = self.versions[v]
            ts_list.append(ts)
            val_list.append(self.vals[v].copy())

    def query(self, v, ts=None):
        if ts is None:
            return self.vals[v]
        if v not in self.versions:
            if ts < self.init_ts:
                raise KeyError(f"no snapshot at or before timestamp {ts}")
            return self.vals[v]
        ts_list, val_list = self.versions[v]
        pos = bisect_right(ts_list, ts) - 1
        if pos < 0:
            raise KeyError(f"no snapshot at or before timestamp {ts}")
        return val_list[pos]

    def rows(self, nodes, ts=None):
        """``query(v, ts)`` for every v in ``nodes``, stacked into a new array."""
        if ts is not None and ts < self.init_ts:
            raise KeyError(f"no snapshot at or before timestamp {ts}")
        out = self.vals[nodes]
        if ts is not None:
            for pos, v in enumerate(nodes):
                if v in self.versions:
                    out[pos] = self.query(v, ts)
        return out


class BatchSketch:
    """Joint sketches of the five representation pieces plus the coefficients.

    One ``VectorSketch`` holds the pieces side by side as the columns
    H^{1/2} xhat, H^{-1/2} shat, h, hhat (k columns), htil (m columns); an
    update touches the same coordinates of every piece, so they share one
    set of node versions.  ``update`` only records the deltas with their
    timestamp; the sketch takes them, in order, at the next query, and
    deltas recorded after a structure's last query are dropped unread when
    ``cpm`` rebuilds it.
    """

    def __init__(self, n, h, hhat, htil, xhat_scaled, shat_scaled, betas,
                 delta_apx, seed):
        self.phi, self.r = jl_sketch_matrix(n, delta_apx, seed)
        self.tree = PartitionTree(n)
        self.ell = 0
        self.k = np.shape(hhat)[1]
        self.sk = VectorSketch(self.tree, self.phi,
                               np.column_stack([xhat_scaled, shat_scaled, h, hhat, htil]), 0)
        self.betas = tuple(np.array(b, dtype=float) if np.ndim(b) else float(b)
                           for b in betas)
        self.beta_history = {0: self.betas}
        self._pending = []  # (UpdateDeltas, ts) not yet applied to the sketch

    def move(self, betas):
        self.betas = tuple(np.array(b, dtype=float) if np.ndim(b) else float(b)
                           for b in betas)

    def update(self, d: UpdateDeltas):
        ts = self.ell + 1
        self._pending.append((d, ts))
        self.ell = ts
        self.beta_history[ts] = self.betas

    def _flush(self):
        for d, ts in self._pending:
            self.sk.update(d.idx, np.column_stack(
                [d.xhat_scaled, d.shat_scaled, d.h, d.hhat, d.htil]), ts)
        self._pending.clear()

    def _combine(self, nodes, ts, side):
        """Combined sketches of ``nodes`` at snapshot ts (None: now), one row each."""
        betas = self.betas if ts is None else self.beta_history[ts]
        if side == "x":
            col, beta, bhat, btil = 0, betas[0], betas[2], betas[4]
        else:
            col, beta, bhat, btil = 1, betas[1], betas[3], betas[5]
        rows = self.sk.rows(nodes, ts)
        k = self.k
        return (rows[:, :, col] + rows[:, :, 2] * beta
                + rows[:, :, 3:3 + k] @ bhat + rows[:, :, 3 + k:] @ btil)

    def query_node_sketch(self, v, side, ts=None):
        self._flush()
        return self._combine([v], ts, side)[0]

    def query_heavy(self, side, ts_ref, eps):
        """Indices whose scaled coordinate may have moved >= eps since ts_ref."""
        if ts_ref > self.ell or ts_ref not in self.beta_history:
            raise KeyError(f"unknown snapshot timestamp {ts_ref}")
        self._flush()
        tree = self.tree
        out = []
        frontier = [tree.root()]
        while frontier:
            kids = []
            for v in frontier:
                if tree.is_leaf(v):
                    out.append(tree.interval(v)[0])
                else:
                    kids.extend(tree.children(v))
            if not kids:
                break
            diff = self._combine(kids, None, side) - self._combine(kids, ts_ref, side)
            frontier = [c for c, row in zip(kids, diff)
                        if float(np.linalg.norm(row)) >= 0.9 * eps]
        return sorted(out)


class ApproxDS:
    """Explicit maintenance of the approximation pair (xbar, sbar).

    MoveAndQuery unions heavy-coordinate queries over dyadic lookbacks
    {ell - 2^j + 1 : 2^j | ell}, then reads candidate coordinates exactly
    from the ExactDS and refreshes the ones whose local-norm deviation
    exceeds the per-level tolerance.
    """

    def __init__(self, exact: ExactDS, q, eps_apx_x, eps_apx_s, delta_apx, seed):
        self.exact = exact
        self.q = max(int(q), 1)
        self.eps_apx_x = float(eps_apx_x)
        self.eps_apx_s = float(eps_apx_s)
        self.zeta_x = 2.0 * exact.params.alpha
        self.zeta_s = 3.0 * exact.params.alpha * exact.t_bar
        n = exact.inst.n
        levels = 2.0 * math.log2(max(self.q, 2)) + 1.0
        self._level_div = levels * _LEVEL_SAFETY
        betas = (exact.beta_x, exact.beta_s, exact.bhat_x, exact.bhat_s,
                 exact.btil_x, exact.btil_s)
        self.bs = BatchSketch(n, exact.h, exact.hhat, exact.htil,
                              exact.scaled_xhat(), exact.scaled_shat(), betas,
                              delta_apx, seed)
        self.x_tilde = exact.x_bar.copy()
        self.s_tilde = exact.s_bar.copy()

    def _dyadic_candidates(self, side, eps_lvl):
        ell = self.bs.ell
        out = set()
        j = 0
        while (1 << j) <= max(ell, 1):
            p = 1 << j
            if ell % p == 0 and ell - p + 1 >= 0:
                out.update(self.bs.query_heavy(side, ell - p + 1, eps_lvl))
            j += 1
        return out

    def move_and_query(self, betas):
        self.bs.move(betas)
        n = self.exact.inst.n
        eps_lvl_x = self.eps_apx_x / self._level_div
        eps_lvl_s = self.eps_apx_s / self._level_div
        delta_x = np.zeros(n)
        for i in self._dyadic_candidates("x", eps_lvl_x):
            xi = self.exact.query_x(i)
            dev = math.sqrt(self.exact.hunw[i]) * abs(self.x_tilde[i] - xi)
            if dev > eps_lvl_x:
                delta_x[i] = xi - self.x_tilde[i]
        delta_s = np.zeros(n)
        for i in self._dyadic_candidates("s", eps_lvl_s):
            si = self.exact.query_s(i)
            dev = abs(self.s_tilde[i] - si) / math.sqrt(self.exact.hunw[i])
            if dev > eps_lvl_s:
                delta_s[i] = si - self.s_tilde[i]
        self.x_tilde += delta_x
        self.s_tilde += delta_s
        return delta_x, delta_s

    def update(self, deltas: UpdateDeltas):
        self.bs.update(deltas)
