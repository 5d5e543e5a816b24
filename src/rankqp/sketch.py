"""Sketch-based detection of drifted coordinates.

A shared sketch matrix Phi sketches the scaled vectors H^{1/2}x and
H^{-1/2}s through their implicit-representation pieces.  Phi is a seeded
Gaussian JL matrix with r = O(log(n / delta)) rows while r < n; once the
JL count reaches n it is the n x n identity, so the sketch is exact and
heavy detection deterministic at no more rows than a random one.  The
pieces are kept side by side as the columns of one segment tree over the
coordinate order whose nodes double as the partition tree: a node stores
Phi restricted to its interval applied to the pieces restricted to the
same interval.  Every node keeps a timestamped version list, so queries
against any past snapshot replay nothing and mutate nothing.

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

import functools
import math
from bisect import bisect_right

import numpy as np

from . import kernel
from .exactds import ExactDS, UpdateDeltas
from .exceptions import ValidationError

_JL_CONST = 24.0
_LEVEL_SAFETY = 1.5  # extra headroom on the per-level tolerance split
# Once a heavy query finds every node of a level heavy, it tests the levels
# below in one block while the block stays within this many nodes: a few
# nodes the descent never reaches may be tested, and the per-level array
# calls are saved.  A query that finds few heavy nodes tests one level at a
# time, as the descent reaches it.
_LOOKAHEAD = 64


def _jl_rows(n, delta_apx):
    """Rows r of the sketch matrix over n coordinates: the JL count
    ceil(24 ln(n / delta_apx)), capped at n, where an exact sketch is as
    small.  (The cap makes a floor on the count moot: a count under 25
    needs n <= 2.)"""
    if not 0 < delta_apx < 1:
        raise ValueError(f"delta_apx must be in (0, 1), got {delta_apx}")
    return min(n, math.ceil(_JL_CONST * math.log(n / delta_apx)))


def jl_sketch_matrix(n, delta_apx, seed):
    """The r x n sketch matrix and r.  Below n rows it is a seeded Gaussian
    with variance 1/r entries; at n rows it is the identity, which keeps
    every norm exactly and draws nothing, so the seed is unused."""
    r = _jl_rows(n, delta_apx)
    if r == n:
        return np.eye(n), r
    # Scaled in place: the draws of rng.normal(0, 1/sqrt(r)) without its
    # per-entry loc + scale * z.
    phi = np.random.default_rng(seed).standard_normal((r, n))
    phi *= 1.0 / math.sqrt(r)
    return phi, r


class PartitionTree:
    """Complete binary tree over [0, n) in index order, heap-indexed.

    Slot v (1 <= v < 2 * base) of the padded heap covers [lo[v], hi[v]): at
    depth d, a width base/2^d interval clipped to [0, n).  Slot 0 and the
    slots past n are empty (lo >= hi); the nonempty slots of each depth are
    a prefix of it.  The bounds are read-only arrays, so one tree serves
    every structure over the same n.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("partition tree needs n >= 1")
        self.n = n
        p = 1
        while p < n:
            p *= 2
        self.base = p
        lo = np.zeros(2 * p, dtype=np.intp)
        hi = np.zeros(2 * p, dtype=np.intp)
        first = 1
        while first <= p:
            width = p // first
            lo[first:2 * first] = np.arange(first) * width
            hi[first:2 * first] = np.minimum(lo[first:2 * first] + width, n)
            first *= 2
        # kids[v]: the nonempty children of a non-leaf v, 0 (the unused
        # slot) in place of an empty child and for leaves and empty slots.
        inner = hi - lo > 1
        kids = np.zeros((2 * p, 2), dtype=np.intp)
        kids[inner] = 2 * np.flatnonzero(inner)[:, None] + (0, 1)
        kids[lo[kids] >= hi[kids]] = 0
        for a in (lo, hi, kids):
            a.setflags(write=False)
        self.lo, self.hi, self.kids = lo, hi, kids

    def root(self):
        return 1

    def interval(self, v):
        return int(self.lo[v]), int(self.hi[v])

    def children(self, v):
        return [int(c) for c in self.kids[v] if c]

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
        return np.flatnonzero(self.lo < self.hi).tolist()

    def children_of(self, nodes):
        """The nonempty children of an array of nodes, in order."""
        kids = self.kids[nodes].ravel()
        return kids[kids > 0]


@functools.lru_cache(maxsize=8)
def partition_tree(n):
    """The shared tree over [0, n): every restart at one n reuses it."""
    return PartitionTree(n)


def _row_norms(D):
    """``np.linalg.norm`` of every row of D, bit for bit: one dot per row,
    where ``np.linalg.norm(D, axis=1)`` sums in another order."""
    return np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])


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
        # Bottom-up build over the nonempty prefix of each heap level; the
        # empty slots are allocated but never written or read.
        p, n = tree.base, tree.n
        vals = np.empty((2 * p, phi.shape[0]) + x0.shape[1:])
        # Leaf j holds the products phi[:, j] x0[j]; einsum writes them
        # faster than a broadcast multiply over the short last axis.
        np.einsum("ji,jc->jic", phi.T, x0.reshape(n, -1),
                  out=vals[p:p + n].reshape(n, phi.shape[0], -1))
        first, size = p, n
        while first > 1:
            half, pairs = first // 2, size // 2
            np.add(vals[first:first + 2 * pairs:2], vals[first + 1:first + 2 * pairs:2],
                   out=vals[half:half + pairs])
            if size % 2:
                vals[half + pairs] = vals[first + size - 1]  # a lone last child
            first, size = half, size - pairs
        self.vals = vals
        self.versions = {}
        self.versioned = np.zeros(2 * p, dtype=bool)  # slots with a version list

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
                        self.versioned[v] = True
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
            for pos in np.flatnonzero(self.versioned[nodes]):
                out[pos] = self.query(int(nodes[pos]), ts)
        return out


class BatchSketch:
    """Joint sketches of the five representation pieces plus the coefficients.

    One ``VectorSketch`` holds the pieces side by side as the columns
    H^{1/2} xhat, H^{-1/2} shat, h, hhat (k columns), htil (m columns); an
    update touches the same coordinates of every piece, so they share one
    set of node versions.  ``update`` only records the deltas with their
    timestamp; the sketch takes them, in order, at the next query, and
    deltas recorded after a structure's last query are dropped unread when
    ``cpm`` rebuilds it.  A sketch over more than ``kernel._FACTOR_BYTES_CAP``
    bytes (8 per row of Phi per heap slot per column) is refused with a
    ``ValidationError`` before anything is allocated.
    """

    def __init__(self, n, h, hhat, htil, xhat_scaled, shat_scaled, betas,
                 delta_apx, seed):
        self.tree = partition_tree(n)
        self.k = np.shape(hhat)[1]
        cols = 3 + self.k + np.shape(htil)[1]
        need = 8 * 2 * self.tree.base * _jl_rows(n, delta_apx) * cols
        if need > kernel._FACTOR_BYTES_CAP:
            raise ValidationError(
                f"the JL sketch needs {need} bytes (n = {n}, {cols} columns), over "
                f"the cap of {kernel._FACTOR_BYTES_CAP} bytes; use another backend")
        self.phi, self.r = jl_sketch_matrix(n, delta_apx, seed)
        self.ell = 0
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

    def _combine(self, rows, betas, side):
        """Combined sketches under the coefficients ``betas``, one per row."""
        if side == "x":
            col, beta, bhat, btil = 0, betas[0], betas[2], betas[4]
        else:
            col, beta, bhat, btil = 1, betas[1], betas[3], betas[5]
        k = self.k
        # (rows_col + rows_2 beta) + rows_hhat bhat + rows_htil btil, in place
        out = rows[:, :, 2] * beta
        out += rows[:, :, col]
        out += rows[:, :, 3:3 + k] @ bhat
        out += rows[:, :, 3 + k:] @ btil
        return out

    def query_node_sketch(self, v, side, ts=None):
        self._flush()
        betas = self.betas if ts is None else self.beta_history[ts]
        return self._combine(self.sk.rows([v], ts), betas, side)[0]

    def _moved(self, nodes, ts_ref, side):
        """Combined sketches of ``nodes`` now minus at ts_ref, one row each.
        Nodes never updated serve one gathered block to both snapshots."""
        now = self.sk.rows(nodes)
        ref = self.sk.rows(nodes, ts_ref) if self.sk.versioned[nodes].any() else now
        out = self._combine(now, self.betas, side)
        out -= self._combine(ref, self.beta_history[ts_ref], side)
        return out

    def query_heavy(self, side, ts_ref, eps):
        """Indices whose scaled coordinate may have moved >= eps since ts_ref."""
        if ts_ref > self.ell or ts_ref not in self.beta_history:
            raise KeyError(f"unknown snapshot timestamp {ts_ref}")
        self._flush()
        tree = self.tree
        thr = 0.9 * eps
        moved = np.empty(tree.lo.size)  # per slot, filled for a block of levels at a time
        ready = 0                       # levels of that block the descent has not reached
        ahead = False                   # every node of the last level tested was heavy
        visited = []
        frontier = np.array([tree.root()])
        while frontier.size:
            visited.append(frontier)
            kids = tree.children_of(frontier)
            if not kids.size:
                break
            if not ready:
                # The kids and, after a level that was all heavy, every level
                # below them while the block stays within _LOOKAHEAD nodes:
                # one fetch and one norm call.
                block = [kids]
                total = kids.size
                while ahead:
                    below = tree.children_of(block[-1])
                    if not below.size or total + below.size > _LOOKAHEAD:
                        break
                    block.append(below)
                    total += below.size
                nodes = np.concatenate(block)
                moved[nodes] = _row_norms(self._moved(nodes, ts_ref, side))
                ready = len(block)
            ready -= 1
            frontier = kids[moved[kids] >= thr]
            ahead = frontier.size == kids.size
        visited = np.concatenate(visited)
        return np.sort(tree.lo[visited[tree.hi[visited] - tree.lo[visited] == 1]]).tolist()


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
        """Sorted union of the heavy queries over the dyadic lookbacks."""
        ell = self.bs.ell
        out = set()
        j = 0
        while (1 << j) <= max(ell, 1):
            p = 1 << j
            if ell % p == 0 and ell - p + 1 >= 0:
                out.update(self.bs.query_heavy(side, ell - p + 1, eps_lvl))
            j += 1
        return np.array(sorted(out), dtype=np.intp)

    def move_and_query(self, betas):
        self.bs.move(betas)
        n = self.exact.inst.n
        eps_lvl_x = self.eps_apx_x / self._level_div
        eps_lvl_s = self.eps_apx_s / self._level_div
        delta_x = np.zeros(n)
        idx = self._dyadic_candidates("x", eps_lvl_x)
        xi = self.exact.query_x_many(idx)
        far = np.sqrt(self.exact.hunw[idx]) * np.abs(self.x_tilde[idx] - xi) > eps_lvl_x
        delta_x[idx[far]] = xi[far] - self.x_tilde[idx[far]]
        delta_s = np.zeros(n)
        idx = self._dyadic_candidates("s", eps_lvl_s)
        si = self.exact.query_s_many(idx)
        far = np.abs(self.s_tilde[idx] - si) / np.sqrt(self.exact.hunw[idx]) > eps_lvl_s
        delta_s[idx[far]] = si[far] - self.s_tilde[idx[far]]
        self.x_tilde += delta_x
        self.s_tilde += delta_s
        return delta_x, delta_s

    def update(self, deltas: UpdateDeltas):
        self.bs.update(deltas)
