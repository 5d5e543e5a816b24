import numpy as np
import pytest

from rankqp import barrier
from rankqp.cpm import CentralPathMaintenance, restart_threshold
from rankqp.exactds import ExactDS, UpdateDeltas
from rankqp.ipm import IpmParams
from rankqp.sketch import (ApproxDS, BatchSketch, PartitionTree, VectorSketch,
                           jl_sketch_matrix)

from conftest import random_lowrank_instance


def _zero_betas(k, m):
    return (0.0, 0.0, np.zeros(k), np.zeros(k), np.zeros(m), np.zeros(m))


# -- JL matrix ----------------------------------------------------------------

def test_jl_determinism():
    p1, r1 = jl_sketch_matrix(64, 0.01, seed=3)
    p2, r2 = jl_sketch_matrix(64, 0.01, seed=3)
    assert r1 == r2
    assert np.array_equal(p1, p2)


def test_jl_zero_vector():
    phi, _ = jl_sketch_matrix(32, 0.05, seed=0)
    assert np.linalg.norm(phi @ np.zeros(32)) == 0.0


def test_jl_norm_preservation(rng):
    n, delta = 128, 0.01
    phi, r = jl_sketch_matrix(n, delta, seed=1)
    failures = 0
    for _ in range(100):
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        sk = np.linalg.norm(phi @ v)
        if not (0.75 <= sk <= 1.25):
            failures += 1
    assert failures <= max(1, int(100 * delta))


# -- partition tree -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 33, 100])
def test_partition_tree_structure(n):
    tree = PartitionTree(n)
    root = tree.root()
    assert tree.interval(root) == (0, n)
    seen = set()
    stack = [root]
    while stack:
        v = stack.pop()
        lo, hi = tree.interval(v)
        if tree.is_leaf(v):
            assert hi - lo == 1
            seen.add(lo)
            continue
        kids = tree.children(v)
        cover = []
        for c in kids:
            clo, chi = tree.interval(c)
            cover.extend(range(clo, chi))
        assert sorted(cover) == list(range(lo, hi))  # children partition parent
        stack.extend(kids)
    assert seen == set(range(n))


def test_partition_tree_arrays_match_heap_arithmetic():
    # lo/hi are the heap intervals base/2^d wide, clipped to [0, n); the
    # nonempty slots of each depth are a prefix of it.
    for n in (1, 2, 3, 5, 33, 100):
        tree = PartitionTree(n)
        for v in range(1, 2 * tree.base):
            depth = v.bit_length() - 1
            width = tree.base >> depth
            lo = (v - (1 << depth)) * width
            assert tree.interval(v) == (lo, min(lo + width, n))
            if tree.is_empty(v):
                assert v + 1 == 1 << (depth + 1) or tree.is_empty(v + 1)
        assert tree.is_empty(0)


# -- vector sketch ------------------------------------------------------------

def _padded_heap_sketch(phi, x0, base):
    """Node values of the padded heap: zero-filled, leaves phi[:, j] x0[j],
    every internal slot the sum of its two children."""
    n = x0.shape[0]
    vals = np.zeros((2 * base, phi.shape[0]) + x0.shape[1:])
    if x0.ndim == 1:
        vals[base:base + n] = (phi * x0).T
    else:
        vals[base:base + n] = phi.T[:, :, None] * x0[:, None, :]
    level = base
    while level > 1:
        half = level // 2
        vals[half:level] = vals[level:2 * level:2] + vals[level + 1:2 * level:2]
        level = half
    return vals


@pytest.mark.parametrize("n", [1, 2, 3, 5, 33, 100])
@pytest.mark.parametrize("cols", [None, 8])
def test_sketch_build_matches_padded_heap(rng, n, cols):
    # The build sums only the nonempty prefix of each level; every nonempty
    # node equals the zero-padded heap's bit for bit.
    phi, _ = jl_sketch_matrix(n, 0.05, seed=n)
    x0 = rng.normal(size=n if cols is None else (n, cols))
    x0[rng.random(size=x0.shape) < 0.2] = 0.0
    tree = PartitionTree(n)
    vs = VectorSketch(tree, phi, x0, ts=0)
    ref = _padded_heap_sketch(phi, x0, tree.base)
    for v in tree.nodes():
        assert np.array_equal(vs.query(v), ref[v])


def test_jl_matrix_matches_scaled_normal_draws():
    # phi is the draw sequence of rng.normal(0, 1/sqrt(r)), scaled in place.
    for n, delta, seed in ((33, 0.01, 0), (100, 0.1, 7), (1, 0.5, 3)):
        phi, r = jl_sketch_matrix(n, delta, seed)
        want = np.random.default_rng(seed).normal(0.0, 1.0 / np.sqrt(r), size=(r, n))
        assert np.array_equal(phi, want)


def test_vector_sketch_matches_dense(rng):
    n = 37
    phi, _ = jl_sketch_matrix(n, 0.05, seed=4)
    tree = PartitionTree(n)
    x = rng.normal(size=n)
    vs = VectorSketch(tree, phi, x, ts=0)
    for t in range(1, 30):
        idx = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        deltas = rng.normal(size=idx.size)
        x[idx] += deltas
        vs.update(idx, deltas, ts=t)
        for v in tree.nodes():
            lo, hi = tree.interval(v)
            want = phi[:, lo:hi] @ x[lo:hi]
            assert np.abs(vs.query(v) - want).max() <= 1e-10


def test_vector_sketch_snapshots_immutable(rng):
    n = 16
    phi, _ = jl_sketch_matrix(n, 0.05, seed=5)
    tree = PartitionTree(n)
    x = rng.normal(size=n)
    vs = VectorSketch(tree, phi, x.copy(), ts=0)
    frozen = {v: vs.query(v, ts=0).copy() for v in tree.nodes()}
    for t in range(1, 10):
        vs.update(np.array([t % n]), np.array([1.0]), ts=t)
    for v in tree.nodes():
        assert np.array_equal(vs.query(v, ts=0), frozen[v])
    with pytest.raises(KeyError):
        vs.query(tree.root(), ts=-1)


def test_update_touch_counts(rng):
    # an update touching one coordinate versions at most one root-to-leaf path
    n = 64
    phi, _ = jl_sketch_matrix(n, 0.05, seed=8)
    tree = PartitionTree(n)
    vs = VectorSketch(tree, phi, rng.normal(size=n), ts=0)
    vs.update(np.array([17]), np.array([1.0]), ts=1)
    assert len(vs.versions) == len(tree.path(17))
    vs.update(np.array([17, 18]), np.array([1.0, 1.0]), ts=2)
    assert len(vs.versions) <= len(tree.path(17)) + len(tree.path(18))


def test_vector_sketch_matrix_columns(rng):
    n, c = 14, 3
    phi, _ = jl_sketch_matrix(n, 0.05, seed=6)
    tree = PartitionTree(n)
    X = rng.normal(size=(n, c))
    vs = VectorSketch(tree, phi, X, ts=0)
    idx = np.array([2, 9])
    d = rng.normal(size=(2, c))
    X[idx] += d
    vs.update(idx, d, ts=1)
    root = tree.root()
    assert np.abs(vs.query(root) - phi @ X).max() <= 1e-10


# -- batch sketch heavy queries ------------------------------------------------

def _fresh_batch(rng, n, k=3, m=2, seed=0):
    h = rng.normal(size=n)
    hhat = rng.normal(size=(n, k))
    htil = rng.normal(size=(n, m))
    xs = rng.normal(size=n)
    ss = rng.normal(size=n)
    return BatchSketch(n, h, hhat, htil, xs, ss, _zero_betas(k, m),
                       delta_apx=0.01, seed=seed)


def test_query_no_movement_is_empty(rng):
    bs = _fresh_batch(rng, 64)
    assert bs.query_heavy("x", 0, 0.1) == []
    assert bs.query_heavy("s", 0, 0.1) == []


def test_zero_delta_update_snapshot_equals_previous(rng):
    bs = _fresh_batch(rng, 16)
    root = bs.tree.root()
    before = bs.query_node_sketch(root, "x").copy()
    d = UpdateDeltas(idx=np.zeros(0, dtype=int), h=np.zeros(0),
                     hhat=np.zeros((0, 3)), htil=np.zeros((0, 2)),
                     xhat_scaled=np.zeros(0), shat_scaled=np.zeros(0))
    bs.update(d)
    assert bs.ell == 1
    assert np.array_equal(bs.query_node_sketch(root, "x", ts=1), before)
    assert np.array_equal(bs.query_node_sketch(root, "x", ts=0), before)


def test_query_planted_coordinate(rng):
    n = 128
    eps = 0.05
    hits = 0
    sizes = []
    for trial in range(100):
        bs = _fresh_batch(rng, n, seed=trial)
        planted = int(rng.integers(n))
        d = UpdateDeltas(idx=np.array([planted]), h=np.zeros(1),
                         hhat=np.zeros((1, 3)), htil=np.zeros((1, 2)),
                         xhat_scaled=np.array([10 * eps]), shat_scaled=np.zeros(1))
        bs.update(d)
        found = bs.query_heavy("x", 0, eps)
        hits += planted in found
        sizes.append(len(found))
    assert hits >= 99
    assert np.mean(sizes) <= 4.0


def test_query_superset_of_true_heavy_set(rng):
    # Random sparse updates: the returned set must contain every coordinate
    # whose scaled value truly moved by at least eps.
    n, k, m = 64, 2, 1
    h = rng.normal(size=n)
    hhat = rng.normal(size=(n, k))
    htil = rng.normal(size=(n, m))
    xs = rng.normal(size=n)
    ss = rng.normal(size=n)
    bs = BatchSketch(n, h, hhat, htil, xs.copy(), ss.copy(),
                     _zero_betas(k, m), delta_apx=0.01, seed=12)
    moved = np.zeros(n)
    for t in range(1, 8):
        idx = rng.choice(n, size=3, replace=False)
        dx = rng.normal(size=3) * rng.choice([0.001, 0.2], size=3)
        moved[idx] += dx
        d = UpdateDeltas(idx=np.sort(idx),
                         h=np.zeros(3), hhat=np.zeros((3, k)),
                         htil=np.zeros((3, m)),
                         xhat_scaled=dx[np.argsort(idx)],
                         shat_scaled=np.zeros(3))
        bs.update(d)
    for eps in (0.05, 0.15):
        found = set(bs.query_heavy("x", 0, eps))
        truth = set(np.nonzero(np.abs(moved) >= eps)[0].tolist())
        assert truth <= found


def test_query_beta_move_visible(rng):
    # A Move (coefficient change) must show up against an old snapshot.
    n, k, m = 32, 2, 1
    bs = _fresh_batch(rng, n, k=k, m=m)
    betas = (1.0, 0.0, np.zeros(k), np.zeros(k), np.zeros(m), np.zeros(m))
    bs.move(betas)  # x-side now includes 1.0 * h
    found = bs.query_heavy("x", 0, 1e-3)
    assert len(found) > 0


def test_unknown_snapshot_rejected(rng):
    bs = _fresh_batch(rng, 16)
    with pytest.raises(KeyError):
        bs.query_heavy("x", 5, 0.1)


# -- lazy updates and level-batched queries --------------------------------------

def _random_betas(rng, k, m):
    return (float(rng.normal()), float(rng.normal()), rng.normal(size=k),
            rng.normal(size=k), rng.normal(size=m), rng.normal(size=m))


def _random_deltas(rng, n, k, m, size, scale=1.0):
    idx = np.sort(rng.choice(n, size=size, replace=False))
    return UpdateDeltas(idx=idx, h=scale * rng.normal(size=size),
                        hhat=scale * rng.normal(size=(size, k)),
                        htil=scale * rng.normal(size=(size, m)),
                        xhat_scaled=scale * rng.normal(size=size),
                        shat_scaled=scale * rng.normal(size=size))


def _reference_heavy(bs, side, ts_ref, eps):
    """Depth-first descent that tests one node at a time."""
    out, stack = [], [bs.tree.root()]
    while stack:
        v = stack.pop()
        if bs.tree.is_leaf(v):
            out.append(bs.tree.interval(v)[0])
            continue
        for c in bs.tree.children(v):
            diff = bs.query_node_sketch(c, side) - bs.query_node_sketch(c, side, ts=ts_ref)
            if float(np.linalg.norm(diff)) >= 0.9 * eps:
                stack.append(c)
    return sorted(out)


def test_lazy_updates_match_eager_queries(rng):
    # Two sketches see the same steps; one is queried after every update,
    # the other only at the end, when all its deltas are applied at once.
    n, k, m = 45, 3, 2
    h, hhat, htil = rng.normal(size=n), rng.normal(size=(n, k)), rng.normal(size=(n, m))
    xs, ss = rng.normal(size=n), rng.normal(size=n)
    eager, lazy = (BatchSketch(n, h, hhat, htil, xs, ss, _zero_betas(k, m),
                               delta_apx=0.05, seed=4) for _ in range(2))
    for _ in range(12):
        betas = _random_betas(rng, k, m)
        d = _random_deltas(rng, n, k, m, int(rng.integers(0, 5)))
        for bs in (eager, lazy):
            bs.move(betas)
            bs.update(d)
        eager.query_heavy("x", eager.ell - 1, 0.1)
        h[d.idx] += d.h
        hhat[d.idx] += d.hhat
        htil[d.idx] += d.htil
        xs[d.idx] += d.xhat_scaled
        ss[d.idx] += d.shat_scaled
    for ts in range(lazy.ell + 1):
        for side in "xs":
            for v in lazy.tree.nodes():
                assert np.array_equal(lazy.query_node_sketch(v, side, ts),
                                      eager.query_node_sketch(v, side, ts))
            assert lazy.query_heavy(side, ts, 0.5) == eager.query_heavy(side, ts, 0.5)
    beta_x, _, bhat_x, _, btil_x, _ = betas
    x_now = xs + h * beta_x + hhat @ bhat_x + htil @ btil_x
    for v in lazy.tree.nodes():
        lo, hi = lazy.tree.interval(v)
        want = lazy.phi[:, lo:hi] @ x_now[lo:hi]
        assert np.abs(lazy.query_node_sketch(v, "x") - want).max() <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 5, 33, 100, 128])
def test_query_heavy_matches_per_node_descent(rng, n):
    k, m, eps = 3, 2, 0.05
    bs = _fresh_batch(rng, n, k=k, m=m, seed=n)
    for _ in range(6):
        # small coefficient moves everywhere, large moves planted on a few
        bs.move(tuple(1e-3 * b for b in _random_betas(rng, k, m)))
        bs.update(_random_deltas(rng, n, k, m, min(2, n), scale=10 * eps))
    for ts_ref in range(bs.ell + 1):
        for side in "xs":
            assert bs.query_heavy(side, ts_ref, eps) == _reference_heavy(bs, side, ts_ref, eps)


# -- dyadic lookback decomposition ---------------------------------------------

def test_dyadic_lookbacks_tile_suffix():
    # For any refresh time r < L, the union of intervals (ell-2^j, ell]
    # queried at iterations ell in (r, L] covers (r, L] entirely, using at
    # most 2 log2 q + 1 intervals per covering.
    for L in range(1, 130):
        covered_events = []
        for ell in range(0, L + 1):
            j = 0
            while (1 << j) <= max(ell, 1):
                p = 1 << j
                if ell % p == 0 and ell - p + 1 >= 0:
                    covered_events.append((ell - p + 1, ell))
                j += 1
        for r in range(0, L):
            need = set(range(r + 1, L + 1))
            got = set()
            for lo, hi in covered_events:
                if lo >= r + 1 and hi <= L:
                    got.update(range(lo, hi + 1))
            assert need <= got, (r, L)


# -- approx ds ------------------------------------------------------------------

def _exactds_state(rng, n=60, k=3, m=2):
    inst = random_lowrank_instance(rng, n=n, k=k, m=m, c_scale=0.3)
    params = IpmParams.for_instance(inst, mode="theory")
    x = np.full(n, 0.5) + rng.uniform(-0.02, 0.02, size=n)
    g = barrier.grad_vec(inst.lo, inst.hi, x)
    h = barrier.hess_vec(inst.lo, inst.hi, x)
    mu_target = rng.uniform(-1.0, 1.0, size=n) * (inst.w / 100.0) * np.sqrt(h)
    s = mu_target - inst.w * g
    exact = ExactDS(inst, params, x.copy(), s.copy(), x.copy(), s.copy(), 1.0)
    return inst, params, exact


def test_batched_reads_match_per_index_queries(rng):
    # After Move/Update rounds the pieces have changed rows; the batched
    # reads equal query_x/query_s at every index, bit for bit.
    inst, params, exact = _exactds_state(rng, n=50)
    for _ in range(4):
        exact.move()
        S = rng.choice(inst.n, size=6, replace=False)
        dx = np.zeros(inst.n)
        ds = np.zeros(inst.n)
        dx[S] = 1e-3 * rng.normal(size=S.size)
        ds[S] = 1e-3 * rng.normal(size=S.size)
        exact.update(dx, ds)
    idx = np.arange(inst.n)
    assert np.array_equal(exact.query_x_many(idx), [exact.query_x(i) for i in idx])
    assert np.array_equal(exact.query_s_many(idx), [exact.query_s(i) for i in idx])
    assert exact.query_x_many(idx[:0]).shape == (0,)


def test_stationary_path_emits_nothing(rng):
    inst, params, exact = _exactds_state(rng)
    approx = ApproxDS(exact, q=8, eps_apx_x=params.eps_bar,
                      eps_apx_s=params.eps_bar, delta_apx=0.01, seed=0)
    betas = (exact.beta_x, exact.beta_s, exact.bhat_x, exact.bhat_s,
             exact.btil_x, exact.btil_s)
    dx, ds = approx.move_and_query(betas)
    assert not dx.any()
    assert not ds.any()


def test_maintenance_invariant_against_dense_shadow(rng):
    # Full Move/Query/Update loop at a held tbar: the approximation pair must
    # stay within eps_bar in the blockwise local norms.
    inst, params, exact = _exactds_state(rng, n=120)
    cpm = CentralPathMaintenance(inst, params, exact.xhat.copy(),
                                 exact.shat.copy(), 1.0, delta_apx=0.01, seed=9)
    worst_x = worst_s = 0.0
    t = 1.0
    for _ in range(80):
        t_next = t * (1 - 0.05 * params.eps_t)
        cpm.multiply_and_move(t_next)
        t = t_next
        xe, se = cpm.exact.output()
        xb, sb = cpm.exact.x_bar, cpm.exact.s_bar
        hu = barrier.hess_vec(inst.lo, inst.hi, xb)
        worst_x = max(worst_x, float(np.max(np.sqrt(hu) * np.abs(xb - xe))))
        worst_s = max(worst_s, float(np.max(
            np.abs(sb - se) / np.sqrt(hu) / (cpm.exact.t_bar * inst.w))))
    assert worst_x <= params.eps_bar
    assert worst_s <= params.eps_bar


def test_emitted_update_count_bound(rng):
    # Over q steps of bounded drift the total number of emitted coordinate
    # refreshes stays O(q^2) with a modest constant.
    inst, params, exact = _exactds_state(rng, n=100)
    q = restart_threshold(inst.n, inst.k, inst.m)
    cpm = CentralPathMaintenance(inst, params, exact.xhat.copy(),
                                 exact.shat.copy(), 1.0, delta_apx=0.01, seed=2)
    emitted = 0
    t = 1.0
    steps = 0
    while steps < 3 * q:
        t_next = t * (1 - 0.05 * params.eps_t)
        before = cpm.exact.x_bar.copy(), cpm.exact.s_bar.copy()
        cpm.multiply_and_move(t_next)
        t = t_next
        emitted += int(np.count_nonzero(cpm.exact.x_bar - before[0]))
        emitted += int(np.count_nonzero(cpm.exact.s_bar - before[1]))
        steps += 1
    assert emitted <= 40 * q * q + 40
