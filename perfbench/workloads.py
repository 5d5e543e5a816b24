"""The benchmark workloads: seeded inputs, the timed calls, the quality gates.

Each workload is a closed loop: one caller runs the next operation only after
the previous one returns.  ``setup`` builds the inputs from the seed (it is
timed and repeated by the harness), ``prepare`` (or ``check`` itself)
computes the untimed references the gates need, ``op`` makes the timed
calls and returns their wall times with the output, and ``check`` returns
the gates the output missed.  The program only ever sees the generated
inputs.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from rankqp import cli, ipm, kernel, libsvm_io, model, oracle
from rankqp.barrier import BlockDomain


# Rows per block in the reference computations below, so that the benchmark
# never holds an n x n array of its own and peak_rss_mb is the program's.
BLOCK = 256


def _sq_dist(X, Y):
    d2 = np.sum(X * X, axis=1)[:, None] + np.sum(Y * Y, axis=1)[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(d2, 0.0)


def _row_blocks(n):
    return (slice(i, min(i + BLOCK, n)) for i in range(0, n, BLOCK))


def _farthest(X, Y):
    """For each row of X, its largest squared distance to a row of Y."""
    return np.concatenate([_sq_dist(X[b], Y).max(axis=1) for b in _row_blocks(len(X))])


def _kernel_times(X, Y, v):
    """K(X, Y) @ v for the kernel exp(-squared distance), one row block at a time."""
    return np.vstack([np.exp(-_sq_dist(X[b], Y)) @ v for b in _row_blocks(len(X))])


@dataclass(frozen=True)
class LowRankBoxQP:
    """``solve(inst, eps, backend="lowrank")``, the ExactDS + JL-sketch path,
    on the ROADMAP ladder family: n box variables in [0, 1], Q = GG' with G
    an n x 3 Gaussian matrix, m = 2 random equality rows with b = Az for an
    interior z.  Operation i solves its own instance, drawn from (seed, i);
    the dense oracle solves it again for the gate."""

    n: int
    EPS = 1e-3

    def instance(self, seed, i):
        rng = np.random.default_rng([seed, i])
        n = self.n
        G = rng.normal(size=(n, 3))
        A = rng.normal(size=(2, n))
        z = rng.uniform(0.3, 0.7, size=n)
        c = rng.normal(size=n)
        return model.build_qp_instance(c=c, A=A, b=A @ z,
                                       blocks=[BlockDomain.box(0.0, 1.0)] * n,
                                       U=G, V=G)

    def setup(self, seed, workdir):
        return SimpleNamespace(seed=seed, first=self.instance(seed, 0))

    def prepare(self, state):
        pass

    def input(self, state, i):
        return state.first if i == 0 else self.instance(state.seed, i)

    def op(self, state, inst):
        t0 = time.perf_counter()
        sol = ipm.solve(inst, self.EPS, backend="lowrank")
        return {"solve_s": time.perf_counter() - t0}, sol

    def check(self, state, inst, sol):
        x = np.asarray(sol.x, dtype=float)
        if x.shape != (inst.n,) or not np.all(np.isfinite(x)):
            return ["solution is not a finite vector of length n"]
        if np.any(x < inst.lo) or np.any(x > inst.hi):
            return ["solution leaves the box"]
        ref = oracle.dense_solve_qp(inst, tol=1e-9)[3].objective
        misses = []
        gap = inst.objective(x) - ref
        budget = self.EPS * inst.L * inst.R * (inst.R + 1.0)
        if not gap <= budget:
            misses.append(f"objective gap {gap:.3g} exceeds eps*L*R(R+1) = {budget:.3g}")
        resid = inst.primal_residual_l1(x)
        bound = 3.0 * self.EPS * (inst.R * float(np.abs(inst.A).sum())
                                  + float(np.abs(inst.b).sum()))
        if not resid <= bound:
            misses.append(f"||Ax-b||_1 = {resid:.3g} exceeds {bound:.3g}")
        return misses

    def counts(self, sol):
        return {"ipm.iterations": sol.report["iterations"]}


@dataclass(frozen=True)
class GaussianSvmTrain:
    """In-process ``train-svm`` (Gaussian c-SVC, C = 5, epsilon 1e-4) on a
    two-cluster LIBSVM file in 4 dimensions.  Operation i trains on its own
    file, drawn from (seed, i), so a run's median spans several data sets;
    the gate compares the reported dual objective with the exact-kernel
    oracle's on that file (acceptance criterion 07).

    The cluster noise is Gaussian truncated to norm NOISE_MAX (3 sigma;
    about 6% of draws are redrawn), so the two clusters stay apart.  With
    untruncated tails a rare seed puts two points of opposite labels so
    close that every support vector sits at C; ``train-svm`` then refuses
    the model ("degenerate model: no interior support vectors", exit 2)."""

    n_train: int
    D = 4
    C = 5.0
    EPS = 1e-4
    SIGMA = 0.15
    NOISE_MAX = 3 * SIGMA

    def _clusters(self, rng, n):
        noise = rng.normal(size=(n, self.D)) * self.SIGMA
        far = np.linalg.norm(noise, axis=1) > self.NOISE_MAX
        while far.any():
            noise[far] = rng.normal(size=(int(far.sum()), self.D)) * self.SIGMA
            far = np.linalg.norm(noise, axis=1) > self.NOISE_MAX
        centre = np.zeros(self.D)
        centre[0] = 0.8
        half = n // 2
        y = np.concatenate([np.ones(half), -np.ones(n - half)])
        return noise + y[:, None] * centre, y

    def _training_set(self, seed, i, path):
        X, y = self._clusters(np.random.default_rng([seed, 0, i]), self.n_train)
        # Squared radius exactly 3.9, as on kernel-factor-n4000, so the
        # factor's degree does not change with the data.
        scale = math.sqrt(3.9 / float(_farthest(X, X).max()))
        X *= scale
        libsvm_io.emit_libsvm(libsvm_io.Dataset.from_dense(X, y), path)
        return SimpleNamespace(X=X, y=y, scale=scale)

    def setup(self, seed, workdir):
        paths = {name: os.path.join(workdir, name)
                 for name in ("train.libsvm", "model.txt", "train.json")}
        first = self._training_set(seed, 0, paths["train.libsvm"])
        return SimpleNamespace(seed=seed, paths=paths, first=first)

    def prepare(self, state):
        pass

    def input(self, state, i):
        if i == 0:
            return state.first
        return self._training_set(state.seed, i, state.paths["train.libsvm"])

    def train(self, state):
        p = state.paths
        return cli.cli_run(["train-svm", p["train.libsvm"], "--kernel", "gaussian",
                            "--variant", "c-svc", "--C", repr(self.C),
                            "--epsilon", repr(self.EPS),
                            "--model-out", p["model.txt"], "--report", p["train.json"]])

    # The outputs are the exit code and the report's path: the report is read
    # by the gate, outside the timed operation.
    def op(self, state, _):
        t0 = time.perf_counter()
        rc = self.train(state)
        return ({"train_s": time.perf_counter() - t0},
                {"rc": rc, "report": state.paths["train.json"]})

    def check(self, state, data, out):
        if out["rc"] != 0:
            return [f"train-svm exit code {out['rc']}"]
        X, y = data.X, data.y
        n = X.shape[0]
        Q = kernel.exact_gaussian_kernel(X) * np.outer(y, y)
        inst = model.build_qp_instance(c=-np.ones(n), A=y[None, :], b=[0.0],
                                       blocks=[BlockDomain.nonneg_box(self.C)] * n,
                                       Q=Q, L=max(math.sqrt(n), 1.05 * n))
        ref = -oracle.dense_solve_qp(inst, tol=1e-8)[3].objective
        dual = _read_report(out["report"])["objective"]
        rel = abs(dual - ref) / abs(ref)
        if not rel <= 1e-3:
            return [f"dual objective {dual:.6g} vs exact-kernel oracle "
                    f"{ref:.6g} (rel {rel:.2e} > 1e-3)"]
        return []

    def counts(self, out):
        return {"ipm.iterations": _read_report(out["report"])["iterations"]}


@dataclass(frozen=True)
class GaussianSvmPredict(GaussianSvmTrain):
    """In-process ``predict`` on a held-out file from the same distribution
    as the first training file, with a model trained on that file once,
    untimed, before the first operation.  The gate is held-out accuracy
    >= 0.99."""

    n_test: int

    def setup(self, seed, workdir):
        state = super().setup(seed, workdir)
        Xt, state.y_test = self._clusters(np.random.default_rng([seed, 1]), self.n_test)
        Xt *= state.first.scale
        for name in ("test.libsvm", "predict.json"):
            state.paths[name] = os.path.join(workdir, name)
        libsvm_io.emit_libsvm(libsvm_io.Dataset.from_dense(Xt, state.y_test),
                              state.paths["test.libsvm"])
        return state

    def prepare(self, state):
        rc = self.train(state)
        if rc != 0:
            raise RuntimeError(f"train-svm exit code {rc} while preparing the model")

    def input(self, state, i):
        return None

    def op(self, state, _):
        p = state.paths
        t0 = time.perf_counter()
        rc = cli.cli_run(["predict", p["test.libsvm"], "--model", p["model.txt"],
                          "--report", p["predict.json"]])
        return {"predict_s": time.perf_counter() - t0}, {"rc": rc, "report": p["predict.json"]}

    def check(self, state, _, out):
        if out["rc"] != 0:
            return [f"predict exit code {out['rc']}"]
        labels = np.asarray(_read_report(out["report"])["labels"], dtype=float)
        acc = float(np.mean(labels == state.y_test)) if labels.shape == state.y_test.shape else 0.0
        return [] if acc >= 0.99 else [f"held-out accuracy {acc:.4f} < 0.99"]

    def counts(self, out):
        return {}


def _read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class GaussianKernelFactor:
    """``gaussian_lowrank_factor(X, eps)`` on points in 5 dimensions scaled to
    squared radius 3.9 (acceptance criterion 06), then ``feature_map`` of
    query points from the same box, kept only where every train-query squared
    distance lies within that radius so the entrywise certificate applies."""

    n: int
    n_query: int
    D = 5
    EPS = 1e-6
    PROBES = 8          # random vectors v for the matvec certificate
    QUERY_SAMPLE = 256  # query columns checked against the exact kernel per operation

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(self.n, self.D))
        scale = math.sqrt(3.9 / float(_farthest(X, X).max()))
        X *= scale
        # A hair inside the radius, so the factor's own (centred) radius
        # computation cannot round below the farthest kept pair.
        radius = float(_farthest(X, X).max()) * (1.0 - 1e-9)
        kept, far = [], 0.0
        while sum(len(q) for q in kept) < self.n_query:
            cand = rng.uniform(-1.0, 1.0, size=(self.n_query, self.D)) * scale
            reach = _farthest(cand, X)
            inside = reach <= radius
            kept.append(cand[inside])
            far = max(far, float(reach[inside].max(initial=0.0)))
        Xq = np.vstack(kept)[: self.n_query]
        return SimpleNamespace(seed=seed, X=X, Xq=Xq, far=far)

    def prepare(self, state):
        rng = np.random.default_rng([state.seed, 1])
        state.v = rng.normal(size=(self.n, self.PROBES))
        state.Kv = _kernel_times(state.X, state.X, state.v)

    def input(self, state, i):
        return i

    def op(self, state, _):
        t0 = time.perf_counter()
        fact = kernel.gaussian_lowrank_factor(state.X, self.EPS)
        t1 = time.perf_counter()
        F = kernel.feature_map(fact, state.Xq)
        t2 = time.perf_counter()
        return {"factor_s": t1 - t0, "featurize_s": t2 - t1}, (fact, F)

    def check(self, state, i, out):
        fact, F = out
        misses = []
        if not state.far <= fact.radius:
            misses.append(f"train-query squared distance {state.far:.4g} exceeds "
                          f"factor radius {fact.radius:.4g}")
        if F.shape != (self.n_query, fact.U.shape[1]):
            return misses + [f"feature map has shape {F.shape}"]
        err = np.abs(state.Kv - fact.U @ (fact.V.T @ state.v)).max(axis=0)
        ratio = float((err / np.abs(state.v).sum(axis=0)).max())
        if not ratio <= self.EPS:
            misses.append(f"||Kv - UV'v||_inf / ||v||_1 = {ratio:.3g} > eps")
        cols = np.random.default_rng([state.seed, 2, i]).choice(
            self.n_query, size=min(self.QUERY_SAMPLE, self.n_query), replace=False)
        exact = np.exp(-_sq_dist(state.X, state.Xq[cols]))
        worst = float(np.abs(fact.U @ F[cols].T - exact).max())
        if not worst <= self.EPS:
            misses.append(f"max |U feature_map(Xq)' - K(X, Xq)| = {worst:.3g} > eps")
        return misses

    def counts(self, out):
        return {"kernel.rank": out[0].rank}


WORKLOADS = {
    "qp-maintained-n32": LowRankBoxQP(n=32),
    "svm-gaussian-cli": GaussianSvmTrain(n_train=300),
    "svm-predict-cli": GaussianSvmPredict(n_train=300, n_test=20_000),
    "kernel-factor-n4000": GaussianKernelFactor(n=4000, n_query=4000),
}

# Same code paths at sizes that run in seconds, for the self-test.
TOY_WORKLOADS = {
    "qp-maintained-n32": LowRankBoxQP(n=12),
    "svm-gaussian-cli": GaussianSvmTrain(n_train=40),
    "svm-predict-cli": GaussianSvmPredict(n_train=40, n_test=400),
    "kernel-factor-n4000": GaussianKernelFactor(n=200, n_query=100),
}
