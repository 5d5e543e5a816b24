"""Implicit maintenance of the exact primal-dual pair under low-rank Q.

The pair (x, s) is represented as

    x = xhat + H^{-1/2} (h beta_x + hhat bhat_x + htil btil_x)
    s = shat + H^{1/2}  (h beta_s + hhat bhat_s + htil btil_s)

with H = H_{w,xbar} diagonal, h = H^{-1/2} dmu_bar, hhat = H^{-1/2} U,
htil = H^{-1/2} A', and dmu_bar = sqrt(alpha_bar) * delta_mu(xbar, sbar, tbar).
A central-path step (Move) only touches the k + m + 1 coefficients through
two small linear solves obtained from the Woodbury identity; a refresh of
(xbar, sbar) on a few coordinates (Update) touches only the matching rows
of the stored vectors plus the k/m-sized summaries u1..u6.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from . import barrier
from .exceptions import SolverError

_Z_CLAMP = 350.0  # keep cosh^2 finite; valid runs stay far below this


def woodbury_factor(h_diag, U, V, t):
    """Factor B = UV' + tH once, for diagonal positive H; returns rhs -> B^{-1} rhs.

    (UV' + tH)^{-1} = t^{-1}H^{-1} - t^{-2}H^{-1}U (I + t^{-1}V'H^{-1}U)^{-1} V'H^{-1},
    so one LU of the k x k capacitance serves every right-hand side, and no
    n x n matrix is formed.  rhs may be a vector or a matrix of columns.
    """
    scale = 1.0 / (t * np.asarray(h_diag, dtype=float))

    def scaled(rhs):
        rhs = np.asarray(rhs, dtype=float)
        return scale[:, None] * rhs if rhs.ndim == 2 else scale * rhs

    if U is None or U.size == 0:
        return scaled
    HiU = scale[:, None] * U
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = scipy.linalg.lu_factor(np.eye(U.shape[1]) + V.T @ HiU)

    def apply(rhs):
        base = scaled(rhs)
        with np.errstate(all="ignore"):
            sol = scipy.linalg.lu_solve(lu, V.T @ base)
        if not np.all(np.isfinite(sol)):
            raise SolverError("singular Woodbury capacitance matrix")
        return base - HiU @ sol

    return apply


def woodbury_apply(h_diag, U, V, t, rhs):
    """Apply (UV' + tH)^{-1} to rhs for diagonal positive H, without forming B."""
    return woodbury_factor(h_diag, U, V, t)(rhs)


def _row_dots(M, idx, b):
    """``M[i] @ b`` for every i in idx: one dot per row, as the scalar reads
    take it, where ``M[idx] @ b`` rounds differently."""
    return np.matmul(M[idx][:, None, :], b[:, None])[:, 0, 0]


@dataclass
class UpdateDeltas:
    """Sparse changes emitted by ExactDS.update, consumed by the sketches.

    The arrays are new on every update and never written afterwards: the
    sketches hold them until their next query."""
    idx: np.ndarray           # changed block indices, sorted
    h: np.ndarray             # (|idx|,)
    hhat: np.ndarray          # (|idx|, k)
    htil: np.ndarray          # (|idx|, m)
    xhat_scaled: np.ndarray   # (|idx|,) change of H^{1/2} xhat
    shat_scaled: np.ndarray   # (|idx|,) change of H^{-1/2} shat


class ExactDS:
    """direction="softmax" follows the potential-based step scaling
    dmu_bar_i = -alpha sinh(lam gamma_i / w_i)/gamma_i * mu_i with
    alpha_bar = sum cosh^2/w; direction="damped" freezes a plain damping
    dmu_bar_i = -theta mu_i (alpha_bar = 1) for the practical path.  Both
    keep dmu_bar a per-coordinate function of (xbar_i, sbar_i, tbar), which
    is what makes sparse refreshes consistent."""

    def __init__(self, inst, params, x, s, x_bar, s_bar, t_bar, direction=None):
        self.inst = inst
        self.params = params
        self.direction = direction or ("softmax" if params.mode == "theory" else "damped")
        n = inst.n
        self.U = inst.U if inst.U is not None else np.zeros((n, 0))
        self.V = inst.V if inst.V is not None else np.zeros((n, 0))
        self.At = np.ascontiguousarray(inst.A.T)  # (n, m)
        self.k = self.U.shape[1]
        self.m = inst.m
        self.x_bar = np.array(x_bar, dtype=float)
        self.s_bar = np.array(s_bar, dtype=float)
        self.t_bar = float(t_bar)

        barrier.check_interior(inst.lo, inst.hi, self.x_bar)
        self.hunw = barrier.hess_vec(inst.lo, inst.hi, self.x_bar)
        self.hdiag = inst.w * self.hunw
        self.hm12 = 1.0 / np.sqrt(self.hdiag)
        self.hp12 = np.sqrt(self.hdiag)

        self.xhat = np.array(x, dtype=float)
        self.shat = np.array(s, dtype=float)
        self.beta_x = 0.0
        self.beta_s = 0.0
        self.bhat_x = np.zeros(self.k)
        self.bhat_s = np.zeros(self.k)
        self.btil_x = np.zeros(self.m)
        self.btil_s = np.zeros(self.m)

        self._refresh_direction_all()
        self.h = self.hm12 * self.dmu_bar
        self.hhat = self.hm12[:, None] * self.U
        self.htil = self.hm12[:, None] * self.At
        hinv = 1.0 / self.hdiag
        self.u1 = self.U.T @ (hinv[:, None] * self.At)
        self.u2 = self.V.T @ (hinv[:, None] * self.At)
        self.u3 = self.At.T @ (hinv[:, None] * self.At)
        self.u4 = self.At.T @ (hinv * self.dmu_bar)
        self.u5 = self.V.T @ (hinv * self.dmu_bar)
        self.u6 = self.V.T @ (hinv[:, None] * self.U)
        self.last_dy = np.zeros(self.m)
        self.ridge_uses = 0  # Moves whose v1 solve needed a ridge

    # -- direction bookkeeping -------------------------------------------

    def _direction_at(self, xb, sb, lo, hi, w):
        g = barrier.grad_vec(lo, hi, xb)
        hunw = barrier.hess_vec(lo, hi, xb)
        mu = sb / self.t_bar + w * g
        gamma = np.abs(mu) / np.sqrt(hunw)
        if self.direction == "damped":
            cosh2w = np.zeros_like(gamma)
            dmu_bar = -self.theta * mu
        else:
            z = np.minimum(self.params.lam * gamma / w, _Z_CLAMP)
            cosh2w = np.cosh(z) ** 2 / w
            with np.errstate(divide="ignore", invalid="ignore"):
                per = np.where(z < 1e-8, self.params.lam / w,
                               np.sinh(z) / np.where(gamma == 0, 1.0, gamma))
            dmu_bar = -self.params.alpha * per * mu
        return mu, gamma, cosh2w, dmu_bar, hunw

    def _refresh_direction_all(self):
        inst = self.inst
        if self.direction == "damped":
            # Frozen damping for the epoch, capped so ||dmu||*_{w,xbar} <= alpha.
            g = barrier.grad_vec(inst.lo, inst.hi, self.x_bar)
            hunw = barrier.hess_vec(inst.lo, inst.hi, self.x_bar)
            mu0 = self.s_bar / self.t_bar + inst.w * g
            norm = float(np.sqrt(np.sum(mu0 * mu0 / hunw / inst.w)))
            self.theta = min(1.0, self.params.alpha / norm) if norm > 0 else 1.0
        else:
            self.theta = None
        mu, gamma, cosh2w, dmu_bar, _ = self._direction_at(
            self.x_bar, self.s_bar, inst.lo, inst.hi, inst.w)
        self.mu = mu
        self.gamma = gamma
        self.cosh2w = cosh2w
        self.alpha_bar = 1.0 if self.direction == "damped" else float(cosh2w.sum())
        self.dmu_bar = dmu_bar

    # -- public operations -------------------------------------------------

    def move(self):
        """Apply one robust central path step to the implicit representation."""
        t = self.t_bar
        ainv = self.alpha_bar ** -0.5
        if self.k:
            # LAPACK's getrf/getrs directly: what lu_factor/lu_solve call,
            # without their per-call checks on k x k operands.
            lapack = scipy.linalg.lapack
            v0_lu, piv, info = lapack.dgetrf(np.eye(self.k) + self.u6 / t)
            if info != 0 or not np.all(np.isfinite(v0_lu)):
                raise SolverError("singular v0 in Move")
            v0i_u5 = lapack.dgetrs(v0_lu, piv, self.u5)[0]
            v0i_u2 = lapack.dgetrs(v0_lu, piv, self.u2)[0] if self.m else np.zeros((self.k, 0))
        else:
            v0i_u5 = np.zeros(0)
            v0i_u2 = np.zeros((0, self.m))
        if self.m:
            v1 = self.u3 / t - (self.u1.T @ v0i_u2) / t**2
            v2 = self.u4 / t - (self.u1.T @ v0i_u5) / t**2
            try:
                wvec = scipy.linalg.solve(v1, v2)
            except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
                reg = 1e-12 * np.trace(v1) / self.m
                try:
                    wvec = scipy.linalg.solve(v1 + reg * np.eye(self.m), v2)
                except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
                    raise SolverError("singular v1 in Move") from exc
                self.ridge_uses += 1
        else:
            wvec = np.zeros(0)
        self.beta_x += ainv
        if self.k:
            self.bhat_x += -ainv / t * v0i_u5 + ainv / t * (v0i_u2 @ wvec)
            self.bhat_s += ainv * v0i_u5 - ainv * (v0i_u2 @ wvec)
        if self.m:
            self.btil_x += -ainv * wvec
            self.btil_s += ainv * t * wvec
        self.last_dy = ainv * t * wvec
        return (self.beta_x, self.beta_s, self.bhat_x.copy(), self.bhat_s.copy(),
                self.btil_x.copy(), self.btil_s.copy())

    def update(self, delta_x_bar, delta_s_bar):
        """Refresh (xbar, sbar) on the support of the deltas, preserving (x, s)."""
        dx = np.asarray(delta_x_bar, dtype=float)
        ds = np.asarray(delta_s_bar, dtype=float)
        S = np.nonzero((dx != 0) | (ds != 0))[0]
        k, m = self.k, self.m
        if S.size == 0:
            return UpdateDeltas(idx=S, h=np.zeros(0), hhat=np.zeros((0, k)),
                                htil=np.zeros((0, m)), xhat_scaled=np.zeros(0),
                                shat_scaled=np.zeros(0))
        inst = self.inst
        lo, hi, w = inst.lo[S], inst.hi[S], inst.w[S]
        xb_new = self.x_bar[S] + dx[S]
        sb_new = self.s_bar[S] + ds[S]
        barrier.check_interior(lo, hi, xb_new)

        mu_new, gamma_new, cosh2w_new, dmu_new, hunw_new = self._direction_at(
            xb_new, sb_new, lo, hi, w)
        hd_new = w * hunw_new
        hm12_new = 1.0 / np.sqrt(hd_new)
        hp12_new = np.sqrt(hd_new)
        hd_old = self.hdiag[S]
        dinv = 1.0 / hd_new - 1.0 / hd_old

        delta_h = hm12_new * dmu_new - self.h[S]
        delta_hhat = hm12_new[:, None] * self.U[S] - self.hhat[S]
        delta_htil = hm12_new[:, None] * self.At[S] - self.htil[S]

        # Compensate xhat/shat so the represented pair is unchanged.  The
        # x-side sees the change of H^{-1}-scaled quantities (the outer
        # H^{-1/2} in the representation folds in); the s-side pieces
        # H^{1/2}h = dmu_bar, H^{1/2}hhat = U, H^{1/2}htil = A' so only the
        # direction change couples.
        d_Hih = dmu_new / hd_new - self.dmu_bar[S] / hd_old
        delta_xhat = -(d_Hih * self.beta_x
                       + (dinv[:, None] * self.U[S]) @ self.bhat_x
                       + (dinv[:, None] * self.At[S]) @ self.btil_x)
        delta_shat = -(dmu_new - self.dmu_bar[S]) * self.beta_s

        xhat_new = self.xhat[S] + delta_xhat
        shat_new = self.shat[S] + delta_shat
        delta_xhat_scaled = hp12_new * xhat_new - self.hp12[S] * self.xhat[S]
        delta_shat_scaled = hm12_new * shat_new - self.hm12[S] * self.shat[S]

        # Summary updates, all against the Delta of H^{-1}-scaled quantities.
        dinv_At = dinv[:, None] * self.At[S]
        self.u1 += self.U[S].T @ dinv_At
        self.u2 += self.V[S].T @ dinv_At
        self.u3 += self.At[S].T @ dinv_At
        self.u4 += self.At[S].T @ d_Hih
        self.u5 += self.V[S].T @ d_Hih
        self.u6 += self.V[S].T @ (dinv[:, None] * self.U[S])

        self.alpha_bar += float((cosh2w_new - self.cosh2w[S]).sum())
        self.x_bar[S] = xb_new
        self.s_bar[S] = sb_new
        self.hunw[S] = hunw_new
        self.hdiag[S] = hd_new
        self.hm12[S] = hm12_new
        self.hp12[S] = hp12_new
        self.mu[S] = mu_new
        self.gamma[S] = gamma_new
        self.cosh2w[S] = cosh2w_new
        self.dmu_bar[S] = dmu_new
        self.h[S] += delta_h
        self.hhat[S] += delta_hhat
        self.htil[S] += delta_htil
        self.xhat[S] = xhat_new
        self.shat[S] = shat_new
        return UpdateDeltas(idx=S, h=delta_h, hhat=delta_hhat, htil=delta_htil,
                            xhat_scaled=delta_xhat_scaled,
                            shat_scaled=delta_shat_scaled)

    def output(self):
        x = self.xhat + self.hm12 * (self.h * self.beta_x
                                     + self.hhat @ self.bhat_x
                                     + self.htil @ self.btil_x)
        s = self.shat + self.hp12 * (self.h * self.beta_s
                                     + self.hhat @ self.bhat_s
                                     + self.htil @ self.btil_s)
        return x, s

    def query_x(self, i):
        if not 0 <= i < self.inst.n:
            raise IndexError(f"block index {i} out of range")
        return self.xhat[i] + self.hm12[i] * (self.h[i] * self.beta_x
                                              + self.hhat[i] @ self.bhat_x
                                              + self.htil[i] @ self.btil_x)

    def query_s(self, i):
        if not 0 <= i < self.inst.n:
            raise IndexError(f"block index {i} out of range")
        return self.shat[i] + self.hp12[i] * (self.h[i] * self.beta_s
                                              + self.hhat[i] @ self.bhat_s
                                              + self.htil[i] @ self.btil_s)

    def query_x_many(self, idx):
        """``query_x(i)`` for every index in the integer array idx, bit for bit."""
        return self.xhat[idx] + self.hm12[idx] * (self.h[idx] * self.beta_x
                                                  + _row_dots(self.hhat, idx, self.bhat_x)
                                                  + _row_dots(self.htil, idx, self.btil_x))

    def query_s_many(self, idx):
        """``query_s(i)`` for every index in the integer array idx, bit for bit."""
        return self.shat[idx] + self.hp12[idx] * (self.h[idx] * self.beta_s
                                                  + _row_dots(self.hhat, idx, self.bhat_s)
                                                  + _row_dots(self.htil, idx, self.btil_s))

    def scaled_xhat(self):
        return self.hp12 * self.xhat

    def scaled_shat(self):
        return self.hm12 * self.shat
