"""Synthetic test problems, their exact minimizers, and the constants the bounds consume.

Every problem is a finite sum f(x) = (1/n) * sum_i f_i(x) with per-term value and
(sub)gradient oracles.  Builders return the problem together with its ground truth
(minimizer, infimum, per-term infima) and the full set of constants needed by the
convergence bounds: smoothness L and per-term L_i, strong convexity mu, the
quadratic-growth modulus mu_pl, the gradient noise sigma*_f, the function noise
Delta*_f, and for nonsmooth problems the subgradient bound G on a solution ball
of radius B.

Problem objects are immutable after construction; all oracles are pure functions
of (i, x) and safe to share across concurrent workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from .nonsmooth import (REQUIRED, Regularizer, SpecError, axis_sum, prox, read_json,
                        spec_kind, spec_section)

__all__ = [
    "FiniteSumProblem",
    "GroundTruth",
    "ProblemConstants",
    "CompositeProblem",
    "Fixture",
    "build_least_squares",
    "build_scalar_pl",
    "build_abs_loss",
    "minibatch_constants",
    "make_composite",
    "gradient_variance",
    "fixture",
    "fixture_from_spec",
    "fixture_names",
]

# Relative eigenvalue cutoff separating "zero" from "nonzero" when ranking the
# spectrum of (1/n) Phi^T Phi.
_EIG_CUTOFF = 1e-10

# a problem's matrix, targets and ridge modulus
_A_Y_MU = itemgetter("A", "y", "mu")


class Loss(NamedTuple):
    """A problem kind: the loss of one term's residual r_i = <a_i, x> - y_i in the
    forms the oracles use."""

    of: Callable  # the loss of one residual, a float
    grad: Callable  # its derivative, elementwise on numpy values
    mean: Callable  # (1/n) sum_i loss(r_i) of a residual vector, a float
    mean_rows: Callable  # the same of each row of an (M, n) array, which it may overwrite
    peak: Callable  # rho -> a bound on the loss on |r| <= rho, nondecreasing in rho >= 0


def _pl(t: float) -> float:
    return t * t + 3.0 * math.sin(t) ** 2


# Every problem kind, stated once: adding one is a row here, with its ``peak``
# (which the divergence guard's clearing threshold needs), a builder and a
# _PROBLEM_FIELDS entry.  Each form keeps its own reduction, so the row-wise
# oracles match the single-point ones bit for bit.
_LOSSES = {
    "least_squares": Loss(lambda r: 0.5 * r * r, lambda r: r,
                          lambda r: 0.5 * float(r @ r) / len(r),
                          lambda R: 0.5 * np.vecdot(R, R) / R.shape[1],
                          lambda rho: 0.5 * rho * rho),
    "abs_loss": Loss(abs, np.sign, lambda r: float(np.abs(r).mean()),
                     lambda R: axis_sum(np.abs(R, out=R), 1) / R.shape[1], lambda rho: rho),
    # the paper's nonconvex PL example t^2 + 3 sin^2 t, one term; float_power is
    # libm pow, as the float ``** 2`` of _pl (np.square rounds differently)
    "scalar_pl": Loss(_pl, lambda t: 2.0 * t + 3.0 * np.sin(2.0 * t), lambda r: _pl(float(r[0])),
                      lambda R: R[:, 0] * R[:, 0] + 3.0 * np.float_power(np.sin(R[:, 0]), 2),
                      lambda rho: rho * rho + 3.0),
}


@dataclass(frozen=True)
class FiniteSumProblem:
    """Oracle bundle for f = (1/n) sum_i f_i, a linear model with
    f_i(x) = loss(<a_i, x> - y_i) + (mu/2) ||x||^2.

    ``kind`` names the loss in ``_LOSSES``: ``least_squares``, ``abs_loss`` or
    ``scalar_pl``.  ``data`` holds the matrix ``A`` (n, d), the targets ``y`` (n,)
    and ``mu``.  For the nonsmooth ``abs_loss``, ``grad_i`` returns a fixed
    subgradient selection (sign convention: 0 at kinks).  The ridge term is added
    only when mu > 0.
    """

    kind: str
    n: int
    d: int
    data: dict = field(repr=False)
    default_x0: np.ndarray = field(default=None, repr=False)

    @property
    def loss(self) -> Loss:
        return _LOSSES[self.kind]

    # Single-point oracles, the reference of the row-wise ones.

    def value_i(self, i: int, x: np.ndarray) -> float:
        A, y, mu = _A_Y_MU(self.data)
        v = self.loss.of(float(A[i] @ x - y[i]))
        return v + 0.5 * mu * float(x @ x) if mu > 0 else v

    def grad_i(self, i: int, x: np.ndarray) -> np.ndarray:
        A, y, mu = _A_Y_MU(self.data)
        g = self.loss.grad(A[i] @ x - y[i]) * A[i]
        return g + mu * x if mu > 0 else g

    def value(self, x: np.ndarray) -> float:
        A, y, mu = _A_Y_MU(self.data)
        v = self.loss.mean(A @ x - y)
        return v + 0.5 * mu * float(x @ x) if mu > 0 else v

    def grad(self, x: np.ndarray) -> np.ndarray:
        A, y, mu = _A_Y_MU(self.data)
        g = A.T @ self.loss.grad(A @ x - y) / self.n
        return g + mu * x if mu > 0 else g

    # Row-wise oracles over an (M, d) array of points.  Row m equals the single-point
    # oracle at X[m] bit for bit and does not depend on the other rows: products
    # with the whole of A are stacks of matrix-vector products, so that each row
    # matches the single-point ``A @ x`` and ``A.T @ s`` (one (M, d) @ (d, n)
    # product may round differently and depend on M).

    def sample_rows(self, idx: np.ndarray) -> tuple:
        """The data of the terms ``idx``, an index array of any shape: the
        matrix rows and targets (A[idx], y[idx])."""
        return np.take(self.data["A"], idx, axis=0), np.take(self.data["y"], idx)

    def grad_sampled(self, rows, X: np.ndarray) -> np.ndarray:
        """grad f_{idx[m]}(X[m]) for every row m, given the terms' data
        ``rows = sample_rows(idx)`` for an (M,) index array (or views of the
        same shapes)."""
        (a, y), mu = rows, self.data["mu"]
        G = self.loss.grad(np.vecdot(a, X) - y)[:, None] * a
        return G + mu * X if mu > 0 else G

    def term_grad_rows(self, X: np.ndarray) -> np.ndarray:
        """grad f_i(X[m]) for every row m and term i, shape (M, n, d)."""
        rows = self.sample_rows(np.tile(np.arange(self.n), len(X)))
        return self.grad_sampled(rows, np.repeat(X, self.n, axis=0)).reshape(len(X), self.n, self.d)

    def full_grad_rows(self, X: np.ndarray) -> np.ndarray:
        """grad f(X[m]) for every row m."""
        A, y, mu = _A_Y_MU(self.data)
        s = self.loss.grad(np.matmul(X[:, None, :], A.T)[:, 0] - y)
        G = np.matmul(A.T, s[:, :, None])[:, :, 0] / self.n
        return G + mu * X if mu > 0 else G

    def value_rows(self, X: np.ndarray, work: Optional[np.ndarray] = None) -> np.ndarray:
        """f(X[m]) for every row m.  ``work``, a C-contiguous float64 buffer of
        shape (len(X), 1, n) that the call may overwrite, holds the residual
        instead of fresh arrays."""
        A, y, mu = _A_Y_MU(self.data)
        r = np.matmul(X[:, None, :], A.T, out=work)[:, 0]
        r -= y
        v = self.loss.mean_rows(r)
        return v + 0.5 * mu * np.vecdot(X, X) if mu > 0 else v

    def clearing_norm_sq(self, limit: float, inf: float, g_slope: float = 0.0) -> float:
        """The divergence guard's threshold c: every row x whose computed
        squared norm, its squares summed in any order, is at most c has a
        finite gap ``value_rows`` - inf at most ``limit`` (>= 1), plus g(x)
        for a regularizer g >= 0 with g(x) <= g_slope ||x|| (a composite's);
        -inf, which clears nothing, if no R fits.

        c = R^2 (1 - 2^-40), R the largest of the radii 2^k (1 + j/16), 0 <= j <
        16, from 2^-400 to 2^400 with (alpha = max_i ||a_i||, beta = max_i |y_i|)

            4 (peak(2 (alpha R + beta)) + mu R^2 + g_slope R) + 2 |inf| <= min(limit, 2^960).

        With u = 2^-53 and gamma_k = k u / (1 - k u) (Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 3), in any order of summation and
        with or without fused multiply-adds:
        - the computed sum of squares s is within gamma_d ||x||^2 + d 2^-1074 of ||x||^2,
          and R >= 2^-400 puts the second term below R^2 2^-40, so s <= c gives
          ||x|| <= R / (1 - gamma_d);
        - each residual <a_i, x> - y_i is then at most alpha ||x|| + beta in size,
          and its computed value within gamma_{d+1} (alpha ||x|| + beta) of it,
          so below 2 (alpha R + beta), where the loss is at most ``peak``;
        - the factors 2 and 4 cover the rounding of the loss, the mean
          (gamma_{n+2}), the ridge term (mu/2 ||x||^2 <= mu R^2 / 2), g, the
          sums and the gap's subtraction, and of the test above and of alpha,
          for n + d < 2^45 (each gamma below 2^-7): the computed gap is at most
          (1 + 2^-5) (peak + mu R^2 + g_slope R + |inf|) + n 2^-1070, below
          min(limit, 2^960);
        - the 2^960 cap keeps every product and sum of a cleared row finite,
          including when ``limit`` overflows to inf."""
        (A, y, mu), peak = _A_Y_MU(self.data), self.loss.peak
        alpha, beta = math.sqrt(max(np.vecdot(A, A).tolist())), max(np.abs(y).tolist())

        def fits(R):
            h = 4.0 * (peak(2.0 * (alpha * R + beta)) + mu * R * R + g_slope * R) + 2.0 * abs(inf)
            return h <= limit and h <= 2.0 ** 960

        def radius(i):  # 2^k (1 + j/16) for i = 16 k + j, increasing in i
            return math.ldexp(1.0 + (i % 16) / 16.0, i // 16)

        lo, hi = -6400, 6401  # fits(radius(lo)), and hi = 6401 or not fits(radius(hi))
        if not fits(radius(lo)):
            return -math.inf
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(radius(mid)) else (lo, mid)
        R = radius(lo)
        return R * R * (1.0 - 2.0 ** -40)


@dataclass(frozen=True)
class GroundTruth:
    """A minimizer of f, its infimum, the per-term infima and, for abs_loss, the
    KKT multipliers certifying the minimizer (see ``_abs_reference_solve``)."""

    x_star: np.ndarray
    inf_f: float
    inf_f_i: tuple
    multipliers: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ProblemConstants:
    """Every constant the convergence bounds consume.

    ``mu`` is 0 when the problem is not (known) strongly convex, ``mu_pl`` is 0
    when no quadratic-growth modulus is known.  ``G`` and ``B`` are only
    populated for bounded-subgradient problems; ``L`` is +inf for nonsmooth f.
    """

    n: int
    L: float
    L_i: tuple
    L_max: float
    L_avg: float
    mu: float
    mu_pl: float
    sigma_star_f: float
    delta_star_f: float
    G: float = 0.0
    B: float = 0.0


@dataclass(frozen=True)
class CompositeProblem:
    """Composite objective F = f + g with reference minimizer of F."""

    smooth: FiniteSumProblem
    reg: Regularizer
    x_star_F: np.ndarray
    inf_F: float
    sigma_star_F: float

    def value(self, x: np.ndarray) -> float:
        g = self.reg.value(x)
        if not np.isfinite(g):
            return math.inf
        return self.smooth.value(x) + g

    def value_rows(self, X: np.ndarray, work: Optional[np.ndarray] = None) -> np.ndarray:
        """F(X[m]) for every row m of X (M, d); ``work`` as in FiniteSumProblem."""
        g = self.reg.value_rows(X)
        return np.where(np.isfinite(g), self.smooth.value_rows(X, work) + g, math.inf)

    def clearing_norm_sq(self, limit: float, inf: float) -> float:
        """FiniteSumProblem.clearing_norm_sq of F: g = lam ||x||_1 <= lam sqrt(d)
        ||x|| for l1 (lam is 0 for the other kinds).  The ball indicator's
        ``value_rows`` holds norms up to B (1 + 1e-12), and a threshold of B^2
        (1 + 5e-13 - d 2^-50) keeps every cleared row's computed norm below
        that, the rounding of both squared norms (2 gamma_d <= d 2^-51)
        included, so that projected iterates on the boundary are cleared too."""
        reg, d = self.reg, self.smooth.d
        c = self.smooth.clearing_norm_sq(limit, inf, reg.lam * math.sqrt(d))
        if reg.kind == "ball_indicator":
            c = min(c, reg.B * reg.B * (1.0 + 5e-13 - d * 2.0 ** -50))
        return c


@dataclass(frozen=True)
class Fixture:
    """A named problem bundle from the embedded catalogue."""

    name: str
    problem: FiniteSumProblem
    ground_truth: GroundTruth
    constants: ProblemConstants
    regularizer: Optional[Regularizer] = None
    composite: Optional[CompositeProblem] = None


def gradient_variance(problem: FiniteSumProblem, x: np.ndarray) -> float:
    """(1/n) sum_i ||grad f_i(x) - grad f(x)||^2."""
    grads = problem.term_grad_rows(np.asarray(x, dtype=float)[None])[0]
    mean = grads.mean(axis=0)
    return float(np.sum((grads - mean) ** 2) / problem.n)


def _check_matrix(features, targets, mat_name: str):
    """A (n, d) matrix and its n targets; SpecError names the faulty field."""
    def numbers(name, values):
        try:
            arr = np.asarray(values)
        except ValueError:  # ragged rows
            arr = None
        if arr is None or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise SpecError(name, f"must hold finite numbers only, got {values!r:.40}")
        return arr.astype(float, copy=False)

    features = np.atleast_2d(numbers(mat_name, features))
    targets = numbers("targets", targets).ravel()
    if features.size == 0 or features.shape[0] < 1 or features.shape[1] < 1:
        raise SpecError(mat_name, "must have n >= 1 rows and d >= 1 columns")
    if targets.shape[0] != features.shape[0]:
        raise SpecError("targets", "length must match the row count")
    return features, targets


def build_least_squares(features, targets):
    """Least squares f_i(x) = 0.5*(<phi_i, x> - y_i)^2, f = (1/n) sum f_i.

    Constants come from the symmetric eigen-decomposition of H = (1/n) Phi^T Phi:
    L is the largest eigenvalue (at most L_max, and L_max itself for n = 1), mu
    the smallest if positive, mu_pl the smallest nonzero eigenvalue (cutoff
    1e-10 * L).  The minimizer is the
    minimum-norm solution of the normal equations; sigma*_f and Delta*_f are
    evaluated exactly from the residuals there.
    """
    features, targets = _check_matrix(features, targets, "features")
    n, d = features.shape
    problem = FiniteSumProblem(
        kind="least_squares",
        n=n,
        d=d,
        data={"A": features, "y": targets, "mu": 0.0},
        default_x0=np.zeros(d),
    )

    L_i = tuple(float(r @ r) for r in features)
    L_max = max(L_i)
    L_avg = sum(L_i) / n
    # lambda_max <= trace(H) <= L_max, equal for one row (H = a a^T); clipping
    # eigvalsh's rounding keeps that, and mu <= L, bit for bit
    eigs = np.linalg.eigvalsh(features.T @ features / n)
    L = L_max if n == 1 else min(float(eigs[-1]), L_max)
    eigs = np.minimum(eigs, L)
    cutoff = _EIG_CUTOFF * max(L, 1e-300)
    lam_min = float(eigs[0])
    mu = lam_min if lam_min > cutoff else 0.0
    nonzero = eigs[eigs > cutoff]
    mu_pl = float(nonzero[0]) if nonzero.size else 0.0

    x_star = np.linalg.lstsq(features, targets, rcond=None)[0]
    inf_f = problem.value(x_star)
    sigma_star_f = gradient_variance(problem, x_star)
    delta_star_f = inf_f  # inf f_i = 0 for every term

    gt = GroundTruth(x_star=x_star, inf_f=inf_f, inf_f_i=(0.0,) * n)
    consts = ProblemConstants(
        n=n, L=L, L_i=L_i, L_max=L_max, L_avg=L_avg, mu=mu, mu_pl=mu_pl,
        sigma_star_f=sigma_star_f, delta_star_f=delta_star_f,
    )
    return problem, gt, consts


def build_scalar_pl():
    """The 1-d nonconvex benchmark f(t) = t^2 + 3 sin(t)^2.

    f is 8-smooth (f'' = 2 + 6 cos 2t), has inf f = 0 at t = 0, and satisfies the
    gradient-dominance inequality with modulus 1/40 while not being convex.
    """
    problem = FiniteSumProblem(
        kind="scalar_pl", n=1, d=1, data={"A": np.ones((1, 1)), "y": np.zeros(1), "mu": 0.0},
        default_x0=np.array([3.0]),
    )
    gt = GroundTruth(x_star=np.zeros(1), inf_f=0.0, inf_f_i=(0.0,))
    consts = ProblemConstants(
        n=1, L=8.0, L_i=(8.0,), L_max=8.0, L_avg=8.0, mu=0.0, mu_pl=1.0 / 40.0,
        sigma_star_f=0.0, delta_star_f=0.0,
    )
    return problem, gt, consts


def _null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of null(M) from the SVD, with scipy.linalg.null_space's rank rule
    (eps * max(m, n) relative) and memory layout, which sets how products with it round."""
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > np.amax(s, initial=0.0) * np.finfo(float).eps * max(M.shape)))
    return np.ascontiguousarray(vh.T)[:, rank:]


def _box_qp(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Minimizer of q(v) = v^T H v / 2 + g^T v over |v_i| <= 1, H symmetric positive
    semidefinite, by a primal active-set method (Nocedal & Wright, Numerical Optimization,
    16.5) from the vertex -sign(g): each step goes to q's minimizer on the free variables'
    face (a Newton step), or where it has none along H's null space there, and a bound met
    on the way fixes its variable; at a face's minimizer the fixed variable the gradient
    pulls inward the most is freed, until none is pulled."""
    v = -np.sign(g)
    free = v == 0.0
    tol = 1e-15 * (np.abs(H).sum(axis=1) + np.abs(g)).max(initial=0.0)  # grad's rounding error
    for _ in range(20 * len(g) + 20):
        grad = H @ v + g
        F = np.flatnonzero(free)
        if F.size:
            HF = H[np.ix_(F, F)]
            w, V = np.linalg.eigh(HF)
            z = V.T @ grad[F]
            null = w <= np.finfo(float).eps * F.size * np.abs(w).max()  # lstsq's rank rule
            # grad's part in null(HF), where q is linear, or else the Newton step
            ray = np.abs(z[null]).max(initial=0.0) > 1e-10 * np.abs(z).max()
            p = -V[:, null] @ z[null] if ray else -V[:, ~null] @ (z[~null] / w[~null])
            curv = p @ HF @ p  # 0 on a true ray, > 0 where rounding passed for one
            step = (-(grad[F] @ p) / curv if curv > 0.0 else np.inf) if ray else 1.0
            with np.errstate(divide="ignore"):
                room = (1.0 - np.sign(p) * v[F]) / np.abs(p)  # step to each one's bound
            j = int(np.argmin(room))
            if room[j] < step:
                v[F] += room[j] * p
                v[F[j]], free[F[j]] = np.sign(p[j]), False
                continue
            v[F] += step * p
            if ray:
                continue
            grad = H @ v + g
        pull = np.where(free, 0.0, v * grad)
        if pull.max(initial=0.0) <= tol:
            break
        free[np.argmax(pull)] = True
    return np.clip(v, -1.0, 1.0)


def _abs_reference_solve(problem: FiniteSumProblem):
    """Exact minimizer of f(x) = (1/n)||Ax - b||_1 + (mu/2)||x||^2 and the KKT multipliers
    lam certifying it, to 1e-12 relative: lam_i = sign(r_i) where r = Ax - b is nonzero,
    |lam_i| <= 1 where r_i = 0, and mu x + A^T lam/n = 0.  An approximate solve of the dual
    over the box |lam_i| <= 1 tells which r_i vanish; x is then a linear solve.  For mu = 0
    this runs at mu_eff = 1, 1/4, ... until x is certified for f itself, which makes it the
    minimum-norm minimizer (exact regularization; Friedlander & Tseng, SIAM J. Optim. 2007)."""
    A, b, strong_mu = _A_Y_MU(problem.data)
    n = problem.n

    def scale(x):  # magnitude of the terms of each residual, for relative tolerances
        return 1.0 + np.abs(A) @ np.abs(x) + np.abs(b)

    def kkt_point(mu, zero, s):
        # r_i = 0 on `zero`, lam_i = s_i elsewhere; projecting onto null(A_zero)
        # before dividing by mu keeps those zeros exact however small mu is
        N = _null_space(A[zero])
        x = np.linalg.lstsq(A[zero], b[zero], rcond=None)[0]
        return x - N @ (N.T @ (A[~zero].T @ s[~zero])) / (n * mu)

    def solve(mu):
        lam = _box_qp(A @ A.T / (n * mu), b)
        x = kkt_point(mu, np.abs(lam) < 1.0 - 1e-9, np.sign(lam))
        r = A @ x - b  # again on the zeros of its own residuals, weakly active ones included
        return kkt_point(mu, np.abs(r) <= 1e-9 * scale(x), np.sign(r))

    def certificate(x):
        # multipliers of x (they need not be unique): sign(r_i) off the zeros of r, and on
        # them the box least-squares fit of A^T lam = -n mu x, its free part refined by an
        # exact least-squares step (Az Az^T squares Az's condition); their KKT residual
        r = A @ x - b
        zero = np.abs(r) <= 1e-12 * scale(x)
        lam = np.sign(r)
        Az, c = A[zero], -n * strong_mu * x - A[~zero].T @ lam[~zero]
        lz = _box_qp(Az @ Az.T, -Az @ c)
        free = np.abs(lz) < 1.0
        lz[free] += np.linalg.lstsq(Az[free].T, c - Az.T @ lz, rcond=None)[0]
        lam[zero] = np.clip(lz, -1.0, 1.0)
        gap = np.abs(strong_mu * x + A.T @ lam / n).max()
        return lam, gap / (1.0 + strong_mu * np.abs(x).max() + np.abs(A).max())

    for mu_eff in [strong_mu] if strong_mu > 0 else 4.0 ** -np.arange(30):
        x = solve(mu_eff)
        lam, gap = certificate(x)
        if gap <= 1e-12:
            return x, lam
    raise ValueError(f"abs_loss minimizer not certified: relative KKT residual {gap:.3g}")


def build_abs_loss(rows, targets, strong_mu: float = 0.0, ball_B: float = 1.0):
    """Absolute loss f_i(x) = |<a_i, x> - b_i| + (strong_mu/2) ||x||^2.

    Subgradients are bounded on the ball of radius ball_B by
    G = max_i ||a_i|| + strong_mu * ball_B.  The minimizer is exact (of minimum
    norm if strong_mu = 0) and certified by KKT multipliers; ValueError if the
    certificate fails or the minimizer is not inside the ball.
    """
    rows, targets = _check_matrix(rows, targets, "rows")
    if strong_mu < 0:
        raise ValueError("strong_mu must be >= 0")
    if ball_B <= 0:
        raise ValueError("ball_B must be > 0")
    n, d = rows.shape
    problem = FiniteSumProblem(
        kind="abs_loss", n=n, d=d,
        data={"A": rows, "y": targets, "mu": float(strong_mu)},
        default_x0=np.zeros(d),
    )

    x_star, multipliers = _abs_reference_solve(problem)
    if np.linalg.norm(x_star) > ball_B * (1.0 - 1e-9):
        raise ValueError(
            f"reference minimizer sits on the ball boundary (|x*| = "
            f"{np.linalg.norm(x_star):.6g}); increase ball_B beyond {ball_B}"
        )
    inf_f = problem.value(x_star)

    # inf of |<a, x> - b| + (mu/2)||x||^2 in closed form, with c = mu/(2|a|^2)
    a2 = np.array([float(a @ a) for a in rows])
    with np.errstate(divide="ignore", invalid="ignore"):  # a2 = 0 or mu = 0
        c = strong_mu / (2.0 * a2)
        inf_f_i = tuple(np.where(a2 == 0.0, np.abs(targets), np.where(
            np.abs(targets) <= 1.0 / (2.0 * c), c * targets * targets,
            np.abs(targets) - 1.0 / (4.0 * c))).tolist())

    gt = GroundTruth(x_star=x_star, inf_f=inf_f, inf_f_i=inf_f_i, multipliers=multipliers)
    consts = ProblemConstants(
        n=n, L=math.inf, L_i=(math.inf,) * n, L_max=math.inf, L_avg=math.inf,
        mu=float(strong_mu), mu_pl=0.0,
        sigma_star_f=gradient_variance(problem, x_star),
        delta_star_f=inf_f - sum(inf_f_i) / n,
        G=float(np.max(np.linalg.norm(rows, axis=1))) + strong_mu * ball_B, B=float(ball_B),
    )
    return problem, gt, consts


def minibatch_constants(constants: ProblemConstants, b: int):
    """Expected-smoothness and gradient-noise constants for batch size b.

    L_b = n(b-1)/(b(n-1)) * L + (n-b)/(b(n-1)) * L_max and
    sigma_b = (n-b)/(b(n-1)) * sigma*_f.  At b = 1 this is (L_max, sigma*_f);
    at b = n it is (L, 0).
    """
    n = constants.n
    if not (isinstance(b, (int, np.integer)) and 1 <= b <= n):
        raise ValueError(f"batch size b={b} out of range [1, {n}]")
    if n == 1:
        return constants.L, 0.0
    w_full = n * (b - 1) / (b * (n - 1))
    w_single = (n - b) / (b * (n - 1))
    L_b = w_full * constants.L + w_single * constants.L_max
    sigma_b = w_single * constants.sigma_star_f
    return float(L_b), float(sigma_b)


# the composite reference solve's stopping rule and iteration budget
_COMPOSITE_TOL = 1e-12
_COMPOSITE_MAX_ITERS = 10**6


def make_composite(problem: FiniteSumProblem, constants: ProblemConstants,
                   reg: Regularizer) -> CompositeProblem:
    """Build F = f + g with a reference minimizer of F.

    The reference solve is forward-backward iteration at step 1/L from the
    problem's default_x0, run until the fixed-point residual
    ||x - prox_{g/L}(x - grad f(x)/L)|| falls below _COMPOSITE_TOL * (1 + ||x||),
    within _COMPOSITE_MAX_ITERS iterations.
    """
    if not np.isfinite(constants.L) or constants.L <= 0:
        raise ValueError("composite reference solve needs finite smoothness L > 0")
    gamma = 1.0 / constants.L
    x = prox(reg, gamma, problem.default_x0)  # start feasible
    residual = math.inf
    for _ in range(_COMPOSITE_MAX_ITERS):
        x_next = prox(reg, gamma, x - gamma * problem.grad(x))
        residual = float(np.linalg.norm(x_next - x))
        x = x_next
        if residual <= _COMPOSITE_TOL * (1.0 + float(np.linalg.norm(x))):
            break
    else:
        raise ValueError(
            f"composite reference solver did not converge: fixed-point residual "
            f"{residual:.3e} after {_COMPOSITE_MAX_ITERS} iterations"
        )
    g_val = reg.value(x)
    inf_F = problem.value(x) + g_val
    sigma_star_F = gradient_variance(problem, x)
    return CompositeProblem(
        smooth=problem, reg=reg, x_star_F=x, inf_F=float(inf_F), sigma_star_F=sigma_star_F,
    )


# ---------------------------------------------------------------------------
# Embedded fixture catalogue
# ---------------------------------------------------------------------------

# Problem specs (README "Config schema"); $DESCENTLAB_FIXTURES/<name>.json
# files hold the same, and all are read by ``fixture_from_spec``.
_LS_4X2 = {"kind": "least_squares", "features": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
           "targets": [1.0, 1.0, 0.0, 0.0]}
_ABS_2X1 = {"kind": "abs_loss", "rows": [[1.0], [1.0]], "targets": [1.0, -1.0], "ball_B": 2.0}
_CATALOGUE = {
    "ls_4x2": _LS_4X2,
    "ls_6x2": {"kind": "least_squares", "features": _LS_4X2["features"] + [[2.0, 0.0], [0.0, 2.0]],
               "targets": _LS_4X2["targets"] + [1.0, -1.0]},
    "scalar_pl": {"kind": "scalar_pl"},
    "abs_2x1": dict(_ABS_2X1, strong_mu=0.0),
    "abs_2x1_reg": dict(_ABS_2X1, strong_mu=0.5),
    "lasso_4x2": dict(_LS_4X2, regularizer={"kind": "l1", "lambda": 0.1}),
}

_FIXTURE_CACHE: dict = {}


def fixture_names():
    return sorted(_CATALOGUE)


# each problem kind's fields: an optional regularizer, and the keyword
# arguments of its builder ``build_<kind>``
_PROBLEM_FIELDS = {
    "least_squares": {"features": (list, REQUIRED), "targets": (list, REQUIRED),
                      "regularizer": (dict, None)},
    "abs_loss": {"rows": (list, REQUIRED), "targets": (list, REQUIRED), "strong_mu": (float, 0.0),
                 "ball_B": (float, 1.0), "regularizer": (dict, None)},
    "scalar_pl": {"regularizer": (dict, None)},
}


def fixture_from_spec(name: str, spec) -> Fixture:
    """The fixture a problem spec describes: an inline problem, a catalogue
    entry or a fixture file, with the composite of its regularizer if it has
    one.  SpecError names a field of ``spec`` that is unknown, missing or
    mistyped; ValueError a problem the builder rejects."""
    kind, args = spec_kind(spec, "problem", _PROBLEM_FIELDS)
    reg = args.pop("regularizer")
    if reg is not None:
        reg = spec_section("regularizer", Regularizer.from_config, reg)
    # looked up when called, so that a wrapped builder is the one called
    p, gt, c = globals()[f"build_{kind}"](**args)
    comp = None if reg is None else make_composite(p, c, reg)
    return Fixture(name, p, gt, c, regularizer=reg, composite=comp)


def fixture(name: str) -> Fixture:
    """Look up a problem bundle by name, building and caching on first use.

    Searches the embedded catalogue first, then `$DESCENTLAB_FIXTURES/<name>.json`,
    whose spec, if wrong or rejected by its builder, raises a SpecError naming
    the file's path.
    """
    if name in _FIXTURE_CACHE:
        return _FIXTURE_CACHE[name]
    spec, path = _CATALOGUE.get(name), None
    if spec is None:
        ext_dir = os.environ.get("DESCENTLAB_FIXTURES")
        path = os.path.join(ext_dir, f"{name}.json") if ext_dir else None
        if not (path and os.path.exists(path)):
            raise KeyError(f"unknown fixture {name!r}; available: {fixture_names()}")
        spec = read_json(path)
    try:
        fx = _FIXTURE_CACHE[name] = fixture_from_spec(name, spec)
    except ValueError as exc:  # a wrong field, or a problem the builder rejects
        if path is None:
            raise
        raise SpecError("", f"{path}: {exc}") from exc
    return fx
