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

import json
import math
import os
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from .nonsmooth import (REQUIRED, Regularizer, SpecError, axis_sum, prox, spec_kind,
                        spec_section)

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


class _Linear:
    """How x maps to the residuals r_i = <a_i, x> - y_i, at one point and in the
    row-wise oracles, of a problem ``p`` or of the sampled terms' data
    ``rows = (a, y)``, and how the residuals' loss derivative maps back through
    A^T.  Products with the whole of A are stacks of matrix-vector products, so
    that each row matches the single-point ``A @ x`` and ``A.T @ s`` (one
    (M, d) @ (d, n) product may round differently and depend on M)."""

    def residual(p, x, i=slice(None)):  # of one point: r_i, or the (n,) residuals
        return p.data["A"][i] @ x - p.data["y"][i]

    def adjoint(p, s):  # A^T s of an (n,) vector
        return p.data["A"].T @ s

    def rows(p, X, work=None):  # (M, n), in ``work`` (M, 1, n) if given
        r = np.matmul(X[:, None, :], p.data["A"].T, out=work)[:, 0]
        r -= p.data["y"]
        return r

    def grad_rows(p, X, dloss):
        A = p.data["A"]
        s = dloss(np.matmul(X[:, None, :], A.T)[:, 0] - p.data["y"])
        return np.matmul(A.T, s[:, :, None])[:, :, 0] / p.n

    def sample(p, idx):
        return np.take(p.data["A"], idx, axis=0), np.take(p.data["y"], idx)

    def grad_sampled(rows, X, dloss):
        return dloss(np.vecdot(rows[0], X) - rows[1])[:, None] * rows[0]

    def screen(p, X, work=None):  # (M, n) by one (M, d) @ (d, n) product, in ``work`` if given
        r = np.matmul(X, p.data["A"].T, out=work)
        r -= p.data["y"]
        return r


class _Identity:
    """The residual of one term with a = 1 and y = 0 (n = d = 1), x itself: the
    products with A = [[1]] are exact but for the sign of a zero, which BLAS
    accumulates onto +0.0.  Skipping them halves a step's numpy calls, and the
    single-point oracles skip them too, so both keep the sign of x = -0.0."""

    residual = lambda p, x, i=slice(None): x[i]  # noqa: E731
    adjoint = lambda p, s: s  # noqa: E731
    rows = lambda p, X, work=None: X  # noqa: E731
    grad_rows = grad_sampled = lambda _, X, dloss: dloss(X)  # noqa: E731
    sample = lambda p, idx: ()  # noqa: E731
    screen = None  # rows is already elementwise


class Loss(NamedTuple):
    """A problem kind: the loss of one term's residual r_i = <a_i, x> - y_i in the
    forms the oracles use, and the ``model`` mapping x to the residuals."""

    of: Callable  # the loss of one residual, a float
    grad: Callable  # its derivative, elementwise on numpy values
    mean: Callable  # (1/n) sum_i loss(r_i) of a residual vector, a float
    mean_rows: Callable  # the same of each row of an (M, n) array, which it may overwrite
    model: type = _Linear
    lip: Optional[Callable] = None  # rho -> its Lipschitz constant on |r| <= rho, for the screen


def _pl(t: float) -> float:
    return t * t + 3.0 * math.sin(t) ** 2


# Every problem kind, stated once: adding one is a row here, a builder and a
# _PROBLEM_FIELDS entry.  Each form keeps its own reduction, so the row-wise
# oracles match the single-point ones bit for bit.
_LOSSES = {
    "least_squares": Loss(lambda r: 0.5 * r * r, lambda r: r,
                          lambda r: 0.5 * float(r @ r) / len(r),
                          lambda R: 0.5 * np.vecdot(R, R) / R.shape[1], lip=lambda rho: rho),
    "abs_loss": Loss(abs, np.sign, lambda r: float(np.abs(r).mean()),
                     lambda R: axis_sum(np.abs(R, out=R), 1) / R.shape[1], lip=lambda rho: 1.0),
    # the paper's nonconvex PL example t^2 + 3 sin^2 t, one term; float_power is
    # libm pow, as the float ``** 2`` of _pl (np.square rounds differently)
    "scalar_pl": Loss(_pl, lambda t: 2.0 * t + 3.0 * np.sin(2.0 * t), lambda r: _pl(float(r[0])),
                      lambda R: R[:, 0] * R[:, 0] + 3.0 * np.float_power(np.sin(R[:, 0]), 2),
                      _Identity),
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
        mu = self.data["mu"]
        v = self.loss.of(float(self.loss.model.residual(self, x, i)))
        return v + 0.5 * mu * float(x @ x) if mu > 0 else v

    def grad_i(self, i: int, x: np.ndarray) -> np.ndarray:
        A, mu = self.data["A"], self.data["mu"]
        g = self.loss.grad(self.loss.model.residual(self, x, i)) * A[i]
        return g + mu * x if mu > 0 else g

    def value(self, x: np.ndarray) -> float:
        mu = self.data["mu"]
        v = self.loss.mean(self.loss.model.residual(self, x))
        return v + 0.5 * mu * float(x @ x) if mu > 0 else v

    def grad(self, x: np.ndarray) -> np.ndarray:
        model, mu = self.loss.model, self.data["mu"]
        g = model.adjoint(self, self.loss.grad(model.residual(self, x))) / self.n
        return g + mu * x if mu > 0 else g

    # Row-wise oracles over an (M, d) array of points.  Row m equals the single-point
    # oracle at X[m] bit for bit and does not depend on the other rows.

    def sample_rows(self, idx: np.ndarray) -> tuple:
        """The data of the terms ``idx``, an index array of any shape: the
        matrix rows and targets (A[idx], y[idx]), or () for a kind whose residual
        is x itself."""
        return self.loss.model.sample(self, idx)

    def grad_sampled(self, rows, X: np.ndarray) -> np.ndarray:
        """grad f_{idx[m]}(X[m]) for every row m, given the terms' data
        ``rows = sample_rows(idx)`` for an (M,) index array (or views of the
        same shapes)."""
        loss, mu = self.loss, self.data["mu"]
        G = loss.model.grad_sampled(rows, X, loss.grad)
        return G + mu * X if mu > 0 else G

    def term_grad_rows(self, X: np.ndarray) -> np.ndarray:
        """grad f_i(X[m]) for every row m and term i, shape (M, n, d)."""
        rows = self.sample_rows(np.tile(np.arange(self.n), len(X)))
        return self.grad_sampled(rows, np.repeat(X, self.n, axis=0)).reshape(len(X), self.n, self.d)

    def full_grad_rows(self, X: np.ndarray) -> np.ndarray:
        """grad f(X[m]) for every row m."""
        loss, mu = self.loss, self.data["mu"]
        G = loss.model.grad_rows(self, X, loss.grad)
        return G + mu * X if mu > 0 else G

    def value_rows(self, X: np.ndarray, work: Optional[np.ndarray] = None) -> np.ndarray:
        """f(X[m]) for every row m.  ``work``, a C-contiguous float64 buffer of
        shape (len(X), 1, n) that the call may overwrite, holds the residual
        instead of fresh arrays; a kind whose residual is x itself ignores it."""
        loss, mu = self.loss, self.data["mu"]
        v = loss.mean_rows(loss.model.rows(self, X, work))
        return v + 0.5 * mu * np.vecdot(X, X) if mu > 0 else v

    def screen_rows(self, X: np.ndarray, work: Optional[np.ndarray] = None, g=None):
        """(values, bounds): f(X[m]) + g[m] for every row m, from one (M, d) @
        (d, n) product, and a bound E_m on its distance to the exact
        ``value_rows(X)[m] + g[m]``; None for a kind whose ``value_rows`` is
        already elementwise.  ``g`` holds values >= 0 (a regularizer's), and
        ``work``, an (M, n) buffer the call may overwrite, holds the residual.
        E holds wherever v + E <= 2^960, so that no sum of either evaluation
        overflows.

        The bound, with u = 2^-53, gamma_k = k u / (1 - k u), rho = max_i
        ||a_i|| ||x|| + max_i |y_i| and v the screened value:

            E = 2 lip(rho) delta + 4 gamma_{n+3} v + (n + d) 2^-1020,
            delta = 2 gamma_{d+1} rho.

        Each computed residual fl(fl(<a_i, x>) - y_i), summed in any order and
        with or without fused multiply-adds, is within gamma_d sum_j |a_ij x_j|
        + u |result| <= gamma_{d+1} rho of <a_i, x> - y_i (the textbook
        dot-product bound, then Cauchy-Schwarz), so the screened and exact
        residuals differ by at most delta and are at most rho (1 + gamma_{d+1})
        in size.  There the loss is lip(rho)-Lipschitz up to that factor
        (least squares: rho; abs_loss: 1), so the two residual vectors' exact
        means differ by at most lip(rho) delta (1 + gamma_{d+1}).  Each computed
        mean (``mean_rows``) sums n terms >= 0 and divides by n, within
        gamma_{n+1} of its exact value; adding the same ridge term and the same
        g costs one rounding each, to 2 gamma_{n+3} v (1 + O(gamma)) for the two
        values together.  Doubling both terms covers the (1 + O(gamma))
        factors, the rounding of ||x|| and of E, and that of v + E, which is
        therefore at least the exact value; the last term covers products and
        squares that underflow.  Any array in memory has n + d < 2^45, so the
        O(gamma) are below 2^-7."""
        loss, mu, n, d = self.loss, self.data["mu"], self.n, self.d
        if loss.model.screen is None:
            return None
        A, y = self.data["A"], self.data["y"]
        v = loss.mean_rows(loss.model.screen(self, X, work))
        sq = np.vecdot(X, X)
        if mu > 0:
            v += 0.5 * mu * sq
        if g is not None:
            v += g
        # in place, so that the screen holds no more rows than value_rows
        rho = np.sqrt(sq, out=sq)
        rho *= float(np.sqrt(np.vecdot(A, A).max()))
        rho += float(np.abs(y).max())
        rho *= loss.lip(rho)
        rho *= 4.0 * _gamma(d + 1)
        bound = np.multiply(v, 4.0 * _gamma(n + 3))
        bound += rho
        bound += (n + d) * 2.0 ** -1020
        return v, bound


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53 the unit roundoff of float64: the
    relative error bound of k roundings (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1)."""
    return k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)


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

    def screen_rows(self, X: np.ndarray, work: Optional[np.ndarray] = None):
        """(values, bounds) of F at every row of X, as FiniteSumProblem.screen_rows:
        the screened f plus the exact g."""
        return self.smooth.screen_rows(X, work, self.reg.value_rows(X))


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
    A, b, strong_mu = itemgetter("A", "y", "mu")(problem.data)
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
        raise RuntimeError(
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

    Searches the embedded catalogue first, then `$DESCENTLAB_FIXTURES/<name>.json`.
    """
    if name in _FIXTURE_CACHE:
        return _FIXTURE_CACHE[name]
    spec = _CATALOGUE.get(name)
    if spec is None:
        ext_dir = os.environ.get("DESCENTLAB_FIXTURES")
        path = os.path.join(ext_dir, f"{name}.json") if ext_dir else None
        if not (path and os.path.exists(path)):
            raise KeyError(f"unknown fixture {name!r}; available: {fixture_names()}")
        with open(path) as fh:
            spec = json.load(fh)
    fx = _FIXTURE_CACHE[name] = fixture_from_spec(name, spec)
    return fx
