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
from typing import Optional

import numpy as np

from .nonsmooth import Regularizer, SpecError, prox, spec_value

__all__ = [
    "FiniteSumProblem",
    "GroundTruth",
    "ProblemConstants",
    "CompositeProblem",
    "Fixture",
    "build_least_squares",
    "build_scalar_pl",
    "build_abs_loss",
    "build_problem",
    "minibatch_constants",
    "make_composite",
    "gradient_variance",
    "fixture",
    "fixture_names",
]

# Relative eigenvalue cutoff separating "zero" from "nonzero" when ranking the
# spectrum of (1/n) Phi^T Phi.
_EIG_CUTOFF = 1e-10


@dataclass(frozen=True)
class FiniteSumProblem:
    """Oracle bundle for f = (1/n) sum_i f_i.

    ``kind`` is one of ``least_squares``, ``abs_loss``, ``scalar_pl``.
    For the nonsmooth ``abs_loss``, ``grad_i`` returns a fixed subgradient selection
    (sign convention: 0 at kinks).
    """

    kind: str
    n: int
    d: int
    data: dict = field(default_factory=dict, repr=False)
    default_x0: np.ndarray = field(default=None, repr=False)

    def value_i(self, i: int, x: np.ndarray) -> float:
        if self.kind == "least_squares":
            r = float(self.data["features"][i] @ x - self.data["targets"][i])
            return 0.5 * r * r
        if self.kind == "abs_loss":
            r = float(self.data["rows"][i] @ x - self.data["targets"][i])
            return abs(r) + 0.5 * self.data["strong_mu"] * float(x @ x)
        t = float(x[0])  # scalar_pl
        return t * t + 3.0 * math.sin(t) ** 2

    def grad_i(self, i: int, x: np.ndarray) -> np.ndarray:
        if self.kind == "least_squares":
            phi = self.data["features"][i]
            return (phi @ x - self.data["targets"][i]) * phi
        if self.kind == "abs_loss":
            a = self.data["rows"][i]
            s = np.sign(float(a @ x - self.data["targets"][i]))
            return s * a + self.data["strong_mu"] * x
        t = float(x[0])  # scalar_pl
        return np.array([2.0 * t + 3.0 * math.sin(2.0 * t)])

    def value(self, x: np.ndarray) -> float:
        if self.kind == "least_squares":
            r = self.data["features"] @ x - self.data["targets"]
            return 0.5 * float(r @ r) / self.n
        if self.kind == "abs_loss":
            r = self.data["rows"] @ x - self.data["targets"]
            return float(np.abs(r).mean()) + 0.5 * self.data["strong_mu"] * float(x @ x)
        return self.value_i(0, x)  # scalar_pl

    def grad(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "least_squares":
            r = self.data["features"] @ x - self.data["targets"]
            return (self.data["features"].T @ r) / self.n
        if self.kind == "abs_loss":
            r = self.data["rows"] @ x - self.data["targets"]
            return (self.data["rows"].T @ np.sign(r)) / self.n + self.data["strong_mu"] * x
        return self.grad_i(0, x)  # scalar_pl

    # Row-wise oracles over an (M, d) array of points.  Row m equals the single-point
    # oracle at X[m] bit for bit and does not depend on the other rows.

    def grad_rows(self, idx: np.ndarray, X: np.ndarray) -> np.ndarray:
        """grad f_{idx[m]}(X[m]) for every row m."""
        if self.kind == "least_squares":
            phi = self.data["features"][idx]
            return (np.vecdot(phi, X) - self.data["targets"][idx])[:, None] * phi
        if self.kind == "abs_loss":
            a = self.data["rows"][idx]
            s = np.sign(np.vecdot(a, X) - self.data["targets"][idx])
            return s[:, None] * a + self.data["strong_mu"] * X
        t = X[:, :1]  # scalar_pl
        return 2.0 * t + 3.0 * np.sin(2.0 * t)

    def term_grad_rows(self, X: np.ndarray) -> np.ndarray:
        """grad f_i(X[m]) for every row m and term i, shape (M, n, d)."""
        idx = np.tile(np.arange(self.n), len(X))
        return self.grad_rows(idx, np.repeat(X, self.n, axis=0)).reshape(len(X), self.n, self.d)

    def full_grad_rows(self, X: np.ndarray) -> np.ndarray:
        """grad f(X[m]) for every row m.  A.T @ r[m] is a stack of matrix-vector
        products, as in grad(); one (M, n) @ (n, d) product rounds differently."""
        if self.kind == "least_squares":
            A = self.data["features"]
            r = _matvec_rows(A, X) - self.data["targets"]
            return np.matmul(A.T, r[:, :, None])[:, :, 0] / self.n
        if self.kind == "abs_loss":
            A = self.data["rows"]
            s = np.sign(_matvec_rows(A, X) - self.data["targets"])
            return np.matmul(A.T, s[:, :, None])[:, :, 0] / self.n + self.data["strong_mu"] * X
        return self.grad_rows(np.zeros(len(X), dtype=np.intp), X)  # scalar_pl

    def value_rows(self, X: np.ndarray) -> np.ndarray:
        """f(X[m]) for every row m."""
        if self.kind == "least_squares":
            r = _matvec_rows(self.data["features"], X) - self.data["targets"]
            return 0.5 * np.vecdot(r, r) / self.n
        if self.kind == "abs_loss":
            r = _matvec_rows(self.data["rows"], X) - self.data["targets"]
            return np.abs(r).mean(axis=1) + 0.5 * self.data["strong_mu"] * np.vecdot(X, X)
        t = X[:, 0]  # scalar_pl
        # libm pow, as the float ``** 2`` in value_i (np.square rounds differently)
        return t * t + 3.0 * np.float_power(np.sin(t), 2)


def _matvec_rows(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X[m] for every row m, as a stack of matrix-vector products so that
    each row matches the unbatched ``A @ x`` (a single (M, d) @ (d, n) product
    may round differently and depend on M)."""
    return np.matmul(X[:, None, :], A.T)[:, 0]


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

    def value_rows(self, X: np.ndarray) -> np.ndarray:
        """F(X[m]) for every row m of X (M, d)."""
        g = self.reg.value_rows(X)
        return np.where(np.isfinite(g), self.smooth.value_rows(X) + g, math.inf)


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
    features = np.atleast_2d(np.asarray(features, dtype=float))
    targets = np.asarray(targets, dtype=float).ravel()
    if features.size == 0 or features.shape[0] < 1 or features.shape[1] < 1:
        raise ValueError(f"{mat_name} must have n >= 1 rows and d >= 1 columns")
    if not (np.isfinite(features).all() and np.isfinite(targets).all()):
        raise ValueError(f"{mat_name}/targets must be finite")
    if targets.shape[0] != features.shape[0]:
        raise ValueError("targets length must match row count")
    return features, targets


def build_least_squares(features, targets):
    """Least squares f_i(x) = 0.5*(<phi_i, x> - y_i)^2, f = (1/n) sum f_i.

    Constants come from the symmetric eigen-decomposition of (1/n) Phi^T Phi:
    L is the largest eigenvalue, mu the smallest if positive, mu_pl the smallest
    nonzero eigenvalue (cutoff 1e-10 * lambda_max).  The minimizer is the
    minimum-norm solution of the normal equations; sigma*_f and Delta*_f are
    evaluated exactly from the residuals there.
    """
    features, targets = _check_matrix(features, targets, "features")
    n, d = features.shape
    problem = FiniteSumProblem(
        kind="least_squares",
        n=n,
        d=d,
        data={"features": features, "targets": targets},
        default_x0=np.zeros(d),
    )

    H = features.T @ features / n
    eigs = np.linalg.eigvalsh(H)
    lam_max = float(eigs[-1])
    L = lam_max
    L_i = tuple(float(r @ r) for r in features)
    L_max = max(L_i)
    L_avg = sum(L_i) / n
    cutoff = _EIG_CUTOFF * max(lam_max, 1e-300)
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
        kind="scalar_pl", n=1, d=1, data={}, default_x0=np.array([3.0]),
    )
    gt = GroundTruth(x_star=np.zeros(1), inf_f=0.0, inf_f_i=(0.0,))
    consts = ProblemConstants(
        n=1, L=8.0, L_i=(8.0,), L_max=8.0, L_avg=8.0, mu=0.0, mu_pl=1.0 / 40.0,
        sigma_star_f=0.0, delta_star_f=0.0,
    )
    return problem, gt, consts


def _abs_reference_solve(problem: FiniteSumProblem):
    """Exact minimizer of f(x) = (1/n)||Ax - b||_1 + (mu/2)||x||^2 and the KKT multipliers
    lam certifying it, to 1e-12 relative: lam_i = sign(r_i) where r = Ax - b is nonzero,
    |lam_i| <= 1 where r_i = 0, and mu x + A^T lam/n = 0.  An approximate solve of the dual
    over the box |lam_i| <= 1 tells which r_i vanish; x is then a linear solve.  For mu = 0
    this runs at mu_eff = 1, 1/4, ... until x is certified for f itself, which makes it the
    minimum-norm minimizer (exact regularization; Friedlander & Tseng, SIAM J. Optim. 2007)."""
    # imported here, not at module level: it costs most of the package's import time
    from scipy.linalg import null_space
    from scipy.optimize import Bounds, linprog, minimize

    A, b, n = problem.data["rows"], problem.data["targets"], problem.n
    strong_mu = problem.data["strong_mu"]

    def scale(x):  # magnitude of the terms of each residual, for relative tolerances
        return 1.0 + np.abs(A) @ np.abs(x) + np.abs(b)

    def kkt_point(mu, zero, s):
        # r_i = 0 on `zero`, lam_i = s_i elsewhere; projecting onto null(A_zero)
        # before dividing by mu keeps those zeros exact however small mu is
        N = null_space(A[zero])
        x = np.linalg.lstsq(A[zero], b[zero], rcond=None)[0]
        return x - N @ (N.T @ (A[~zero].T @ s[~zero])) / (n * mu)

    def solve(mu):
        H = A @ A.T / (n * mu)
        lam = np.zeros(n)
        with np.errstate(divide="ignore"):  # L-BFGS-B's unused inverse-Hessian estimate
            for method in ("L-BFGS-B", "SLSQP"):  # a fast start, then an active-set polish
                lam = minimize(lambda v: (0.5 * v @ H @ v + v @ b, H @ v + b), lam, jac=True,
                               method=method, bounds=Bounds(-1.0, 1.0), tol=1e-16).x
        x = kkt_point(mu, np.abs(lam) < 1.0 - 1e-9, np.sign(lam))
        r = A @ x - b  # again on the zeros of its own residuals, weakly active ones included
        return kkt_point(mu, np.abs(r) <= 1e-9 * scale(x), np.sign(r))

    def certificate(x):
        # multipliers of x (an LP: they need not be unique) and their relative KKT residual
        r = A @ x - b
        box = np.where((np.abs(r) <= 1e-12 * scale(x))[:, None], [-1.0, 1.0], np.sign(r)[:, None])
        lp = linprog(np.zeros(n), A_eq=A.T, b_eq=-n * strong_mu * x, bounds=box)
        lam = np.clip(lp.x if lp.status == 0 else np.nan, box[:, 0], box[:, 1])  # nan: none
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
        data={"rows": rows, "targets": targets, "strong_mu": float(strong_mu)},
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


def build_problem(spec: dict):
    """(problem, ground truth, constants) for an inline problem description
    (README schema); ValueError names an unknown kind or a missing field,
    SpecError a constant that is not a JSON number."""
    if not isinstance(spec, dict):
        raise ValueError(f"a problem spec is a JSON object, not {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "least_squares":
            return build_least_squares(spec["features"], spec["targets"])
        if kind == "abs_loss":
            return build_abs_loss(
                spec["rows"], spec["targets"],
                strong_mu=spec_value(spec, "strong_mu", default=0.0),
                ball_B=spec_value(spec, "ball_B", default=1.0),
            )
        if kind == "scalar_pl":
            return build_scalar_pl()
    except KeyError as exc:
        raise ValueError(f"{kind} problem needs field {exc}") from exc
    raise ValueError(f"unknown problem kind {kind!r}")


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


def make_composite(
    problem: FiniteSumProblem,
    constants: ProblemConstants,
    reg: Regularizer,
    x0: Optional[np.ndarray] = None,
    max_iters: int = 10**6,
    tol: float = 1e-12,
) -> CompositeProblem:
    """Build F = f + g with a reference minimizer of F.

    The reference solve is forward-backward iteration at step 1/L, run until the
    fixed-point residual ||x - prox_{g/L}(x - grad f(x)/L)|| falls below
    tol * (1 + ||x||), with a hard iteration budget.
    """
    if not np.isfinite(constants.L) or constants.L <= 0:
        raise ValueError("composite reference solve needs finite smoothness L > 0")
    gamma = 1.0 / constants.L
    x = problem.default_x0.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    x = prox(reg, gamma, x)  # start feasible
    residual = math.inf
    for _ in range(max_iters):
        x_next = prox(reg, gamma, x - gamma * problem.grad(x))
        residual = float(np.linalg.norm(x_next - x))
        x = x_next
        if residual <= tol * (1.0 + float(np.linalg.norm(x))):
            break
    else:
        raise RuntimeError(
            f"composite reference solver did not converge: fixed-point residual "
            f"{residual:.3e} after {max_iters} iterations"
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

# Problem specs in the inline-problem schema (README), plus an optional
# regularizer; $DESCENTLAB_FIXTURES/<name>.json files hold the same.
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


def _fixture_from_spec(name: str, spec: dict) -> Fixture:
    p, gt, c = build_problem(spec)
    reg = comp = None
    if "regularizer" in spec:
        try:
            reg = Regularizer.from_config(spec["regularizer"])
        except KeyError as exc:
            raise ValueError(f"regularizer needs field {exc}") from exc
        except SpecError as exc:
            raise SpecError(f"regularizer.{exc.field}", exc.reason) from exc
        comp = make_composite(p, c, reg)
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
    fx = _FIXTURE_CACHE[name] = _fixture_from_spec(name, spec)
    return fx
