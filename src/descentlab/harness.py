"""Monte-Carlo expectation estimation, bound verification, and the inequality suites.

The statistical policy is one-sided: theoretical curves are upper bounds on a
true expectation, so a Monte-Carlo mean over M trials is compared against
bound + 3 * stderr + 1e-9 * (1 + bound).  Deterministic settings use M = 1 and
no statistical slack.  Trials own independent generators seeded as
seed + trial_index and are aggregated in fixed trial order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from . import nonsmooth
from .algorithms import (
    PROXIMAL,
    RunConfig,
    StepSchedule,
    Trace,
    is_deterministic,
    run_lockstep,
)
# kept as module attributes, where perfbench/tracer.py wraps them
from .algorithms import averaged_iterate, run_algorithm  # noqa: F401
from .nonsmooth import SpecError, axis_sum
from .problems import Fixture, FiniteSumProblem
from .theory import SETTINGS, BoundCurve, InitState, bound_curve

__all__ = [
    "ExpectationEstimate",
    "Verdict",
    "estimate",
    "verify_bound",
    "property_suite",
    "enumerate_minibatch_oracle",
    "lyapunov_check",
    "default_checkpoints",
    "run_verification",
    "EXPECTED_FAIL",
    "POLICIES",
]

_REL_FLOOR = 1e-9
POLICIES = ("deterministic", "three_sigma")


@dataclass(frozen=True)
class ExpectationEstimate:
    """Per-checkpoint sample mean and standard error over M trials."""

    checkpoints: tuple
    mean: np.ndarray
    stderr: np.ndarray
    M: int
    metric: str


@dataclass(frozen=True)
class Verdict:
    """Outcome of comparing measurements against a bound curve."""

    setting: str
    checkpoints: tuple
    measured: np.ndarray
    bound: np.ndarray
    policy: str
    passed: bool
    worst_ratio: float

    def to_dict(self) -> dict:
        return {
            "setting": self.setting,
            "checkpoints": list(self.checkpoints),
            "measured": [float(v) for v in self.measured],
            "bound": [float(v) for v in self.bound],
            "policy": self.policy,
            "pass": bool(self.passed),
            "worst_ratio": float(self.worst_ratio),
        }


def default_checkpoints(T: int) -> tuple:
    """Geometric checkpoints 1, 3, 10, 31, 100, ... capped at T."""
    pts = []
    k = 0
    while True:
        v = int(10 ** (k / 2.0))
        if v >= T:
            break
        if not pts or v > pts[-1]:
            pts.append(v)
        k += 1
    pts.append(T)
    return tuple(pts)


def estimate(cfg: RunConfig, metric: str, checkpoints, weighting=None) -> ExpectationEstimate:
    """Run M independent trials of ``cfg.algorithm`` in lockstep and estimate
    the metric's expectation.

    Deterministic runs (full-batch methods, or single-term problems) short
    circuit to one trial with zero standard error.  Diverged trials abort the
    estimate with a DivergenceError naming every failing trial and its step.
    """
    averaged = metric in ("avg_f_gap", "avg_F_gap")
    if averaged and weighting is None:
        raise ValueError("averaged metrics need a weighting")
    if metric == "avg_F_gap" and cfg.algorithm not in PROXIMAL:
        raise ValueError("avg_F_gap is the averaged gap of a proximal method")
    checkpoints = tuple(int(c) for c in checkpoints)
    if max(checkpoints) > cfg.iterations:
        raise SpecError("checkpoints",
                        f"checkpoint {max(checkpoints)} beyond horizon T={cfg.iterations}")
    if not averaged and metric not in ("f_gap", "dist_sq"):
        raise ValueError(f"unknown metric {metric!r}")
    if averaged and min(checkpoints) < 1:
        raise SpecError("checkpoints", f"averaging horizon t={min(checkpoints)} must be in "
                                       f"[1, {cfg.iterations}]")

    deterministic = is_deterministic(cfg)
    M = 1 if deterministic else cfg.trials
    if not deterministic and M < 2:
        raise SpecError("trials", "stochastic estimates need trials M >= 2")

    # the averaged gap is of the method's own objective, as in run_lockstep
    run = run_lockstep(cfg, range(M), at=checkpoints, averaging=weighting if averaged else None)
    values = run.averaged if averaged else getattr(run, metric)
    # C order, so the mean and stderr add the trials up in trial order (the
    # column selection alone comes out in F order, which sums pairwise)
    rows = np.ascontiguousarray(values[:, np.searchsorted(run.t, checkpoints)])
    mean = rows.mean(axis=0)
    if M > 1:
        stderr = rows.std(axis=0, ddof=1) / math.sqrt(M)
    else:
        stderr = np.zeros(len(checkpoints))
    return ExpectationEstimate(checkpoints=checkpoints, mean=mean, stderr=stderr,
                               M=M, metric=metric)


def verify_bound(est: ExpectationEstimate, curve: BoundCurve, policy: str) -> Verdict:
    """Compare an expectation estimate against a bound curve.

    deterministic policy:  mean <= bound + 1e-9 * (1 + bound)
    three_sigma policy:    mean <= bound + 3 * stderr + 1e-9 * (1 + bound)
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    bad = [cp for cp in est.checkpoints if cp < curve.min_t]
    if bad:
        raise ValueError(
            f"checkpoints {bad} outside the validity window t >= {curve.min_t} "
            f"of setting {curve.setting}"
        )
    bounds = np.array([curve.eval(cp) for cp in est.checkpoints])
    slack = _REL_FLOOR * (1.0 + bounds)
    if policy == "three_sigma":
        slack = slack + 3.0 * est.stderr
    ok = est.mean <= bounds + slack
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            bounds > 0.0,
            (est.mean - slack) / np.where(bounds > 0.0, bounds, 1.0),
            np.where(est.mean <= slack, 0.0, np.inf),
        )
    return Verdict(
        setting=curve.setting,
        checkpoints=est.checkpoints,
        measured=est.mean,
        bound=bounds,
        policy=policy,
        passed=bool(ok.all()),
        worst_ratio=float(ratios.max()),
    )


# ---------------------------------------------------------------------------
# Setting-to-measurement glue
# ---------------------------------------------------------------------------


def bound_inputs(fixture: Fixture, setting: str, x0: np.ndarray):
    """The (constants, init, sigma_star_F) triple that ``setting``'s bound and
    complexity families read for ``fixture`` from ``x0``: D2 and F0_gap against
    the minimizer of F for a proximal setting, else D2 and f0_gap against that
    of f, with sigma_star_F None."""
    x0 = np.asarray(x0, dtype=float)
    if SETTINGS[setting].composite:
        comp = fixture.composite
        if comp is None:
            raise ValueError(f"setting {setting} needs a composite fixture")
        d = x0 - comp.x_star_F
        init = InitState(D2=float(d @ d), F0_gap=comp.value(x0) - comp.inf_F)
        return fixture.constants, init, comp.sigma_star_F
    d = x0 - fixture.ground_truth.x_star
    f0_gap = fixture.problem.value(x0) - fixture.ground_truth.inf_f
    return fixture.constants, InitState(D2=float(d @ d), f0_gap=f0_gap), None


def run_verification(
    setting: str,
    fixture: Fixture,
    schedule: StepSchedule,
    iterations: int,
    checkpoints=None,
    trials: int = 1000,
    seed: int = 0,
    b: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
    policy: Optional[str] = None,
):
    """Build the setting's run (``RunConfig.for_fixture``) and its bound curve,
    then compare them.

    The run is the setting's own method.  Returns (estimate, curve,
    verdict).  The policy defaults to deterministic for the gd/pgd settings and
    three_sigma otherwise.
    """
    row = SETTINGS.get(setting)
    if row is None:
        raise ValueError(f"unknown setting {setting!r}")
    cfg = RunConfig.for_fixture(fixture, row.algorithm, schedule, iterations, seed=seed,
                                trials=trials, batch_size=b, x0=x0)
    consts, init, sigma_F = bound_inputs(fixture, setting, cfg.start_point())
    curve = bound_curve(setting, consts, schedule, init, b=b, sigma_star_F=sigma_F)

    weighting = row.weighting
    if weighting == "p_tk":
        weighting = ("p_tk", row.ref_constants(consts, b)[0])

    if checkpoints is None:
        if iterations < curve.min_t:  # default_checkpoints ends at T
            raise ValueError(f"horizon T={iterations} ends before the validity window "
                             f"t >= {curve.min_t} of setting {setting}")
        checkpoints = [cp for cp in default_checkpoints(iterations) if cp >= curve.min_t]
    est = estimate(cfg, row.metric, checkpoints, weighting=weighting)
    if policy is None:
        policy = "deterministic" if row.deterministic else "three_sigma"
    return est, curve, verify_bound(est, curve, policy)


# ---------------------------------------------------------------------------
# Exhaustive minibatch oracle
# ---------------------------------------------------------------------------


def enumerate_minibatch_oracle(problem: FiniteSumProblem, b: int, x: np.ndarray):
    """Exact mean and variance of the size-b batch gradient by enumerating all
    C(n, b) subsets.  Refuses combinatorial blow-ups beyond 10^6 subsets."""
    n = problem.n
    if not 1 <= b <= n:
        raise ValueError(f"batch size b={b} out of range [1, {n}]")
    total = math.comb(n, b)
    if total > 10**6:
        raise ValueError(f"C({n},{b}) = {total} exceeds the enumeration budget 10^6")
    grads = problem.term_grad_rows(np.asarray(x, dtype=float)[None])[0]
    batch_means = np.array([grads[list(B)].mean(axis=0) for B in combinations(range(n), b)])
    exact_mean = batch_means.mean(axis=0)
    exact_variance = float(np.sum((batch_means - exact_mean) ** 2) / total)
    return exact_mean, exact_variance


# ---------------------------------------------------------------------------
# Lyapunov energy check
# ---------------------------------------------------------------------------


def lyapunov_check(trace: Trace, kind: str, gamma: float, ground_truth, L: float) -> Verdict:
    """Assert E_t = ||x_t - x*||^2 / (2 gamma) + t * gap_t is non-increasing.

    ``kind`` is gd_energy or pgd_energy; ``ground_truth`` supplies the reference
    minimizer (a GroundTruth, or a CompositeProblem for pgd_energy).
    Rejects gamma > 1/L up front: the energy argument needs the descent regime.
    """
    if kind not in ("gd_energy", "pgd_energy"):
        raise ValueError(f"unknown Lyapunov kind {kind!r}")
    if not (0 < gamma <= 1.0 / L):
        raise ValueError("hypothesis violated: gamma <= 1/L")
    if trace.iterates is None or not len(trace.iterates):
        raise ValueError("trace does not store iterates")
    x_ref = getattr(ground_truth, "x_star_F", None)
    if kind == "gd_energy" or x_ref is None:
        x_ref = ground_truth.x_star

    diffs = trace.iterates - x_ref
    dist_sq = np.sum(diffs * diffs, axis=1)
    ts = np.arange(len(dist_sq))
    # prox traces already record the composite gap
    energy = dist_sq / (2.0 * gamma) + ts * trace.f_gap
    slack = _REL_FLOOR * (1.0 + np.abs(energy[:-1]))
    ok = energy[1:] <= energy[:-1] + slack
    ratios = (energy[1:] - slack) / np.maximum(energy[:-1], 1e-300)
    return Verdict(
        setting=kind,
        checkpoints=tuple(ts[1:].tolist()),
        measured=energy[1:],
        bound=energy[:-1],
        policy="deterministic",
        passed=bool(ok.all()),
        worst_ratio=float(ratios.max()),
    )


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

# checks that MUST fail on every problem of a kind (and would flag a regression
# if they ever started passing); the suite skips what convexity implies if it fails
EXPECTED_FAIL = {"scalar_pl": {"convexity"}}


def _sample_ball(rng: np.random.Generator, count: int, center: np.ndarray, radius: float):
    d = center.shape[0]
    z = rng.normal(size=(count, d))
    z /= np.maximum(np.sqrt(axis_sum(z * z, 1)), 1e-300)[:, None]
    r = radius * rng.random(count) ** (1.0 / d)
    return center + z * r[:, None]


def property_suite(fixture: Fixture, samples: int = 10_000, seed: int = 20_240_601) -> dict:
    """Evaluate every functional inequality the problem class promises.

    Points are sampled from the ball of radius 10 * (1 + ||x*||) around the
    minimizer; each inequality is checked with scale-aware slack
    1e-9 * (1 + |f(x)| + |f(y)|).  Failures expected by design (registered in
    EXPECTED_FAIL under the problem's kind) are reported as "expected-fail"; an
    expected failure that passes is flagged as "unexpected-pass".
    """
    problem = fixture.problem
    gt = fixture.ground_truth
    c = fixture.constants
    rng = np.random.default_rng(seed)
    radius = 10.0 * (1.0 + float(np.linalg.norm(gt.x_star)))
    X = _sample_ball(rng, samples, gt.x_star, radius)
    Y = _sample_ball(rng, samples, gt.x_star, radius)

    expected_fail = EXPECTED_FAIL.get(problem.kind, ())
    smooth = np.isfinite(c.L)
    convex = "convexity" not in expected_fail
    (fx, gx), Gx = problem.value_grad_rows(X), problem.term_grad_rows(X)
    fy, gy = problem.value_grad_rows(Y)
    Gy = problem.term_grad_rows(Y) if convex and smooth else None

    checks = []

    def add(name: str, violation: np.ndarray, tol: np.ndarray):
        violation = np.asarray(violation, dtype=float)
        tol = np.broadcast_to(np.asarray(tol, dtype=float), violation.shape)
        margin = violation - tol
        i = int(np.argmax(margin))
        failed = margin[i] > 0
        expected = name in expected_fail
        if failed:
            status = "expected-fail" if expected else "fail"
        else:
            status = "unexpected-pass" if expected else "pass"
        checks.append({
            "name": name,
            "max_violation": float(violation[i]),
            "tolerance": float(tol[i]),
            "status": status,
        })

    scale_xy = _REL_FLOOR * (1.0 + np.abs(fx) + np.abs(fy))
    scale_x = _REL_FLOOR * (1.0 + np.abs(fx))
    n = problem.n
    diff = Y - X
    inner_gx = axis_sum(gx * diff, 1)
    inner_gy = axis_sum(gy * (X - Y), 1)
    dist2 = axis_sum(diff * diff, 1)
    gx_sq = axis_sum(gx * gx, 1)

    # unbiasedness: averaging the per-term oracles reproduces the full gradient
    bias = axis_sum(Gx, 1) / n - gx
    add("unbiasedness", np.sqrt(axis_sum(bias * bias, 1)), 1e-12 * (1.0 + np.sqrt(gx_sq)))

    # f(x) >= f(y) + <g(y), x - y>
    add("convexity", fy + inner_gy - fx, scale_xy)

    if smooth:
        add("smoothness_upper", fy - (fx + inner_gx + 0.5 * c.L * dist2), scale_xy)
        for lam in (1.0 / (2.0 * c.L), 1.0 / c.L):
            f_step = problem.value_rows(X - lam * gx)
            add(f"descent_identity_lam_{lam:.6g}",
                f_step - fx + lam * (1.0 - lam * c.L / 2.0) * gx_sq, scale_x)
        add("inverse_pl", gx_sq / (2.0 * c.L) - (fx - gt.inf_f), scale_x)
        mean_gi_sq = axis_sum(axis_sum(Gx ** 2, 2), 1) / n
        add("variance_transfer_function",
            mean_gi_sq
            - (2.0 * c.L_max * (fx - gt.inf_f) + 2.0 * c.L_max * c.delta_star_f),
            scale_x)

    if smooth and convex:
        gdiff = gx - gy
        add("cocoercivity",
            axis_sum(gdiff * gdiff, 1) / c.L - axis_sum(-gdiff * diff, 1), scale_xy)
        add("expected_smoothness",
            axis_sum(axis_sum((Gx - Gy) ** 2, 2), 1) / n / (2.0 * c.L_max)
            - (fy - fx - inner_gx), scale_xy)
        add("variance_transfer_gradient",
            mean_gi_sq - (4.0 * c.L_max * (fx - gt.inf_f) + 2.0 * c.sigma_star_f), scale_x)
        var_x = axis_sum(axis_sum((Gx - gx[:, None, :]) ** 2, 2), 1) / n
        var_y = axis_sum(axis_sum((Gy - gy[:, None, :]) ** 2, 2), 1) / n
        bregman = fx - fy - inner_gy
        add("bregman_transfer",
            var_x - (4.0 * c.L_max * bregman + 2.0 * var_y), scale_xy)

    if c.mu > 0:
        add("strong_convexity",
            fx + inner_gx + 0.5 * c.mu * dist2 - fy, scale_xy)
        if smooth:
            add("strong_convexity_pl",
                (fx - gt.inf_f) - gx_sq / (2.0 * c.mu), scale_x)
        # convex-plus-norm decomposition: h = f - mu/2 |.|^2 is midpoint convex
        mid = 0.5 * (X + Y)
        f_mid = problem.value_rows(mid)
        h = lambda fv, P: fv - 0.5 * c.mu * axis_sum(P * P, 1)
        add("convex_plus_norm",
            h(f_mid, mid) - 0.5 * (h(fx, X) + h(fy, Y)), scale_xy)

    if c.mu_pl > 0 and smooth:
        add("pl", (fx - gt.inf_f) - gx_sq / (2.0 * c.mu_pl), scale_x)

    if fixture.regularizer is not None:
        _regularizer_checks(fixture.regularizer, rng, samples, X.shape[1], add)

    if fixture.composite is not None:
        comp = fixture.composite
        g_star = problem.grad(comp.x_star_F)
        f_star = problem.value(comp.x_star_F)
        dxs = X - comp.x_star_F
        bregman = fx - f_star - dxs @ g_star
        F_gap = comp.plus_reg_rows(fx, X) - comp.inf_F
        finite = np.isfinite(F_gap)
        add("bregman_nonnegative", -bregman, scale_x)
        add("bregman_bound",
            np.where(finite, bregman - F_gap, -1.0), scale_x)

    statuses = {ch["name"]: ch["status"] for ch in checks}
    ok = all(s in ("pass", "expected-fail") for s in statuses.values())
    return {
        "suite": "properties",
        "fixture": fixture.name,
        "samples": samples,
        "ok": ok,
        "checks": checks,
    }


def _regularizer_checks(reg, rng, samples, d, add):
    scale = 5.0 if reg.kind != "ball_indicator" else reg.B * 2.0
    U = rng.normal(size=(samples, d)) * scale
    V = rng.normal(size=(samples, d)) * scale
    UV = U - V
    dn = np.sqrt(axis_sum(UV * UV, 1))
    for gamma in (1.0, 0.7):
        PUV = nonsmooth.prox(reg, gamma, U) - nonsmooth.prox(reg, gamma, V)
        pn = np.sqrt(axis_sum(PUV * PUV, 1))
        add(f"prox_nonexpansive_gamma_{gamma:g}", pn - dn, 1e-12)
        add(f"prox_firm_gamma_{gamma:g}", pn**2 - axis_sum(UV * PUV, 1), 1e-12 * (1.0 + dn**2))

    # subgradient inequality on domain points
    if reg.kind == "ball_indicator":
        center = np.zeros(d)
        A = _sample_ball(rng, samples, center, reg.B)
        Bpts = _sample_ball(rng, samples, center, reg.B)
    else:
        A, Bpts = U, V
    gvalA = reg.value_rows(A)
    gvalB = reg.value_rows(Bpts)
    subA = nonsmooth.subgradient(reg, A)
    add("reg_subgradient_inequality",
        gvalA + axis_sum(subA * (Bpts - A), 1) - gvalB,
        _REL_FLOOR * (1.0 + np.abs(gvalA) + np.abs(gvalB)))

    # prox optimality of 64 points against 1000 random candidates each
    gamma = 1.0
    xs = U[:64]
    cands = rng.normal(size=(1000, d)) * scale
    P = nonsmooth.prox(reg, gamma, xs)
    obj_p = reg.value_rows(P) + 0.5 / gamma * np.vecdot(P - xs, P - xs)
    C = cands - xs[:, None, :]
    obj_c = reg.value_rows(cands) + 0.5 / gamma * np.vecdot(C, C)
    viol = obj_p - obj_c.min(axis=1)
    add("prox_optimality", viol, _REL_FLOOR * (1.0 + np.abs(viol)))
