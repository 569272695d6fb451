"""Closed-form convergence bounds and iteration-complexity calculators.

Each supported setting exposes the exact right-hand side of its convergence
guarantee as a `BoundCurve` with a validity window, and (where a stepsize
recommendation exists) an iteration count sufficient to reach a target accuracy.
All logarithms are natural.

Conventions adopted here (documented in the README):
  * the sublinear rate for full-gradient descent is stated for gamma = 1/L;
  * strongly convex single-sample and minibatch rates accept the closed
    endpoint gamma = 1/(2*L_max) (resp. 1/(2*L_b)), which their derivations
    support, while the averaged convex rates require the strict inequality so
    that averaging weights stay positive;
  * the momentum horizon complexity is stated so that plugging the recommended
    eta back into the momentum bound meets the target exactly;
  * the finite-horizon subgradient recommendation is gamma = D/(G*sqrt(T)) with
    T >= D^2 G^2 / eps^2;
  * a complexity family computes its count once, unrounded
    (``ComplexityAnswer.rate``), and rounds it to ``t_min`` by its rule; a
    table cell is the rate of its setting, or "not covered" where the setting's
    hypotheses fail (e.g. prox_sgd / convex_smooth needs eps <= sigma_F/L_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algorithms import FULL_GRADIENT, PROXIMAL, StepSchedule
from .nonsmooth import SpecError
from .problems import ProblemConstants, minibatch_constants

__all__ = [
    "SETTINGS",
    "Setting",
    "InitState",
    "BoundCurve",
    "ComplexityAnswer",
    "HypothesisError",
    "bound_curve",
    "complexity_iterations",
    "complexity_table",
    "table_to_text",
    "table_to_csv",
    "answer_schedule",
]


@dataclass(frozen=True)
class InitState:
    """Initial quantities the bounds depend on.

    D2 is the squared distance from x0 to the reference minimizer (of f, or of
    F for composite settings); f0_gap / F0_gap are initial objective gaps.
    """

    D2: float = math.nan
    f0_gap: float = math.nan
    F0_gap: float = math.nan


@dataclass(frozen=True)
class BoundCurve:
    """Theoretical upper bound t -> bound(t) for one convergence guarantee."""

    setting: str
    min_t: int
    eval_fn: Callable[[int], float] = field(repr=False)

    def eval(self, t: int) -> float:
        if t < self.min_t:
            raise ValueError(
                f"{self.setting} bound is valid for t >= {self.min_t}, got t={t}"
            )
        return self.eval_fn(int(t))


@dataclass(frozen=True)
class Setting:
    """One convergence guarantee: the method the harness runs, what it
    measures, and the formula families of its bound and its complexity, each
    shared by every setting with the same formula.  The method fixes the
    (L_ref, sigma) pair the formulas use (see ``ref_constants``)."""

    name: str
    algorithm: str
    metric: str  # f_gap | dist_sq | avg_f_gap | avg_F_gap
    weighting: Optional[str]  # uniform | gamma_weighted | p_tk (bound to L_ref)
    curve: Callable = field(repr=False)
    complexity: Optional[Callable] = field(default=None, repr=False)

    @property
    def composite(self) -> bool:
        return self.algorithm in PROXIMAL

    @property
    def deterministic(self) -> bool:
        return self.algorithm in FULL_GRADIENT

    def ref_constants(self, c: ProblemConstants, b=None, sigma_star_F=None):
        """(L_ref, sigma): (L_max, sigma*_F) for a proximal method, the
        expected-smoothness pair (L_b, sigma_b) for minibatch_sgd, and
        (L_max, sigma*_f) otherwise."""
        if self.composite:
            return c.L_max, _need(sigma_star_F, "sigma_star_F")
        if self.algorithm != "minibatch_sgd":
            return c.L_max, _need(c.sigma_star_f, "sigma_star_f")
        if b is None:
            raise ValueError("minibatch settings need the batch size b")
        L_b, sigma_b = minibatch_constants(c, b)
        return L_b, _need(sigma_b, "sigma_star_f")


class HypothesisError(ValueError):
    """A hypothesis of a setting fails for the given constants, schedule or
    accuracy target."""


def _hyp(condition: bool, constraint: str):
    if not condition:
        raise HypothesisError(f"hypothesis violated: {constraint}")


class MissingConstant(ValueError):
    """A formula reads a constant that was not given; args[0] names it."""

    def __str__(self):
        return f"missing constant: {self.args[0]}"


def _need(value: float, name: str) -> float:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        raise MissingConstant(name)
    return float(value)


def _gamma_sums(schedule: StepSchedule, L_ref: float = 0.0):
    """t -> sums over k < t of the weights gamma_k (1 - 2 gamma_k L_ref) and of
    gamma_k^2; with L_ref = 0 the weights are the stepsizes themselves.

    The stepsize array (``StepSchedule.gammas``, as a run's) is built once
    and rebuilt longer on demand; a contiguous slice reduces exactly like a
    freshly built array, so the sums do not depend on which t were asked for
    before."""
    g = np.empty(0)

    def sums(t: int):
        nonlocal g
        if t > len(g):
            g = schedule.gammas(max(t, 2 * len(g)))
        head = g[:t]
        w = head * (1.0 - 2.0 * head * L_ref)
        return float(w.sum()), float((head * head).sum())
    return sums


def _full_step(c, s):
    _hyp(s.is_constant, "constant stepsize required")
    _hyp(np.isfinite(c.L) and 0 < s.gamma <= 1.0 / c.L, "gamma <= 1/L")
    return s.gamma


# curve families: (row, constants, schedule, init, b, sigma_star_F) -> (min_t, t -> bound)
def _gd_sublinear_curve(row, c, s, init, b, sF):
    g = _full_step(c, s)
    D2 = _need(init.D2, "D2")
    return 1, lambda t: D2 / (2.0 * g * t)


def _gd_contraction_curve(row, c, s, init, b, sF):
    g = _full_step(c, s)
    _hyp(c.mu > 0, "mu > 0")
    D2 = _need(init.D2, "D2")
    return 0, lambda t: (1.0 - g * c.mu) ** t * D2


def _gd_pl_curve(row, c, s, init, b, sF):
    g = _full_step(c, s)
    _hyp(c.mu_pl > 0, "mu_pl > 0")
    f0 = _need(init.f0_gap, "f0_gap")
    return 0, lambda t: (1.0 - g * c.mu_pl) ** t * f0


def _avg_general_curve(row, c, s, init, b, sF):
    L_ref, sigma = row.ref_constants(c, b, sF)
    D2 = _need(init.D2, "D2")
    # constant and inv_sqrt schedules both peak at t = 0
    _hyp(s.gamma_at(0) < 1.0 / (2.0 * L_ref), "gamma_t < 1/(2 L_ref) for all t")
    gamma_sums = _gamma_sums(s, L_ref)

    def fn(t):
        wsum, g2sum = gamma_sums(t)
        return D2 / (2.0 * wsum) + sigma * g2sum / wsum
    return 1, fn


def _avg_const_curve(row, c, s, init, b, sF):
    L_ref, sigma = row.ref_constants(c, b, sF)
    D2 = _need(init.D2, "D2")
    _hyp(s.is_constant, "constant stepsize required")
    g = s.gamma
    _hyp(g < 1.0 / (2.0 * L_ref), "gamma < 1/(2 L_ref)")
    denom = 1.0 - 2.0 * g * L_ref
    return 1, lambda t: D2 / (2.0 * g * denom * t) + g * sigma / denom


def _avg_invsqrt_curve(row, c, s, init, b, sF):
    L_ref, sigma = row.ref_constants(c, b, sF)
    D2 = _need(init.D2, "D2")
    _hyp(s.kind == "inv_sqrt", "inv_sqrt stepsize required")
    g0 = s.gamma0
    _hyp(g0 < 1.0 / (2.0 * L_ref), "gamma0 < 1/(2 L_ref)")
    return 49, lambda t: D2 / (2.0 * g0 * math.sqrt(t)) + g0 * math.log(t) * sigma / math.sqrt(t)


def _noisy_contraction_curve(row, c, s, init, b, sF):
    """(1 - g mu)^t D2 + 2 g sigma / mu for g <= 1/(2 L_ref)."""
    _hyp(s.is_constant, "constant stepsize required")
    _hyp(c.mu > 0, "mu > 0")
    L_ref, sigma = row.ref_constants(c, b, sF)
    g = s.gamma
    _hyp(g <= 1.0 / (2.0 * L_ref), "gamma <= 1/(2 L_max)" if row.composite
         else "gamma <= 1/(2 L_ref)")
    D2 = _need(init.D2, "D2")
    return 0, lambda t: (1.0 - g * c.mu) ** t * D2 + 2.0 * g * sigma / c.mu


def _sgd_pl_curve(row, c, s, init, b, sF):
    _hyp(s.is_constant, "constant stepsize required")
    _hyp(c.mu_pl > 0, "mu_pl > 0")
    _hyp(np.isfinite(c.L), "finite L")
    g = s.gamma
    _hyp(g <= c.mu_pl / (c.L * c.L_max), "gamma <= mu_pl/(L_f L_max)")
    f0 = _need(init.f0_gap, "f0_gap")
    delta = _need(c.delta_star_f, "delta_star_f")
    return 0, lambda t: (1.0 - g * c.mu_pl) ** t * f0 + g * c.L * c.L_max * delta / c.mu_pl


def _momentum_curve(row, c, s, init, b, sF):
    _hyp(s.kind == "momentum_pair", "momentum_pair schedule required")
    eta = s.eta
    _hyp(eta <= 1.0 / (4.0 * c.L_max), "eta <= 1/(4 L_max)")
    D2 = _need(init.D2, "D2")
    sigma = _need(c.sigma_star_f, "sigma_star_f")
    return 0, lambda t: D2 / (eta * (t + 1.0)) + 2.0 * eta * sigma


def _subgradient_start(c, init):
    _hyp(c.G > 0, "G > 0")
    return c.G, _need(init.D2, "D2")


def _ssd_general_curve(row, c, s, init, b, sF):
    G, D2 = _subgradient_start(c, init)
    gamma_sums = _gamma_sums(s)

    def fn(t):
        ssum, g2sum = gamma_sums(t)
        return D2 / (2.0 * ssum) + G * G * g2sum / (2.0 * ssum)
    return 1, fn


def _ssd_invsqrt_curve(row, c, s, init, b, sF):
    G, D2 = _subgradient_start(c, init)
    _hyp(s.kind == "inv_sqrt", "inv_sqrt stepsize required")
    g0 = s.gamma0
    return 2, lambda t: (D2 / (4.0 * g0) + g0 * G * G * math.log(t) / 4.0) / (math.sqrt(t) - 1.0)


def _pssd_curve(row, c, s, init, b, sF):
    G, _ = _subgradient_start(c, init)
    _hyp(s.kind == "inv_sqrt", "inv_sqrt stepsize required")
    _hyp(c.B > 0, "B > 0")
    g0 = s.gamma0
    return 2, lambda t: (3.0 * c.B * c.B / g0 + g0 * G * G) / math.sqrt(t)


def _ssd_strongly_convex_curve(row, c, s, init, b, sF):
    G, D2 = _subgradient_start(c, init)
    _hyp(s.is_constant, "constant stepsize required")
    _hyp(c.mu > 0, "mu > 0")
    g = s.gamma
    _hyp(0 < g <= 1.0 / c.mu, "gamma <= 1/mu")
    return 0, lambda t: (1.0 - g * c.mu) ** t * D2 + g * G * G / c.mu


def _prox_sgd_start(row, c, s, init, b, sF):
    Lm, sF = row.ref_constants(c, b, sF)
    D2 = _need(init.D2, "D2")
    F0 = _need(init.F0_gap, "F0_gap")
    g0 = s.gamma_at(0)
    _hyp(g0 < 1.0 / (4.0 * Lm), "gamma0 < 1/(4 L_max)")
    return sF, D2 + 2.0 * g0 * F0, g0, 1.0 - 4.0 * g0 * Lm


def _prox_sgd_const_curve(row, c, s, init, b, sF):
    sF, E0, g0, slack = _prox_sgd_start(row, c, s, init, b, sF)
    _hyp(s.is_constant, "constant stepsize required")
    return 1, lambda t: E0 / (2.0 * slack * g0 * t) + 2.0 * sF * g0 / slack


def _prox_sgd_invsqrt_curve(row, c, s, init, b, sF):
    sF, E0, g0, slack = _prox_sgd_start(row, c, s, init, b, sF)
    _hyp(s.kind == "inv_sqrt", "inv_sqrt stepsize required")

    def fn(t):
        denom = 2.0 * g0 * (math.sqrt(t) - math.sqrt(2.0))
        return E0 / (2.0 * slack * denom) + 2.0 * sF * g0 * g0 * math.log(t) / (slack * denom)
    return 3, fn


def _prox_sgd_general_curve(row, c, s, init, b, sF):
    sF, E0, g0, slack = _prox_sgd_start(row, c, s, init, b, sF)
    gamma_sums = _gamma_sums(s)

    def fn(t):
        ssum, g2sum = gamma_sums(t)
        return E0 / (2.0 * slack * ssum) + 2.0 * sF * g2sum / (slack * ssum)
    return 1, fn


# ---------------------------------------------------------------------------
# Iteration complexity
# ---------------------------------------------------------------------------


def _ceil(value: float) -> int:
    """Ceiling robust to float noise a hair above an integer; OverflowError at inf."""
    if not math.isfinite(value):
        raise OverflowError(f"count {value} is not finite")
    return math.ceil(value - 1e-9 * max(1.0, abs(value)))


def _contraction_steps(L: float, modulus: float, e: float, name: str):
    """(gamma = 1/L, t, rate) for rho^t <= eps, rho = 1 - modulus/L: rate =
    log(1/eps) / (1 - rho), rounded up to t, or one step at rho = 0.  A target
    eps >= 1 holds at t = 0.  ``name`` names the modulus (mu or mu_pl), which
    cannot exceed L: such constants are inconsistent, not a failed hypothesis."""
    if e >= 1:
        return 1.0 / L, 0, 0.0
    _hyp(np.isfinite(L) and L > 0, "finite L > 0")
    if modulus > L:
        raise ValueError(f"inconsistent constants: {name}={modulus:.6g} > L={L:.6g} "
                         f"({name} <= L for every L-smooth f)")
    rho = 1.0 - modulus / L
    if not 0.0 <= rho < 1.0:
        raise ValueError("contraction factor rho must be in [0, 1)")
    rate = math.log(1.0 / e) / (1.0 - rho)
    return 1.0 / L, 1 if rho == 0.0 else _ceil(rate), rate


def _linear_plus_constant(mu: float, A: float, C: float, alpha0: float, e: float):
    """(gamma, t, rate) for alpha_t <= (1 - gamma mu)^t alpha0 + A gamma to reach
    eps: gamma = min(eps/(2A), 1/C) and rate = max(2A/(eps mu), C/mu) *
    log(2 alpha0 / eps), rounded up to t (0 once 2 alpha0 <= eps)."""
    gamma = 1.0 / C if A == 0.0 else min(e / (2.0 * A), 1.0 / C)
    factor = C / mu if A == 0.0 else max(2.0 * A / (e * mu), C / mu)
    rate = factor * (math.log(2.0 * alpha0 / e) if 2.0 * alpha0 > e else 0.0)
    return gamma, max(0, _ceil(rate)), rate


# complexity families: (row, constants, eps, init, b, sigma_star_F)
# -> (gamma, t, rate, relative): rate is the unrounded count, t the
# count the family's rule rounds it to
def _gd_sublinear_steps(row, c, e, init, b, sF):
    D2 = _need(init.D2, "D2")
    _hyp(np.isfinite(c.L) and c.L > 0, "finite L > 0")
    rate = c.L * D2 / (2.0 * e)
    return 1.0 / c.L, max(1, _ceil(rate)), rate, False


def _gd_contraction_steps(row, c, e, init, b, sF):
    _hyp(c.mu > 0, "mu > 0")
    return (*_contraction_steps(c.L, c.mu, e, "mu"), True)


def _gd_pl_steps(row, c, e, init, b, sF):
    _hyp(c.mu_pl > 0, "mu_pl > 0")
    return (*_contraction_steps(c.L, c.mu_pl, e, "mu_pl"), True)


def _avg_const_steps(row, c, e, init, b, sF):
    L_ref, sigma = row.ref_constants(c, b, sF)
    D2 = _need(init.D2, "D2")
    rate = (2.0 * L_ref * D2 + sigma / L_ref) ** 2 / e**2
    t = max(4, _ceil(rate))
    return 1.0 / (2.0 * L_ref * math.sqrt(t)), t, rate, False


def _noisy_contraction_steps(row, c, e, init, b, sF):
    _hyp(c.mu > 0, "mu > 0")
    L_ref, sigma = row.ref_constants(c, b, sF)
    D2 = _need(init.D2, "D2")
    return (*_linear_plus_constant(c.mu, 2.0 * sigma / c.mu, 2.0 * L_ref, D2, e), False)


def _sgd_pl_steps(row, c, e, init, b, sF):
    _hyp(c.mu_pl > 0, "mu_pl > 0")
    _hyp(np.isfinite(c.L), "finite L")
    f0 = _need(init.f0_gap, "f0_gap")
    delta = _need(c.delta_star_f, "delta_star_f")
    base = c.mu_pl / (c.L * c.L_max)
    gamma = base if delta == 0.0 else base * min(e / (2.0 * delta), 1.0)
    factor = (c.L * c.L_max / c.mu_pl**2) * max(2.0 * delta / e, 1.0)
    rate = factor * (math.log(2.0 * f0 / e) if 2.0 * f0 > e else 0.0)
    return gamma, max(0, _ceil(rate)), rate, False


def _momentum_steps(row, c, e, init, b, sF):
    D2 = _need(init.D2, "D2")
    sigma = _need(c.sigma_star_f, "sigma_star_f")
    Lm = c.L_max
    rate = (8.0 * Lm * Lm * D2 + sigma) ** 2 / (4.0 * Lm * Lm * e * e)
    t = max(0, _ceil(rate - 1.0))  # the bound at horizon T has T + 1 >= rate
    return 1.0 / (4.0 * Lm * math.sqrt(t + 1.0)), t, rate, False


def _ssd_general_steps(row, c, e, init, b, sF):
    D2 = _need(init.D2, "D2")
    _hyp(_need(c.G, "G") > 0, "G > 0")
    rate = D2 * c.G * c.G / (e * e)
    t = max(1, _ceil(rate))
    return math.sqrt(D2) / (c.G * math.sqrt(t)), t, rate, False


def _ssd_strongly_convex_steps(row, c, e, init, b, sF):
    _hyp(c.mu > 0, "mu > 0")
    _hyp(c.G > 0, "G > 0")
    _hyp(c.B > 0, "B > 0")
    return (*_linear_plus_constant(c.mu, c.G**2 / c.mu, c.mu, 4.0 * c.B**2, e), False)


def _prox_sgd_const_steps(row, c, e, init, b, sF):
    Lm, sF = row.ref_constants(c, b, sF)
    D2 = _need(init.D2, "D2")
    F0 = _need(init.F0_gap, "F0_gap")
    _hyp(sF > 0 and e <= sF / Lm, "eps <= sigma_star_F / L_max")
    rate = 16.0 * (D2 + F0 / (4.0 * Lm)) * sF / (e * e)
    return e / (8.0 * sF), max(1, _ceil(rate)), rate, False


# ---------------------------------------------------------------------------
# The setting table
# ---------------------------------------------------------------------------


SETTINGS = {row.name: row for row in (
    # name, method, metric, averaging, curve family, complexity family
    Setting("gd_convex", "gd", "f_gap", None, _gd_sublinear_curve, _gd_sublinear_steps),
    Setting("gd_strongly_convex", "gd", "dist_sq", None,
            _gd_contraction_curve, _gd_contraction_steps),
    Setting("gd_pl", "gd", "f_gap", None, _gd_pl_curve, _gd_pl_steps),
    Setting("sgd_convex_general", "sgd", "avg_f_gap", "p_tk", _avg_general_curve),
    Setting("sgd_convex_const", "sgd", "avg_f_gap", "uniform", _avg_const_curve, _avg_const_steps),
    Setting("sgd_convex_invsqrt", "sgd", "avg_f_gap", "p_tk", _avg_invsqrt_curve),
    Setting("sgd_strongly_convex", "sgd", "dist_sq", None,
            _noisy_contraction_curve, _noisy_contraction_steps),
    Setting("sgd_pl", "sgd", "f_gap", None, _sgd_pl_curve, _sgd_pl_steps),
    Setting("mini_convex_general", "minibatch_sgd", "avg_f_gap", "p_tk", _avg_general_curve),
    Setting("mini_convex_const", "minibatch_sgd", "avg_f_gap", "uniform",
            _avg_const_curve, _avg_const_steps),
    Setting("mini_strongly_convex", "minibatch_sgd", "dist_sq", None,
            _noisy_contraction_curve, _noisy_contraction_steps),
    Setting("momentum_convex", "momentum", "f_gap", None, _momentum_curve, _momentum_steps),
    Setting("ssd_convex_general", "ssd", "avg_f_gap", "gamma_weighted",
            _ssd_general_curve, _ssd_general_steps),
    Setting("ssd_convex_invsqrt", "ssd", "avg_f_gap", "gamma_weighted", _ssd_invsqrt_curve),
    Setting("pssd_convex", "pssd", "avg_f_gap", "uniform", _pssd_curve),
    Setting("ssd_strongly_convex", "pssd", "dist_sq", None,
            _ssd_strongly_convex_curve, _ssd_strongly_convex_steps),
    # the trace gap of a prox run is the F-gap, so pgd measures f_gap
    Setting("pgd_convex", "prox_gd", "f_gap", None, _gd_sublinear_curve, _gd_sublinear_steps),
    Setting("pgd_strongly_convex", "prox_gd", "dist_sq", None,
            _gd_contraction_curve, _gd_contraction_steps),
    Setting("spgd_convex_general", "prox_sgd", "avg_F_gap", "gamma_weighted",
            _prox_sgd_general_curve),
    Setting("spgd_convex_const", "prox_sgd", "avg_F_gap", "uniform",
            _prox_sgd_const_curve, _prox_sgd_const_steps),
    Setting("spgd_convex_invsqrt", "prox_sgd", "avg_F_gap", "gamma_weighted",
            _prox_sgd_invsqrt_curve),
    Setting("spgd_strongly_convex", "prox_sgd", "dist_sq", None,
            _noisy_contraction_curve, _noisy_contraction_steps),
)}


def bound_curve(
    setting: str,
    constants: ProblemConstants,
    schedule: StepSchedule,
    init: InitState,
    b: Optional[int] = None,
    sigma_star_F: Optional[float] = None,
) -> BoundCurve:
    """Build the exact bound curve for a setting, validating its hypotheses.

    Minibatch settings need the batch size ``b``; composite stochastic settings
    need ``sigma_star_F``.  Hypothesis violations raise ValueError naming the
    violated constraint.
    """
    row = SETTINGS.get(setting)
    if row is None:
        raise ValueError(f"unknown setting {setting!r}")
    min_t, fn = row.curve(row, constants, schedule, init, b, sigma_star_F)
    return BoundCurve(setting=setting, min_t=min_t, eval_fn=fn)


@dataclass(frozen=True)
class ComplexityAnswer:
    """Sufficient iteration count (and stepsize, when prescribed) for accuracy
    eps: ``rate`` is the setting's unrounded count and ``t_min`` that count
    rounded by the setting's rule."""

    setting: str
    epsilon: float
    recommended_gamma: Optional[float]
    t_min: int
    rate: float
    relative: bool  # target is eps * (initial scale) rather than eps


def complexity_iterations(
    setting: str,
    constants: ProblemConstants,
    epsilon: float,
    init: InitState,
    b: Optional[int] = None,
    sigma_star_F: Optional[float] = None,
) -> ComplexityAnswer:
    """Evaluate the sufficient iteration count for a setting's accuracy target;
    a relative target (eps times the initial scale) needs eps < 1."""
    e = _epsilon(epsilon)
    row = SETTINGS.get(setting)
    if row is None or row.complexity is None:
        raise ValueError(f"no iteration-complexity recommendation for setting {setting!r}")
    answer = _answer(row, constants, e, init, b, sigma_star_F)
    if answer.relative and e >= 1:
        # not a HypothesisError: no hypothesis fails, and the table reads 0 here
        raise ValueError(f"a relative target needs epsilon < 1; at epsilon={e:g} it already "
                         f"holds at t = 0")
    return answer


def _answer(row: Setting, c: ProblemConstants, e: float, init: InitState, b, sF):
    """``row``'s complexity answer at eps.  A count that is not finite is a
    SpecError on epsilon if eps**2 underflows or eps = 1 gives a finite count,
    else a ValueError on the constants (e.g. L_max = 0, or L*D2 overflowing)."""
    def finite(eps):
        try:
            answer = ComplexityAnswer(row.name, eps, *row.complexity(row, c, eps, init, b, sF))
        except (ZeroDivisionError, OverflowError):
            return None
        return answer if math.isfinite(answer.rate) else None
    if (answer := finite(e)) is not None:
        return answer
    msg = f"no finite iteration count for {row.name} at {e:g}"
    try:
        eps_at_fault = e * e < np.finfo(float).tiny or finite(1.0) is not None
    except ValueError:  # a hypothesis on eps fails at 1: no larger eps is known to help
        eps_at_fault = False
    raise SpecError("epsilon", msg) if eps_at_fault else ValueError(f"{msg} from these constants")


def _epsilon(epsilon) -> float:
    """The accuracy target as a float; SpecError unless it is finite and > 0."""
    e = float(epsilon)
    if not (math.isfinite(e) and e > 0):
        raise SpecError("epsilon", f"must be finite and > 0, got {e:g}")
    return e


def answer_schedule(answer: ComplexityAnswer) -> StepSchedule:
    """Schedule that realizes a complexity answer's recommended stepsize: the
    momentum pair for the momentum setting, a constant stepsize otherwise (a
    finite-horizon recommendation fixes gamma from ``answer.t_min``)."""
    if SETTINGS[answer.setting].algorithm == "momentum":
        return StepSchedule.momentum_pair(answer.recommended_gamma)
    return StepSchedule.constant(answer.recommended_gamma)


# ---------------------------------------------------------------------------
# Complexity table
# ---------------------------------------------------------------------------

TABLE_METHODS = ("gd", "sgd", "mini_sgd", "momentum") + PROXIMAL
TABLE_COLUMNS = ("convex_smooth", "convex_lipschitz", "strongly_convex", "pl")
NOT_COVERED = "not covered"
# (method, column) -> the setting whose complexity family gives the cell, in the
# order the cells are evaluated: those of the smooth source, then of the
# Lipschitz and of the composite source
TABLE_CELLS = {
    ("gd", "convex_smooth"): "gd_convex",
    ("gd", "strongly_convex"): "gd_strongly_convex",
    ("gd", "pl"): "gd_pl",
    ("sgd", "convex_smooth"): "sgd_convex_const",
    ("sgd", "strongly_convex"): "sgd_strongly_convex",
    ("sgd", "pl"): "sgd_pl",
    ("mini_sgd", "convex_smooth"): "mini_convex_const",
    ("mini_sgd", "strongly_convex"): "mini_strongly_convex",
    ("momentum", "convex_smooth"): "momentum_convex",
    ("gd", "convex_lipschitz"): "ssd_convex_general",
    ("sgd", "convex_lipschitz"): "ssd_convex_general",
    ("prox_gd", "convex_smooth"): "pgd_convex",
    ("prox_gd", "strongly_convex"): "pgd_strongly_convex",
    ("prox_sgd", "convex_smooth"): "spgd_convex_const",
    ("prox_sgd", "strongly_convex"): "spgd_strongly_convex",
}


def complexity_table(sections: dict, b: int, epsilon: float) -> dict:
    """Every cell of the complexity table, a view of the settings: a covered
    cell is the unrounded count (``ComplexityAnswer.rate``) of its setting's
    complexity family, and reads "not covered" where the setting's hypotheses
    fail at these constants and this eps.  A relative cell reads 0 at eps >= 1.

    ``sections`` maps "smooth" (the cells of f), "lipschitz" (the
    convex_lipschitz cells) and "composite" (the proximal rows) each to the
    (constants, init, sigma_star_F) triple its families read; ``b`` is the
    mini_sgd row's batch size.  A missing constant is named with its section
    (``lipschitz.D2``); a cell no setting gives reads "not covered"."""
    e = _epsilon(epsilon)
    table = {m: dict.fromkeys(TABLE_COLUMNS, NOT_COVERED) for m in TABLE_METHODS}
    for (method, column), setting in TABLE_CELLS.items():
        row = SETTINGS[setting]
        source = ("composite" if row.composite
                  else "lipschitz" if column == "convex_lipschitz" else "smooth")
        consts, init, sF = sections[source]
        try:
            answer = _answer(row, consts, e, init, b, sF)
        except HypothesisError:
            continue
        except MissingConstant as exc:
            raise MissingConstant(f"{source}.{exc.args[0]}") from None
        except ValueError as exc:
            # the sgd cells, evaluated first, have already needed every other
            # constant a minibatch family reads: this is the batch size's error
            if row.algorithm != "minibatch_sgd" or isinstance(exc, SpecError):
                raise
            raise SpecError("batch_size", str(exc)) from exc
        table[method][column] = answer.rate
    return table


def _table_rows(table: dict) -> list:
    """The header and a row of cell strings per method."""
    return [["method", *TABLE_COLUMNS]] + [
        [m] + [v if isinstance(v, str) else f"{v:.6g}" for v in map(table[m].get, TABLE_COLUMNS)]
        for m in TABLE_METHODS]


def table_to_text(table: dict) -> str:
    rows = _table_rows(table)
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, ["-" * w for w in widths])
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rows)


def table_to_csv(table: dict) -> str:
    return "".join(",".join(r) + "\n" for r in _table_rows(table))
