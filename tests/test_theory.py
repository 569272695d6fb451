import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import (
    InitState,
    StepSchedule,
    answer_schedule,
    bound_curve,
    HypothesisError,
    complexity_iterations,
    complexity_table,
    fixture,
    minibatch_constants,
)
from descentlab.nonsmooth import SpecError
from descentlab.problems import ProblemConstants
from descentlab.theory import (
    NOT_COVERED, SETTINGS, TABLE_CELLS, TABLE_COLUMNS, TABLE_METHODS, table_to_csv, table_to_text,
)
from descentlab.cli import table_sources_for_fixture


def _consts(name="ls_4x2"):
    return fixture(name).constants


# ---------------------------------------------------------------------------
# bound curves
# ---------------------------------------------------------------------------

def test_gd_strongly_convex_zero_at_full_contraction():
    # isotropic quadratic: mu = L so gamma = 1/L contracts in one step
    from descentlab import build_least_squares
    _, _, c = build_least_squares(np.eye(3), np.zeros(3))
    curve = bound_curve("gd_strongly_convex", c, StepSchedule.constant(1 / c.L),
                        InitState(D2=1.0))
    assert curve.eval(1) == 0.0
    assert curve.eval(10) == 0.0


def test_gd_convex_direct_substitution():
    c = _consts()
    curve = bound_curve("gd_convex", c, StepSchedule.constant(0.5), InitState(D2=1.0))
    assert curve.eval(10) == pytest.approx(0.1)


def test_sgd_strongly_convex_vs_unrolled_recursion():
    # oracle: numerically unroll E_{k+1} <= (1-gamma mu) E_k + 2 gamma^2 sigma
    c = _consts()
    gamma = 0.9 / (2 * c.L_max)
    D2 = 2.0
    curve = bound_curve("sgd_strongly_convex", c, StepSchedule.constant(gamma),
                        InitState(D2=D2))
    e = D2
    for t in range(1000):
        assert curve.eval(t) >= e - 1e-12 * (1 + e)
        e = (1 - gamma * c.mu) * e + 2 * gamma**2 * c.sigma_star_f
    # geometric-sum identity: sum_j (1-gm)^j gamma^2 sigma <= gamma sigma / mu
    tail = sum((1 - gamma * c.mu) ** j * gamma**2 * c.sigma_star_f for j in range(1000))
    assert 2 * tail <= 2 * gamma * c.sigma_star_f / c.mu + 1e-12


def test_sgd_pl_vs_unrolled_recursion():
    c = _consts()
    gamma = c.mu_pl / (c.L * c.L_max)
    f0 = 3.0
    curve = bound_curve("sgd_pl", c, StepSchedule.constant(gamma), InitState(f0_gap=f0))
    e = f0
    for t in range(500):
        assert curve.eval(t) >= e - 1e-12 * (1 + e)
        e = (1 - gamma * c.mu_pl) * e + gamma**2 * c.L * c.L_max * c.delta_star_f


def test_momentum_curve_formula():
    c = _consts()
    eta = 1 / (4 * c.L_max)
    curve = bound_curve("momentum_convex", c, StepSchedule.momentum_pair(eta),
                        InitState(D2=0.5))
    t = 99
    assert curve.eval(t) == pytest.approx(0.5 / (eta * 100) + 2 * eta * c.sigma_star_f)


def test_minibatch_curve_uses_batch_constants():
    c = _consts("ls_6x2")
    Lb, sb = minibatch_constants(c, 2)
    gamma = 0.9 / (2 * Lb)
    a = bound_curve("mini_strongly_convex", c, StepSchedule.constant(gamma),
                    InitState(D2=1.0), b=2)
    want = (1 - gamma * c.mu) ** 7 * 1.0 + 2 * gamma * sb / c.mu
    assert a.eval(7) == pytest.approx(want)


def test_ssd_curves():
    c = _consts("abs_2x1")
    sched = StepSchedule.inv_sqrt(0.5)
    D2 = 0.25
    general = bound_curve("ssd_convex_general", c, sched, InitState(D2=D2))
    g = np.array([sched.gamma_at(k) for k in range(10)])
    want = D2 / (2 * g.sum()) + c.G**2 * (g**2).sum() / (2 * g.sum())
    assert general.eval(10) == pytest.approx(want)

    pssd = bound_curve("pssd_convex", c, sched, InitState(D2=D2))
    assert pssd.eval(400) == pytest.approx((3 * c.B**2 / 0.5 + 0.5 * c.G**2) / 20.0)


def test_hypothesis_violations_named():
    c = _consts()
    with pytest.raises(ValueError, match="gamma <= 1/L"):
        bound_curve("gd_convex", c, StepSchedule.constant(2 / c.L), InitState(D2=1.0))
    with pytest.raises(ValueError, match=r"1/\(2 L_ref\)"):
        bound_curve("sgd_convex_const", c, StepSchedule.constant(1 / (2 * c.L_max)),
                    InitState(D2=1.0))
    with pytest.raises(ValueError, match="eta"):
        bound_curve("momentum_convex", c, StepSchedule.momentum_pair(1.0), InitState(D2=1.0))
    with pytest.raises(ValueError, match="mu > 0"):
        bound_curve("gd_strongly_convex", _consts("scalar_pl"),
                    StepSchedule.constant(0.1), InitState(D2=1.0))
    with pytest.raises(ValueError, match=r"1/\(4 L_max\)"):
        bound_curve("spgd_convex_const", c, StepSchedule.constant(1.0),
                    InitState(D2=1.0, F0_gap=1.0), sigma_star_F=0.38)


def test_validity_windows():
    c = _consts()
    sched = StepSchedule.inv_sqrt(0.2)
    curve = bound_curve("sgd_convex_invsqrt", c, sched, InitState(D2=1.0))
    assert curve.min_t == 49
    with pytest.raises(ValueError, match="valid for t >= 49"):
        curve.eval(10)
    curve.eval(49)

    fx = fixture("lasso_4x2")
    spgd = bound_curve("spgd_convex_invsqrt", fx.constants, StepSchedule.inv_sqrt(0.05),
                       InitState(D2=1.0, F0_gap=1.0), sigma_star_F=fx.composite.sigma_star_F)
    assert spgd.min_t == 3


def test_missing_constant_named():
    c = _consts()
    with pytest.raises(ValueError, match="missing constant: D2"):
        bound_curve("gd_convex", c, StepSchedule.constant(0.1), InitState())
    with pytest.raises(ValueError, match="missing constant: sigma_star_F"):
        bound_curve("spgd_convex_const", c, StepSchedule.constant(0.01),
                    InitState(D2=1.0, F0_gap=1.0))


def test_deterministic_curves_flagged_and_monotone():
    c = _consts()
    curve = bound_curve("gd_convex", c, StepSchedule.constant(1 / c.L), InitState(D2=4.0))
    assert SETTINGS["gd_convex"].deterministic
    vals = [curve.eval(t) for t in range(1, 300)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


# ---------------------------------------------------------------------------
# the recurrences behind the complexity counts
# ---------------------------------------------------------------------------

def _constants(L_max, mu, sigma=0.0):
    return ProblemConstants(n=2, L=L_max, L_i=(L_max, L_max), L_max=L_max, L_avg=L_max,
                            mu=mu, mu_pl=mu, sigma_star_f=sigma, delta_star_f=0.0)


def test_contraction_steps_guarantee():
    # gd at gamma = 1/L contracts by rho = 1 - mu/L a step
    for rho in (0.0, 0.3, 0.9, 0.99):
        c = _constants(1.0, 1.0 - rho)
        for eps in (0.5, 1e-2, 1e-4):
            k = complexity_iterations("gd_strongly_convex", c, eps, InitState(D2=1.0)).t_min
            assert (1.0 - c.mu / c.L) ** k <= eps * (1 + 1e-12)


def test_noisy_contraction_without_noise_collapses():
    # alpha_t <= (1 - gamma mu)^t alpha0 + A gamma with A = 2 sigma/mu = 0, C = 2 L_max = 2
    ans = complexity_iterations("sgd_strongly_convex", _constants(1.0, 0.5), 0.1,
                                InitState(D2=1.0))
    assert ans.recommended_gamma == 0.5  # 1/C
    assert ans.t_min == math.ceil((2.0 / 0.5) * math.log(2 / 0.1))


def test_noisy_contraction_steps_guarantee():
    mu, C, a0 = 0.4, 3.0, 2.0
    for A in (0.0, 0.7, 5.0):
        c = _constants(C / 2, mu, sigma=A * mu / 2)
        for eps in (0.5, 0.05):
            ans = complexity_iterations("sgd_strongly_convex", c, eps, InitState(D2=a0))
            gamma, t = ans.recommended_gamma, ans.t_min
            value = (1 - gamma * mu) ** t * a0 + A * gamma
            assert value <= eps * (1 + 1e-9)


# ---------------------------------------------------------------------------
# complexity recommendations and plug-back
# ---------------------------------------------------------------------------

def _plugback(setting, name, eps, b=None, x0=None):
    fx = fixture(name)
    c = fx.constants
    problem = fx.problem
    x0 = problem.default_x0 if x0 is None else np.asarray(x0, float)
    if setting.startswith(("pgd", "spgd")):
        comp = fx.composite
        d = x0 - comp.x_star_F
        init = InitState(D2=float(d @ d), F0_gap=comp.value(x0) - comp.inf_F)
        sF = comp.sigma_star_F
    else:
        d = x0 - fx.ground_truth.x_star
        init = InitState(D2=float(d @ d), f0_gap=problem.value(x0) - fx.ground_truth.inf_f)
        sF = None
    ans = complexity_iterations(setting, c, eps, init, b=b, sigma_star_F=sF)
    curve = bound_curve(setting, c, answer_schedule(ans), init, b=b, sigma_star_F=sF)
    t = max(ans.t_min, curve.min_t)
    scale = 1.0
    if ans.relative:
        scale = init.D2 if "pl" not in setting else init.f0_gap
    return ans, curve.eval(t), eps * scale


PLUGBACK_CASES = [
    ("gd_convex", "ls_4x2", None, None),
    ("gd_strongly_convex", "ls_4x2", None, None),
    ("gd_pl", "scalar_pl", None, None),
    ("sgd_convex_const", "ls_4x2", None, None),
    ("sgd_strongly_convex", "ls_4x2", None, None),
    ("sgd_pl", "ls_4x2", None, None),
    ("mini_convex_const", "ls_6x2", 2, None),
    ("mini_strongly_convex", "ls_6x2", 2, None),
    ("momentum_convex", "ls_4x2", None, None),
    ("ssd_convex_general", "abs_2x1", None, [0.5]),
    ("ssd_strongly_convex", "abs_2x1_reg", None, [0.5]),
    ("pgd_convex", "lasso_4x2", None, None),
    ("pgd_strongly_convex", "lasso_4x2", None, None),
    ("spgd_convex_const", "lasso_4x2", None, None),
    ("spgd_strongly_convex", "lasso_4x2", None, None),
]


@pytest.mark.parametrize("setting,name,b,x0", PLUGBACK_CASES)
@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_plugback_bound_meets_target(setting, name, b, x0, eps):
    ans, value, target = _plugback(setting, name, eps, b=b, x0=x0)
    assert ans.t_min >= 0
    assert value <= target * (1 + 1e-9)


@pytest.mark.parametrize("setting,name,b,x0", PLUGBACK_CASES)
def test_complexity_monotone_in_eps(setting, name, b, x0):
    # spgd's constant-step recommendation is only defined for eps <= sigma_F / L_max
    eps_list = (0.02, 0.05, 0.1, 0.15) if setting == "spgd_convex_const" \
        else (0.02, 0.05, 0.1, 0.2)
    ts = []
    for eps in eps_list:
        ans, _, _ = _plugback(setting, name, eps, b=b, x0=x0)
        ts.append(ans.t_min)
    assert all(a >= b2 for a, b2 in zip(ts, ts[1:]))


def test_gd_complexity_exact_example():
    from descentlab.problems import ProblemConstants
    c = ProblemConstants(n=1, L=10.0, L_i=(10.0,), L_max=10.0, L_avg=10.0, mu=1.0,
                         mu_pl=1.0, sigma_star_f=0.0, delta_star_f=0.0)
    ans = complexity_iterations("gd_strongly_convex", c, math.exp(-1), InitState(D2=1.0))
    assert ans.t_min == 10
    assert ans.recommended_gamma == pytest.approx(0.1)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_complexity_rejects_non_finite_or_non_positive_epsilon(eps):
    with pytest.raises(ValueError, match="field 'epsilon': must be finite and > 0"):
        complexity_iterations("gd_convex", _consts(), eps, InitState(D2=1.0))


@pytest.mark.parametrize("eps", [1e-150, 1e-160, 1e-170, 1e-300, 5e-324])
def test_complexity_count_that_is_not_finite_is_an_epsilon_error(eps):
    # every family either gives a finite count or names epsilon: below about
    # 1e-154 eps**2 underflows, and sgd_convex_const's ((...)/eps)^2 is no count
    sections = table_sources_for_fixture("ls_4x2")
    refused = set()
    for setting in sorted(set(TABLE_CELLS.values())):
        row = SETTINGS[setting]
        consts, init, sF = sections["composite" if row.composite
                                    else "lipschitz" if row.algorithm == "ssd" else "smooth"]
        try:
            ans = complexity_iterations(setting, consts, eps, init, b=2, sigma_star_F=sF)
        except HypothesisError:
            continue
        except SpecError as exc:
            assert str(exc) == f"field 'epsilon': no finite iteration count for {setting} at {eps:g}"
            refused.add(setting)
            continue
        assert math.isfinite(ans.rate) and isinstance(ans.t_min, int), setting
    assert ("sgd_convex_const" in refused) == (eps < 1e-150)


def test_complexity_rejects_bad_epsilon():
    c = _consts()
    with pytest.raises(ValueError):
        complexity_iterations("gd_convex", c, 0.0, InitState(D2=1.0))
    with pytest.raises(ValueError, match="relative") as err:
        complexity_iterations("gd_strongly_convex", c, 2.0, InitState(D2=1.0))
    # the target already holds at t = 0: no hypothesis failed
    assert not isinstance(err.value, HypothesisError)
    assert str(err.value) == ("a relative target needs epsilon < 1; at epsilon=2 it already "
                              "holds at t = 0")


def test_complexity_missing_constant_named():
    c = _consts()
    with pytest.raises(ValueError, match="missing constant: D2"):
        complexity_iterations("sgd_strongly_convex", c, 0.1, InitState())


@pytest.mark.parametrize("setting", ["gd_strongly_convex", "gd_pl", "pgd_strongly_convex"])
def test_contraction_needs_finite_L(setting):
    # abs_2x1_reg is nonsmooth (L = inf); mu_pl is set so that gd_pl reaches L
    c = replace(_consts("abs_2x1_reg"), mu_pl=0.5)
    with pytest.raises(HypothesisError) as err:
        complexity_iterations(setting, c, 0.5, InitState(D2=1.0))
    assert str(err.value) == "hypothesis violated: finite L > 0"
    with pytest.raises(HypothesisError) as gd:
        complexity_iterations("gd_convex", c, 0.5, InitState(D2=1.0))
    assert str(gd.value) == str(err.value)


@pytest.mark.parametrize("setting,modulus", [("gd_strongly_convex", "mu"), ("gd_pl", "mu_pl"),
                                             ("pgd_strongly_convex", "mu")])
def test_contraction_rejects_modulus_above_L(setting, modulus):
    c = replace(_consts(), **{modulus: 3.0})  # L = 0.75
    with pytest.raises(ValueError) as err:
        complexity_iterations(setting, c, 0.1, InitState(D2=1.0))
    assert not isinstance(err.value, HypothesisError)
    assert str(err.value) == (f"inconsistent constants: {modulus}=3 > L=0.75 "
                              f"({modulus} <= L for every L-smooth f)")


def test_spgd_const_requires_small_epsilon():
    fx = fixture("lasso_4x2")
    big = fx.composite.sigma_star_F / fx.constants.L_max * 2
    with pytest.raises(ValueError, match="sigma_star_F / L_max"):
        complexity_iterations("spgd_convex_const", fx.constants, big,
                              InitState(D2=1.0, F0_gap=1.0),
                              sigma_star_F=fx.composite.sigma_star_F)


# ---------------------------------------------------------------------------
# complexity table
# ---------------------------------------------------------------------------

def test_table_gd_convex_cell():
    sections = table_sources_for_fixture("ls_4x2")
    eps = 1e-3
    table = complexity_table(sections, 2, eps)
    c, init, _ = sections["smooth"]
    assert table["gd"]["convex_smooth"] == pytest.approx(c.L / eps * init.D2 / 2)


def test_table_not_covered_cells():
    table = complexity_table(table_sources_for_fixture("ls_4x2"), 2, 1e-2)
    for method, col in [("mini_sgd", "convex_lipschitz"), ("mini_sgd", "pl"),
                        ("momentum", "convex_lipschitz"), ("momentum", "strongly_convex"),
                        ("momentum", "pl"), ("prox_gd", "convex_lipschitz"),
                        ("prox_gd", "pl"), ("prox_sgd", "convex_lipschitz"),
                        ("prox_sgd", "pl")]:
        assert table[method][col] == NOT_COVERED
    text = table_to_text(table)
    assert "not covered" in text
    csv = table_to_csv(table)
    assert csv.count("\n") == 7


def test_table_epsilon_one_collapses_log_cells():
    table = complexity_table(table_sources_for_fixture("ls_4x2"), 2, 1.0)
    assert table["gd"]["strongly_convex"] == 0.0
    assert table["gd"]["pl"] == 0.0
    assert table["prox_gd"]["strongly_convex"] == 0.0


def test_table_missing_constant_named():
    sections = table_sources_for_fixture("ls_4x2")
    sections["lipschitz"] = (replace(sections["smooth"][0], G=None), InitState(D2=1.0), None)
    with pytest.raises(ValueError, match="missing constant: lipschitz.G"):
        complexity_table(sections, 2, 1e-3)


def test_table_prox_cells_use_the_fixtures_own_composite():
    # ls_6x2 has no composite of its own: its f with lasso_4x2's l1(0.1)
    from descentlab.problems import make_composite
    fx = fixture("ls_6x2")
    comp = make_composite(fx.problem, fx.constants, fixture("lasso_4x2").regularizer)
    x0 = fx.problem.default_x0
    D2F = float((x0 - comp.x_star_F) @ (x0 - comp.x_star_F))
    F0, sF = comp.value(x0) - comp.inf_F, comp.sigma_star_F
    assert (sF, D2F, F0) == pytest.approx((0.908, 0.121, 0.0705), abs=1e-3)
    c, eps = fx.constants, 1e-3
    table = complexity_table(table_sources_for_fixture("ls_6x2"), 2, eps)
    assert table["prox_gd"]["convex_smooth"] == pytest.approx(c.L * D2F / (2 * eps))
    assert table["prox_sgd"]["convex_smooth"] == pytest.approx(
        16 * (D2F + F0 / (4 * c.L_max)) * sF / eps**2)
    assert table["prox_sgd"]["strongly_convex"] == pytest.approx(
        max(4 * sF / (eps * c.mu**2), 2 * c.L_max / c.mu) * math.log(2 * D2F / eps))


@pytest.mark.parametrize("name", ["ls_4x2", "ls_6x2"])
@pytest.mark.parametrize("eps", [1e-3, 0.1, 0.5, 2.0])
def test_table_cells_are_the_settings_rates(name, eps):
    sections = table_sources_for_fixture(name)
    table = complexity_table(sections, 2, eps)
    for (method, column), setting in TABLE_CELLS.items():
        consts, init, sF = sections["composite" if SETTINGS[setting].composite
                                    else "lipschitz" if column == "convex_lipschitz"
                                    else "smooth"]
        cell = table[method][column]
        try:
            ans = complexity_iterations(setting, consts, eps, init, b=2, sigma_star_F=sF)
        except HypothesisError:
            assert cell == NOT_COVERED, (method, column)
            continue
        except ValueError as exc:
            # a relative target eps >= 1 holds from the start
            assert eps >= 1 and "relative" in str(exc) and cell == 0.0, (method, column)
            continue
        assert cell == ans.rate, (method, column)
        if setting == "momentum_convex":
            assert ans.t_min == max(0, math.ceil(ans.rate - 1))
    for method in TABLE_METHODS:
        for column in TABLE_COLUMNS:
            if (method, column) not in TABLE_CELLS:
                assert table[method][column] == NOT_COVERED
    # eps above sigma_star_F / L_max (0.19 and 0.23) is outside spgd_convex_const's hypotheses
    assert (table["prox_sgd"]["convex_smooth"] == NOT_COVERED) == (eps >= 0.5)


def test_table_golden_against_independent_formulas():
    # recompute every covered cell from the closed-form expressions written out here
    sections = table_sources_for_fixture("ls_4x2")
    eps = 1e-3
    table = complexity_table(sections, 2, eps)
    (c, init, _), (lip, lip_init, _), (_, comp_init, sF) = (
        sections[k] for k in ("smooth", "lipschitz", "composite"))
    D2, f0 = init.D2, init.f0_gap
    G, D2l = lip.G, lip_init.D2
    D2F, F0 = comp_init.D2, comp_init.F0_gap
    Lb, sb = minibatch_constants(c, 2)
    ln = math.log
    want = {
        ("gd", "convex_smooth"): c.L * D2 / (2 * eps),
        ("gd", "convex_lipschitz"): D2l * G**2 / eps**2,
        ("gd", "strongly_convex"): c.L / c.mu * ln(1 / eps),
        ("gd", "pl"): c.L / c.mu_pl * ln(1 / eps),
        ("sgd", "convex_smooth"): ((2 * c.L_max * D2 + c.sigma_star_f / c.L_max) / eps) ** 2,
        ("sgd", "strongly_convex"): max(4 * c.sigma_star_f / (eps * c.mu**2),
                                        2 * c.L_max / c.mu) * ln(2 * D2 / eps),
        ("sgd", "pl"): (c.L * c.L_max / c.mu_pl**2) * max(2 * c.delta_star_f / eps, 1)
                       * ln(2 * f0 / eps),
        ("mini_sgd", "convex_smooth"): ((2 * Lb * D2 + sb / Lb) / eps) ** 2,
        ("mini_sgd", "strongly_convex"): max(4 * sb / (eps * c.mu**2),
                                             2 * Lb / c.mu) * ln(2 * D2 / eps),
        ("momentum", "convex_smooth"): (8 * c.L_max**2 * D2 + c.sigma_star_f) ** 2
                                       / (4 * c.L_max**2 * eps**2),
        ("prox_gd", "convex_smooth"): c.L * D2F / (2 * eps),
        ("prox_gd", "strongly_convex"): c.L / c.mu * ln(1 / eps),
        ("prox_sgd", "convex_smooth"): 16 * (D2F + F0 / (4 * c.L_max)) * sF / eps**2,
        ("prox_sgd", "strongly_convex"): max(4 * sF / (eps * c.mu**2),
                                             2 * c.L_max / c.mu) * ln(2 * D2F / eps),
    }
    for (method, col), val in want.items():
        assert table[method][col] == pytest.approx(val, rel=1e-12), (method, col)


def test_all_settings_enumerated():
    assert len(SETTINGS) == 22


def test_ssd_invsqrt_curve_formula():
    c = _consts("abs_2x1")
    g0 = 0.7
    curve = bound_curve("ssd_convex_invsqrt", c, StepSchedule.inv_sqrt(g0),
                        InitState(D2=0.25))
    T = 100
    want = 0.25 / (4 * g0 * (math.sqrt(T) - 1)) + g0 * c.G**2 * math.log(T) / (4 * (math.sqrt(T) - 1))
    assert curve.eval(T) == pytest.approx(want)
    assert curve.min_t == 2


def test_ssd_strongly_convex_curve_formula():
    c = _consts("abs_2x1_reg")
    gamma = 0.05
    curve = bound_curve("ssd_strongly_convex", c, StepSchedule.constant(gamma),
                        InitState(D2=1.0))
    t = 37
    want = (1 - gamma * c.mu) ** t * 1.0 + gamma * c.G**2 / c.mu
    assert curve.eval(t) == pytest.approx(want)


def test_spgd_invsqrt_curve_upper_bounds_general_form():
    # the closed invsqrt curve uses integral estimates, so it must dominate the
    # exact-sum general curve at every valid t
    fx = fixture("lasso_4x2")
    sched = StepSchedule.inv_sqrt(0.9 / (4 * fx.constants.L_max))
    init = InitState(D2=1.0, F0_gap=0.5)
    sF = fx.composite.sigma_star_F
    closed = bound_curve("spgd_convex_invsqrt", fx.constants, sched, init, sigma_star_F=sF)
    general = bound_curve("spgd_convex_general", fx.constants, sched, init, sigma_star_F=sF)
    for t in (3, 10, 100, 1000):
        assert closed.eval(t) >= general.eval(t)


def test_sgd_invsqrt_curve_upper_bounds_general_form():
    c = _consts("ls_4x2")
    sched = StepSchedule.inv_sqrt(0.9 / (2 * c.L_max))
    init = InitState(D2=1.0)
    closed = bound_curve("sgd_convex_invsqrt", c, sched, init)
    general = bound_curve("sgd_convex_general", c, sched, init)
    for t in (49, 100, 1000):
        assert closed.eval(t) >= general.eval(t)


def test_setting_table_rows_are_consistent():
    # a typo in a row (method, metric, averaging or deterministic flag) fails here
    from descentlab.algorithms import ALGORITHMS, RunConfig, StepSchedule, is_deterministic
    checked = 0
    for name, row in SETTINGS.items():
        assert row.name == name
        assert row.algorithm in ALGORITHMS, name
        if row.metric in ("f_gap", "dist_sq"):
            assert row.weighting is None, name
        else:
            assert row.metric in ("avg_f_gap", "avg_F_gap"), name
            assert row.weighting in ("uniform", "gamma_weighted", "p_tk"), name
        assert row.composite == (row.algorithm in ("prox_gd", "prox_sgd")), name
        assert row.metric != "avg_F_gap" or row.composite, name
        # a run the row's method accepts: a composite, a ball, a beta_t schedule
        fx = fixture("lasso_4x2" if row.composite else
                     "abs_2x1" if row.algorithm == "pssd" else "ls_4x2")
        schedule = (StepSchedule.momentum_pair(0.1) if row.algorithm == "momentum"
                    else StepSchedule.constant(0.1))
        b = 2 if row.algorithm == "minibatch_sgd" else None
        run = RunConfig.for_fixture(fx, row.algorithm, schedule, 1, batch_size=b)
        assert row.deterministic == is_deterministic(run), name
        checked += 1
    assert checked == 22


def test_gamma_sums_match_rebuilt_array_bit_for_bit():
    # the cached, grown stepsize array must reduce exactly like the array the
    # sums were once rebuilt from on every call, in any order of t
    from descentlab.theory import _gamma_sums

    def rebuilt(schedule, t, L_ref):
        g = np.array([schedule.gamma_at(k) for k in range(t)])
        w = g * (1.0 - 2.0 * g * L_ref)
        return float(w.sum()), float((g * g).sum())

    ts = [1, 2, 3, 700, 5, 64, 65, 1999, 2000, 129, 1, 1024, 333]
    for schedule in (StepSchedule.inv_sqrt(0.3), StepSchedule.constant(0.05),
                     StepSchedule.momentum_pair(0.2)):
        for L_ref in (0.0, 0.7):
            sums = _gamma_sums(schedule, L_ref)
            for t in ts:
                assert sums(t) == rebuilt(schedule, t, L_ref)


# each setting's catalogue fixture, batch size, stepsize schedule and the cap on its
# (first) stepsize from the setting's hypotheses, given the constants and L_ref; the
# subgradient settings without a cap scale their stepsize by B / G
_STEP_CAPS = {
    "gd_convex": ("ls_4x2", None, "constant", lambda c, L_ref: 1.0 / c.L),
    "gd_strongly_convex": ("ls_4x2", None, "constant", lambda c, L_ref: 1.0 / c.L),
    "gd_pl": ("scalar_pl", None, "constant", lambda c, L_ref: 1.0 / c.L),
    "sgd_convex_general": ("ls_4x2", None, "general", lambda c, L_ref: 0.5 / L_ref),
    "sgd_convex_const": ("ls_4x2", None, "constant", lambda c, L_ref: 0.5 / L_ref),
    "sgd_convex_invsqrt": ("ls_4x2", None, "inv_sqrt", lambda c, L_ref: 0.5 / L_ref),
    "sgd_strongly_convex": ("ls_4x2", None, "constant", lambda c, L_ref: 0.5 / L_ref),
    "sgd_pl": ("ls_4x2", None, "constant", lambda c, L_ref: c.mu_pl / (c.L * c.L_max)),
    "mini_convex_general": ("ls_6x2", 2, "general", lambda c, L_ref: 0.5 / L_ref),
    "mini_convex_const": ("ls_6x2", 2, "constant", lambda c, L_ref: 0.5 / L_ref),
    "mini_strongly_convex": ("ls_6x2", 2, "constant", lambda c, L_ref: 0.5 / L_ref),
    "momentum_convex": ("ls_4x2", None, "momentum_pair", lambda c, L_ref: 0.25 / c.L_max),
    "ssd_convex_general": ("abs_2x1", None, "general", lambda c, L_ref: c.B / c.G),
    "ssd_convex_invsqrt": ("abs_2x1", None, "inv_sqrt", lambda c, L_ref: c.B / c.G),
    "pssd_convex": ("abs_2x1", None, "inv_sqrt", lambda c, L_ref: c.B / c.G),
    "ssd_strongly_convex": ("abs_2x1_reg", None, "constant", lambda c, L_ref: 1.0 / c.mu),
    "pgd_convex": ("lasso_4x2", None, "constant", lambda c, L_ref: 1.0 / c.L),
    "pgd_strongly_convex": ("lasso_4x2", None, "constant", lambda c, L_ref: 1.0 / c.L),
    "spgd_convex_general": ("lasso_4x2", None, "general", lambda c, L_ref: 0.25 / L_ref),
    "spgd_convex_const": ("lasso_4x2", None, "constant", lambda c, L_ref: 0.25 / L_ref),
    "spgd_convex_invsqrt": ("lasso_4x2", None, "inv_sqrt", lambda c, L_ref: 0.25 / L_ref),
    "spgd_strongly_convex": ("lasso_4x2", None, "constant", lambda c, L_ref: 0.5 / L_ref),
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(fraction=st.floats(0.01, 0.99), inv_sqrt=st.booleans())
def test_bound_curve_is_non_increasing(setting, fraction, inv_sqrt):
    name, b, kind, cap = _STEP_CAPS[setting]
    fx = fixture(name)
    sF = fx.composite.sigma_star_F if fx.composite else None
    gamma = fraction * cap(fx.constants, SETTINGS[setting].ref_constants(fx.constants, b, sF)[0])
    if kind == "general":  # either schedule
        kind = "inv_sqrt" if inv_sqrt else "constant"
    schedule = {"constant": StepSchedule.constant, "inv_sqrt": StepSchedule.inv_sqrt,
                "momentum_pair": StepSchedule.momentum_pair}[kind](gamma)
    curve = bound_curve(setting, fx.constants, schedule,
                        InitState(D2=4.0, f0_gap=2.0, F0_gap=2.0), b=b, sigma_star_F=sF)
    values = np.array([curve.eval(t) for t in range(curve.min_t, 2001)])
    assert np.all(np.isfinite(values)) and np.all(np.diff(values) <= 0.0)
