import numpy as np
import pytest

from descentlab import (
    InitState,
    RunConfig,
    StepSchedule,
    bound_curve,
    build_least_squares,
    enumerate_minibatch_oracle,
    estimate,
    fixture,
    lyapunov_check,
    minibatch_constants,
    property_suite,
    run_gd,
    run_prox_gd,
    run_verification,
    verify_bound,
)
from descentlab.harness import default_checkpoints
from descentlab.problems import gradient_variance
from descentlab.theory import SETTINGS

RNG = np.random.default_rng(3)


def _cfg(name="ls_4x2", T=100, algorithm="sgd", **kw):
    fx = fixture(name)
    kw.setdefault("schedule", StepSchedule.constant(0.9 / (2 * fx.constants.L_max)))
    return fx, RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                         iterations=T, algorithm=algorithm, **kw)


def test_default_checkpoints():
    assert default_checkpoints(1000) == (1, 3, 10, 31, 100, 316, 1000)
    assert default_checkpoints(5) == (1, 3, 5)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_deterministic_estimate_short_circuits():
    fx, cfg = _cfg(T=50, algorithm="gd", trials=5,
                   schedule=StepSchedule.constant(1 / fixture("ls_4x2").constants.L))
    est = estimate(cfg, "f_gap", [10, 50])
    assert est.M == 1
    assert np.all(est.stderr == 0.0)


def test_single_term_sgd_treated_as_deterministic():
    fx, cfg = _cfg("scalar_pl", T=20, algorithm="sgd", trials=7,
                   schedule=StepSchedule.constant(0.05))
    est = estimate(cfg, "f_gap", [20])
    assert est.M == 1


def test_stochastic_estimate_needs_two_trials():
    fx, cfg = _cfg(T=20, trials=1)
    with pytest.raises(ValueError, match="M >= 2"):
        estimate(cfg, "f_gap", [10])


def test_interpolating_sgd_mean_and_stderr_vanish():
    phi = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    p, gt, c = build_least_squares(phi, phi @ np.array([0.4, -0.1]))
    cfg = RunConfig(problem=p, ground_truth=gt,
                    schedule=StepSchedule.constant(0.9 / (2 * c.L_max)),
                    iterations=3000, trials=20, x0=np.array([2.0, 1.0]),
                    algorithm="sgd")
    est = estimate(cfg, "f_gap", [10, 3000])
    assert est.mean[1] < 1e-6 * est.mean[0]
    assert est.stderr[1] < 1e-6


def test_estimate_reports_diverged_trials():
    fx, cfg = _cfg(T=500, trials=3, schedule=StepSchedule.constant(400.0))
    with pytest.raises(RuntimeError, match="trial 0"):
        estimate(cfg, "f_gap", [500])


def test_estimate_checkpoint_beyond_horizon():
    fx, cfg = _cfg(T=10, trials=2)
    with pytest.raises(ValueError, match="beyond"):
        estimate(cfg, "f_gap", [20])


def test_reseeding_consistency():
    # two disjoint seed ranges agree within 4 combined standard errors
    fx, _ = _cfg()
    mk = lambda seed: RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                                schedule=StepSchedule.constant(0.2), iterations=200,
                                trials=400, seed=seed, x0=np.array([2.0, 0.0]),
                                algorithm="sgd")
    e1 = estimate(mk(0), "dist_sq", [200])
    e2 = estimate(mk(10_000), "dist_sq", [200])
    gap = abs(e1.mean[0] - e2.mean[0])
    combined = np.hypot(e1.stderr[0], e2.stderr[0])
    assert gap <= 4 * combined


# ---------------------------------------------------------------------------
# verify_bound
# ---------------------------------------------------------------------------

def test_gd_verdict_passes_without_statistical_slack():
    fx, cfg = _cfg(T=400, algorithm="gd",
                   schedule=StepSchedule.constant(1 / fixture("ls_4x2").constants.L),
                   x0=np.array([3.0, -1.0]))
    est = estimate(cfg, "dist_sq", [1, 10, 100, 400])
    d0 = np.array([3.0, -1.0]) - fx.ground_truth.x_star
    curve = bound_curve("gd_strongly_convex", fx.constants, cfg.schedule,
                        InitState(D2=float(d0 @ d0)))
    verdict = verify_bound(est, curve, "deterministic")
    assert verdict.passed
    assert verdict.worst_ratio <= 1.0


def test_adversarial_scaled_curve_fails():
    # ill-conditioned quadratic so GD makes slow progress at first
    p, gt, c = build_least_squares(np.array([[1.0, 0.0], [0.0, 0.1]]), np.zeros(2))
    sched = StepSchedule.constant(1 / c.L)
    cfg = RunConfig(problem=p, ground_truth=gt, schedule=sched, iterations=100,
                    x0=np.array([3.0, -1.0]), algorithm="gd")
    est = estimate(cfg, "dist_sq", [1, 10])
    curve = bound_curve("gd_strongly_convex", c, sched, InitState(D2=0.01 * 10.0))
    verdict = verify_bound(est, curve, "deterministic")
    assert not verdict.passed
    assert verdict.worst_ratio > 1.0


def test_checkpoint_outside_validity_rejected():
    fx, cfg = _cfg(T=100, trials=2, schedule=StepSchedule.inv_sqrt(0.2))
    est = estimate(cfg, "f_gap", [10])
    curve = bound_curve("sgd_convex_invsqrt", fx.constants, cfg.schedule, InitState(D2=1.0))
    with pytest.raises(ValueError, match="t >= 49"):
        verify_bound(est, curve, "three_sigma")


def test_sgd_strongly_convex_three_sigma_pass():
    _, _, verdict = run_verification(
        "sgd_strongly_convex", fixture("ls_4x2"),
        StepSchedule.constant(0.9 / (2 * fixture("ls_4x2").constants.L_max)),
        iterations=300, checkpoints=[10, 100, 300], trials=300,
        x0=np.array([2.0, 0.0]), seed=1,
    )
    assert verdict.passed


def test_run_verification_unknown_setting():
    with pytest.raises(ValueError, match="unknown setting"):
        run_verification("nope", fixture("ls_4x2"), StepSchedule.constant(0.1), 10)


# ---------------------------------------------------------------------------
# minibatch enumeration oracle
# ---------------------------------------------------------------------------

def test_enumeration_mean_matches_full_gradient():
    fx = fixture("ls_6x2")
    for b in (1, 2, 3, 6):
        x = RNG.normal(size=2) * 3
        mean, _ = enumerate_minibatch_oracle(fx.problem, b, x)
        g = fx.problem.grad(x)
        assert np.linalg.norm(mean - g) <= 1e-12 * (1 + np.linalg.norm(g))


def test_enumeration_full_batch_variance_zero():
    fx = fixture("ls_6x2")
    _, var = enumerate_minibatch_oracle(fx.problem, 6, fx.ground_truth.x_star)
    assert var <= 1e-25


def test_enumeration_matches_constants_formula_at_solution():
    fx = fixture("ls_6x2")
    for b in range(1, 7):
        _, var = enumerate_minibatch_oracle(fx.problem, b, fx.ground_truth.x_star)
        _, sigma_b = minibatch_constants(fx.constants, b)
        assert var == pytest.approx(sigma_b, abs=1e-12)


def test_enumeration_rejects_blowup():
    phi = RNG.normal(size=(30, 2))
    p, gt, c = build_least_squares(phi, RNG.normal(size=30))
    with pytest.raises(ValueError, match="exceeds"):
        enumerate_minibatch_oracle(p, 15, gt.x_star)


# ---------------------------------------------------------------------------
# Lyapunov energy
# ---------------------------------------------------------------------------

def test_gd_energy_monotone():
    fx, cfg = _cfg(T=500, algorithm="gd",
                   schedule=StepSchedule.constant(1 / fixture("ls_4x2").constants.L),
                   x0=np.array([4.0, -2.0]))
    tr = run_gd(cfg)
    v = lyapunov_check(tr, "gd_energy", cfg.schedule.gamma, fx.ground_truth,
                       L=fx.constants.L)
    assert v.passed


def test_pgd_energy_monotone():
    fx = fixture("lasso_4x2")
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.constant(1 / fx.constants.L),
                    iterations=500, composite=fx.composite, x0=np.array([4.0, -2.0]))
    tr = run_prox_gd(cfg)
    v = lyapunov_check(tr, "pgd_energy", cfg.schedule.gamma, fx.composite,
                       L=fx.constants.L)
    assert v.passed


def test_lyapunov_rejects_large_gamma():
    fx, cfg = _cfg(T=10, algorithm="gd", schedule=StepSchedule.constant(0.1))
    tr = run_gd(cfg)
    with pytest.raises(ValueError, match="gamma <= 1/L"):
        lyapunov_check(tr, "gd_energy", 10 / fx.constants.L, fx.ground_truth,
                       L=fx.constants.L)


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------

def test_property_suite_ls_4x2_all_pass():
    report = property_suite(fixture("ls_4x2"), samples=3000)
    assert report["ok"]
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert all(s == "pass" for s in statuses.values())
    for needed in ("unbiasedness", "convexity", "smoothness_upper", "cocoercivity",
                   "expected_smoothness", "variance_transfer_gradient",
                   "variance_transfer_function", "bregman_transfer", "inverse_pl",
                   "strong_convexity", "strong_convexity_pl", "pl", "convex_plus_norm"):
        assert needed in statuses, needed


def test_property_suite_scalar_pl_expected_fail():
    report = property_suite(fixture("scalar_pl"), samples=3000)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["convexity"] == "expected-fail"
    others = {k: v for k, v in statuses.items() if k != "convexity"}
    assert all(s == "pass" for s in others.values())
    assert report["ok"]


def test_property_suite_lasso_bregman():
    report = property_suite(fixture("lasso_4x2"), samples=2000)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["bregman_nonnegative"] == "pass"
    assert statuses["bregman_bound"] == "pass"
    assert any(k.startswith("prox_nonexpansive") for k in statuses)
    assert report["ok"]


def test_property_suite_abs_fixtures():
    for name in ("abs_2x1", "abs_2x1_reg"):
        report = property_suite(fixture(name), samples=2000)
        assert report["ok"], report["checks"]


def test_gradient_variance_helper():
    fx = fixture("ls_4x2")
    assert gradient_variance(fx.problem, fx.ground_truth.x_star) == pytest.approx(4 / 9)


# ---------------------------------------------------------------------------
# every setting verifies end-to-end at desk scale
# ---------------------------------------------------------------------------

def _small_case(setting):
    ls = fixture("ls_4x2")
    ls6 = fixture("ls_6x2")
    ab = fixture("abs_2x1")
    abr = fixture("abs_2x1_reg")
    la = fixture("lasso_4x2")
    spl = fixture("scalar_pl")
    half = 0.9 / (2 * ls.constants.L_max)
    half6 = 0.9 / (2 * minibatch_constants(ls6.constants, 2)[0])
    quarter = 0.9 / (4 * ls.constants.L_max)
    table = {
        "gd_convex": (ls, StepSchedule.constant(1 / ls.constants.L), 50, [1, 10, 50], None, [3.0, -1.0]),
        "gd_strongly_convex": (ls, StepSchedule.constant(1 / ls.constants.L), 50, [1, 50], None, [3.0, -1.0]),
        "gd_pl": (spl, StepSchedule.constant(1 / 8), 80, [1, 80], None, [3.0]),
        "sgd_convex_general": (ls, StepSchedule.inv_sqrt(half), 100, [10, 100], None, [2.0, 0.0]),
        "sgd_convex_const": (ls, StepSchedule.constant(half), 100, [10, 100], None, [2.0, 0.0]),
        "sgd_convex_invsqrt": (ls, StepSchedule.inv_sqrt(half), 120, [49, 120], None, [2.0, 0.0]),
        "sgd_strongly_convex": (ls, StepSchedule.constant(half), 100, [10, 100], None, [2.0, 0.0]),
        "sgd_pl": (ls, StepSchedule.constant(ls.constants.mu_pl / (ls.constants.L * ls.constants.L_max)),
                   100, [10, 100], None, [2.0, 0.0]),
        "mini_convex_general": (ls6, StepSchedule.inv_sqrt(half6), 100, [10, 100], 2, [1.5, 1.0]),
        "mini_convex_const": (ls6, StepSchedule.constant(half6), 100, [10, 100], 2, [1.5, 1.0]),
        "mini_strongly_convex": (ls6, StepSchedule.constant(half6), 100, [10, 100], 2, [1.5, 1.0]),
        "momentum_convex": (ls, StepSchedule.momentum_pair(1 / (4 * ls.constants.L_max)),
                            100, [10, 100], None, [2.0, 0.0]),
        "ssd_convex_general": (ab, StepSchedule.inv_sqrt(1.0), 100, [10, 100], None, [0.5]),
        "ssd_convex_invsqrt": (ab, StepSchedule.inv_sqrt(1.0), 100, [50, 100], None, [0.5]),
        "pssd_convex": (ab, StepSchedule.inv_sqrt(1.5), 100, [100], None, [0.5]),
        "ssd_strongly_convex": (abr, StepSchedule.constant(0.05), 100, [10, 100], None, [1.0]),
        "pgd_convex": (la, StepSchedule.constant(1 / la.constants.L), 50, [1, 50], None, [4.0, -3.0]),
        "pgd_strongly_convex": (la, StepSchedule.constant(1 / la.constants.L), 50, [1, 50], None, [4.0, -3.0]),
        "spgd_convex_general": (la, StepSchedule.inv_sqrt(quarter), 100, [10, 100], None, [2.0, -1.0]),
        "spgd_convex_const": (la, StepSchedule.constant(quarter), 100, [10, 100], None, [2.0, -1.0]),
        "spgd_convex_invsqrt": (la, StepSchedule.inv_sqrt(quarter), 100, [10, 100], None, [2.0, -1.0]),
        "spgd_strongly_convex": (la, StepSchedule.constant(1 / (2 * la.constants.L_max)),
                                 100, [10, 100], None, [2.0, -1.0]),
    }
    return table[setting]


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_every_setting_verifies(setting):
    fx, sched, T, cps, b, x0 = _small_case(setting)
    _, curve, verdict = run_verification(
        setting, fx, sched, iterations=T, checkpoints=cps, trials=150,
        b=b, x0=np.array(x0), seed=99,
    )
    assert verdict.passed, (setting, verdict.measured, verdict.bound)


def test_expected_fail_registry_flags_unexpected_pass(monkeypatch):
    # a registered must-fail check that starts passing is a regression signal
    from descentlab import harness as hmod
    monkeypatch.setitem(hmod.EXPECTED_FAIL, "ls_4x2", {"convexity"})
    report = property_suite(fixture("ls_4x2"), samples=500)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["convexity"] == "unexpected-pass"
    assert not report["ok"]
