"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Stochastic envelopes use the one-sided three-standard-error policy over
independent seeded trials; deterministic bounds are checked with a relative
floor of 1e-9 and no statistical slack.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from descentlab import (
    InitState,
    Regularizer,
    RunConfig,
    StepSchedule,
    answer_schedule,
    build_abs_loss,
    build_least_squares,
    complexity_iterations,
    enumerate_minibatch_oracle,
    estimate,
    fixture,
    lyapunov_check,
    minibatch_constants,
    property_suite,
    run_algorithm,
    run_verification,
)
from descentlab.cli import cmd_run
from descentlab.harness import bound_inputs
from descentlab.problems import Fixture


def _report(num: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:2d}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {suffix}"


def test_criterion_01_gd_strongly_convex_contraction():
    fx = fixture("ls_4x2")
    gamma = 1.0 / fx.constants.L
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.constant(gamma), iterations=200,
                    x0=np.array([3.0, -1.0]))
    tr = run_algorithm(cfg, "gd")
    rate = 1.0 - gamma * fx.constants.mu
    ok = all(
        tr.dist_sq[t + 1] <= rate * tr.dist_sq[t] + 1e-9 * (1.0 + tr.dist_sq[t])
        for t in range(200)
    )
    _report(1, "per-step strongly convex contraction of gd on ls_4x2", ok)


def test_criterion_02_gd_convex_bound_and_energy():
    fx = fixture("ls_4x2")
    gamma = 1.0 / fx.constants.L
    x0 = np.array([3.0, -1.0])
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.constant(gamma), iterations=1000, x0=x0)
    tr = run_algorithm(cfg, "gd")
    D2 = float((x0 - fx.ground_truth.x_star) @ (x0 - fx.ground_truth.x_star))
    ok_bound = all(
        tr.f_gap[t] <= D2 / (2 * gamma * t) + 1e-9 * (1 + D2 / (2 * gamma * t))
        for t in range(1, 1001)
    )
    energy = lyapunov_check(tr, "gd_energy", gamma, fx.ground_truth, L=fx.constants.L)
    _report(2, "gd sublinear bound and Lyapunov energy monotonicity", ok_bound and energy.passed)


def test_criterion_03_gd_pl_linear_rate():
    fx = fixture("scalar_pl")
    gamma = 1.0 / 8.0
    ok = True
    for start in (3.0, -7.0, 11.0):
        cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                        schedule=StepSchedule.constant(gamma), iterations=500,
                        x0=np.array([start]))
        tr = run_algorithm(cfg, "gd")
        envelope = (1 - gamma / 40.0) ** np.arange(501) * tr.f_gap[0]
        ok &= bool(np.all(tr.f_gap <= envelope * (1 + 1e-9) + 1e-15))
    _report(3, "gd linear decay on the nonconvex quadratic-growth benchmark", ok)


def test_criterion_04_sgd_strongly_convex_envelope():
    fx = fixture("ls_4x2")
    gamma = 0.9 / (2 * fx.constants.L_max)
    est, curve, verdict = run_verification(
        "sgd_strongly_convex", fx, StepSchedule.constant(gamma),
        iterations=500, checkpoints=[10, 100, 500], trials=1000,
        x0=np.array([2.0, 0.0]), seed=101,
    )
    _report(4, "sgd strongly convex distance envelope (M=1000)", verdict.passed,
            f"worst_ratio={verdict.worst_ratio:.3f}")


def test_criterion_05_sgd_convex_average_envelope():
    fx = fixture("ls_4x2")
    gamma = 0.9 / (2 * fx.constants.L_max)
    est, curve, verdict = run_verification(
        "sgd_convex_const", fx, StepSchedule.constant(gamma),
        iterations=1000, checkpoints=[100, 1000], trials=1000,
        x0=np.array([2.0, 0.0]), seed=202,
    )
    _report(5, "sgd convex averaged-iterate envelope (M=1000)", verdict.passed,
            f"worst_ratio={verdict.worst_ratio:.3f}")


def test_criterion_06_minibatch_exactness():
    rng = np.random.default_rng(1234)
    ok = True
    for n in range(1, 9):
        phi = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        p, gt, c = build_least_squares(phi, y)
        for b in range(1, n + 1):
            mean, var = enumerate_minibatch_oracle(p, b, gt.x_star)
            g = p.grad(gt.x_star)
            ok &= float(np.linalg.norm(mean - g)) <= 1e-12 * (1 + np.linalg.norm(g))
            _, sigma_b = minibatch_constants(c, b)
            ok &= abs(var - sigma_b) <= 1e-12 * (1 + sigma_b)
    _report(6, "exhaustive minibatch enumeration matches the closed-form constants", ok)


def test_criterion_07_minibatch_strongly_convex_envelope():
    fx = fixture("ls_6x2")
    Lb, _ = minibatch_constants(fx.constants, 2)
    gamma = 0.9 / (2 * Lb)
    est, curve, verdict = run_verification(
        "mini_strongly_convex", fx, StepSchedule.constant(gamma),
        iterations=500, checkpoints=[10, 100, 500], trials=1000,
        b=2, x0=np.array([1.5, 1.0]), seed=303,
    )
    _report(7, "minibatch strongly convex envelope, b=2 on the n=6 fixture (M=1000)",
            verdict.passed, f"worst_ratio={verdict.worst_ratio:.3f}")


def test_criterion_08_momentum_triple_equivalence():
    # every fixture with a differentiable objective (momentum needs gradients)
    ok = True
    worst = 0.0
    for name in ("ls_4x2", "ls_6x2", "scalar_pl"):
        fx = fixture(name)
        eta = 1.0 / (4 * fx.constants.L_max)
        cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                        schedule=StepSchedule.momentum_pair(eta), iterations=100,
                        seed=404)
        runs = [run_algorithm(replace(cfg, momentum_form=form), "momentum")
                for form in ("buffer", "heavy_ball", "ima")]
        for i in range(3):
            for j in range(i + 1, 3):
                dev = float(np.max(np.abs(runs[i].iterates - runs[j].iterates)))
                worst = max(worst, dev)
                ok &= dev <= 1e-8
    _report(8, "buffer / heavy-ball / moving-average momentum coincide",
            ok, f"max deviation={worst:.2e}")


def test_criterion_09_momentum_bound():
    fx = fixture("ls_4x2")
    eta = 1.0 / (4 * fx.constants.L_max)
    est, curve, verdict = run_verification(
        "momentum_convex", fx, StepSchedule.momentum_pair(eta),
        iterations=500, checkpoints=[50, 500], trials=1000,
        x0=np.array([2.0, 0.0]), seed=505,
    )
    _report(9, "momentum last-iterate envelope at T in {50, 500} (M=1000)",
            verdict.passed, f"worst_ratio={verdict.worst_ratio:.3f}")


def test_criterion_10_ssd_and_pssd():
    fx = fixture("abs_2x1")
    x0 = np.array([0.5])
    est, curve, v_ssd = run_verification(
        "ssd_convex_general", fx, StepSchedule.inv_sqrt(1.0),
        iterations=400, checkpoints=[100, 400], trials=1000, x0=x0, seed=606,
    )
    est, curve, v_pssd = run_verification(
        "pssd_convex", fx, StepSchedule.inv_sqrt(1.5),
        iterations=400, checkpoints=[400], trials=1000, x0=x0, seed=707,
    )
    # exact ball feasibility on a fresh projected run
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.inv_sqrt(1.5), iterations=400,
                    projection_B=fx.constants.B, x0=x0, seed=808)
    tr = run_algorithm(cfg, "pssd")
    feasible = bool(np.all(np.linalg.norm(tr.iterates, axis=1) <= fx.constants.B + 1e-12))
    _report(10, "subgradient-method envelopes and exact projection feasibility",
            v_ssd.passed and v_pssd.passed and feasible,
            f"ssd ratio={v_ssd.worst_ratio:.3f}, pssd ratio={v_pssd.worst_ratio:.3f}")


def test_criterion_11_ssd_strongly_convex():
    fx = fixture("abs_2x1_reg")
    mu = fx.constants.mu
    gamma = min(1.0 / (2 * mu * 10), 1.0 / mu) / 2.0
    assert 0 < gamma < 1.0 / mu
    est, curve, verdict = run_verification(
        "ssd_strongly_convex", fx, StepSchedule.constant(gamma),
        iterations=500, checkpoints=[10, 100, 500], trials=1000,
        x0=np.array([1.0]), seed=909,
    )
    _report(11, "projected subgradient strongly convex envelope (M=1000)",
            verdict.passed, f"worst_ratio={verdict.worst_ratio:.3f}")


def test_criterion_12_pgd_bounds():
    fx = fixture("lasso_4x2")
    x0 = np.array([4.0, -3.0])
    ok = True
    for gamma in (1.0 / fx.constants.L, 0.5 / fx.constants.L):
        cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                        schedule=StepSchedule.constant(gamma), iterations=2000,
                        composite=fx.composite, x0=x0)
        tr = run_algorithm(cfg, "prox_gd")
        # composite objective never increases
        ok &= bool(np.all(np.diff(tr.f_gap) <= 1e-12 * (1 + np.abs(tr.f_gap[:-1]))))
        # sublinear gap bound against the reference infimum, 1e-6 absolute floor
        D2 = float((x0 - fx.composite.x_star_F) @ (x0 - fx.composite.x_star_F))
        for t in range(1, 2001):
            ok &= tr.f_gap[t] <= D2 / (2 * gamma * t) + 1e-6
        # strongly convex per-step contraction (injective design matrix)
        rate = 1 - gamma * fx.constants.mu
        for t in range(2000):
            ok &= tr.dist_sq[t + 1] <= rate * tr.dist_sq[t] + 1e-6
    _report(12, "pgd monotonicity, sublinear gap, and strongly convex contraction", ok)


def test_criterion_13_spgd_envelopes():
    fx = fixture("lasso_4x2")
    gamma_cvx = 0.9 / (4 * fx.constants.L_max)
    est, curve, v_cvx = run_verification(
        "spgd_convex_const", fx, StepSchedule.constant(gamma_cvx),
        iterations=500, checkpoints=[10, 100, 500], trials=1000,
        x0=np.array([2.0, -1.0]), seed=111,
    )
    gamma_sc = 1.0 / (2 * fx.constants.L_max)
    est, curve, v_sc = run_verification(
        "spgd_strongly_convex", fx, StepSchedule.constant(gamma_sc),
        iterations=500, checkpoints=[10, 100, 500], trials=1000,
        x0=np.array([2.0, -1.0]), seed=222,
    )
    _report(13, "stochastic proximal envelopes, convex and strongly convex (M=1000)",
            v_cvx.passed and v_sc.passed,
            f"convex ratio={v_cvx.worst_ratio:.3f}, strong ratio={v_sc.worst_ratio:.3f}")


def _sharp_abs_fixture():
    p, gt, c = build_abs_loss(np.array([[1.0], [1.0]]), np.array([0.3, -0.3]),
                              strong_mu=4.0, ball_B=0.5)
    return Fixture("abs_sharp", p, gt, c)


_COMPLEXITY_RUNS = [
    # setting, fixture name (None = sharp abs), batch, x0
    ("gd_convex", "ls_4x2", None, [3.0, -1.0]),
    ("gd_strongly_convex", "ls_4x2", None, [3.0, -1.0]),
    ("gd_pl", "scalar_pl", None, [3.0]),
    ("sgd_convex_const", "ls_4x2", None, [1 / 3 + 0.05, 1 / 3 + 0.05]),
    ("sgd_strongly_convex", "ls_4x2", None, [1 / 3 + 0.3, 1 / 3 - 0.4]),
    ("sgd_pl", "ls_4x2", None, [1 / 3 + 0.3, 1 / 3 - 0.4]),
    ("mini_convex_const", "ls_6x2", 2, [3 / 7 + 0.05, -1 / 7 + 0.05]),
    ("mini_strongly_convex", "ls_6x2", 2, [3 / 7 + 0.3, -1 / 7 - 0.4]),
    ("momentum_convex", "ls_4x2", None, [1 / 3 + 0.05, 1 / 3 + 0.05]),
    ("ssd_convex_general", "abs_2x1", None, [0.1]),
    ("ssd_strongly_convex", None, None, [0.2]),
    ("pgd_convex", "lasso_4x2", None, [1.2, -0.8]),
    ("pgd_strongly_convex", "lasso_4x2", None, [1.2, -0.8]),
    ("spgd_convex_const", "lasso_4x2", None, [0.25, 0.25]),
    ("spgd_strongly_convex", "lasso_4x2", None, [0.7, -0.3]),
]


def test_criterion_14_complexity_plugback_runs():
    ok = True
    details = []
    sharp = _sharp_abs_fixture()
    for case_idx, (setting, name, b, x0) in enumerate(_COMPLEXITY_RUNS):
        fx = sharp if name is None else fixture(name)
        x0 = np.array(x0, dtype=float)
        consts, init, sigma_F = bound_inputs(fx, setting, x0)
        for eps in (1e-1, 1e-2):
            ans = complexity_iterations(setting, consts, eps, init, b=b, sigma_star_F=sigma_F)
            schedule = answer_schedule(ans)
            T = max(ans.t_min, 1)
            est, curve, _ = run_verification(
                setting, fx, schedule, iterations=T, checkpoints=[ans.t_min],
                trials=300, b=b, x0=x0, seed=1000 + case_idx,
            )
            scale = 1.0
            if ans.relative:
                scale = init.D2 if setting != "gd_pl" else init.f0_gap
            target = eps * scale
            slack = 3.0 * est.stderr[0] + 1e-9 * (1.0 + target)
            achieved = est.mean[0] <= target + slack
            ok &= achieved
            if not achieved:
                details.append(f"{setting}@{eps}: {est.mean[0]:.3g} > {target:.3g}")
    _report(14, "running each recommended (gamma, T) meets its accuracy target",
            ok, "; ".join(details) if details else "all settings, eps in {0.1, 0.01}")


def test_criterion_15_property_suite_green():
    ok = True
    bad = []
    for name in ("ls_4x2", "ls_6x2", "scalar_pl", "abs_2x1", "abs_2x1_reg", "lasso_4x2"):
        report = property_suite(fixture(name), samples=10_000)
        for check in report["checks"]:
            status = check["status"]
            if name == "scalar_pl" and check["name"] == "convexity":
                if status != "expected-fail":
                    ok = False
                    bad.append(f"{name}:{check['name']}={status}")
            elif status != "pass":
                ok = False
                bad.append(f"{name}:{check['name']}={status}")
    _report(15, "inequality suite green with the one declared expected failure",
            ok, "; ".join(bad) if bad else "")


def test_criterion_16_run_determinism(tmp_path):
    import json
    cfg = {
        "problem": {"fixture": "ls_4x2"},
        "algorithm": "sgd",
        "schedule": {"kind": "constant", "gamma": 0.2},
        "iterations": 300,
        "trials": 5,
        "seed": 7,
        "x0": [2.0, 0.0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cmd_run(str(path), out_dir=str(a)) == 0
    assert cmd_run(str(path), out_dir=str(b)) == 0
    ok = (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    _report(16, "identical config produces byte-identical trace CSV", ok)
