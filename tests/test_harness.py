import json
from dataclasses import replace
from itertools import combinations

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
    run_algorithm,
    run_verification,
    verify_bound,
)
from descentlab.harness import default_checkpoints
from descentlab.problems import fixture_from_spec, gradient_variance, make_composite
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
    tr = run_algorithm(cfg, "gd")
    v = lyapunov_check(tr, "gd_energy", cfg.schedule.gamma, fx.ground_truth,
                       L=fx.constants.L)
    assert v.passed


def test_pgd_energy_monotone():
    fx = fixture("lasso_4x2")
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.constant(1 / fx.constants.L),
                    iterations=500, composite=fx.composite, x0=np.array([4.0, -2.0]))
    tr = run_algorithm(cfg, "prox_gd")
    v = lyapunov_check(tr, "pgd_energy", cfg.schedule.gamma, fx.composite,
                       L=fx.constants.L)
    assert v.passed


def test_lyapunov_rejects_large_gamma():
    fx, cfg = _cfg(T=10, algorithm="gd", schedule=StepSchedule.constant(0.1))
    tr = run_algorithm(cfg, "gd")
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


def test_property_suite_expected_fail_follows_the_kind(tmp_path, monkeypatch):
    # a scalar_pl problem under another name is as nonconvex as the catalogue's
    from descentlab import problems
    (tmp_path / "my_pl.json").write_text(json.dumps({"kind": "scalar_pl"}))
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(tmp_path))
    monkeypatch.delitem(problems._FIXTURE_CACHE, "my_pl", raising=False)
    renamed = property_suite(fixture("my_pl"), samples=1500)
    assert renamed["checks"] == property_suite(fixture("scalar_pl"), samples=1500)["checks"]
    statuses = {c["name"]: c["status"] for c in renamed["checks"]}
    assert statuses["convexity"] == "expected-fail"
    assert renamed["ok"]


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
# row-wise suite against the per-point reference
# ---------------------------------------------------------------------------

CATALOGUE = ("ls_4x2", "ls_6x2", "scalar_pl", "abs_2x1", "abs_2x1_reg", "lasso_4x2")
BALL_LS = {"kind": "least_squares",
           "features": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [2.0, 0.0], [0.0, 2.0]],
           "targets": [1.0, 1.0, 0.0, 0.0, 1.0, -1.0],
           "regularizer": {"kind": "ball_indicator", "B": 0.3}}


def _ball_fixture(tmp_path, monkeypatch):
    """A least-squares fixture constrained to a ball its minimizer lies outside,
    loaded from $DESCENTLAB_FIXTURES."""
    from descentlab import problems
    (tmp_path / "ball_ls.json").write_text(json.dumps(BALL_LS))
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(tmp_path))
    monkeypatch.delitem(problems._FIXTURE_CACHE, "ball_ls", raising=False)
    return fixture("ball_ls")


def _ref_property_suite(fixture, samples, seed=20_240_601):
    """The property suite as it was written before the row-wise oracles: every
    sample point goes through the single-point value/grad/grad_i/prox calls."""
    from descentlab import nonsmooth
    from descentlab.harness import _REL_FLOOR, EXPECTED_FAIL, _sample_ball
    p, gt, c = fixture.problem, fixture.ground_truth, fixture.constants
    rng = np.random.default_rng(seed)
    radius = 10.0 * (1.0 + float(np.linalg.norm(gt.x_star)))
    X = _sample_ball(rng, samples, gt.x_star, radius)
    Y = _sample_ball(rng, samples, gt.x_star, radius)
    smooth = np.isfinite(c.L)
    expected = EXPECTED_FAIL.get(p.kind, ())
    convex = "convexity" not in expected

    def sampled(P, per_term):
        return (np.array([p.value(x) for x in P]), np.array([p.grad(x) for x in P]),
                np.array([[p.grad_i(i, x) for i in range(p.n)] for x in P]) if per_term else None)

    fx_, gx, Gx = sampled(X, True)
    fy, gy, Gy = sampled(Y, convex and smooth)
    checks = []

    def add(name, violation, tol):
        violation = np.asarray(violation, dtype=float)
        tol = np.broadcast_to(np.asarray(tol, dtype=float), violation.shape)
        i = int(np.argmax(violation - tol))
        failed = (violation - tol)[i] > 0
        status = (("expected-fail" if failed else "unexpected-pass") if name in expected
                  else ("fail" if failed else "pass"))
        checks.append({"name": name, "max_violation": float(violation[i]),
                       "tolerance": float(tol[i]), "status": status})

    sq = lambda V: np.sum(V * V, axis=-1)  # noqa: E731
    s_xy = _REL_FLOOR * (1.0 + np.abs(fx_) + np.abs(fy))
    s_x = _REL_FLOOR * (1.0 + np.abs(fx_))
    diff = Y - X
    inner_gx, dist2, gx_sq = np.sum(gx * diff, axis=1), sq(diff), sq(gx)
    add("unbiasedness", np.linalg.norm(Gx.mean(axis=1) - gx, axis=1),
        1e-12 * (1.0 + np.linalg.norm(gx, axis=1)))
    add("convexity", fy + np.sum(gy * (X - Y), axis=1) - fx_, s_xy)
    if smooth:
        add("smoothness_upper", fy - (fx_ + inner_gx + 0.5 * c.L * dist2), s_xy)
        for lam in (1.0 / (2.0 * c.L), 1.0 / c.L):
            f_step = np.array([p.value(x - lam * g) for x, g in zip(X, gx)])
            add(f"descent_identity_lam_{lam:.6g}",
                f_step - fx_ + lam * (1.0 - lam * c.L / 2.0) * gx_sq, s_x)
        add("inverse_pl", gx_sq / (2.0 * c.L) - (fx_ - gt.inf_f), s_x)
        add("variance_transfer_function", np.sum(Gx ** 2, axis=2).mean(axis=1)
            - (2.0 * c.L_max * (fx_ - gt.inf_f) + 2.0 * c.L_max * c.delta_star_f), s_x)
    if smooth and convex:
        gdiff = gx - gy
        add("cocoercivity", sq(gdiff) / c.L - np.sum(-gdiff * diff, axis=1), s_xy)
        add("expected_smoothness", np.sum((Gx - Gy) ** 2, axis=2).mean(axis=1)
            / (2.0 * c.L_max) - (fy - fx_ - inner_gx), s_xy)
        add("variance_transfer_gradient", np.sum(Gx ** 2, axis=2).mean(axis=1)
            - (4.0 * c.L_max * (fx_ - gt.inf_f) + 2.0 * c.sigma_star_f), s_x)
        var_x = np.sum((Gx - gx[:, None, :]) ** 2, axis=2).mean(axis=1)
        var_y = np.sum((Gy - gy[:, None, :]) ** 2, axis=2).mean(axis=1)
        bregman = fx_ - fy - np.sum(gy * (X - Y), axis=1)
        add("bregman_transfer", var_x - (4.0 * c.L_max * bregman + 2.0 * var_y), s_xy)
    if c.mu > 0:
        add("strong_convexity", fx_ + inner_gx + 0.5 * c.mu * dist2 - fy, s_xy)
        if smooth:
            add("strong_convexity_pl", (fx_ - gt.inf_f) - gx_sq / (2.0 * c.mu), s_x)
        mid = 0.5 * (X + Y)
        f_mid = np.array([p.value(m) for m in mid])
        h = lambda fv, P: fv - 0.5 * c.mu * np.sum(P * P, axis=1)  # noqa: E731
        add("convex_plus_norm", h(f_mid, mid) - 0.5 * (h(fx_, X) + h(fy, Y)), s_xy)
    if c.mu_pl > 0 and smooth:
        add("pl", (fx_ - gt.inf_f) - gx_sq / (2.0 * c.mu_pl), s_x)

    reg = fixture.regularizer
    if reg is not None:
        d = X.shape[1]
        scale = 5.0 if reg.kind != "ball_indicator" else reg.B * 2.0
        U = rng.normal(size=(samples, d)) * scale
        V = rng.normal(size=(samples, d)) * scale
        for gamma in (1.0, 0.7):
            PU = np.array([nonsmooth.prox(reg, gamma, u) for u in U])
            PV = np.array([nonsmooth.prox(reg, gamma, v) for v in V])
            dn, pn = np.linalg.norm(U - V, axis=1), np.linalg.norm(PU - PV, axis=1)
            add(f"prox_nonexpansive_gamma_{gamma:g}", pn - dn, 1e-12)
            add(f"prox_firm_gamma_{gamma:g}", pn**2 - np.sum((U - V) * (PU - PV), axis=1),
                1e-12 * (1.0 + dn**2))
        if reg.kind == "ball_indicator":
            A = _sample_ball(rng, samples, np.zeros(d), reg.B)
            B = _sample_ball(rng, samples, np.zeros(d), reg.B)
        else:
            A, B = U, V
        gA, gB = np.array([reg.value(a) for a in A]), np.array([reg.value(b) for b in B])
        subA = np.array([nonsmooth.subgradient(reg, a) for a in A])
        add("reg_subgradient_inequality", gA + np.sum(subA * (B - A), axis=1) - gB,
            _REL_FLOOR * (1.0 + np.abs(gA) + np.abs(gB)))
        cands = rng.normal(size=(1000, d)) * scale
        viol = []
        for x in U[:64]:
            pr = nonsmooth.prox(reg, 1.0, x)
            obj_c = [reg.value(u) + 0.5 / 1.0 * float((u - x) @ (u - x)) for u in cands]
            viol.append(reg.value(pr) + 0.5 / 1.0 * float((pr - x) @ (pr - x)) - min(obj_c))
        viol = np.array(viol)
        add("prox_optimality", viol, _REL_FLOOR * (1.0 + np.abs(viol)))

    comp = fixture.composite
    if comp is not None:
        bregman = (fx_ - p.value(comp.x_star_F)
                   - (X - comp.x_star_F) @ p.grad(comp.x_star_F))
        F_gap = np.array([comp.value(x) for x in X]) - comp.inf_F
        add("bregman_nonnegative", -bregman, s_x)
        add("bregman_bound", np.where(np.isfinite(F_gap), bregman - F_gap, -1.0), s_x)

    ok = all(ch["status"] in ("pass", "expected-fail") for ch in checks)
    return {"suite": "properties", "fixture": fixture.name, "samples": samples,
            "ok": ok, "checks": checks}


@pytest.mark.parametrize("name", CATALOGUE + ("ball_ls",))
def test_property_suite_equals_per_point_reference(name, tmp_path, monkeypatch):
    fx = _ball_fixture(tmp_path, monkeypatch) if name == "ball_ls" else fixture(name)
    report = property_suite(fx, samples=500)
    # == on the dicts compares every float exactly
    assert report == _ref_property_suite(fx, samples=500)


def test_property_suite_on_ball_indicator_fixture(tmp_path, monkeypatch):
    fx = _ball_fixture(tmp_path, monkeypatch)
    assert np.linalg.norm(fx.ground_truth.x_star) > fx.regularizer.B
    report = property_suite(fx, samples=2000)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    for needed in ("prox_firm_gamma_1", "reg_subgradient_inequality", "prox_optimality",
                   "bregman_bound"):
        assert statuses[needed] == "pass", needed
    assert report["ok"], report["checks"]


def _seeded_specs(seed=17):
    """Inline specs of each kind beyond the catalogue, for the oracle tests."""
    rng = np.random.default_rng(seed)
    abs_rows, abs_targets = rng.standard_normal((5, 2)).tolist(), rng.standard_normal(5).tolist()
    specs = {
        "inline_ls_7x3": {"kind": "least_squares", "features": rng.standard_normal((7, 3)).tolist(),
                          "targets": rng.standard_normal(7).tolist()},
        **{f"inline_abs_5x2_mu{mu}": {"kind": "abs_loss", "rows": abs_rows, "targets": abs_targets,
                                      "strong_mu": mu, "ball_B": 100.0} for mu in (0.0, 0.5)},
    }
    # sums over 8 or more terms or coordinates, which numpy adds pairwise
    specs["inline_abs_9x2"] = {"kind": "abs_loss", "rows": rng.standard_normal((9, 2)).tolist(),
                               "targets": rng.standard_normal(9).tolist(), "ball_B": 100.0}
    specs["inline_lasso_10x8"] = {"kind": "least_squares",
                                  "features": rng.standard_normal((10, 8)).tolist(),
                                  "targets": rng.standard_normal(10).tolist(),
                                  "regularizer": {"kind": "l1", "lambda": 0.1}}
    return specs


INLINE = _seeded_specs()


def _oracle_fixture(name):
    """A catalogue fixture, or an inline one with the composite ``fixture``
    would add to it."""
    if name not in INLINE:
        return fixture(name)
    fx = fixture_from_spec(name, INLINE[name])
    if fx.regularizer is None:
        return fx
    return replace(fx, composite=make_composite(fx.problem, fx.constants, fx.regularizer))


def _ref_gradient_variance(p, x):
    grads = np.array([p.grad_i(i, x) for i in range(p.n)])
    return float(np.sum((grads - grads.mean(axis=0)) ** 2) / p.n)


@pytest.mark.parametrize("name", CATALOGUE + tuple(INLINE))
def test_row_oracles_equal_single_point_oracles_bit_for_bit(name):
    p = _oracle_fixture(name).problem
    # enough points to meet the rare ones where a numpy kernel rounds differently
    # from the single-point one (1 in ~1000 for a vectorised square of sin t)
    X = RNG.normal(size=(20_000, p.d)) * RNG.choice([1e-3, 1.0, 10.0, 1e3], size=(20_000, 1))
    # and signed zeros, which a product accumulated onto +0.0 turns positive
    X[:4] = 0.0
    X[1] = X[2, 1::2] = X[3, ::2] = -0.0
    same = lambda a, b: a.shape == b.shape and a.tobytes() == b.tobytes()  # noqa: E731
    assert same(p.value_rows(X), np.array([p.value(x) for x in X]))
    assert same(p.full_grad_rows(X), np.array([p.grad(x) for x in X]))
    X = X[:2000]
    assert same(p.term_grad_rows(X),
                np.array([[p.grad_i(i, x) for i in range(p.n)] for x in X]))
    x = X[7]
    assert gradient_variance(p, x) == _ref_gradient_variance(p, x)
    if p.n <= 6:
        grads = np.array([p.grad_i(i, x) for i in range(p.n)])
        for b in range(1, p.n + 1):
            means = np.array([grads[list(B)].mean(axis=0) for B in combinations(range(p.n), b)])
            mean, var = enumerate_minibatch_oracle(p, b, x)
            assert mean.tobytes() == means.mean(axis=0).tobytes()
            assert var == float(np.sum((means - means.mean(axis=0)) ** 2) / len(means))


@pytest.mark.parametrize("name", CATALOGUE + tuple(INLINE)
                         + ("lasso_4x2-composite", "inline_lasso_10x8-composite"))
def test_value_rows_in_a_work_buffer_bit_for_bit(name):
    fx = _oracle_fixture(name.split("-")[0])
    p = fx.composite if name.endswith("-composite") else fx.problem
    n, d = fx.problem.n, fx.problem.d
    rng = np.random.default_rng(11)
    X = rng.normal(size=(3000, d)) * rng.choice([1e-3, 1.0, 10.0, 1e3], size=(3000, 1))
    want = np.array([p.value(x) for x in X]).tobytes()
    # the buffer is overwritten, whatever it held; one buffer serves calls of
    # any number of rows up to its length
    work = np.full((len(X), 1, n), np.nan)
    assert p.value_rows(X, work=work).tobytes() == want == p.value_rows(X).tobytes()
    assert p.value_rows(X[:77], work=work[:77]).tobytes() == want[:77 * 8]
    assert p.value_rows(X, work=work).tobytes() == want


@pytest.mark.parametrize("name", CATALOGUE + tuple(INLINE))
def test_value_grad_rows_equal_the_separate_oracles_bit_for_bit(name):
    fx = _oracle_fixture(name)
    p = fx.problem
    rng = np.random.default_rng(12)
    X = rng.normal(size=(3000, p.d)) * rng.choice([1e-3, 1.0, 10.0, 1e3], size=(3000, 1))
    # signed zeros, infinities and NaNs, whose residuals the loss derivative
    # must read before abs_loss's mean takes their absolute values in place
    special = [0.0, -0.0, np.inf, -np.inf, np.nan]
    X[:25] = np.array([[special[(i + j) % 5] if (i // 5 + j) % 2 else special[i % 5]
                        for j in range(p.d)] for i in range(25)])
    with np.errstate(all="ignore"):
        values, grads = p.value_grad_rows(X)
        assert values.tobytes() == p.value_rows(X).tobytes()
        assert grads.tobytes() == p.full_grad_rows(X).tobytes()
        if fx.composite is not None:
            comp = fx.composite
            assert comp.plus_reg_rows(values, X).tobytes() == comp.value_rows(X).tobytes()


@pytest.mark.parametrize("name", CATALOGUE + tuple(INLINE))
def test_property_suite_equals_plain_numpy_reductions(name, monkeypatch):
    # axis_sum replaced by the np.sum it stands for: the plain formulas are the
    # reference of the slice-by-slice sums of short axes
    from descentlab import harness, nonsmooth, problems
    fx = _oracle_fixture(name)
    fast = json.dumps(property_suite(fx, samples=10_000), sort_keys=True)
    for module in (harness, nonsmooth, problems):
        monkeypatch.setattr(module, "axis_sum", np.sum)
    assert json.dumps(property_suite(fx, samples=10_000), sort_keys=True) == fast


@pytest.mark.parametrize("name", CATALOGUE)
def test_fixture_noise_constants_equal_per_point_reference(name):
    fx = fixture(name)
    p, gt, c = fx.problem, fx.ground_truth, fx.constants
    if p.kind != "scalar_pl":
        assert c.sigma_star_f == _ref_gradient_variance(p, gt.x_star)
    if p.kind == "least_squares":
        assert c.delta_star_f == p.value(gt.x_star)
    elif p.kind == "abs_loss":
        assert c.delta_star_f == gt.inf_f - sum(gt.inf_f_i) / p.n
    if fx.composite is not None:
        assert fx.composite.sigma_star_F == _ref_gradient_variance(p, fx.composite.x_star_F)


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
    monkeypatch.setitem(hmod.EXPECTED_FAIL, "least_squares", {"convexity"})
    report = property_suite(fixture("ls_4x2"), samples=500)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["convexity"] == "unexpected-pass"
    assert not report["ok"]
