import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from descentlab import algorithms, prox
from descentlab import (
    DivergenceError,
    RunConfig,
    StepSchedule,
    averaged_iterate,
    build_abs_loss,
    build_least_squares,
    fixture,
    run_algorithm,
    write_traces_csv,
)


def _cfg(name="ls_4x2", schedule=None, T=100, **kw):
    fx = fixture(name)
    return fx, RunConfig(
        problem=fx.problem,
        ground_truth=fx.ground_truth,
        schedule=schedule or StepSchedule.constant(1.0 / fx.constants.L_max),
        iterations=T,
        **kw,
    )


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_constant_schedule():
    s = StepSchedule.constant(0.3)
    assert all(s.gamma_at(t) == 0.3 for t in range(20))


def test_inv_sqrt_schedule_exact():
    s = StepSchedule.inv_sqrt(0.5)
    for t in range(50):
        assert s.gamma_at(t) == 0.5 / math.sqrt(t + 1)


def test_momentum_pair_schedule():
    s = StepSchedule.momentum_pair(0.25)
    assert s.beta_at(0) == 0.0
    gammas = [s.gamma_at(t) for t in range(30)]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    # the moving-average coupling (1 + (t+1)/2) * gamma_t = eta holds exactly
    # in reals; allow a couple of ulps for the float evaluation
    for t in range(200):
        assert (1 + (t + 1) / 2) * s.gamma_at(t) == pytest.approx(0.25, abs=5e-16)


def test_schedule_without_beta_rejected():
    with pytest.raises(ValueError, match="beta"):
        StepSchedule.constant(0.1).beta_at(0)


def test_schedule_config_roundtrip():
    for spec, s in (({"kind": "constant", "gamma": 0.2}, StepSchedule.constant(0.2)),
                    ({"kind": "inv_sqrt", "gamma0": 0.7}, StepSchedule.inv_sqrt(0.7)),
                    ({"kind": "momentum_pair", "eta": 0.1}, StepSchedule.momentum_pair(0.1)),
                    ({"kind": "horizon_constant", "gamma": 0.05, "horizon": 300},
                     StepSchedule.horizon_constant(0.05, 300))):
        assert StepSchedule.from_config(spec) == s


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------

def test_gd_one_step_exact_on_isotropic_quadratic():
    p, gt, c = build_least_squares(np.eye(3), np.zeros(3))
    cfg = RunConfig(problem=p, ground_truth=gt, schedule=StepSchedule.constant(1.0 / c.L),
                    iterations=1, x0=np.array([4.0, -2.0, 1.0]))
    tr = run_algorithm(cfg, "gd")
    assert tr.dist_sq[1] == 0.0


def test_gd_trace_shape_and_gap_sign():
    fx, cfg = _cfg(T=30, schedule=StepSchedule.constant(1.0))
    tr = run_algorithm(cfg, "gd")
    assert len(tr.t) == 31
    assert tr.iterates.shape == (31, 2)
    assert np.all(tr.f_gap >= -1e-9 * (1 + np.abs(tr.f_gap)))


def test_gd_pl_linear_decay():
    fx, cfg = _cfg("scalar_pl", schedule=StepSchedule.constant(1 / 8),
                   T=100, x0=np.array([3.0]))
    tr = run_algorithm(cfg, "gd")
    envelope = (1 - (1 / 8) / 40) ** np.arange(101) * tr.f_gap[0]
    assert np.all(tr.f_gap <= envelope * (1 + 1e-9))


def test_gd_strongly_convex_contraction_per_step():
    fx, cfg = _cfg(T=200, schedule=StepSchedule.constant(1 / fixture("ls_4x2").constants.L),
                   x0=np.array([3.0, -2.0]))
    tr = run_algorithm(cfg, "gd")
    rate = 1 - (1 / fx.constants.L) * fx.constants.mu
    for t in range(200):
        assert tr.dist_sq[t + 1] <= rate * tr.dist_sq[t] + 1e-9 * (1 + tr.dist_sq[t])


def test_gd_distance_monotone():
    fx, cfg = _cfg(T=300, schedule=StepSchedule.constant(1 / fixture("ls_4x2").constants.L),
                   x0=np.array([5.0, 1.0]))
    tr = run_algorithm(cfg, "gd")
    assert np.all(np.diff(tr.dist_sq) <= 1e-12)


def test_gd_divergence_error_names_t():
    fx, cfg = _cfg(T=2000, schedule=StepSchedule.constant(1000.0), x0=np.array([1.0, 1.0]))
    with pytest.raises(DivergenceError, match=r"t=\d+") as err:
        run_algorithm(cfg, "gd")
    assert err.value.t > 0


def test_gd_rejects_varying_schedule():
    fx, cfg = _cfg(schedule=StepSchedule.inv_sqrt(0.1))
    with pytest.raises(ValueError, match="constant"):
        run_algorithm(cfg, "gd")


# ---------------------------------------------------------------------------
# sgd and minibatch
# ---------------------------------------------------------------------------

def test_sgd_single_term_equals_gd():
    fx, cfg = _cfg("scalar_pl", schedule=StepSchedule.constant(0.05), T=50,
                   x0=np.array([2.0]))
    assert np.array_equal(run_algorithm(cfg, "sgd").iterates, run_algorithm(cfg, "gd").iterates)


def test_sgd_seed_determinism():
    fx, cfg = _cfg(T=200, seed=42)
    a, b = run_algorithm(cfg, "sgd"), run_algorithm(cfg, "sgd")
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.f_gap, b.f_gap)
    c = run_algorithm(cfg, "sgd", trial=1)
    assert not np.array_equal(a.iterates, c.iterates)


def test_sgd_interpolation_converges():
    phi = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    p, gt, c = build_least_squares(phi, phi @ np.array([0.3, -0.2]))
    cfg = RunConfig(problem=p, ground_truth=gt,
                    schedule=StepSchedule.constant(0.9 / (2 * c.L_max)),
                    iterations=4000, x0=np.array([2.0, 2.0]), seed=3)
    tr = run_algorithm(cfg, "sgd")
    assert tr.f_gap[-1] <= 1e-8


def test_minibatch_full_batch_equals_gd():
    fx, cfg = _cfg(T=60, batch_size=4, x0=np.array([1.0, 2.0]))
    assert np.allclose(run_algorithm(cfg, "minibatch_sgd").iterates,
                       run_algorithm(cfg, "gd").iterates, atol=1e-14)


def test_minibatch_b1_replays_sgd_stream():
    fx, cfg = _cfg(T=200, batch_size=1, seed=9)
    assert np.array_equal(run_algorithm(cfg, "minibatch_sgd").iterates,
                          run_algorithm(cfg, "sgd").iterates)


def test_minibatch_rejects_bad_b():
    fx = fixture("ls_4x2")
    with pytest.raises(ValueError, match="out of range"):
        RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                  schedule=StepSchedule.constant(0.1), iterations=5, batch_size=9)


def test_minibatch_batches_are_distinct_indices():
    fx, cfg = _cfg("ls_6x2", T=400, batch_size=3, seed=5,
                   schedule=StepSchedule.constant(0.05))
    from descentlab.algorithms import _draw_batches
    rng = np.random.default_rng(5)
    batches = _draw_batches(rng, 400, 6, 3)
    for row in batches:
        assert len(set(row.tolist())) == 3
        assert all(0 <= i < 6 for i in row)


def test_minibatch_batch_frequencies_uniform():
    # every size-2 subset of {0..3} should appear with frequency ~ 1/6
    from descentlab.algorithms import _draw_batches
    rng = np.random.default_rng(0)
    batches = _draw_batches(rng, 30_000, 4, 2)
    counts = {}
    for row in batches:
        counts[frozenset(row.tolist())] = counts.get(frozenset(row.tolist()), 0) + 1
    assert len(counts) == 6
    freqs = np.array(list(counts.values())) / 30_000
    assert np.all(np.abs(freqs - 1 / 6) < 0.01)


# ---------------------------------------------------------------------------
# momentum
# ---------------------------------------------------------------------------

def test_momentum_zero_beta_equals_sgd():
    fx = fixture("ls_4x2")
    gammas = [0.1 / math.sqrt(t + 1) for t in range(80)]
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.explicit(gammas, [0.0] * 80),
                    iterations=80, seed=17)
    cfg_sgd = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                        schedule=StepSchedule.inv_sqrt(0.1), iterations=80, seed=17)
    assert np.allclose(run_algorithm(replace(cfg, momentum_form="buffer"), "momentum").iterates,
                       run_algorithm(cfg_sgd, "sgd").iterates, atol=1e-15)


@pytest.mark.parametrize("name", ["ls_4x2", "ls_6x2", "scalar_pl"])
def test_momentum_three_forms_coincide(name):
    fx = fixture(name)
    eta = 1.0 / (4 * fx.constants.L_max)
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.momentum_pair(eta), iterations=100, seed=23)
    runs = {form: run_algorithm(replace(cfg, momentum_form=form), "momentum")
            for form in ("buffer", "heavy_ball", "ima")}
    for a in runs.values():
        for b in runs.values():
            assert np.max(np.abs(a.iterates - b.iterates)) <= 1e-8


def test_momentum_requires_beta_schedule():
    fx, cfg = _cfg(schedule=StepSchedule.constant(0.1))
    with pytest.raises(ValueError, match="beta"):
        run_algorithm(replace(cfg, momentum_form="buffer"), "momentum")


def test_ima_requires_momentum_pair():
    fx = fixture("ls_4x2")
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.explicit([0.1] * 10, [0.5] * 10), iterations=10)
    with pytest.raises(ValueError, match="momentum_pair"):
        run_algorithm(replace(cfg, momentum_form="ima"), "momentum")


# ---------------------------------------------------------------------------
# subgradient methods
# ---------------------------------------------------------------------------

def test_subgradient_oscillates_on_abs():
    # hand simulation: from 0.5 with step 1, sign(+) sends to -0.5, sign(-) back
    p, gt, c = build_abs_loss(np.array([[1.0]]), np.array([0.0]), ball_B=1.0)
    cfg = RunConfig(problem=p, ground_truth=gt, schedule=StepSchedule.constant(1.0),
                    iterations=4, x0=np.array([0.5]))
    tr = run_algorithm(cfg, "ssd")
    assert np.allclose(tr.iterates.ravel(), [0.5, -0.5, 0.5, -0.5, 0.5])


def test_projected_iterates_stay_in_ball():
    fx = fixture("abs_2x1")
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.inv_sqrt(1.5), iterations=500,
                    projection_B=fx.constants.B, seed=1)
    tr = run_algorithm(cfg, "pssd")
    norms = np.linalg.norm(tr.iterates, axis=1)
    assert np.all(norms <= fx.constants.B + 1e-12)


def test_projected_requires_radius():
    fx = fixture("abs_2x1")
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.constant(0.1), iterations=5)
    with pytest.raises(ValueError, match="projection_B"):
        run_algorithm(cfg, "pssd")


def test_projected_rejects_infeasible_start():
    fx = fixture("abs_2x1")
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.constant(0.1), iterations=5,
                    projection_B=1.0, x0=np.array([5.0]))
    with pytest.raises(ValueError, match="inside"):
        run_algorithm(cfg, "pssd")


# ---------------------------------------------------------------------------
# proximal methods
# ---------------------------------------------------------------------------

def test_prox_gd_zero_reg_equals_gd():
    from descentlab import Regularizer, make_composite
    fx = fixture("ls_4x2")
    comp = make_composite(fx.problem, fx.constants, Regularizer.zero())
    gamma = 1.0 / fx.constants.L
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.constant(gamma), iterations=50,
                    composite=comp, x0=np.array([2.0, -1.0]))
    cfg_gd = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                       schedule=StepSchedule.constant(gamma), iterations=50,
                       x0=np.array([2.0, -1.0]))
    assert np.allclose(run_algorithm(cfg, "prox_gd").iterates,
                       run_algorithm(cfg_gd, "gd").iterates, atol=1e-15)


def test_prox_gd_ball_constrained_projection():
    # min 0.5||x - c||^2 over the unit ball converges to proj(c)
    from descentlab import Regularizer, make_composite
    c_point = np.array([3.0, 4.0])
    p, gt, c = build_least_squares(np.eye(2), c_point)
    comp = make_composite(p, c, Regularizer.ball_indicator(1.0))
    cfg = RunConfig(problem=p, ground_truth=gt, schedule=StepSchedule.constant(1.0 / c.L),
                    iterations=200, composite=comp, x0=np.zeros(2))
    tr = run_algorithm(cfg, "prox_gd")
    assert np.allclose(tr.iterates[-1], [0.6, 0.8], atol=1e-10)


def test_prox_gd_F_monotone():
    fx = fixture("lasso_4x2")
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.constant(1.0 / fx.constants.L),
                    iterations=300, composite=fx.composite, x0=np.array([4.0, -3.0]))
    tr = run_algorithm(cfg, "prox_gd")
    assert np.all(np.diff(tr.f_gap) <= 1e-12 * (1 + np.abs(tr.f_gap[:-1])))


def test_prox_sgd_zero_reg_equals_sgd():
    from descentlab import Regularizer, make_composite
    fx = fixture("ls_4x2")
    comp = make_composite(fx.problem, fx.constants, Regularizer.zero())
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.constant(0.2), iterations=120,
                    composite=comp, seed=6)
    cfg_sgd = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                        schedule=StepSchedule.constant(0.2), iterations=120, seed=6)
    assert np.allclose(run_algorithm(cfg, "prox_sgd").iterates,
                       run_algorithm(cfg_sgd, "sgd").iterates, atol=1e-15)


def test_prox_runs_need_composite():
    fx, cfg = _cfg()
    with pytest.raises(ValueError, match="composite"):
        run_algorithm(cfg, "prox_gd")


# ---------------------------------------------------------------------------
# averaging
# ---------------------------------------------------------------------------

def test_uniform_average_is_running_mean():
    fx, cfg = _cfg(T=10, x0=np.array([1.0, 0.0]))
    tr = run_algorithm(cfg, "gd")
    for t in (1, 5, 10):
        assert np.allclose(averaged_iterate(tr, "uniform", upto=t),
                           tr.iterates[:t].mean(axis=0))


def test_p_tk_constant_schedule_reduces_to_uniform():
    fx, cfg = _cfg(T=20, schedule=StepSchedule.constant(0.2), seed=2)
    tr = run_algorithm(cfg, "sgd")
    u = averaged_iterate(tr, "uniform")
    w = averaged_iterate(tr, ("p_tk", fx.constants.L_max))
    assert np.allclose(u, w, atol=1e-14)


def test_two_point_midpoint():
    fx, cfg = _cfg(T=2, schedule=StepSchedule.constant(0.3))
    tr = run_algorithm(cfg, "gd")
    assert np.allclose(averaged_iterate(tr, "uniform", upto=2),
                       0.5 * (tr.iterates[0] + tr.iterates[1]))


def test_p_tk_inv_sqrt_hand_computed():
    fx, cfg = _cfg(T=3, schedule=StepSchedule.inv_sqrt(0.1), seed=4)
    tr = run_algorithm(cfg, "sgd")
    L = fx.constants.L_max
    g = [0.1 / math.sqrt(k + 1) for k in range(3)]
    w = np.array([gk * (1 - 2 * gk * L) for gk in g])
    want = (w[:, None] * tr.iterates[:3]).sum(axis=0) / w.sum()
    assert np.allclose(averaged_iterate(tr, ("p_tk", L), upto=3), want, atol=1e-15)


def test_p_tk_rejects_nonpositive_weights():
    fx, cfg = _cfg(T=5, schedule=StepSchedule.constant(0.5))  # 0.5 >= 1/(2*2)
    tr = run_algorithm(cfg, "sgd")
    with pytest.raises(ValueError, match="k=0"):
        averaged_iterate(tr, ("p_tk", fx.constants.L_max))


def test_gamma_weighted_average():
    fx, cfg = _cfg(T=4, schedule=StepSchedule.inv_sqrt(0.2), seed=8)
    tr = run_algorithm(cfg, "sgd")
    g = tr.gamma[:4]
    want = (g[:, None] * tr.iterates[:4]).sum(axis=0) / g.sum()
    assert np.allclose(averaged_iterate(tr, "gamma_weighted", upto=4), want)


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

def test_csv_format(tmp_path):
    fx, cfg = _cfg(T=5)
    tr = run_algorithm(cfg, "sgd")
    path = tmp_path / "trace.csv"
    write_traces_csv([tr], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,t,gamma_t,f_gap,dist_sq"
    assert len(lines) == 1 + 6
    # 17 significant digits round-trip
    val = float(lines[1].split(",")[3])
    assert val == tr.f_gap[0]


def test_csv_byte_identical_reruns(tmp_path):
    fx, cfg = _cfg(T=50, seed=13)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_traces_csv([run_algorithm(cfg, "sgd")], a)
    write_traces_csv([run_algorithm(cfg, "sgd")], b)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# the lockstep core against the per-trial loops it replaced
# ---------------------------------------------------------------------------

from descentlab import Regularizer, make_composite  # noqa: E402
from descentlab.algorithms import run_lockstep  # noqa: E402
from descentlab.harness import estimate  # noqa: E402

# room for a reordered reduction at unit scale, as in perfbench/checks.py
REPLAY_TOL = 64 * np.finfo(np.float64).eps


def _ref_batches(rng, T, n, b):
    u = rng.random((T, b))
    out = np.empty((T, b), dtype=np.int64)
    for t in range(T):
        perm = np.arange(n, dtype=np.int64)
        for j in range(b):
            k = min(j + int(u[t, j] * (n - j)), n - 1)
            perm[j], perm[k] = perm[k], perm[j]
        out[t] = perm[:b]
    return out


def _ref_prox(reg, gamma, x):
    if reg.kind != "ball_indicator":
        return prox(reg, gamma, x)
    nx = float(np.linalg.norm(x))
    return x.copy() if nx <= reg.B else x * (reg.B / nx)


def _ref_run(cfg, algorithm, trial=0, form=None):
    """One trial as the per-trial loops computed it: (iterates, f_gap, dist_sq,
    first diverged t or None)."""
    s, T = cfg.schedule, cfg.iterations
    form = form or cfg.momentum_form
    if algorithm.startswith("prox"):
        p, reg = cfg.composite.smooth, cfg.composite.reg
        obj, inf_val, x_ref = cfg.composite.value, cfg.composite.inf_F, cfg.composite.x_star_F
    else:
        p, reg = cfg.problem, None
        obj, inf_val, x_ref = p.value, cfg.ground_truth.inf_f, cfg.ground_truth.x_star
    if algorithm == "pssd":
        reg = Regularizer.ball_indicator(cfg.projection_B)
    rng = np.random.default_rng(cfg.seed + trial)
    b = cfg.batch_size if algorithm == "minibatch_sgd" else 1
    if b > 1:
        batches = _ref_batches(rng, T, p.n, b)
    else:
        batches = np.minimum((rng.random(T) * p.n).astype(np.int64), p.n - 1)[:, None]
    x = cfg.start_point()
    xs, m, x_prev, z = [x], np.zeros_like(x), x.copy(), x.copy()
    with np.errstate(all="ignore"):
        for t in range(T):
            g = s.gamma_at(t)
            if algorithm in ("gd", "prox_gd"):
                G = p.grad(x)
            else:
                G = p.grad_i(int(batches[t, 0]), x)
                for j in batches[t, 1:]:
                    G = G + p.grad_i(int(j), x)
            if algorithm != "momentum":
                x = x - (g / b if b > 1 else g) * G
                x = x if reg is None else _ref_prox(reg, g, x)
            elif form == "buffer":
                m = s.beta_at(t) * m + G
                x = x - g * m
            elif form == "heavy_ball":
                bhat = 0.0 if t == 0 else g * s.beta_at(t) / s.gamma_at(t - 1)
                x, x_prev = x - g * G + bhat * (x - x_prev), x
            else:
                lam = (t + 1) / 2.0
                z = z - (1.0 + lam) * g * G
                x = (lam * x + z) / (lam + 1.0)
            xs.append(x)
        xs = np.array(xs)
        f_gap = np.array([obj(v) - inf_val for v in xs])
        dist_sq = np.array([float((v - x_ref) @ (v - x_ref)) for v in xs])
        bad = ~np.isfinite(f_gap) | (f_gap > 1e12 * (1.0 + abs(f_gap[0])))
    return xs, f_gap, dist_sq, (int(np.argmax(bad)) if bad.any() else None)


def _close(a, b):
    return np.all(np.abs(a - b) <= REPLAY_TOL * (1.0 + np.abs(b)))


def _catalogue_runs():
    """(id, cfg, algorithm, form) for every method on every catalogue fixture it suits."""
    cases = []
    for name in ("ls_4x2", "ls_6x2", "scalar_pl", "abs_2x1", "abs_2x1_reg", "lasso_4x2"):
        fx = fixture(name)
        c = fx.constants
        smooth = math.isfinite(c.L)
        x0 = fx.problem.default_x0 + 1.5
        base = dict(problem=fx.problem, ground_truth=fx.ground_truth, iterations=60,
                    seed=31, x0=x0)
        step = StepSchedule.constant(0.9 / (2 * c.L_max) if smooth else 0.3)
        # a ball small enough that the projection acts, around a feasible start
        comp = fx.composite or (make_composite(fx.problem, c, Regularizer.ball_indicator(0.4))
                                if smooth else None)
        if smooth:
            cases.append((f"{name}-gd", RunConfig(schedule=StepSchedule.constant(1 / c.L), **base),
                          "gd", None))
            for form in ("buffer", "heavy_ball", "ima"):
                cases.append((f"{name}-momentum_{form}", RunConfig(
                    schedule=StepSchedule.momentum_pair(1 / (4 * c.L_max)), **base),
                    "momentum", form))
            for alg in ("prox_gd", "prox_sgd"):
                cases.append((f"{name}-{alg}", RunConfig(
                    schedule=StepSchedule.constant(1 / c.L) if alg == "prox_gd" else step,
                    composite=comp, **dict(base, x0=x0 if fx.composite else 0.2 + 0 * x0)),
                    alg, None))
        else:
            for alg in ("ssd", "pssd"):
                cases.append((f"{name}-{alg}", RunConfig(
                    schedule=StepSchedule.inv_sqrt(0.5), projection_B=c.B, **base), alg, None))
        cases.append((f"{name}-sgd", RunConfig(schedule=step, **base), "sgd", None))
        for b in range(1, fx.problem.n + 1):
            cases.append((f"{name}-minibatch_b{b}", RunConfig(schedule=step, batch_size=b, **base),
                          "minibatch_sgd", None))
    return cases


_CASES = _catalogue_runs()


@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_lockstep_replays_reference_loop(case):
    _, cfg, alg, form = case
    for trial in (0, 3):
        xs, f_gap, dist_sq, _ = _ref_run(cfg, alg, trial, form)
        tr = (run_algorithm(replace(cfg, momentum_form=form), "momentum", trial=trial) if form
              else run_algorithm(cfg, alg, trial=trial))
        assert np.array_equal(tr.iterates, xs)
        assert _close(tr.f_gap, f_gap) and _close(tr.dist_sq, dist_sq)
        assert np.array_equal(tr.gamma, [cfg.schedule.gamma_at(t) for t in range(61)])


@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_lockstep_averages_match_averaged_iterate(case):
    _, cfg, alg, form = case
    checkpoints = [1, 7, 60]
    objective, inf_val = cfg.problem.value, cfg.ground_truth.inf_f
    for weighting in ("uniform", "gamma_weighted"):
        run = run_lockstep(replace(cfg, algorithm=alg, momentum_form=form or cfg.momentum_form),
                           range(3), at=checkpoints,
                           averaging=(weighting, cfg.problem.value_rows, inf_val))
        for m, row in enumerate(run.averaged):
            tr = (run_algorithm(replace(cfg, momentum_form=form), "momentum", trial=m) if form
                  else run_algorithm(cfg, alg, trial=m))
            want = [objective(averaged_iterate(tr, weighting, upto=cp)) - inf_val
                    for cp in checkpoints]
            assert _close(row, np.array(want))


@pytest.mark.parametrize("alg,extra", [("sgd", {}), ("minibatch_sgd", {"batch_size": 2}),
                                       ("momentum", {}), ("prox_sgd", {})])
def test_trial_independent_of_M(alg, extra):
    fx = fixture("lasso_4x2")
    sched = (StepSchedule.momentum_pair(0.1) if alg == "momentum"
             else StepSchedule.constant(0.2))
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth, schedule=sched,
                    iterations=40, seed=5, composite=fx.composite, x0=np.array([2.0, -1.0]),
                    **extra)
    cfg = replace(cfg, algorithm=alg)
    batched = [run_lockstep(cfg, range(M), keep_iterates=True) for M in (7, 1000)]
    for m in (0, 1, 6, 999):
        alone = run_lockstep(cfg, [m], keep_iterates=True)
        for run in batched[m >= 7:]:
            for key in ("iterates", "f_gap", "dist_sq"):
                assert np.array_equal(getattr(run, key)[m], getattr(alone, key)[0])


def test_draw_batches_matches_sequential_fisher_yates():
    for n, b in ((4, 2), (6, 3), (9, 9), (5, 1)):
        assert np.array_equal(algorithms._draw_batches(np.random.default_rng(n), 300, n, b),
                              _ref_batches(np.random.default_rng(n), 300, n, b))


def test_estimate_names_exactly_the_diverged_trials():
    # gamma * ||phi_i||^2 = 2.9 on two of the four terms: some sample streams
    # blow up within T = 700 steps (on both sides of a 512-step block), others not
    fx = fixture("ls_4x2")
    cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth,
                    schedule=StepSchedule.constant(1.45), iterations=700, trials=12,
                    x0=np.array([2.0, 0.0]), algorithm="sgd")
    want = [(m, _ref_run(cfg, "sgd", m)[3]) for m in range(12)]
    want = [(m, t) for m, t in want if t is not None]
    assert 0 < len(want) < 12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            estimate(cfg, "f_gap", [700])
    named = [(int(m), int(t)) for m, t in re.findall(r"trial (\d+) \(t=(\d+)\)", str(err.value))]
    assert named == want
    assert err.value.t == min(t for _, t in want)
