import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from descentlab.algorithms import FULL_GRADIENT, PROXIMAL
from descentlab.nonsmooth import SpecError


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


@pytest.mark.parametrize("s", [StepSchedule.constant(0.3), StepSchedule.inv_sqrt(0.7),
                               StepSchedule.momentum_pair(1 / 24)])
def test_gammas_equal_gamma_at_bit_for_bit(s):
    want = np.array([s.gamma_at(t) for t in range(5000)])
    assert s.gammas(5000).tobytes() == want.tobytes()
    assert s.gammas(0).shape == (0,)


def test_schedule_without_beta_rejected():
    with pytest.raises(ValueError, match="beta"):
        StepSchedule.constant(0.1).beta_at(0)


def test_schedule_config_roundtrip():
    for spec, s in (({"kind": "constant", "gamma": 0.2}, StepSchedule.constant(0.2)),
                    ({"kind": "inv_sqrt", "gamma0": 0.7}, StepSchedule.inv_sqrt(0.7)),
                    ({"kind": "momentum_pair", "eta": 0.1}, StepSchedule.momentum_pair(0.1))):
        assert StepSchedule.from_config(spec) == s
    with pytest.raises(ValueError, match="unknown schedule kind 'horizon_constant'"):
        StepSchedule.from_config({"kind": "horizon_constant", "gamma": 0.05, "horizon": 300})


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
    batches = algorithms._draw_window([np.random.default_rng(5)], 400, 6, 3)[:, :, 0]
    for row in batches:
        assert len(set(row.tolist())) == 3
        assert all(0 <= i < 6 for i in row)


def test_minibatch_batch_frequencies_uniform():
    # every size-2 subset of {0..3} should appear with frequency ~ 1/6
    batches = algorithms._draw_window([np.random.default_rng(0)], 30_000, 4, 2)[:, :, 0]
    counts = {}
    for row in batches:
        counts[frozenset(row.tolist())] = counts.get(frozenset(row.tolist()), 0) + 1
    assert len(counts) == 6
    freqs = np.array(list(counts.values())) / 30_000
    assert np.all(np.abs(freqs - 1 / 6) < 0.01)


# ---------------------------------------------------------------------------
# momentum
# ---------------------------------------------------------------------------

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

def _sgd_run(trials=range(1), T=5, seed=0, schedule=None):
    _, cfg = _cfg(T=T, seed=seed, schedule=schedule)
    return algorithms.run_lockstep(replace(cfg, algorithm="sgd"), trials)


def test_csv_format(tmp_path):
    run = _sgd_run()
    path = tmp_path / "trace.csv"
    write_traces_csv(run, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,t,gamma_t,f_gap,dist_sq"
    assert len(lines) == 1 + 6
    # 17 significant digits round-trip
    val = float(lines[1].split(",")[3])
    assert val == run.f_gap[0, 0]


def test_csv_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_traces_csv(_sgd_run(T=50, seed=13), a)
    write_traces_csv(_sgd_run(T=50, seed=13), b)
    assert a.read_bytes() == b.read_bytes()


def _row_csv(run, header=True) -> bytes:
    """The plain per-row writer that write_traces_csv must match byte for byte."""
    out = ["trial,t,gamma_t,f_gap,dist_sq\n"] if header else []
    for m, f_gap, dist_sq in zip(run.trials, run.f_gap, run.dist_sq):
        for t, (g, f, d) in enumerate(zip(run.gamma, f_gap, dist_sq)):
            out.append(f"{m},{t},{g:.17g},{f:.17g},{d:.17g}\n")
    return "".join(out).encode()


def _sgd_inv_sqrt_run(trials):
    return _sgd_run(trials, T=40, seed=3, schedule=StepSchedule.inv_sqrt(0.3))


def _assert_csv_matches_rows(tmp_path, run, header=True):
    path = tmp_path / "trace.csv"
    write_traces_csv(run, path, header=header)
    assert path.read_bytes() == _row_csv(run, header)


def test_csv_matches_row_writer_inv_sqrt_many_trials(tmp_path):
    run = _sgd_inv_sqrt_run(range(13))
    assert len(set(run.gamma.tolist())) == len(run.gamma)  # gamma varies with t
    _assert_csv_matches_rows(tmp_path, run)
    # more rows than one formatted block holds: a trial spans the two blocks,
    # the second is partial, and trial numbers pass 9 and 99 within a block
    run = _sgd_inv_sqrt_run(range(140))
    assert 1 < run.f_gap.size / (algorithms._FORMAT_VALUES // 3) < 2
    _assert_csv_matches_rows(tmp_path, run)


def test_csv_matches_row_writer_on_unpickled_chunks(tmp_path):
    import pickle

    # as two --jobs processes write them: each chunk its own run, the first
    # behind the header, the parts concatenated in chunk order
    chunks = [pickle.loads(pickle.dumps(_sgd_inv_sqrt_run(range(lo, hi))))
              for lo, hi in ((0, 7), (7, 12))]
    parts = [tmp_path / "part0.csv", tmp_path / "part1.csv"]
    for i, (chunk, part) in enumerate(zip(chunks, parts)):
        write_traces_csv(chunk, part, header=i == 0)
    assert b"".join(p.read_bytes() for p in parts) == _row_csv(_sgd_inv_sqrt_run(range(12)))
    assert parts[1].read_bytes() == _row_csv(chunks[1], header=False)


def test_csv_matches_row_writer_on_special_values(tmp_path):
    special = algorithms.Lockstep(
        trials=np.array([10]), t=np.arange(4),
        gamma=np.array([0.1, 1e-300, 2.0, 3.0]), f_gap=np.array([[-0.0, np.nan, np.inf, -np.inf]]),
        dist_sq=np.array([[1e308, 5e-324, 0.1 + 0.2, 1.0]]))
    _assert_csv_matches_rows(tmp_path, special)
    # prox_gd on lasso_4x2 ends at gaps of +-2.8e-17 and 0; gd on ls_4x2 at
    # gamma = 1/L reaches gap 0 after one step
    lasso, ls = fixture("lasso_4x2"), fixture("ls_4x2")
    prox_run = algorithms.run_lockstep(RunConfig.for_fixture(
        lasso, "prox_gd", StepSchedule.constant(1.0 / lasso.constants.L), 60, x0=[4.0, -3.0]), [0])
    gd_run = algorithms.run_lockstep(RunConfig.for_fixture(
        ls, "gd", StepSchedule.constant(1.0 / ls.constants.L), 20), range(3))
    assert (prox_run.f_gap < 0).any() and (gd_run.f_gap[:, 1:] == 0).all()
    _assert_csv_matches_rows(tmp_path, prox_run)
    _assert_csv_matches_rows(tmp_path, gd_run, header=False)


def _g17_texts(x):
    """The text the trace writer's formatter gives each value of x."""
    return [bytes(col).translate(None, b"\0")
            for col in algorithms._g17_slots(np.asarray(x, dtype=float)).T]


# any 64-bit pattern (subnormals, +-0, +-inf and NaN included, but mostly
# outside the exact path's range) or one whose exponent puts |x| in
# [2^-20, 2^57), about the exact path's range
_BITS = st.integers(0, 2 ** 64 - 1) | st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1), st.integers(1003, 1080), st.integers(0, 2 ** 52 - 1))


@settings(max_examples=500, deadline=None)
@given(st.lists(_BITS, min_size=1, max_size=40))
def test_formatter_matches_percent_g17_on_any_bits(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _g17_texts(x) == [b"%.17g" % v for v in x.tolist()]


def _format_edges():
    tens = [float(f"1e{k}") for k in range(-40, 19)]
    out = [0.0, 5e-324, 2.2250738585072014e-308, math.inf, math.nan]
    for p in tens + [9.99995e-5, 9.999995e-6, 1e17 - 16.0]:
        out += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    # literals that round up to a power of ten at 17 digits; no double does,
    # and these parse to doubles next to the power
    out += [0.099999999999999999, 9.9999999999999998e16, 9.99999999999999999e-6]
    out += [2.0 ** -n for n in range(1, 80)]
    out += [2.0 ** 53 + k for k in (2, 4, 6, 10)] + [2.0 ** 60, 2.0 ** 63 + 2 ** 11]
    # exact ties: for odd m, x = m 2^-(s+1) gives x 10^s = m 5^s / 2, a
    # half-integer; m is taken where x 10^s has 17 integer digits
    for s in range(1, 23):
        m = math.ceil(10.0 ** (16 - s) * 2.0 ** (s + 1)) | 1
        out += [math.ldexp(m + k, -(s + 1)) for k in (0, 2, 4, 6)]
    return out + [-v for v in out]


def test_formatter_matches_percent_g17_on_edges():
    x = _format_edges()
    assert _g17_texts(x) == [b"%.17g" % v for v in x]


@pytest.mark.parametrize("off", [-1.0, 1.0])
def test_formatter_falls_back_when_log10_is_off(off, monkeypatch):
    # an exponent estimate off by one leaves the exact product outside
    # [1e16, 1e17), so every value takes the per-value reference
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + off)
    x = _format_edges()
    assert _g17_texts(x) == [b"%.17g" % v for v in x]


def test_traces_need_every_step_recorded(tmp_path):
    _, cfg = _cfg(T=10)
    run = algorithms.run_lockstep(replace(cfg, algorithm="sgd"), range(2), at=[5, 10])
    with pytest.raises(ValueError, match="recorded 2 of 11"):
        write_traces_csv(run, tmp_path / "trace.csv")
    assert not (tmp_path / "trace.csv").exists()


# ---------------------------------------------------------------------------
# the lockstep core against the per-trial loops it replaced
# ---------------------------------------------------------------------------

from hypothesis.extra import numpy as hnp  # noqa: E402

from descentlab import Regularizer, build_least_squares, make_composite  # noqa: E402
from descentlab import fixture_names, minibatch_constants  # noqa: E402
from descentlab.algorithms import run_lockstep  # noqa: E402
from descentlab.harness import estimate  # noqa: E402
from descentlab.problems import CompositeProblem, FiniteSumProblem  # noqa: E402
from descentlab.theory import SETTINGS  # noqa: E402

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


def _long_runs():
    """Catalogue runs long enough that a one-trial run crosses two block edges.
    Most full-gradient runs replay their last-bit cycle across those edges (a
    2-cycle at gamma = 1/L, a fixed point at 0.5/L); on the isotropic ls_4x2
    (L = mu), gd at 2/L reflects, x_{t+1} - x* = -(x_t - x*), which from (2, 0)
    closes into a 4-cycle of the last bit from t = 2."""
    T = 1100
    cases = [c for c in _CASES if c[0] in ("ls_4x2-sgd", "abs_2x1-pssd", "lasso_4x2-prox_sgd",
                                           "ls_4x2-momentum_buffer", "ls_4x2-momentum_heavy_ball",
                                           "ls_4x2-momentum_ima")]
    for name, cfg, alg, form in _CASES:
        if name.split("-")[0] in ("ls_4x2", "lasso_4x2", "scalar_pl") and alg in FULL_GRADIENT:
            L = fixture(name.split("-")[0]).constants.L
            cases += [(f"{name}-{g}L", replace(cfg, schedule=StepSchedule.constant(g / L)), alg,
                       form) for g in (1.0, 0.5)]
            if name == "ls_4x2-gd":
                cases.append((f"{name}-2.0L", replace(cfg, schedule=StepSchedule.constant(2 / L),
                                                      x0=np.array([2.0, 0.0])), alg, form))
    for _, cfg, _, _ in cases:
        assert T >= 2 * algorithms._block_steps(1, cfg.problem.n, cfg.problem.d)
    return [(f"{name}-T{T}", replace(cfg, iterations=T), alg, form)
            for name, cfg, alg, form in cases]


_LONG_CASES = _long_runs()


@pytest.mark.parametrize("case", _CASES + _LONG_CASES, ids=[c[0] for c in _CASES + _LONG_CASES])
def test_lockstep_replays_reference_loop(case):
    _, cfg, alg, form = case
    trials = (0, 3, 7)
    refs = {trial: _ref_run(cfg, alg, trial, form) for trial in trials}
    for trial in (0, 3):
        xs, f_gap, dist_sq, _ = refs[trial]
        tr = (run_algorithm(replace(cfg, momentum_form=form), "momentum", trial=trial) if form
              else run_algorithm(cfg, alg, trial=trial))
        assert np.array_equal(tr.iterates, xs)
        assert _close(tr.f_gap, f_gap) and _close(tr.dist_sq, dist_sq)
        assert np.array_equal(tr.gamma, [cfg.schedule.gamma_at(t)
                                         for t in range(cfg.iterations + 1)])
    # three rows step together, so each step's in-place kernels write several
    # rows of the block buffer, and the long cases carry the block's last
    # iterate, the momentum state and a replayed cycle across two block edges
    run = run_lockstep(replace(cfg, algorithm=alg, momentum_form=form or cfg.momentum_form),
                       trials, keep_iterates=True)
    for iterates, trial in zip(run.iterates, trials):
        assert np.array_equal(iterates, refs[trial][0]), trial


def test_full_gradient_divergence_at_reference_t():
    # at 3/L on the isotropic ls_4x2, x_t - x* = (-2)^t (x_0 - x*): no state repeats
    # until it overflows, and the run diverges where the reference loop does
    fx, cfg = _cfg(T=1100, schedule=StepSchedule.constant(3.0 / fixture("ls_4x2").constants.L))
    want = _ref_run(cfg, "gd")[3]
    with pytest.raises(DivergenceError) as err:
        run_algorithm(cfg, "gd")
    assert want is not None and err.value.failures == [(0, want)]


def _toy_step(kind, k):
    """A fixed map of a (1, k) state with a known period, which writes the
    next state into ``out``, and its start."""
    if kind == "roll":  # k distinct values rotate: period k
        return ((lambda t, X, out, rows: np.copyto(out, np.roll(X, 1, axis=1))),
                np.arange(k, dtype=float)[None])
    if kind == "negate":  # 0.0, -0.0, 0.0, ...: period 2 in bits, 1 in values
        return (lambda t, X, out, rows: np.negative(X, out=out)), np.zeros((1, k))
    if kind == "nan":  # NaN + 1 keeps its bits: a fixed point that == never finds
        return (lambda t, X, out, rows: np.add(X, 1.0, out=out)), np.full((1, k), np.nan)
    return (lambda t, X, out, rows: np.add(X, 1.0, out=out)), np.zeros((1, k))  # never repeats


@pytest.mark.parametrize("kind,k,period", [("roll", 1, 1), ("roll", 2, 2), ("roll", 3, 3),
                                           ("roll", 5, 5), ("negate", 3, 2), ("nan", 2, 1),
                                           ("count", 2, None)])
def test_replay_equals_stepping(kind, k, period):
    step, X0 = _toy_step(kind, k)
    calls = []

    def counted(t, X, out, rows):
        calls.append(t)
        step(t, X, out, rows)

    # the states go round a 3-row buffer, as they go through run_lockstep's
    # block buffer, so a kept cycle state must not be a view into it
    replay, xs, Y = algorithms._replaying(counted, X0), np.empty((3,) + X0.shape), X0
    xs[0] = X0
    for t in range(300):
        replay(t, xs[t % 3], xs[(t + 1) % 3], None)
        Y = Y.copy()  # stepping, each state in a fresh array
        step(t, Y, Y, None)
        assert xs[(t + 1) % 3].tobytes() == Y.tobytes(), t
    # from x_0 on the cycle, Brent's search saves x_s, s = 2^j - 1 < 2p, finds
    # x_{s+p} = x_s and steps p - 1 more times to keep the cycle
    assert len(calls) == (300 if period is None else 2 ** math.ceil(math.log2(period)) - 1
                          + 2 * period - 1)


def test_replay_steps_through_a_cycle_too_long_to_keep(monkeypatch):
    monkeypatch.setattr(algorithms, "_BLOCK_VALUES", 24)
    step, X0 = _toy_step("roll", 5)  # 5 states of 5 values: 25 > 24
    calls = []
    replay = algorithms._replaying(
        lambda t, X, out, rows: calls.append(t) or step(t, X, out, rows), X0)
    xs = np.empty((2,) + X0.shape)
    xs[0] = X0
    for t in range(40):
        replay(t, xs[t % 2], xs[(t + 1) % 2], None)
        assert np.array_equal(xs[(t + 1) % 2][0], np.roll(X0[0], t + 1))
    assert len(calls) == 40
    replay = algorithms._replaying(
        lambda t, X, out, rows: calls.append(t) or step(t, X, out, rows), X0)
    xs = np.empty((41,) + X0.shape)
    xs[0] = X0
    replay.block(0, 40, xs)  # one block, stepped through
    for t in range(41):
        assert np.array_equal(xs[t][0], np.roll(X0[0], t))
    assert len(calls) == 80


@pytest.mark.parametrize("kind,k,period", [("roll", 1, 1), ("roll", 3, 3), ("roll", 5, 5),
                                           ("negate", 3, 2), ("nan", 2, 1), ("count", 2, None)])
def test_block_replay_equals_stepping_across_blocks(kind, k, period):
    # blocks of 7 steps, as run_lockstep's gap blocks: the block that keeps the
    # cycle gathers the rest of its steps, and later blocks gather all of theirs
    step, X0 = _toy_step(kind, k)
    calls = []
    replay = algorithms._replaying(
        lambda t, X, out, rows: calls.append(t) or step(t, X, out, rows), X0)
    xs, Y = np.empty((8,) + X0.shape), X0
    xs[0] = X0
    for t0 in range(0, 300, 7):
        t1 = min(t0 + 7, 300)
        replay.block(t0, t1, xs)
        for t in range(t0, t1):
            Y = Y.copy()
            step(t, Y, Y, None)
            assert xs[t + 1 - t0].tobytes() == Y.tobytes(), t
        xs[0] = xs[t1 - t0]
    assert len(calls) == (300 if period is None else 2 ** math.ceil(math.log2(period)) - 1
                          + 2 * period - 1)


def _stepping(step, X0):
    """A replayer that replays nothing: its block calls ``step`` at every t."""
    def replay(t, X, out, rows):
        step(t, X, out, rows)

    def block(t0, t1, xs):
        for t in range(t0, t1):
            replay(t, xs[t - t0], xs[t + 1 - t0], None)

    replay.block = block
    return replay


def _brent(states):
    """(s, p) where Brent's search over the states' bytes first matches: the
    saved state's index s and the period p."""
    saved, s, span = states[0], 0, 1
    for t in range(len(states) - 1):
        if states[t + 1] == saved:
            return s, t + 1 - s
        if t + 1 - s == span:
            saved, s, span = states[t + 1], t + 1, 2 * span
    return None


# cycles of periods 2, 1, 4 and 2, kept before the first block edge (t = 512)
@pytest.mark.parametrize("M", [1, 3])
@pytest.mark.parametrize("alg,name,scale,x0,period", [
    ("gd", "ls_4x2", 1.0, [4.0, -3.0], 2), ("gd", "ls_4x2", 0.5, [4.0, -3.0], 1),
    ("gd", "ls_4x2", 2.0, [-3.0, 1.0], 4), ("prox_gd", "lasso_4x2", 1.0, [4.0, -3.0], 2)],
    ids=["gd-1/L", "gd-0.5/L", "gd-2/L", "prox_gd-1/L"])
def test_block_replay_equals_stepping(monkeypatch, alg, name, scale, x0, period, M):
    fx = fixture(name)
    cfg = RunConfig.for_fixture(fx, alg, StepSchedule.constant(scale / fx.constants.L), 2000,
                                trials=M, x0=x0)
    assert 2 * algorithms._block_steps(1, fx.problem.n, fx.problem.d) < 2000  # two block edges
    replaying, calls = algorithms._replaying, []
    monkeypatch.setattr(algorithms, "_replaying", lambda step, X0: replaying(
        lambda t, X, out, rows: calls.append(t) or step(t, X, out, rows), X0))
    run = run_lockstep(cfg, range(M), keep_iterates=True)
    monkeypatch.setattr(algorithms, "_replaying", _stepping)
    want = run_lockstep(cfg, range(M), keep_iterates=True)
    for key in ("iterates", "f_gap", "dist_sq"):
        assert getattr(run, key).tobytes() == getattr(want, key).tobytes(), key
    s, p = _brent([x.tobytes() for x in want.iterates[0]])
    assert p == period
    # the search's s + p steps and p - 1 more to keep the cycle; none after it
    assert len(calls) <= s + 2 * p


def test_full_gradient_run_stops_calling_the_oracle(monkeypatch):
    # gd_convex's run (ls_4x2 at 1/L) is in a 2-cycle of the last bit from t = 2
    fx, cfg = _cfg(T=1000, x0=np.array([3.0, -1.0]),
                   schedule=StepSchedule.constant(1 / fixture("ls_4x2").constants.L))
    calls, full_grad_rows = [], fx.problem.full_grad_rows
    monkeypatch.setattr(type(fx.problem), "full_grad_rows",
                        lambda p, X: calls.append(1) or full_grad_rows(X))
    tr = run_algorithm(cfg, "gd")
    assert np.array_equal(tr.iterates, _ref_run(cfg, "gd")[0])
    assert len(calls) < 10


@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_lockstep_averages_match_averaged_iterate(case, monkeypatch):
    # gap blocks of 16 steps: the running sum crosses block edges, and
    # checkpoints sit on both sides of them
    monkeypatch.setattr(algorithms, "_BLOCK", 16)
    _, cfg, alg, form = case
    checkpoints = [1, 7, 15, 16, 17, 31, 33, 48, 60]
    # the averages are of the method's own objective: F for a proximal method
    objective, inf_val = ((cfg.composite.value, cfg.composite.inf_F) if alg in PROXIMAL
                          else (cfg.problem.value, cfg.ground_truth.inf_f))
    for weighting in ("uniform", "gamma_weighted"):
        run = run_lockstep(replace(cfg, algorithm=alg, momentum_form=form or cfg.momentum_form),
                           range(3), at=checkpoints, averaging=weighting)
        for m, row in enumerate(run.averaged):
            tr = (run_algorithm(replace(cfg, momentum_form=form), "momentum", trial=m) if form
                  else run_algorithm(cfg, alg, trial=m))
            want = [objective(averaged_iterate(tr, weighting, upto=cp)) - inf_val
                    for cp in checkpoints]
            assert _close(row, np.array(want))


def _tiled_ls(copies=64):
    """ls_4x2 with each of its rows repeated: n = 256 terms, so the gap block
    is capped by the (k M, n) residual, while n does not cap the draw window."""
    data = fixture("ls_4x2").problem.data
    problem, ground_truth, _ = build_least_squares(np.tile(data["A"], (copies, 1)),
                                                   np.tile(data["y"], copies))
    return problem, ground_truth


_TILED = _tiled_ls()


def test_draw_window_and_gap_block_differ():
    # the trace_export 256 x 16 sgd run, one worker of M = 32: the gap block is
    # capped by the (k M, n) residual, the draw window only by _BLOCK
    assert algorithms._block_steps(32, 256, 16) == 8
    assert algorithms._draw_steps(32, 1, 16) == algorithms._BLOCK
    # a b = 2 minibatch on the n = 256 tiling: the gap block is capped by M n;
    # the draw window by _BLOCK at M = 7 (n no longer caps it at 2**16 // n =
    # 256) and by the (k, b, M) index array at M = 1000, where the block is 1
    n, d = _TILED[0].n, _TILED[0].d
    assert algorithms._block_steps(7, n, d) == 36 < algorithms._draw_steps(7, 2, d) == 512
    assert algorithms._block_steps(1000, n, d) == 1 < algorithms._draw_steps(1000, 2, d) == 32


@pytest.mark.parametrize("case", ["sgd-n256", "prox_sgd-lasso_4x2"])
def test_lockstep_gaps_equal_value_with_a_short_last_block(case):
    # every gap block of a run, and every averaged-iterate gap, evaluates its
    # residual in one buffer; T + 1 is not a multiple of the block, so the last
    # block passes a shorter slice of it than the others
    M = 3
    if case == "sgd-n256":
        problem, ground_truth = _TILED
        cfg = RunConfig(problem=problem, ground_truth=ground_truth, iterations=200, seed=2,
                        schedule=StepSchedule.constant(0.05), algorithm="sgd")
        objective, inf_val = problem.value, ground_truth.inf_f
    else:
        fx = fixture("lasso_4x2")
        cfg = RunConfig(problem=fx.problem, ground_truth=fx.ground_truth, iterations=600,
                        seed=2, composite=fx.composite, schedule=StepSchedule.constant(0.2),
                        x0=np.array([2.0, -1.0]), algorithm="prox_sgd")
        objective, inf_val = fx.composite.value, fx.composite.inf_F
    T, block = cfg.iterations, algorithms._block_steps(M, cfg.problem.n, cfg.problem.d)
    assert T + 1 > block and (T + 1) % block != 0
    run = run_lockstep(cfg, range(M), averaging="uniform", keep_iterates=True)
    for m, xs in enumerate(run.iterates):
        want = np.array([objective(x) - inf_val for x in xs])
        assert run.f_gap[m].tobytes() == want.tobytes()
        # uniform weights are ones: xbar_t is the running sum of x_0 .. x_{t-1} over t
        xbar = np.cumsum(xs[:-1], axis=0) / np.arange(1, T + 1)[:, None]
        want = np.array([objective(x) - inf_val for x in xbar])
        assert run.averaged[m, 1:].tobytes() == want.tobytes()


@pytest.mark.parametrize("M,b,d", [(1, 1, 1), (7, 2, 2), (50, 2, 2), (1000, 1, 2), (1000, 2, 2),
                                   (32, 1, 16), (4, 3, 4000), (40_000, 2, 2), (2, 1, 10**5)])
def test_draw_window_within_budget(M, b, d):
    # a window of k steps allocates the (k, b, M) index array and the gathered
    # (k, b, M, d) rows: each holds at most _BLOCK_VALUES values, the rows
    # counted per trial, unless one step alone needs more; n plays no part
    k = algorithms._draw_steps(M, b, d)
    assert 1 <= k <= algorithms._BLOCK
    if k > 1:
        assert k * b * M <= algorithms._BLOCK_VALUES and k * b * d <= algorithms._BLOCK_VALUES
    # the largest such window: one more step would pass the budget or _BLOCK
    assert k == algorithms._BLOCK or (k + 1) * b * max(M, d) > algorithms._BLOCK_VALUES


@pytest.mark.parametrize("alg,extra", [
    ("sgd", {}), ("minibatch_sgd", {"batch_size": 2}), ("momentum", {}), ("prox_sgd", {}),
    pytest.param("minibatch_sgd", {"batch_size": 2, "problem": _TILED[0],
                                   "ground_truth": _TILED[1], "composite": None},
                 id="minibatch_sgd-n256")])
def test_trial_independent_of_M(alg, extra):
    fx = fixture("lasso_4x2")
    sched = (StepSchedule.momentum_pair(0.1) if alg == "momentum"
             else StepSchedule.constant(0.2))
    base = dict(problem=fx.problem, ground_truth=fx.ground_truth, composite=fx.composite)
    cfg = RunConfig(schedule=sched, iterations=600, seed=5, x0=np.array([2.0, -1.0]),
                    **dict(base, **extra))
    cfg = replace(cfg, algorithm=alg)
    n, d, b = cfg.problem.n, cfg.problem.d, cfg.batch_size or 1
    # M = 7 and M = 1000 step in gap blocks of different lengths and draw their
    # samples in windows of different lengths; at M = 1000 the window and the
    # block differ too, and every block and window crosses an edge.  On the
    # n = 256 tiling (minibatch_sgd-n256) the M = 1000 gap block is one step,
    # capped by n, while the draw windows are as long as on lasso_4x2
    edges = {M: algorithms._block_steps(M, n, d) for M in (7, 1000)}
    windows = {M: algorithms._draw_steps(M, b, d) for M in (7, 1000)}
    assert edges[7] != edges[1000] and windows[7] != windows[1000] != edges[1000]
    assert max(*edges.values(), *windows.values()) < cfg.iterations
    at = sorted({e + s for e in (*edges.values(), *windows.values()) for s in (-1, 0, 1)
                 if e + s >= 0})
    batched = [run_lockstep(cfg, range(M), keep_iterates=True) for M in (7, 1000)]
    checked = [run_lockstep(cfg, range(M), at=at) for M in (7, 1000)]
    for m in (0, 1, 6, 999):
        alone = run_lockstep(cfg, [m], keep_iterates=True)
        for run, at_run in zip(batched[m >= 7:], checked[m >= 7:]):
            for key in ("iterates", "f_gap", "dist_sq"):
                assert np.array_equal(getattr(run, key)[m], getattr(alone, key)[0])
            for key in ("f_gap", "dist_sq"):
                assert np.array_equal(getattr(at_run, key)[m], getattr(alone, key)[0][at])


def _check_draw_window(n, b, T, M, seed):
    """Every trial's batches of a batched draw are the sequential Fisher-Yates
    batches of its own generator, whose windows concatenate to one stream."""
    rngs = [np.random.default_rng(seed + m) for m in range(M)]
    first = T // 2
    drawn = np.concatenate([algorithms._draw_window(rngs, first, n, b),
                            algorithms._draw_window(rngs, T - first, n, b)])
    assert drawn.shape == (T, b, M) and drawn.dtype == np.int64
    for m in range(M):
        assert np.array_equal(drawn[:, :, m], _ref_batches(np.random.default_rng(seed + m), T, n, b))


def test_draw_batches_matches_sequential_fisher_yates():
    for n, b in ((4, 2), (6, 3), (9, 9), (5, 1), (256, 2), (10, 7), (1, 1)):
        _check_draw_window(n, b, 300, 3, n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 2 ** 32, 2 ** 64, 2 ** 96, 2 ** 128]).flatmap(
           lambda edge: st.integers(max(0, edge - 300), edge + 300)),
       st.integers(1, 300))
@example(2 ** 64 - 2, 5)  # the trials' low 64 bits carry into the high ones
@example(2 ** 128 - 2, 4)  # seeds on both sides of 2^128: default_rng for all
@example(2 ** 128 + 7, 1)
def test_trial_rngs_are_default_rng(seed, M):
    # a tripwire on numpy's SeedSequence and PCG64 seeding, which the vectorized
    # pass reproduces: each generator is default_rng(seed + m) bit for bit
    rngs = algorithms._trial_rngs(seed, np.arange(M))
    assert len(rngs) == M
    fallback = seed + M - 1 >= 2 ** 128
    for m, rng in enumerate(rngs):
        ref = np.random.default_rng(seed + m)
        assert isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence) == fallback
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random(3).tobytes() == ref.random(3).tobytes()
        assert rng.integers(0, 2 ** 62, 2).tobytes() == ref.integers(0, 2 ** 62, 2).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: st.tuples(
           st.just(n), st.sampled_from([1, n]) | st.integers(1, n))),
       st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32))
def test_draw_window_matches_sequential_fisher_yates_property(nb, T, M, seed):
    n, b = nb
    _check_draw_window(n, b, T, M, seed)


def test_estimate_names_exactly_the_diverged_trials():
    # sgd: gamma * ||phi_i||^2 = 2.9 on two of the four terms of ls_4x2;
    # minibatch_sgd (b = 2) on the n = 256 tiling of ls_4x2, whose gap block
    # is capped by n.  In both, some sample streams blow up within T = 700
    # steps, in more than one gap block and more than one draw window, and
    # others do not
    fx = fixture("ls_4x2")
    base = dict(problem=fx.problem, ground_truth=fx.ground_truth, iterations=700, trials=12,
                x0=np.array([2.0, 0.0]))
    for cfg in (RunConfig(schedule=StepSchedule.constant(1.45), algorithm="sgd", **base),
                RunConfig(**dict(base, problem=_TILED[0], ground_truth=_TILED[1]),
                          schedule=StepSchedule.constant(2.2), batch_size=2,
                          algorithm="minibatch_sgd")):
        want = [(m, _ref_run(cfg, cfg.algorithm, m)[3]) for m in range(12)]
        want = [(m, t) for m, t in want if t is not None]
        assert 0 < len(want) < 12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                estimate(cfg, "f_gap", [700])
        named = [(int(m), int(t))
                 for m, t in re.findall(r"trial (\d+) \(t=(\d+)\)", str(err.value))]
        assert named == want == err.value.failures
        assert err.value.t == min(t for _, t in want)
        n, d, b = cfg.problem.n, cfg.problem.d, cfg.batch_size or 1
        for edge in (algorithms._block_steps(12, n, d), algorithms._draw_steps(12, b, d)):
            assert len({t // edge for _, t in want}) > 1


# ---------------------------------------------------------------------------
# the divergence guard's clearing threshold and the per-block running sum
# ---------------------------------------------------------------------------

def _large_target_ls():
    """Least squares with targets near 1e13 and a start 1.4 from x*: at the gap
    limit of about 1.8e12 no radius fits the threshold's test (peak(2 beta)
    alone is about 2e27), so every row the guard sees goes to the exact path."""
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    y = A @ np.array([2e13, -1e13]) + np.array([0.5, -0.25, 1.0, 0.0])
    problem, ground_truth, _ = build_least_squares(A, y)
    return problem, ground_truth


_LARGE = _large_target_ls()


def _overflow_ls():
    """Least squares with rows of size 1e100 and a start at (1e49, 0): the gap
    at x0 is about 3.3e297, so the divergence limit overflows to inf, and sgd
    at gamma = 10 / L_max blows up within a dozen steps."""
    A = 1e100 * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    problem, ground_truth, constants = build_least_squares(A, np.array([1.0, 1.0, 0.0]))
    return RunConfig(problem=problem, ground_truth=ground_truth, iterations=200, trials=4,
                     x0=np.array([1e49, 0.0]), algorithm="sgd",
                     schedule=StepSchedule.constant(10.0 / constants.L_max))


def _guard_off(monkeypatch):
    for owner in (FiniteSumProblem, CompositeProblem):
        monkeypatch.setattr(owner, "clearing_norm_sq", lambda *args: -math.inf)


def _rows_valued(monkeypatch):
    """The number of rows of each exact objective call, from now on."""
    counted, value_rows = [], FiniteSumProblem.value_rows
    monkeypatch.setattr(FiniteSumProblem, "value_rows",
                        lambda p, X, work=None: counted.append(len(X)) or value_rows(p, X, work))
    return counted


def _guard_runs():
    """(id, cfg, metric, checkpoints, weighting): the six stochastic verifies
    of the benchmark (M = 200), three runs that diverge, one of them with a
    limit that overflows to inf, and runs on large targets, an abs_loss spec,
    a ball-indicator composite and scalar_pl."""
    ls4, ls6, ab, lasso = (fixture(n) for n in ("ls_4x2", "ls_6x2", "abs_2x1", "lasso_4x2"))
    L_b, _ = minibatch_constants(ls6.constants, 2)
    runs = [
        ("sgd_strongly_convex", ls4, StepSchedule.constant(0.225), 500, [10, 100, 500], None,
         [2.0, 0.0]),
        ("pssd_convex", ab, StepSchedule.inv_sqrt(1.5), 400, [400], None, [0.5]),
        ("mini_strongly_convex", ls6, StepSchedule.constant(0.9 / (2 * L_b)), 500,
         [10, 100, 500], 2, [1.5, 1.0]),
        ("momentum_convex", ls4, StepSchedule.momentum_pair(1 / (4 * ls4.constants.L_max)), 500,
         [50, 500], None, [2.0, 0.0]),
        ("ssd_convex_general", ab, StepSchedule.inv_sqrt(1.0), 400, [100, 400], None, [0.5]),
        ("spgd_convex_const", lasso, StepSchedule.constant(0.9 / (4 * ls4.constants.L_max)), 500,
         [10, 100, 500], None, [2.0, -1.0]),
    ]
    cases = []
    for setting, fx, sched, T, cps, b, x0 in runs:
        row = SETTINGS[setting]
        cfg = RunConfig.for_fixture(fx, row.algorithm, sched, T, trials=200, batch_size=b,
                                    x0=np.array(x0))
        weighting = row.weighting
        if weighting == "p_tk":
            weighting = ("p_tk", row.ref_constants(fx.constants, b)[0])
        cases.append((setting, cfg, row.metric, cps, weighting))
    base = dict(problem=ls4.problem, ground_truth=ls4.ground_truth, iterations=700, trials=12,
                x0=np.array([2.0, 0.0]))
    cases += [
        ("diverging-sgd", RunConfig(schedule=StepSchedule.constant(1.45), algorithm="sgd",
                                    **base), "f_gap", [700], None),
        ("diverging-minibatch_sgd", RunConfig(
            **dict(base, problem=_TILED[0], ground_truth=_TILED[1]), batch_size=2,
            schedule=StepSchedule.constant(2.2), algorithm="minibatch_sgd"), "f_gap", [700], None),
        ("diverging-overflowing_limit", _overflow_ls(), "f_gap", [200], None),
    ]
    large = RunConfig(problem=_LARGE[0], ground_truth=_LARGE[1], iterations=300, trials=20,
                      x0=_LARGE[1].x_star + np.array([1.0, -1.0]),
                      schedule=StepSchedule.constant(0.225), algorithm="sgd")
    cases += [("large_targets", large, "f_gap", [10, 300], None),
              ("large_targets-avg", large, "avg_f_gap", [10, 300], "uniform")]
    rng = np.random.default_rng(7)
    abs_problem, abs_truth, _ = build_abs_loss(rng.standard_normal((5, 2)), rng.standard_normal(5),
                                               strong_mu=0.2, ball_B=10.0)
    cases.append(("abs_5x2", RunConfig(problem=abs_problem, ground_truth=abs_truth,
                                       iterations=400, trials=50, x0=np.array([1.0, -2.0]),
                                       schedule=StepSchedule.inv_sqrt(0.5), algorithm="ssd"),
                  "f_gap", [1, 100, 400], None))
    ball = make_composite(ls4.problem, ls4.constants, Regularizer.ball_indicator(0.4))
    cases.append(("ball_composite", RunConfig(
        problem=ls4.problem, ground_truth=ls4.ground_truth, composite=ball, iterations=400,
        trials=50, x0=np.array([0.2, 0.2]), schedule=StepSchedule.constant(0.2),
        algorithm="prox_sgd"), "avg_F_gap", [1, 37, 400], "gamma_weighted"))
    pl = fixture("scalar_pl")
    cases.append(("scalar_pl", RunConfig.for_fixture(
        pl, "sgd", StepSchedule.inv_sqrt(0.05), 400, trials=30, x0=np.array([2.5])),
        "f_gap", [1, 50, 400], None))
    return cases


_GUARD_RUNS = _guard_runs()


def _estimate_or_failures(cfg, metric, checkpoints, weighting):
    try:
        est = estimate(cfg, metric, checkpoints, weighting)
    except DivergenceError as err:
        return err.failures, str(err)
    return est.mean.tobytes(), est.stderr.tobytes()


@pytest.mark.parametrize("case", _GUARD_RUNS, ids=[c[0] for c in _GUARD_RUNS])
def test_screen_leaves_estimates_and_divergences_unchanged(case, monkeypatch):
    # the norm threshold screens the rows the guard reads; forced off, every
    # row takes the exact path
    name, cfg, metric, checkpoints, weighting = case
    counted = _rows_valued(monkeypatch)
    guarded = _estimate_or_failures(cfg, metric, checkpoints, weighting)
    rows_guarded = sum(counted)
    _guard_off(monkeypatch)
    counted.clear()
    assert _estimate_or_failures(cfg, metric, checkpoints, weighting) == guarded
    rows_exact = sum(counted)
    if name == "diverging-overflowing_limit":
        # the 2^960 cap of the threshold keeps rows whose sums overflow exact
        assert guarded[0] == [(0, 9), (1, 11), (2, 9), (3, 11)]
    if name.startswith("large_targets"):
        # no radius fits, so every row takes the exact path
        assert rows_guarded == rows_exact
    elif not name.startswith("diverging"):
        assert rows_guarded < rows_exact / 10


def _guarded_objectives():
    """(name, objective with clearing_norm_sq and value_rows, its inf, its
    minimizer, the ball radius or None)."""
    out = []
    for name in fixture_names():
        fx = fixture(name)
        out.append((name, fx.problem, fx.ground_truth.inf_f, fx.ground_truth.x_star, None))
        if fx.composite is not None:
            comp = fx.composite
            out.append((f"{name}-composite", comp, comp.inf_F, comp.x_star_F, None))
    ls4 = fixture("ls_4x2")
    ball = make_composite(ls4.problem, ls4.constants, Regularizer.ball_indicator(0.4))
    out.append(("ls_4x2-ball", ball, ball.inf_F, ball.x_star_F, 0.4))
    out.append(("large_targets", _LARGE[0], _LARGE[1].inf_f, _LARGE[1].x_star, None))
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]) * np.array([1e6, 1e-6])
    scaled, truth, _ = build_least_squares(A, np.array([1.0, 1.0, 0.0, 0.0]))
    out.append(("column_scaled", scaled, truth.inf_f, truth.x_star, None))
    return out


_GUARDED_OBJECTIVES = _guarded_objectives()


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_cleared_rows_have_a_finite_gap_within_the_limit(data):
    name, objective, inf, x_star, ball_B = data.draw(st.sampled_from(_GUARDED_OBJECTIVES))
    limit = float(f"{data.draw(st.floats(1.0, 9.99)):.3f}e{data.draw(st.integers(12, 320))}")
    clear = objective.clearing_norm_sq(limit, inf)
    d = len(x_star)
    X = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 12)), d),
                             elements=st.floats(-1.0, 1.0)))
    place = data.draw(st.sampled_from(["scaled", "sphere", "ball"]))
    with np.errstate(all="ignore"):
        if place == "scaled":  # anywhere from subnormal to near overflow
            X = X * 10.0 ** data.draw(st.integers(-320, 300))
            if data.draw(st.booleans()):
                X = X + x_star  # residuals that cancel
        elif place == "sphere":  # on the threshold's sphere, a little inside or out
            X[np.all(X == 0.0, axis=1), 0] = 1.0
            scale = math.sqrt(max(clear, 0.0)) * data.draw(st.floats(0.999, 1.001))
            X = X * (scale / np.sqrt(np.vecdot(X, X)))[:, None]
        elif ball_B is not None:  # projected onto the ball, as prox_sgd leaves them
            X = prox(Regularizer.ball_indicator(ball_B), 1.0, X * 10.0)
        cleared = algorithms._clearing_norms(X[None])[0] <= clear  # the guard's reduction
        gaps = objective.value_rows(X) - inf
    assert np.isfinite(gaps[cleared]).all()
    assert np.all(gaps[cleared] <= limit)


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1.0, -1.0, 1e308, -1e308, 0.1])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 5)),
                  elements=st.floats(allow_nan=True, allow_infinity=True) | _SPECIAL))
def test_add_accumulate_adds_in_sequence(terms):
    # run_lockstep keeps the averaged iterate's running sum with one in-place
    # np.add.accumulate per gap block, as the loop total = total + term did
    total, want = terms[0], [terms[0]]
    with np.errstate(all="ignore"):
        for term in terms[1:]:
            total = total + term
            want.append(total)
        got = terms.copy()
        np.add.accumulate(got, axis=0, out=got)
        assert np.add.accumulate(terms, axis=0).tobytes() == np.array(want).tobytes()
    assert got.tobytes() == np.array(want).tobytes()


def test_run_for_fixture_picks_composite_and_ball():
    lasso, ab = fixture("lasso_4x2"), fixture("abs_2x1")
    sched = StepSchedule.constant(0.1)
    assert RunConfig.for_fixture(lasso, "prox_gd", sched, 5).composite is lasso.composite
    assert RunConfig.for_fixture(lasso, "gd", sched, 5).composite is None
    assert RunConfig.for_fixture(ab, "pssd", sched, 5).projection_B == ab.constants.B
    assert RunConfig.for_fixture(ab, "pssd", sched, 5, projection_B=3.0).projection_B == 3.0
    assert RunConfig.for_fixture(ab, "ssd", sched, 5).projection_B is None


@pytest.mark.parametrize("kw,fieldname", [
    ({"iterations": 0}, "iterations"),
    ({"trials": 0}, "trials"),
    ({"seed": -1}, "seed"),
    ({"algorithm": "newton"}, "algorithm"),
    ({"algorithm": "sgd", "schedule": StepSchedule.momentum_pair(0.1)}, "schedule"),
    ({"algorithm": "minibatch_sgd"}, "batch_size"),
    ({"algorithm": "pssd", "projection_B": 0.0}, "projection_B"),
    ({"algorithm": "momentum", "schedule": StepSchedule.momentum_pair(0.1),
      "momentum_form": "nope"}, "momentum_form"),
], ids=["iterations", "trials", "negative_seed", "unknown_algorithm", "sgd_momentum_pair",
        "minibatch_without_batch_size", "projection_B_zero", "unknown_momentum_form"])
def test_run_config_names_the_field_it_rejects(kw, fieldname):
    fx = fixture("ls_4x2")
    args = dict(problem=fx.problem, ground_truth=fx.ground_truth,
                schedule=StepSchedule.constant(0.1), iterations=5)
    with pytest.raises(SpecError) as err:
        RunConfig(**dict(args, **kw))
    assert err.value.field == fieldname
