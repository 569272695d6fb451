import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import (
    Regularizer,
    build_abs_loss,
    build_least_squares,
    build_scalar_pl,
    fixture,
    make_composite,
    minibatch_constants,
)
from descentlab.problems import gradient_variance

RNG = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------

def test_identity_least_squares_is_interpolating_at_origin():
    p, gt, c = build_least_squares(np.eye(3), np.zeros(3))
    assert np.allclose(gt.x_star, 0.0)
    assert gt.inf_f == 0.0
    assert c.sigma_star_f == 0.0
    assert c.delta_star_f == 0.0


def test_targets_in_range_imply_interpolation():
    # overparametrized instance: y = Phi x_true is in range(Phi) by construction
    phi = RNG.normal(size=(4, 6))
    x_true = RNG.normal(size=6)
    p, gt, c = build_least_squares(phi, phi @ x_true)
    assert c.delta_star_f <= 1e-20
    assert c.sigma_star_f <= 1e-20


def test_ls_4x2_exact_constants():
    # independent oracle: exact normal-equations solve plus literal sums,
    # done by hand in rational arithmetic for this instance
    fx = fixture("ls_4x2")
    assert np.allclose(fx.ground_truth.x_star, [1 / 3, 1 / 3], atol=1e-14)
    assert fx.ground_truth.inf_f == pytest.approx(1 / 6, abs=1e-15)
    assert fx.constants.sigma_star_f == pytest.approx(4 / 9, abs=1e-14)
    assert fx.constants.delta_star_f == pytest.approx(1 / 6, abs=1e-15)
    assert fx.constants.L == pytest.approx(0.75)
    assert fx.constants.mu == pytest.approx(0.75)
    assert fx.constants.mu_pl == pytest.approx(0.75)
    assert fx.constants.L_i == (1.0, 1.0, 2.0, 2.0)
    assert fx.constants.L_max == 2.0
    assert fx.constants.L_avg == 1.5


def test_ls_6x2_exact_constants():
    fx = fixture("ls_6x2")
    assert np.allclose(fx.ground_truth.x_star, [3 / 7, -1 / 7], atol=1e-13)
    assert fx.ground_truth.inf_f == pytest.approx(3 / 14, abs=1e-14)
    assert fx.constants.sigma_star_f == pytest.approx(16 / 21, abs=1e-13)
    assert fx.constants.L == pytest.approx(7 / 6)
    assert fx.constants.L_max == 4.0


def test_grad_matches_average_of_term_grads():
    fx = fixture("ls_4x2")
    for _ in range(50):
        x = RNG.normal(size=2) * 5
        mean = np.mean([fx.problem.grad_i(i, x) for i in range(4)], axis=0)
        g = fx.problem.grad(x)
        assert np.linalg.norm(mean - g) <= 1e-12 * (1 + np.linalg.norm(g))
        vals = np.mean([fx.problem.value_i(i, x) for i in range(4)])
        assert vals == pytest.approx(fx.problem.value(x), rel=1e-12)


def test_ground_truth_invariants():
    for name in ("ls_4x2", "ls_6x2", "scalar_pl"):
        fx = fixture(name)
        g0 = np.linalg.norm(fx.problem.grad(fx.problem.default_x0))
        assert np.linalg.norm(fx.problem.grad(fx.ground_truth.x_star)) <= 1e-9 * max(1.0, g0)
        for _ in range(100):
            x = fx.ground_truth.x_star + RNG.normal(size=fx.problem.d)
            assert fx.problem.value(x) >= fx.ground_truth.inf_f - 1e-12


def test_constants_orderings():
    for name in ("ls_4x2", "ls_6x2", "scalar_pl", "abs_2x1_reg"):
        c = fixture(name).constants
        if c.mu > 0 and np.isfinite(c.L):
            assert c.mu <= c.L
        assert c.L <= c.L_avg + 1e-12
        assert c.L_avg <= c.L_max + 1e-12
        assert c.sigma_star_f >= 0
        assert c.delta_star_f >= 0
        if np.isfinite(c.L_max):
            assert c.sigma_star_f <= 2 * c.L_max * c.delta_star_f + 1e-12


def test_noise_relationship_for_strongly_convex_terms():
    # with a ridge term every f_i is mu-strongly convex, so the two-sided
    # relation 2 mu Delta* <= sigma* <= 2 L_max Delta* must hold
    mu = 0.3
    phi = RNG.normal(size=(5, 2))
    y = RNG.normal(size=5)

    def value_i(i, x):
        r = phi[i] @ x - y[i]
        return 0.5 * r * r + 0.5 * mu * float(x @ x)

    def grad_i(i, x):
        return (phi[i] @ x - y[i]) * phi[i] + mu * x

    H = phi.T @ phi / 5 + mu * np.eye(2)
    x_star = np.linalg.solve(H, phi.T @ y / 5)
    grads = np.array([grad_i(i, x_star) for i in range(5)])
    sigma = float(np.sum((grads - grads.mean(axis=0)) ** 2) / 5)
    inf_f = np.mean([value_i(i, x_star) for i in range(5)])
    inf_i = []
    for i in range(5):
        Hi = np.outer(phi[i], phi[i]) + mu * np.eye(2)
        xi = np.linalg.solve(Hi, phi[i] * y[i])
        inf_i.append(value_i(i, xi))
    delta = inf_f - np.mean(inf_i)
    L_max = max(float(r @ r) for r in phi) + mu
    assert 2 * mu * delta <= sigma + 1e-12
    assert sigma <= 2 * L_max * delta + 1e-12


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_least_squares(np.array([[np.inf, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        build_least_squares(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        build_least_squares(np.eye(2), np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# scalar quadratic-growth benchmark
# ---------------------------------------------------------------------------

def test_scalar_pl_basics():
    p, gt, c = build_scalar_pl()
    assert p.value(np.zeros(1)) == 0.0
    assert p.grad(np.zeros(1))[0] == 0.0
    assert c.L == 8.0  # sup |2 + 6 cos(2t)| = 8
    assert c.mu_pl == 1 / 40


def test_scalar_pl_gradient_dominance_on_grid():
    # grid evaluation of f'(t)^2 / 2 >= mu (f(t) - 0) on [-50, 50], step 1e-3
    p, gt, c = build_scalar_pl()
    t = np.arange(-50.0, 50.0 + 1e-9, 1e-3)
    f = t**2 + 3 * np.sin(t) ** 2
    fp = 2 * t + 3 * np.sin(2 * t)
    assert np.all(0.5 * fp**2 >= (1 / 40) * f - 1e-15)


def test_scalar_pl_is_not_convex():
    p, _, _ = build_scalar_pl()
    # second difference at pi/2 is negative (f'' = -4 there)
    h = 1e-4
    x = np.array([math.pi / 2])
    second = (p.value(x + h) - 2 * p.value(x) + p.value(x - h)) / h**2
    assert second < -3.9


# ---------------------------------------------------------------------------
# absolute loss
# ---------------------------------------------------------------------------

def test_abs_single_term():
    p, gt, c = build_abs_loss(np.array([[1.0]]), np.array([0.0]), strong_mu=0.0, ball_B=1.0)
    assert gt.x_star[0] == 0.0
    assert gt.inf_f == 0.0
    assert c.G == 1.0


def test_abs_2x1_against_scan_oracle():
    # exhaustive 1-d scan of (|x-1| + |x+1|)/2
    xs = np.linspace(-3, 3, 120001)
    vals = 0.5 * (np.abs(xs - 1) + np.abs(xs + 1))
    fx = fixture("abs_2x1")
    assert fx.ground_truth.inf_f == pytest.approx(vals.min(), abs=1e-9)
    # minimum-norm representative of the flat region [-1, 1]
    assert fx.ground_truth.x_star[0] == 0.0
    assert fx.constants.G == 1.0


@pytest.mark.parametrize("name", ["abs_2x1", "abs_2x1_reg"])
def test_catalogue_abs_ground_truth_to_the_bit(name):
    # every abs trace and verdict reads these, so a solver change may not move a bit
    gt = fixture(name).ground_truth
    assert gt.x_star.dtype == gt.multipliers.dtype == np.float64
    assert gt.x_star.tobytes() == np.array([0.0]).tobytes()  # +0.0, not -0.0
    assert gt.multipliers.tobytes() == np.array([-1.0, 1.0]).tobytes()
    assert type(gt.inf_f) is float and gt.inf_f == 1.0


def test_abs_subgradient_bound_on_ball():
    p, gt, c = build_abs_loss(*[np.array([[1.0], [1.0]]), np.array([1.0, -1.0])],
                              strong_mu=0.5, ball_B=2.0)
    assert c.G == pytest.approx(1.0 + 0.5 * 2.0)  # max||a|| + mu*B
    assert c.mu == 0.5
    # closed-form per-term infima: c_i = mu/(2||a||^2) = 0.25, |b|=1 <= 1/(2c)=2
    assert gt.inf_f_i == pytest.approx((0.25, 0.25))
    assert c.delta_star_f == 0.75


def test_abs_minimizer_outside_ball_rejected():
    with pytest.raises(ValueError, match="ball_B"):
        build_abs_loss(np.array([[1.0]]), np.array([5.0]), strong_mu=0.0, ball_B=1.0)


def test_abs_selection_at_kink_is_zero():
    p, _, _ = build_abs_loss(np.array([[2.0]]), np.array([0.0]), ball_B=1.0)
    assert p.grad_i(0, np.zeros(1))[0] == 0.0


@st.composite
def _abs_instances(draw):
    """(rows, targets, strong_mu, seed): n <= 8, d <= 3; Gaussian data, integer data in
    {-2..2} with duplicate and zero rows, and interpolating data with n <= d."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["gaussian", "integer", "interpolating"]))
    n = draw(st.integers(1, d if kind == "interpolating" else 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()) and kind != "gaussian":
        base = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                                      min_size=n, max_size=n)), dtype=float)
        # each row is its own, a copy of an earlier row, or zero (-1)
        rows = np.array([base[j] if j >= 0 else np.zeros(d)
                         for j in (draw(st.integers(-1, i)) for i in range(n))])
    else:
        rows = rng.standard_normal((n, d))
    if kind == "interpolating":
        targets = rows @ rng.standard_normal(d)
    elif kind == "integer":
        targets = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), float)
    else:
        targets = rng.standard_normal(n)
    strong_mu = draw(st.sampled_from([0.0]) | st.floats(-6.0, 1.0).map(lambda e: 10.0**e))
    return rows, targets, strong_mu, seed


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_abs_instances())
def test_abs_minimizer_is_certified_and_optimal(instance):
    from scipy.linalg import null_space
    rows, targets, mu, seed = instance
    p, gt, _ = build_abs_loss(rows, targets, strong_mu=mu, ball_B=1e9)
    x, lam, n = gt.x_star, gt.multipliers, len(targets)
    # the certificate, checked here independently of the solver
    r = rows @ x - targets
    scale = 1.0 + np.abs(rows) @ np.abs(x) + np.abs(targets)
    nonzero = np.abs(r) > 1e-12 * scale
    assert np.array_equal(lam[nonzero], np.sign(r[nonzero]))
    assert np.all(np.abs(lam) <= 1.0)
    kkt = np.abs(mu * x + rows.T @ lam / n).max()
    assert kkt <= 1e-12 * (1.0 + mu * np.abs(x).max() + np.abs(rows).max())
    assert gt.inf_f == p.value(x)
    # no random perturbation lowers f
    rng = np.random.default_rng(seed)
    tol = 1e-12 * scale.mean()
    for size in (1e-7, 1e-4, 1e-2):
        for u in rng.standard_normal((20, len(x))):
            assert p.value(x + size * u / np.linalg.norm(u)) >= gt.inf_f - tol
    if mu == 0.0:
        # minimum norm: moving along the optimal set, here x + null(rows with r_i = 0)
        # (f is constant there since A^T lam = 0), never shortens x
        null = null_space(rows[~nonzero])
        for size in (1e-7, 1e-4, 1e-2):
            for u in rng.standard_normal((20, null.shape[1])):
                y = x + size * (null @ u) / max(np.linalg.norm(u), 1e-300)
                if p.value(y) <= gt.inf_f + tol:
                    assert y @ y >= x @ x - 1e-12 * (1.0 + x @ x)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_abs_minimizer_is_certified_and_optimal_at_64x8(mu, seed):
    # the property test's checks on a seeded Gaussian spec beyond its n <= 8
    rng = np.random.default_rng(seed)
    instance = (rng.standard_normal((64, 8)), rng.standard_normal(64), mu, seed)
    test_abs_minimizer_is_certified_and_optimal.hypothesis.inner_test(instance)


# ---------------------------------------------------------------------------
# minibatch constants
# ---------------------------------------------------------------------------

@st.composite
def _least_squares_instances(draw):
    """(features, targets): n <= 8, d <= 4; Gaussian or integer features in {-2..2},
    all rows distinct draws, or one row (1 x d), or one row repeated n times."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        features = rng.standard_normal((n, d))
    else:
        features = rng.integers(-2, 3, size=(n, d)).astype(float)
    copies = draw(st.sampled_from([None, 1, n]))
    if copies is not None:
        features = np.repeat(features[:1], copies, axis=0)
    return features, rng.standard_normal(len(features))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_least_squares_instances())
def test_minibatch_constants_endpoints_are_exact(instance):
    _, _, c = build_least_squares(*instance)
    assert c.mu <= c.L and c.mu_pl <= c.L <= c.L_max
    assert minibatch_constants(c, c.n) == (c.L, 0.0)
    assert minibatch_constants(c, 1) == (c.L_max, c.sigma_star_f)


def test_minibatch_constants_endpoints():
    c = fixture("ls_6x2").constants
    Lb, sb = minibatch_constants(c, 1)
    assert (Lb, sb) == (c.L_max, c.sigma_star_f)
    Lb, sb = minibatch_constants(c, c.n)
    assert Lb == pytest.approx(c.L)
    assert sb == 0.0


def test_minibatch_constants_formula_example():
    from descentlab.problems import ProblemConstants
    c = ProblemConstants(n=6, L=1.0, L_i=(), L_max=4.0, L_avg=2.0, mu=0.0, mu_pl=0.0,
                         sigma_star_f=10.0, delta_star_f=0.0)
    Lb, sb = minibatch_constants(c, 2)
    assert Lb == pytest.approx(2.2)   # 6*1/(2*5)*1 + 4/(2*5)*4
    assert sb == pytest.approx(4.0)   # 4/(2*5)*10


def test_minibatch_constants_n_equal_one():
    from descentlab.problems import ProblemConstants
    c = ProblemConstants(n=1, L=3.0, L_i=(3.0,), L_max=3.0, L_avg=3.0, mu=0.0,
                         mu_pl=0.0, sigma_star_f=0.0, delta_star_f=0.0)
    assert minibatch_constants(c, 1) == (3.0, 0.0)


@pytest.mark.parametrize("b", [0, 7, -1])
def test_minibatch_constants_rejects_bad_b(b):
    c = fixture("ls_6x2").constants
    with pytest.raises(ValueError, match="out of range"):
        minibatch_constants(c, b)


# ---------------------------------------------------------------------------
# composite problems
# ---------------------------------------------------------------------------

def test_lasso_4x2_reference_matches_hand_solution():
    # by symmetry the composite minimizer solves 0.75 s - 0.25 + 0.1 = 0
    fx = fixture("lasso_4x2")
    comp = fx.composite
    assert np.allclose(comp.x_star_F, [0.2, 0.2], atol=1e-10)
    assert comp.inf_F == pytest.approx(0.22, abs=1e-10)
    assert comp.sigma_star_F == pytest.approx(0.38, abs=1e-9)
    assert gradient_variance(comp.smooth, comp.x_star_F) == comp.sigma_star_F


def test_lasso_prox_fixed_point():
    from descentlab.nonsmooth import prox
    fx = fixture("lasso_4x2")
    comp = fx.composite
    gamma = 1.0 / fx.constants.L
    step = comp.x_star_F - gamma * comp.smooth.grad(comp.x_star_F)
    assert np.linalg.norm(prox(comp.reg, gamma, step) - comp.x_star_F) <= 1e-8


def test_zero_regularizer_reduces_to_plain_noise():
    fx = fixture("ls_4x2")
    comp = make_composite(fx.problem, fx.constants, Regularizer.zero())
    assert np.allclose(comp.x_star_F, fx.ground_truth.x_star, atol=1e-10)
    assert comp.sigma_star_F == pytest.approx(fx.constants.sigma_star_f, rel=1e-9)


def test_interpolating_ls_with_ball_has_zero_composite_noise():
    phi = np.eye(3)
    p, gt, c = build_least_squares(phi, np.array([0.1, 0.2, -0.1]))
    comp = make_composite(p, c, Regularizer.ball_indicator(5.0))
    assert comp.sigma_star_F <= 1e-20


def test_composite_noise_upper_bound():
    fx = fixture("lasso_4x2")
    comp = fx.composite
    c = fx.constants
    f_at_xF = fx.problem.value(comp.x_star_F)
    bound = 4 * c.L_max * (f_at_xF - fx.ground_truth.inf_f) + 2 * c.sigma_star_f
    assert comp.sigma_star_F <= bound + 1e-12


def test_composite_solver_budget_error(monkeypatch):
    # ill-conditioned instance so the forward-backward solve cannot finish in 3 steps
    from descentlab import problems
    monkeypatch.setattr(problems, "_COMPOSITE_MAX_ITERS", 3)
    p, gt, c = build_least_squares(np.array([[1.0, 0.0], [0.0, 0.1]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="residual .* after 3 iterations"):
        make_composite(p, c, Regularizer.l1(0.01))


def test_unknown_fixture_raises():
    with pytest.raises(KeyError, match="unknown fixture"):
        fixture("nope")


# ---------------------------------------------------------------------------
# fixture catalogue and external fixture files
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_catalogue_spec_loaded_from_file_equals_catalogue_fixture(tmp_path, monkeypatch):
    # the catalogue and $DESCENTLAB_FIXTURES files go through one build path
    import json
    from descentlab import problems
    (tmp_path / "lasso_copy.json").write_text(json.dumps(problems._CATALOGUE["lasso_4x2"]))
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(tmp_path))
    monkeypatch.delitem(problems._FIXTURE_CACHE, "lasso_copy", raising=False)
    got, want = fixture("lasso_copy"), fixture("lasso_4x2")
    assert got.name == "lasso_copy"
    for key in ("A", "y", "mu"):
        assert _same_bits(got.problem.data[key], want.problem.data[key])
    assert _same_bits(got.problem.default_x0, want.problem.default_x0)
    assert _same_bits(got.ground_truth.x_star, want.ground_truth.x_star)
    assert (got.ground_truth.inf_f, got.ground_truth.inf_f_i) == \
        (want.ground_truth.inf_f, want.ground_truth.inf_f_i)
    assert got.constants == want.constants
    assert got.regularizer == want.regularizer == Regularizer.l1(0.1)
    gc, wc = got.composite, want.composite
    assert _same_bits(gc.x_star_F, wc.x_star_F)
    assert (gc.reg, gc.inf_F, gc.sigma_star_F) == (wc.reg, wc.inf_F, wc.sigma_star_F)


def test_import_and_least_squares_build_leave_scipy_out():
    # the runtime needs numpy alone: building every catalogue fixture, the abs ones
    # included, imports no scipy, and the CLI runs with scipy made unimportable
    import os
    import subprocess
    import sys
    import descentlab
    src = os.path.dirname(os.path.dirname(os.path.abspath(descentlab.__file__)))
    root = os.path.dirname(src)

    def python(code, *args):
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, cwd=root, env=dict(os.environ, PYTHONPATH=src))

    built = python("import sys, descentlab\n"
                   "for name in descentlab.fixture_names(): descentlab.fixture(name)\n"
                   "print(len(descentlab.fixture_names()), 'scipy' in sys.modules)")
    assert built.returncode == 0, built.stderr
    assert built.stdout.split() == ["6", "False"]
    blocked = ("import sys; sys.modules['scipy'] = None\n"
               "from descentlab.cli import main; sys.exit(main(sys.argv[1:]))")
    for argv in (["suite", "--fixture", "abs_2x1", "--fixture", "abs_2x1_reg"],
                 ["verify", "--config", "configs/verify_pssd.json"]):
        run = python(blocked, *argv)
        assert run.returncode == 0, (argv, run.stdout, run.stderr)


def test_every_exported_name_resolves():
    # a deletion that leaves its name in an __all__ or in the package root fails here
    import ast
    import importlib
    import pkgutil
    import descentlab
    for info in pkgutil.iter_modules(descentlab.__path__):
        module = importlib.import_module(f"descentlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
    with open(descentlab.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"descentlab.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(descentlab, alias.name) is getattr(module, alias.name)
