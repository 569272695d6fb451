import numpy as np
import pytest

from descentlab import Regularizer, prox, prox_certificate, subgradient

RNG = np.random.default_rng(11)


def _grid_prox_l1_1d(lam, gamma, x, width=6.0, steps=2_400_001):
    """Independent oracle: exhaustive minimization of lam|u| + (u-x)^2/(2 gamma)."""
    u = np.linspace(x - width, x + width, steps)
    obj = lam * np.abs(u) + (u - x) ** 2 / (2 * gamma)
    return u[np.argmin(obj)]


def test_soft_threshold_against_grid_oracle():
    got = prox(Regularizer.l1(1.0), 1.0, np.array([3.0, -0.5, 0.0]))
    want = [_grid_prox_l1_1d(1.0, 1.0, x) for x in (3.0, -0.5, 0.0)]
    assert np.allclose(got, want, atol=1e-5)
    assert np.allclose(got, [2.0, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 7.5])
def test_ball_projection(gamma):
    got = prox(Regularizer.ball_indicator(1.0), gamma, np.array([3.0, 4.0]))
    assert np.allclose(got, [0.6, 0.8], atol=1e-15)


def test_zero_prox_is_identity():
    x = RNG.normal(size=5)
    assert np.array_equal(prox(Regularizer.zero(), 2.0, x), x)


def test_prox_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        prox(Regularizer.l1(1.0), 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        prox(Regularizer.l1(1.0), -1.0, np.zeros(2))


def test_subgradient_examples():
    assert np.allclose(subgradient(Regularizer.l1(2.0), np.array([1.0, -3.0])), [2.0, -2.0])
    assert subgradient(Regularizer.l1(1.0), np.array([0.0]))[0] == 0.0
    assert np.all(subgradient(Regularizer.zero(), RNG.normal(size=4)) == 0.0)
    assert np.all(subgradient(Regularizer.ball_indicator(2.0), np.array([1.0, 0.0])) == 0.0)


def test_subgradient_outside_ball_raises():
    with pytest.raises(ValueError, match="outside"):
        subgradient(Regularizer.ball_indicator(1.0), np.array([2.0, 0.0]))


def test_subgradient_inequality_sampled():
    for reg in (Regularizer.l1(0.7), Regularizer.zero()):
        X = RNG.normal(size=(2000, 3)) * 4
        Y = RNG.normal(size=(2000, 3)) * 4
        for x, y in zip(X, Y):
            s = subgradient(reg, x)
            lhs = reg.value(y)
            rhs = reg.value(x) + s @ (y - x)
            assert lhs >= rhs - 1e-9 * (1 + abs(lhs) + abs(rhs))


def test_certificate_accepts_true_prox():
    cert = prox_certificate(Regularizer.l1(1.0), 1.0, np.array([3.0]), np.array([2.0]))
    assert cert.verdict and cert.residual == 0.0


def test_certificate_rejects_wrong_candidate():
    cert = prox_certificate(Regularizer.l1(1.0), 1.0, np.array([3.0]), np.array([3.0]))
    assert not cert.verdict


def test_certificate_property_on_random_points():
    regs = [Regularizer.l1(0.5), Regularizer.ball_indicator(1.5), Regularizer.zero()]
    for reg in regs:
        for _ in range(10_000 // len(regs)):
            gamma = float(RNG.random() * 2 + 0.05)
            x = RNG.normal(size=3) * 3
            p = prox(reg, gamma, x)
            assert prox_certificate(reg, gamma, x, p).verdict


def test_indicator_value_is_extended():
    reg = Regularizer.ball_indicator(1.0)
    assert reg.value(np.array([0.5, 0.0])) == 0.0
    assert reg.value(np.array([2.0, 0.0])) == np.inf


def test_value_convex_along_segments():
    for reg in (Regularizer.l1(0.3), Regularizer.ball_indicator(2.0)):
        for _ in range(500):
            if reg.kind == "ball_indicator":
                x = RNG.normal(size=2)
                x *= 1.9 / max(np.linalg.norm(x), 1.0)
                y = RNG.normal(size=2)
                y *= 1.9 / max(np.linalg.norm(y), 1.0)
            else:
                x, y = RNG.normal(size=2) * 3, RNG.normal(size=2) * 3
            t = RNG.random()
            lhs = reg.value(t * x + (1 - t) * y)
            rhs = t * reg.value(x) + (1 - t) * reg.value(y)
            assert lhs <= rhs + 1e-12


def test_nonexpansiveness_and_firmness():
    for reg in (Regularizer.l1(0.5), Regularizer.ball_indicator(1.0), Regularizer.zero()):
        X = RNG.normal(size=(10_000, 2)) * 3
        Y = RNG.normal(size=(10_000, 2)) * 3
        PX = np.array([prox(reg, 1.0, x) for x in X])
        PY = np.array([prox(reg, 1.0, y) for y in Y])
        dp = np.linalg.norm(PX - PY, axis=1)
        dd = np.linalg.norm(X - Y, axis=1)
        assert np.all(dp <= dd + 1e-12)
        firm = dp**2 - np.sum((X - Y) * (PX - PY), axis=1)
        assert np.all(firm <= 1e-12 * (1 + dd**2))


def test_prox_optimality_against_candidates():
    for reg in (Regularizer.l1(0.8), Regularizer.ball_indicator(1.2)):
        gamma = 0.9
        for _ in range(20):
            x = RNG.normal(size=3) * 2
            p = prox(reg, gamma, x)
            obj_p = reg.value(p) + float((p - x) @ (p - x)) / (2 * gamma)
            U = RNG.normal(size=(1000, 3)) * 2
            for u in U:
                obj_u = reg.value(u) + float((u - x) @ (u - x)) / (2 * gamma)
                assert obj_p <= obj_u + 1e-12 * (1 + abs(obj_u))


def test_regularizer_config_roundtrip():
    for spec, reg in (({"kind": "l1", "lambda": 0.8}, Regularizer.l1(0.8)),
                      ({"kind": "ball_indicator", "B": 1.2}, Regularizer.ball_indicator(1.2)),
                      ({"kind": "zero"}, Regularizer.zero())):
        assert Regularizer.from_config(spec) == reg
