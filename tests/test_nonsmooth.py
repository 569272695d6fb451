import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from descentlab import Regularizer, prox, prox_certificate, subgradient
from descentlab.nonsmooth import (REQUIRED, SpecError, axis_sum, is_json, spec_fields,
                                  spec_section)

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


_TABLE = {"a": (float, REQUIRED), "b": (int, 3), "c": (str, None)}


def test_spec_fields_fills_defaults_and_keeps_null_only_where_nullable():
    assert spec_fields({"a": 1}, _TABLE) == {"a": 1, "b": 3, "c": None}
    assert spec_fields({"a": 0.5, "b": 2, "c": None}, _TABLE) == {"a": 0.5, "b": 2, "c": None}


@pytest.mark.parametrize("spec,field,reason", [
    ({}, "a", "required field missing"),
    ({"a": 1, "d": 0, "ab": 0}, "ab", "unknown field"),
    ({"a": True}, "a", "must be a number, got True"),
    ({"a": float("nan")}, "a", "must be a number, got nan"),
    ({"a": float("-inf")}, "a", "must be a number, got -inf"),
    ({"a": 1, "b": 2.0}, "b", "must be an integer, got 2.0"),
    ({"a": 1, "b": None}, "b", "must be an integer, got None"),
    ({"a": 1, "c": 5}, "c", "must be a string, got 5"),
    ([1.0], "", "must be a JSON object, got [1.0]"),
], ids=["missing", "unknown", "bool", "nan", "infinity", "float_for_int", "null_not_nullable",
        "not_a_string", "not_an_object"])
def test_spec_fields_names_the_faulty_field(spec, field, reason):
    with pytest.raises(SpecError) as err:
        spec_fields(spec, _TABLE)
    assert (err.value.field, err.value.reason) == (field, reason)


def test_spec_section_names_nested_fields_and_the_section():
    table, reg = partial(spec_fields, fields=_TABLE), Regularizer.from_config
    for read, spec, message in (
            (table, {"a": "x"}, "field 'outer.a': must be a number, got 'x'"),
            (table, 5, "field 'outer': must be a JSON object, got 5"),
            (reg, {"kind": [1]}, "field 'outer': unknown regularizer kind [1]"),
            (reg, {"kind": "l1", "lambda": -1}, "field 'outer': l1 weight must be >= 0")):
        with pytest.raises(SpecError) as err:
            spec_section("outer", read, spec)
        assert str(err.value) == message
    # outside a section, an error of the spec as a whole names no field
    with pytest.raises(SpecError) as err:
        reg({"kind": "l2"})
    assert (err.value.field, str(err.value)) == ("", "unknown regularizer kind 'l2'")


def test_is_json():
    assert is_json(1, float) and is_json(1.5, float) and is_json(2, int)
    assert not any(is_json(v, float) for v in (True, False, None, "1", math.nan, math.inf))
    assert not is_json(True, int) and not is_json(1.0, int)
    assert is_json({}, dict) and is_json([], list) and not is_json((), list)


# the prox of the conjugate g* scaled by 1/gamma, in closed form: {0}'s indicator for
# zero, the lambda-box's indicator for l1 (a projection), (B/gamma)||.||_2 for the ball
_CONJUGATE_PROX = {
    "zero": lambda reg, gamma, v: np.zeros_like(v),
    "l1": lambda reg, gamma, v: np.clip(v, -reg.lam, reg.lam),
    "ball_indicator": lambda reg, gamma, v: v * max(
        0.0, 1.0 - reg.B / gamma / max(float(np.linalg.norm(v)), 1e-300)),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(_CONJUGATE_PROX)),
       weight=st.floats(0.01, 10.0),
       gamma=st.floats(1e-3, 1e3),
       x=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=5))
def test_prox_is_certified_and_moreau_decomposes(kind, weight, gamma, x):
    reg = {"zero": Regularizer.zero(), "l1": Regularizer.l1(weight),
           "ball_indicator": Regularizer.ball_indicator(weight)}[kind]
    x = np.array(x)
    p = prox(reg, gamma, x)
    assert prox_certificate(reg, gamma, x, p).verdict
    # Moreau: x = prox_{gamma g}(x) + gamma prox_{g*/gamma}(x / gamma)
    q = _CONJUGATE_PROX[kind](reg, gamma, x / gamma)
    assert np.linalg.norm(x - (p + gamma * q)) <= 1e-12 * (1.0 + np.linalg.norm(x))


# values whose sum depends on the order numpy adds them in: signed zeros,
# infinities, NaN, subnormals, and magnitudes that overflow or absorb a 1
_SUM_EDGES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                              2.2e-308, 1.7e308, -1.7e308, 1e16, 1.0, -1.0])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(Z=hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=12),
                    elements=st.one_of(_SUM_EDGES, st.floats())),
       transpose=st.booleans())
def test_axis_sum_equals_numpy_sum_and_mean_byte_for_byte(Z, transpose):
    # the condition axis_sum rests on: numpy adds fewer than 8 entries in order
    # onto +0.0, in any memory layout; a numpy release that changes its
    # reduction order fails here
    Z = Z.T if transpose else Z
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the mean of an empty axis
        for axis in range(Z.ndim):
            got = axis_sum(Z, axis)
            assert got.shape == np.sum(Z, axis).shape
            assert got.tobytes() == np.sum(Z, axis).tobytes()
            assert (got / Z.shape[axis]).tobytes() == np.mean(Z, axis).tobytes()
