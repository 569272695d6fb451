"""Regularizers with closed-form proximal maps, subgradient selections, and
prox-optimality certificates.

Three regularizers are supported: the zero function, the scaled L1 norm, and the
indicator of a centered euclidean ball (whose prox is the projection).  All
operations are pure functions; the certificate verifies a candidate prox output
through the optimality condition (x - p)/gamma in the subdifferential at p.
``spec_value`` checks a field of the JSON specs parsed here, in ``algorithms``
and in ``problems``; it lives in this module because the other two import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Regularizer", "ProxCertificate", "prox", "subgradient", "prox_certificate",
           "SpecError", "spec_value"]


class SpecError(ValueError):
    """A field of a JSON spec (schedule, regularizer, problem) of the wrong type;
    ``field`` names it within its spec."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"field {field!r}: {reason}")
        self.field, self.reason = field, reason


def spec_value(spec: dict, key: str, kind=float, default=None):
    """``spec[key]``, or ``default`` when it is absent and a default is given:
    a JSON number, or an integer for ``kind=int`` (true/false are neither).
    KeyError if it is missing, SpecError naming ``key`` if it has another type."""
    value = spec[key] if default is None else spec.get(key, default)
    types, name = (int, "an integer") if kind is int else ((int, float), "a number")
    if isinstance(value, bool) or not isinstance(value, types):
        raise SpecError(key, f"must be {name}, got {value!r:.40}")
    return value


@dataclass(frozen=True)
class Regularizer:
    """Nonsmooth term g. kind: "zero" | "l1" (lam >= 0) | "ball_indicator" (B > 0)."""

    kind: str
    lam: float = 0.0
    B: float = 0.0

    @staticmethod
    def zero() -> "Regularizer":
        return Regularizer("zero")

    @staticmethod
    def l1(lam: float) -> "Regularizer":
        if lam < 0:
            raise ValueError("l1 weight must be >= 0")
        return Regularizer("l1", lam=float(lam))

    @staticmethod
    def ball_indicator(B: float) -> "Regularizer":
        if B <= 0:
            raise ValueError("ball radius must be > 0")
        return Regularizer("ball_indicator", B=float(B))

    @staticmethod
    def from_config(cfg: dict) -> "Regularizer":
        """Parse a regularizer spec; KeyError names a missing field, SpecError a
        field that is not a JSON number."""
        if not isinstance(cfg, dict):
            raise ValueError(f"a regularizer spec is a JSON object, not {type(cfg).__name__}")
        kind = cfg.get("kind")
        if kind == "zero":
            return Regularizer.zero()
        if kind == "l1":
            return Regularizer.l1(spec_value(cfg, "lambda"))
        if kind == "ball_indicator":
            return Regularizer.ball_indicator(spec_value(cfg, "B"))
        raise ValueError(f"unknown regularizer kind {kind!r}")

    def value(self, x: np.ndarray) -> float:
        """g(x); +inf outside the domain of an indicator."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "l1":
            return self.lam * float(np.abs(x).sum())
        nx = float(np.linalg.norm(x))
        return 0.0 if nx <= self.B * (1.0 + 1e-12) else math.inf

    def value_rows(self, X: np.ndarray) -> np.ndarray:
        """value() of every row of X (M, d), each equal to value(X[m]) bit for bit."""
        if self.kind == "zero":
            return np.zeros(len(X))
        if self.kind == "l1":
            return self.lam * np.abs(X).sum(axis=1)
        return np.where(_norms(X) <= self.B * (1.0 + 1e-12), 0.0, math.inf)


@dataclass(frozen=True)
class ProxCertificate:
    """Outcome of verifying p = prox_{gamma g}(x) via the subdifferential."""

    x: np.ndarray
    p: np.ndarray
    gamma: float
    residual: float
    verdict: bool


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of a vector, or of each row of an (M, d) array; the
    row-wise dot reproduces np.linalg.norm of each row bit for bit."""
    return np.sqrt(np.vecdot(x, x))


def prox(reg: Regularizer, gamma: float, x: np.ndarray) -> np.ndarray:
    """prox_{gamma g}(x), the unique minimizer of g(u) + ||u - x||^2 / (2 gamma).

    zero -> identity; l1 -> componentwise soft threshold at gamma*lam;
    ball indicator -> euclidean projection onto the ball (independent of gamma).
    An (M, d) input is mapped row by row.
    """
    if gamma <= 0:
        raise ValueError("prox step gamma must be > 0")
    x = np.asarray(x, dtype=float)
    if reg.kind == "zero":
        return x.copy()
    if reg.kind == "l1":
        thr = gamma * reg.lam
        return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)
    # the factor is exactly 1 inside the ball and B / ||x|| outside it
    return x * (reg.B / np.maximum(_norms(x)[..., None], reg.B))


def subgradient(reg: Regularizer, x: np.ndarray) -> np.ndarray:
    """One element of the subdifferential of g at x (minimum-norm at kinks).

    l1: lam * sign(x_j), with 0 selected where x_j = 0.  Ball indicator: 0
    (valid in the interior and on the boundary).  Raises outside the domain.
    An (M, d) input is mapped row by row.
    """
    x = np.asarray(x, dtype=float)
    if reg.kind == "zero":
        return np.zeros_like(x)
    if reg.kind == "l1":
        return reg.lam * np.sign(x)
    if np.any(_norms(x) > reg.B * (1.0 + 1e-12)):
        raise ValueError("x outside the ball: subdifferential is empty")
    return np.zeros_like(x)


def prox_certificate(reg: Regularizer, gamma: float, x: np.ndarray, p: np.ndarray) -> ProxCertificate:
    """Check the optimality condition (x - p)/gamma in subdiff g(p).

    residual is the largest violation found; the verdict passes when
    residual <= 1e-9 * (1 + ||x||).  A false verdict carries no exception:
    the residual is the diagnostic.
    """
    if gamma <= 0:
        raise ValueError("prox step gamma must be > 0")
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    v = (x - p) / gamma

    if reg.kind == "zero":
        residual = float(np.max(np.abs(v))) if v.size else 0.0
    elif reg.kind == "l1":
        lam = reg.lam
        # where p_j != 0 the subgradient is exactly lam*sign(p_j);
        # where p_j == 0 it is anything in [-lam, lam]
        at_kink = p == 0.0
        res_kink = np.maximum(np.abs(v) - lam, 0.0)
        res_smooth = np.abs(v - lam * np.sign(p))
        residual = float(np.max(np.where(at_kink, res_kink, res_smooth))) if v.size else 0.0
    else:
        proj = prox(reg, gamma, x)
        residual = float(np.linalg.norm(p - proj))
        # normal-cone consistency: x - p must be a nonnegative multiple of p
        outward = x - p
        if float(np.linalg.norm(outward)) > 0:
            np_norm = float(np.linalg.norm(p))
            if np_norm < reg.B * (1.0 - 1e-12):
                residual = max(residual, float(np.linalg.norm(outward)))
            else:
                unit = p / max(np_norm, 1e-300)
                radial = float(outward @ unit)
                residual = max(residual, float(np.linalg.norm(outward - radial * unit)))
                residual = max(residual, max(0.0, -radial))

    verdict = residual <= 1e-9 * (1.0 + float(np.linalg.norm(x)))
    return ProxCertificate(x=x, p=p, gamma=gamma, residual=residual, verdict=verdict)
