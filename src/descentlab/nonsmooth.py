"""Regularizers with closed-form proximal maps, subgradient selections, and
prox-optimality certificates.

Three regularizers are supported: the zero function, the scaled L1 norm, and the
indicator of a centered euclidean ball (whose prox is the projection).  All
operations are pure functions; the certificate verifies a candidate prox output
through the optimality condition (x - p)/gamma in the subdifferential at p.
The one reader of the package's JSON specs (configs, schedules, regularizers,
problems, fixture and constants files) lives here too: ``read_json`` for a
file, and ``spec_fields``, ``spec_kind`` and ``spec_section``, behind one
``is_json`` test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Regularizer", "ProxCertificate", "prox", "subgradient", "prox_certificate",
           "SpecError", "REQUIRED", "is_json", "spec_fields", "spec_kind", "spec_section"]


class SpecError(ValueError):
    """A field of a JSON spec that is unknown, missing, of the wrong type or out
    of range; ``field`` names it within its spec, and is empty for the spec as
    a whole."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"field {field!r}: {reason}" if field else reason)
        self.field, self.reason = field, reason


REQUIRED = object()  # the default of a field that must be given
_KIND_NAMES = {dict: "a JSON object", list: "a list", str: "a string", int: "an integer",
               float: "a number"}


def is_json(value, kind) -> bool:
    """Whether a parsed JSON value is of ``kind``, one of dict, list, str, int
    and float (a number, integers included).  true and false are not numbers,
    and neither are NaN and Infinity, which Python's json module accepts."""
    return (isinstance(value, (int, float) if kind is float else kind)
            and not isinstance(value, bool)
            and not (isinstance(value, float) and not math.isfinite(value)))


def read_json(path: str, name: str = ""):
    """The JSON value in the file at ``path``.  A file that cannot be read, or
    is not JSON, is a SpecError of the spec ``name``: its reason names the
    path, or for invalid JSON the line (and the path when ``name`` is empty)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(name, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        where = "" if name else f" in {path}"
        raise SpecError(name, f"invalid JSON{where} at line {exc.lineno}: {exc.msg}") from exc


def spec_fields(spec, fields: dict, name: str = "") -> dict:
    """The value of every field of the JSON object ``spec`` by the table
    ``fields``, which maps each field name to its (JSON kind, default): the
    default is REQUIRED for a field that must be given, and None makes a field
    nullable.  SpecError names an unknown, missing or mistyped field, or
    ``name`` (the spec itself) if ``spec`` is not a JSON object."""
    if not is_json(spec, dict):
        raise SpecError(name, f"must be a JSON object, got {spec!r:.40}")
    unknown = sorted(set(spec) - set(fields))
    if unknown:
        raise SpecError(unknown[0], "unknown field")
    values = {}
    for key, (kind, default) in fields.items():
        value = values[key] = spec.get(key, default)
        if value is REQUIRED:
            raise SpecError(key, "required field missing")
        if not (is_json(value, kind) or (value is None and default is None)):
            raise SpecError(key, f"must be {_KIND_NAMES[kind]}, got {value!r:.40}")
    return values


def spec_kind(spec, what: str, kinds: dict) -> tuple:
    """``(kind, fields)`` of a spec whose string field ``kind`` selects its other
    fields: ``kinds`` maps each kind to their ``spec_fields`` table.  An unknown
    kind is a SpecError of the spec as a whole."""
    is_object = is_json(spec, dict)
    kind = spec.get("kind") if is_object else None
    if is_object and not (is_json(kind, str) and kind in kinds):
        raise SpecError("", f"unknown {what} kind {kind!r:.40}")
    fields = spec_fields(spec, {"kind": (str, REQUIRED), **kinds.get(kind, {})})
    del fields["kind"]
    return kind, fields


def spec_section(section: str, read, spec):
    """``read(spec)`` for the nested spec ``section``, the one place a nested
    field is named ``section.field``: a SpecError ``read`` raises is renamed so,
    and any other ValueError (a value out of range) names ``section``."""
    try:
        return read(spec)
    except SpecError as exc:
        raise SpecError(f"{section}.{exc.field}" if exc.field else section, exc.reason) from exc
    except ValueError as exc:
        raise SpecError(section, str(exc)) from exc


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
    def from_config(cfg) -> "Regularizer":
        """Read a regularizer spec; SpecError names a field that is unknown,
        missing or not a JSON number."""
        kind, fields = spec_kind(cfg, "regularizer", _REGULARIZER_FIELDS)
        return getattr(Regularizer, kind)(*fields.values())

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
            return self.lam * axis_sum(np.abs(X), 1)
        return np.where(_norms(X) <= self.B * (1.0 + 1e-12), 0.0, math.inf)


# each regularizer kind's fields, the arguments of its constructor
_REGULARIZER_FIELDS = {"zero": {}, "l1": {"lambda": (float, REQUIRED)},
                       "ball_indicator": {"B": (float, REQUIRED)}}


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


def axis_sum(Z: np.ndarray, axis: int) -> np.ndarray:
    """np.sum(Z, axis) bit for bit.  Below its 8-wide pairwise block numpy adds
    the entries in order onto +0.0 (so -0.0 + -0.0 sums to +0.0); an axis that
    short is added here slice by slice, about 10x faster on long arrays.  A mean
    is this sum divided by the count, as np.mean computes it."""
    n = Z.shape[axis]
    if not 0 < n < 8:
        return Z.sum(axis)
    at = (slice(None),) * axis
    total = Z[at + (0,)] + 0.0
    for i in range(1, n):
        total += Z[at + (i,)]
    return total


def prox(reg: Regularizer, gamma: float, x: np.ndarray,
         out: Optional[np.ndarray] = None) -> np.ndarray:
    """prox_{gamma g}(x), the unique minimizer of g(u) + ||u - x||^2 / (2 gamma),
    written into ``out`` if given (which may be x itself).

    zero -> identity; l1 -> componentwise soft threshold at gamma*lam;
    ball indicator -> euclidean projection onto the ball (independent of gamma).
    An (M, d) input is mapped row by row.
    """
    if gamma <= 0:
        raise ValueError("prox step gamma must be > 0")
    x = np.asarray(x, dtype=float)
    if reg.kind == "zero":
        return np.positive(x, out=out)  # a copy, bit for bit
    if reg.kind == "l1":
        sign = np.sign(x)  # read before ``out`` overwrites x
        v = np.abs(x, out=out)
        v -= gamma * reg.lam
        return np.multiply(sign, np.maximum(v, 0.0, out=v), out=v)
    # the factor is exactly 1 inside the ball and B / ||x|| outside it
    factor = np.maximum(_norms(x)[..., None], reg.B)
    return np.multiply(x, np.divide(reg.B, factor, out=factor), out=out)


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
