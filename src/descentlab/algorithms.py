"""Iterative first-order methods with uniform traces.

One stepping core, ``run_lockstep``, runs M trials of any method side by side.
Trial m is a strictly sequential recurrence seeded by ``cfg.seed + m``; index
sampling draws one double per index (and b doubles per size-b batch) from the
trial's own generator, so a batch size of 1 replays the single-sample stream
exactly.  Traces record t = 0..T inclusive with the objective gap, squared
distance to the reference minimizer, and the stepsize at each index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .nonsmooth import Regularizer, prox, spec_value
from .problems import CompositeProblem, FiniteSumProblem, GroundTruth

__all__ = [
    "StepSchedule",
    "Trace",
    "RunConfig",
    "DivergenceError",
    "run_lockstep",
    "run_algorithm",
    "averaged_iterate",
    "write_traces_csv",
    "ALGORITHMS",
    "FULL_GRADIENT",
    "PROXIMAL",
]

_DIVERGENCE_FACTOR = 1e12


class DivergenceError(RuntimeError):
    """Raised when an iterate goes non-finite or the gap explodes."""

    def __init__(self, t: int, message: str):
        super().__init__(message)
        self.t = t

    def __reduce__(self):
        # keep the two-argument signature picklable across process pools
        return (DivergenceError, (self.t, str(self)))


@dataclass(frozen=True)
class StepSchedule:
    """Stepsize (and momentum) schedule.

    kinds: ``constant`` (gamma), ``inv_sqrt`` (gamma_t = gamma0/sqrt(t+1)),
    ``momentum_pair`` (gamma_t = 2*eta/(t+3), beta_t = t/(t+2)),
    ``horizon_constant`` (a constant stepsize chosen for a fixed horizon), and
    ``explicit`` (arbitrary per-step gamma/beta arrays, programmatic use only).
    """

    kind: str
    gamma: float = 0.0
    gamma0: float = 0.0
    eta: float = 0.0
    horizon: int = 0
    gammas: tuple = field(default=(), repr=False)
    betas: tuple = field(default=(), repr=False)

    @staticmethod
    def constant(gamma: float) -> "StepSchedule":
        if gamma <= 0:
            raise ValueError("constant stepsize must be > 0")
        return StepSchedule("constant", gamma=float(gamma))

    @staticmethod
    def inv_sqrt(gamma0: float) -> "StepSchedule":
        if gamma0 <= 0:
            raise ValueError("inv_sqrt gamma0 must be > 0")
        return StepSchedule("inv_sqrt", gamma0=float(gamma0))

    @staticmethod
    def momentum_pair(eta: float) -> "StepSchedule":
        if eta <= 0:
            raise ValueError("momentum_pair eta must be > 0")
        return StepSchedule("momentum_pair", eta=float(eta))

    @staticmethod
    def horizon_constant(gamma: float, horizon: int) -> "StepSchedule":
        if gamma <= 0:
            raise ValueError("horizon_constant stepsize must be > 0")
        return StepSchedule("horizon_constant", gamma=float(gamma), horizon=int(horizon))

    @staticmethod
    def explicit(gammas, betas=None) -> "StepSchedule":
        gammas = tuple(float(g) for g in gammas)
        betas = tuple(float(b) for b in betas) if betas is not None else ()
        return StepSchedule("explicit", gammas=gammas, betas=betas)

    @property
    def is_constant(self) -> bool:
        return self.kind in ("constant", "horizon_constant")

    @property
    def has_beta(self) -> bool:
        return self.kind == "momentum_pair" or (self.kind == "explicit" and bool(self.betas))

    def gamma_at(self, t: int) -> float:
        if self.is_constant:
            return self.gamma
        if self.kind == "inv_sqrt":
            return self.gamma0 / math.sqrt(t + 1.0)
        if self.kind == "momentum_pair":
            return 2.0 * self.eta / (t + 3.0)
        # explicit: clamp so the trace can label its final row
        return self.gammas[min(t, len(self.gammas) - 1)]

    def beta_at(self, t: int) -> float:
        if self.kind == "momentum_pair":
            return t / (t + 2.0)
        if self.kind == "explicit" and self.betas:
            return self.betas[t]
        raise ValueError(f"schedule kind {self.kind!r} lacks a momentum parameter beta_t")

    @staticmethod
    def from_config(cfg: dict) -> "StepSchedule":
        """Parse a schedule spec; KeyError names a missing field, SpecError a
        field that is not a JSON number (``horizon``: an integer)."""
        kind = cfg.get("kind")
        if kind == "constant":
            return StepSchedule.constant(spec_value(cfg, "gamma"))
        if kind == "inv_sqrt":
            return StepSchedule.inv_sqrt(spec_value(cfg, "gamma0"))
        if kind == "momentum_pair":
            return StepSchedule.momentum_pair(spec_value(cfg, "eta"))
        if kind == "horizon_constant":
            return StepSchedule.horizon_constant(spec_value(cfg, "gamma"),
                                                 spec_value(cfg, "horizon", int))
        raise ValueError(f"unknown schedule kind {kind!r}")


@dataclass
class Trace:
    """Per-iteration record of one trajectory (rows t = 0..T)."""

    algorithm: str
    trial: int
    t: np.ndarray
    gamma: np.ndarray
    f_gap: np.ndarray
    dist_sq: np.ndarray
    iterates: np.ndarray  # (T+1, d)

    @property
    def iterations(self) -> int:
        return len(self.t) - 1


@dataclass
class RunConfig:
    """One run: problem, schedule and horizon, and the method that
    ``run_lockstep`` runs (``algorithm``, ``momentum_form``, ``batch_size``)."""

    problem: FiniteSumProblem
    ground_truth: GroundTruth
    schedule: StepSchedule
    iterations: int
    seed: int = 0
    trials: int = 1
    batch_size: Optional[int] = None
    projection_B: Optional[float] = None
    composite: Optional[CompositeProblem] = None
    x0: Optional[np.ndarray] = None
    momentum_form: str = "buffer"
    algorithm: str = ""

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations T must be >= 1")
        if self.trials < 1:
            raise ValueError("trials M must be >= 1")
        if self.batch_size is not None and not (1 <= self.batch_size <= self.problem.n):
            raise ValueError(f"b={self.batch_size} out of range [1, {self.problem.n}]")
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float)
            if self.x0.shape != (self.problem.d,):
                raise ValueError(f"x0 must have shape ({self.problem.d},)")

    def start_point(self) -> np.ndarray:
        return (self.problem.default_x0 if self.x0 is None else self.x0).astype(float).copy()


def _draw_indices(rng: np.random.Generator, T: int, n: int) -> np.ndarray:
    """T uniform indices, one double consumed per index."""
    u = rng.random(T)
    return np.minimum((u * n).astype(np.int64), n - 1)


def _draw_batches(rng: np.random.Generator, T: int, n: int, b: int) -> np.ndarray:
    """T uniform size-b subsets via partial Fisher-Yates (b doubles per step);
    swap j is done for all T steps at once, in O(T n) memory."""
    u = rng.random((T, b))
    perm = np.tile(np.arange(n, dtype=np.int64), (T, 1))
    steps = np.arange(T)
    for j in range(b):
        k = np.minimum(j + (u[:, j] * (n - j)).astype(np.int64), n - 1)
        at_j = perm[:, j].copy()
        perm[:, j] = perm[steps, k]
        perm[steps, k] = at_j
    return perm[:, :b].copy()


# methods that step on the full gradient, so their trajectory is deterministic
FULL_GRADIENT = ("gd", "prox_gd")
# methods that step on F = f + g through the prox of g, so they need a composite
PROXIMAL = ("prox_gd", "prox_sgd")
ALGORITHMS = ("gd", "sgd", "minibatch_sgd", "momentum", "ssd", "pssd") + PROXIMAL


def _method(cfg: RunConfig, gamma, X0: np.ndarray):
    """Check that ``cfg`` suits its method ``cfg.algorithm``.  Returns (trace
    name, batch size or None, (row-wise objective, inf, x_ref) of the gap,
    step), where ``step(t, X, idx)`` maps every row of X to its next iterate,
    given the (b, M) sample indices ``idx`` of step t (None for full-gradient
    methods)."""
    sched, algorithm, form = cfg.schedule, cfg.algorithm, cfg.momentum_form
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {sorted(ALGORITHMS)}")
    if algorithm in FULL_GRADIENT and not sched.is_constant:
        raise ValueError(f"{algorithm} requires a constant stepsize schedule")
    if algorithm in ("sgd", "prox_sgd") and not (sched.is_constant or sched.kind == "inv_sqrt"):
        raise ValueError(f"{algorithm} supports constant or inv_sqrt schedules")
    problem, reg, batch, name = cfg.problem, None, None, algorithm
    gap = (problem.value_rows, cfg.ground_truth.inf_f, cfg.ground_truth.x_star)
    if algorithm in PROXIMAL:
        comp = cfg.composite
        if comp is None:
            raise ValueError(f"{algorithm} needs cfg.composite")
        problem, reg, gap = comp.smooth, comp.reg, (comp.value_rows, comp.inf_F, comp.x_star_F)
    elif algorithm == "minibatch_sgd":
        batch = cfg.batch_size
        if batch is None:
            raise ValueError("minibatch_sgd needs batch_size b")
    elif algorithm == "pssd":
        B = cfg.projection_B
        if B is None:
            raise ValueError("projected subgradient run needs projection_B")
        if float(np.linalg.norm(X0[0])) > B * (1.0 + 1e-12):
            raise ValueError("x0 must lie inside the projection ball")
        reg = Regularizer.ball_indicator(B)  # its prox is the projection
    elif algorithm == "momentum":
        if form not in ("buffer", "heavy_ball", "ima"):
            raise ValueError(f"unknown momentum form {form!r}")
        if not sched.has_beta:
            raise ValueError("momentum needs a schedule providing beta_t (momentum_pair or explicit)")
        if form == "ima" and sched.kind != "momentum_pair":
            raise ValueError("the ima form is only coupled to the momentum_pair schedule")
        name = f"momentum_{form}"

    def oracle(X, idx):
        """Full gradient, or the sum of the b sampled gradients, of every row."""
        if idx is None:
            return problem.full_grad_rows(X)
        G = problem.grad_rows(idx[0], X)
        for j in idx[1:]:
            G = G + problem.grad_rows(j, X)
        return G

    scale = float(batch or 1)
    m, prev, z = np.zeros_like(X0), X0, X0  # momentum state: m_{t-1}, x_{t-1}, z_{t-1}
    if algorithm != "momentum":
        # x_{t+1} = prox_{gamma_t g}(x_t - (gamma_t / b) * sum of b gradients), that is
        #   gd:            x_{t+1} = x_t - gamma grad f(x_t)
        #   sgd, ssd:      x_{t+1} = x_t - gamma_t grad f_i(x_t), i uniform
        #   minibatch_sgd: x_{t+1} = x_t - (gamma_t / b) sum_{i in S_t} grad f_i(x_t),
        #                  S_t a uniform size-b subset (without replacement)
        #   pssd:          x_{t+1} = Proj_{B(0, B)}(x_t - gamma_t grad f_i(x_t))
        #   prox_gd:       x_{t+1} = prox_{gamma g}(x_t - gamma grad f(x_t))
        #   prox_sgd:      x_{t+1} = prox_{gamma_t g}(x_t - gamma_t grad f_i(x_t))
        def step(t, X, idx):
            X = X - (gamma[t] / scale) * oracle(X, idx)
            return X if reg is None else prox(reg, gamma[t], X)
    # momentum: three formulations of one method, which produce the same
    # trajectory on the same sample stream (cfg.momentum_form picks one)
    elif form == "buffer":
        # m_t = beta_t m_{t-1} + grad f_i(x_t);  x_{t+1} = x_t - gamma_t m_t
        def step(t, X, idx):
            nonlocal m
            m = sched.beta_at(t) * m + oracle(X, idx)
            return X - gamma[t] * m
    elif form == "heavy_ball":
        # x_{t+1} = x_t - gamma_t grad f_i(x_t) + bhat_t (x_t - x_{t-1}),
        # bhat_t = gamma_t beta_t / gamma_{t-1}, x_{-1} = x_0, bhat_0 = 0
        def step(t, X, idx):
            nonlocal prev
            bhat = 0.0 if t == 0 else gamma[t] * sched.beta_at(t) / gamma[t - 1]
            prev, X = X, X - gamma[t] * oracle(X, idx) + bhat * (X - prev)
            return X
    else:
        # z_t = z_{t-1} - eta_t grad f_i(x_t);  x_{t+1} a moving average of x_t
        # and z_t, with lambda_t = t/2, eta_t = (1 + lambda_{t+1}) gamma_t, z_{-1} = x_0
        def step(t, X, idx):
            nonlocal z
            lam_next = (t + 1) / 2.0
            z = z - (1.0 + lam_next) * gamma[t] * oracle(X, idx)
            return (lam_next * X + z) / (lam_next + 1.0)
    return name, batch, gap, step


@dataclass
class Lockstep:
    """Trials of one method run side by side: their metrics at the steps ``t``."""

    algorithm: str
    trials: np.ndarray  # (M,) trial numbers
    t: np.ndarray  # recorded steps, ascending
    gamma: np.ndarray  # (T+1,) stepsizes
    f_gap: np.ndarray  # (M, len(t))
    dist_sq: np.ndarray  # (M, len(t))
    averaged: Optional[np.ndarray] = None  # (M, len(t)) gap at the averaged iterate
    iterates: Optional[np.ndarray] = None  # (M, T+1, d)

    def traces(self) -> list:  # of a run that recorded every step
        return [
            Trace(algorithm=self.algorithm, trial=int(m), t=self.t, gamma=self.gamma,
                  f_gap=self.f_gap[j], dist_sq=self.dist_sq[j],
                  iterates=None if self.iterates is None else self.iterates[j])
            for j, m in enumerate(self.trials)
        ]


_BLOCK = 512  # steps whose sample indices are drawn, and gaps guarded, at once


def run_lockstep(cfg: RunConfig, trials, at=None, averaging=None,
                 keep_iterates: bool = False) -> Lockstep:
    """Run the given trials of ``cfg.algorithm`` in lockstep on one (M, d)
    iterate array.

    Row m is trial ``trials[m]`` exactly as if run alone: its samples come from
    its own ``default_rng(cfg.seed + trial)`` (drawn in blocks of steps, which
    concatenate to the same stream) and the oracles act on rows independently.

    Gaps and squared distances are kept at the steps ``at`` (every step when
    None), iterates on request.  ``averaging = (weighting, objective_rows,
    inf)`` adds ``objective(xbar_t) - inf`` at each recorded t >= 1, xbar_t the
    weighted average of x_0 .. x_{t-1} (see ``averaged_iterate``).  A trial
    diverges at the first t where its gap is non-finite or above
    1e12 (1 + |gap_0|); one DivergenceError names every diverged trial.
    """
    T, d = cfg.iterations, cfg.problem.d
    trials = np.array(list(trials), dtype=np.int64)
    M = len(trials)
    gamma = [cfg.schedule.gamma_at(t) for t in range(T + 1)]
    X = np.tile(cfg.start_point(), (M, 1))
    name, batch, (objective, inf_val, x_ref), step = _method(cfg, gamma, X)
    recorded = np.arange(T + 1) if at is None else np.unique(np.asarray(at, dtype=np.int64))
    column = dict(zip(recorded.tolist(), range(len(recorded))))
    f_gap, dist_sq = np.empty((2, M, len(recorded)))
    averaged = None
    iterates = np.empty((M, T + 1, d)) if keep_iterates else None
    if averaging is not None:
        weighting, avg_objective, avg_inf = averaging
        weights = _weights(gamma, weighting, int(recorded[-1]))
        averaged = np.full((M, len(recorded)), np.nan)
        total = np.zeros((M, d))
    sampled = cfg.algorithm not in FULL_GRADIENT
    rngs = [np.random.default_rng(cfg.seed + int(m)) for m in trials] if sampled else []
    gaps = np.empty((_BLOCK, M))
    first = np.full(M, -1)  # first diverged step of each trial
    with np.errstate(all="ignore"):  # diverging rows run on as inf/nan
        limit = _DIVERGENCE_FACTOR * (1.0 + np.abs(objective(X) - inf_val))
        for t0 in range(0, T + 1, _BLOCK):
            t1 = min(t0 + _BLOCK, T + 1)
            if sampled and t0 < T:
                k, n = min(t1, T) - t0, cfg.problem.n
                idx = np.stack([_draw_indices(r, k, n)[:, None] if batch is None
                                else _draw_batches(r, k, n, batch) for r in rngs], axis=2)
            for t in range(t0, t1):
                gap = objective(X) - inf_val
                gaps[t - t0] = gap
                c = column.get(t)
                if c is not None:
                    f_gap[:, c] = gap
                    diff = X - x_ref
                    dist_sq[:, c] = np.vecdot(diff, diff)
                    if averaging is not None and t > 0:
                        averaged[:, c] = avg_objective(total / weights[:t].sum()) - avg_inf
                if keep_iterates:
                    iterates[:, t] = X
                if t == T:
                    break
                if averaging is not None and t < len(weights):
                    total = total + weights[t] * X
                X = step(t, X, idx[t - t0] if sampled else None)
            block = gaps[: t1 - t0]
            bad = ~np.isfinite(block) | (block > limit)
            newly = bad.any(axis=0) & (first < 0)
            first[newly] = t0 + bad[:, newly].argmax(axis=0)
            if (first >= 0).all():
                break
    failed = np.nonzero(first >= 0)[0]
    if failed.size:
        names = ", ".join(f"trial {trials[j]} (t={first[j]})" for j in failed)
        raise DivergenceError(int(first[failed].min()),
                              f"{failed.size} trial(s) diverged: {names}")
    return Lockstep(algorithm=name, trials=trials, t=recorded,
                    gamma=np.array(gamma), f_gap=f_gap, dist_sq=dist_sq,
                    averaged=averaged, iterates=iterates)


def run_algorithm(cfg: RunConfig, algorithm: str, trial: int = 0) -> Trace:
    """Trial ``trial`` of ``algorithm`` on ``cfg``, with its (T+1, d) iterates."""
    return run_lockstep(replace(cfg, algorithm=algorithm), [trial], keep_iterates=True).traces()[0]


def is_deterministic(cfg: RunConfig) -> bool:
    """True when the trajectory of ``cfg`` does not depend on the sampling stream."""
    if cfg.algorithm in FULL_GRADIENT:
        return True
    if cfg.algorithm == "minibatch_sgd":
        return cfg.batch_size == cfg.problem.n
    return cfg.problem.n == 1


def _weights(gamma, weighting, t: int) -> np.ndarray:
    """Averaging weights of x_0 .. x_{t-1}.  The uniform weights are ones, which
    reproduce the plain mean exactly (1.0 * x == x, and t ones sum to t)."""
    g = np.asarray(gamma[:t], dtype=float)
    if weighting == "uniform":
        return np.ones(t)
    if weighting == "gamma_weighted":
        return g
    if isinstance(weighting, tuple) and weighting[0] == "p_tk":
        w = g * (1.0 - 2.0 * g * float(weighting[1]))
        bad = np.nonzero(w <= 0)[0]
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"p_tk weight nonpositive at k={k} (gamma_k={g[k]:.6g} >= 1/(2 L_ref))"
            )
        return w
    raise ValueError(f"unknown weighting {weighting!r}")


def averaged_iterate(trace: Trace, weighting, upto: Optional[int] = None) -> np.ndarray:
    """Weighted average of the first t iterates x^0 .. x^{t-1}.

    ``weighting`` is "uniform", "gamma_weighted", or ("p_tk", L_ref) with weights
    proportional to gamma_k (1 - 2 gamma_k L_ref); those must all be positive,
    which requires gamma_k < 1 / (2 L_ref).
    """
    T = trace.iterations
    t = T if upto is None else int(upto)
    if not (1 <= t <= T):
        raise ValueError(f"averaging horizon t={t} must be in [1, {T}]")
    w = _weights(trace.gamma, weighting, t)
    return (w[:, None] * trace.iterates[:t]).sum(axis=0) / w.sum()


def write_traces_csv(traces, path) -> None:
    """Serialize traces as CSV: trial,t,gamma_t,f_gap,dist_sq (17 significant digits)."""
    if isinstance(traces, Trace):
        traces = [traces]
    with open(path, "w", newline="\n") as fh:
        fh.write("trial,t,gamma_t,f_gap,dist_sq\n")
        for tr in traces:
            for t, (g, f, d) in enumerate(zip(tr.gamma, tr.f_gap, tr.dist_sq)):
                fh.write(f"{tr.trial},{t},{g:.17g},{f:.17g},{d:.17g}\n")
