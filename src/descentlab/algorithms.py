"""Iterative first-order methods with uniform traces.

All runners share the same conventions: a run is a strictly sequential recurrence
seeded by ``cfg.seed + trial``; index sampling draws one double per index (and b
doubles per size-b batch) from the trial's own generator, so a batch size of 1
replays the single-sample stream exactly.  Traces record t = 0..T inclusive with
the objective gap, squared distance to the reference minimizer, and the stepsize
at each index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .nonsmooth import prox
from .problems import CompositeProblem, FiniteSumProblem, GroundTruth

__all__ = [
    "StepSchedule",
    "Trace",
    "RunConfig",
    "DivergenceError",
    "run_gd",
    "run_sgd",
    "run_minibatch_sgd",
    "run_momentum",
    "run_subgradient",
    "run_prox_gd",
    "run_prox_sgd",
    "run_algorithm",
    "averaged_iterate",
    "write_traces_csv",
    "ALGORITHMS",
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
        kind = cfg.get("kind")
        if kind == "constant":
            return StepSchedule.constant(cfg["gamma"])
        if kind == "inv_sqrt":
            return StepSchedule.inv_sqrt(cfg["gamma0"])
        if kind == "momentum_pair":
            return StepSchedule.momentum_pair(cfg["eta"])
        if kind == "horizon_constant":
            return StepSchedule.horizon_constant(cfg["gamma"], cfg["horizon"])
        raise ValueError(f"unknown schedule kind {kind!r}")

    def to_config(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "gamma": self.gamma}
        if self.kind == "inv_sqrt":
            return {"kind": "inv_sqrt", "gamma0": self.gamma0}
        if self.kind == "momentum_pair":
            return {"kind": "momentum_pair", "eta": self.eta}
        if self.kind == "horizon_constant":
            return {"kind": "horizon_constant", "gamma": self.gamma, "horizon": self.horizon}
        raise ValueError("explicit schedules are not serializable")


@dataclass
class Trace:
    """Per-iteration record of one trajectory (rows t = 0..T)."""

    algorithm: str
    trial: int
    rng_seed: int
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
    """Everything a runner needs for one experiment."""

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


def _gap_reference(cfg: RunConfig, composite: bool):
    """(objective, inf, x_ref) for gap bookkeeping."""
    if composite:
        comp = cfg.composite
        if comp is None:
            raise ValueError("proximal runs need cfg.composite")
        return comp.value, comp.inf_F, comp.x_star_F
    return cfg.problem.value, cfg.ground_truth.inf_f, cfg.ground_truth.x_star


class _Recorder:
    """Fills trace arrays and enforces the divergence guard."""

    def __init__(self, cfg: RunConfig, algorithm: str, trial: int, objective, inf_val, x_ref):
        T = cfg.iterations
        self.objective = objective
        self.inf_val = inf_val
        self.x_ref = x_ref
        self.gamma = np.array([cfg.schedule.gamma_at(t) for t in range(T + 1)])
        self.f_gap = np.empty(T + 1)
        self.dist_sq = np.empty(T + 1)
        self.iterates = np.empty((T + 1, cfg.problem.d))
        self.algorithm = algorithm
        self.trial = trial
        self.seed = cfg.seed + trial
        self.limit = None

    def record(self, t: int, x: np.ndarray):
        gap = self.objective(x) - self.inf_val
        d = x - self.x_ref
        self.iterates[t] = x
        self.f_gap[t] = gap
        self.dist_sq[t] = float(d @ d)
        if t == 0:
            self.limit = _DIVERGENCE_FACTOR * (1.0 + abs(gap))
        if not np.isfinite(gap) or gap > self.limit:
            raise DivergenceError(t, f"divergence detected at t={t}: objective gap {gap!r}")

    def finish(self, T: int) -> Trace:
        return Trace(
            algorithm=self.algorithm, trial=self.trial, rng_seed=self.seed,
            t=np.arange(T + 1), gamma=self.gamma, f_gap=self.f_gap,
            dist_sq=self.dist_sq, iterates=self.iterates,
        )


def _draw_indices(rng: np.random.Generator, T: int, n: int) -> np.ndarray:
    """T uniform indices, one double consumed per index."""
    u = rng.random(T)
    return np.minimum((u * n).astype(np.int64), n - 1)


def _draw_batches(rng: np.random.Generator, T: int, n: int, b: int) -> np.ndarray:
    """T uniform size-b subsets via partial Fisher-Yates (b doubles per step)."""
    u = rng.random((T, b))
    batches = np.empty((T, b), dtype=np.int64)
    base = np.arange(n, dtype=np.int64)
    for t in range(T):
        perm = base.copy()
        row = u[t]
        for j in range(b):
            k = j + int(row[j] * (n - j))
            if k >= n:
                k = n - 1
            perm[j], perm[k] = perm[k], perm[j]
        batches[t] = perm[:b]
    return batches


def run_gd(cfg: RunConfig, trial: int = 0) -> Trace:
    """Full gradient descent x_{t+1} = x_t - gamma * grad f(x_t)."""
    if not cfg.schedule.is_constant:
        raise ValueError("gd requires a constant stepsize schedule")
    rec = _Recorder(cfg, "gd", trial, *_gap_reference(cfg, composite=False))
    x = cfg.start_point()
    grad = cfg.problem.grad
    gamma = cfg.schedule.gamma
    rec.record(0, x)
    for t in range(cfg.iterations):
        x = x - gamma * grad(x)
        rec.record(t + 1, x)
    return rec.finish(cfg.iterations)


def run_sgd(cfg: RunConfig, trial: int = 0) -> Trace:
    """Uniform single-sample stochastic gradient descent."""
    if not (cfg.schedule.is_constant or cfg.schedule.kind == "inv_sqrt"):
        raise ValueError("sgd supports constant or inv_sqrt schedules")
    rec = _Recorder(cfg, "sgd", trial, *_gap_reference(cfg, composite=False))
    rng = np.random.default_rng(cfg.seed + trial)
    idx = _draw_indices(rng, cfg.iterations, cfg.problem.n)
    x = cfg.start_point()
    grad_i = cfg.problem.grad_i
    sched = cfg.schedule
    rec.record(0, x)
    for t in range(cfg.iterations):
        x = x - sched.gamma_at(t) * grad_i(int(idx[t]), x)
        rec.record(t + 1, x)
    return rec.finish(cfg.iterations)


def run_minibatch_sgd(cfg: RunConfig, trial: int = 0) -> Trace:
    """SGD over uniformly random size-b subsets (without replacement in a batch)."""
    b = cfg.batch_size
    if b is None:
        raise ValueError("minibatch_sgd needs batch_size b")
    n = cfg.problem.n
    rec = _Recorder(cfg, "minibatch_sgd", trial, *_gap_reference(cfg, composite=False))
    rng = np.random.default_rng(cfg.seed + trial)
    batches = _draw_batches(rng, cfg.iterations, n, b)
    x = cfg.start_point()
    grad_i = cfg.problem.grad_i
    sched = cfg.schedule
    rec.record(0, x)
    for t in range(cfg.iterations):
        g = grad_i(int(batches[t, 0]), x)
        for j in range(1, b):
            g = g + grad_i(int(batches[t, j]), x)
        x = x - (sched.gamma_at(t) / b) * g
        rec.record(t + 1, x)
    return rec.finish(cfg.iterations)


def run_momentum(cfg: RunConfig, form: Optional[str] = None, trial: int = 0) -> Trace:
    """Stochastic momentum in one of three equivalent formulations.

    ``buffer``:      m_t = beta_t m_{t-1} + grad f_i(x_t);  x_{t+1} = x_t - gamma_t m_t
    ``heavy_ball``:  x_{t+1} = x_t - gamma_t grad f_i(x_t) + bhat_t (x_t - x_{t-1})
                     with bhat_t = gamma_t beta_t / gamma_{t-1}, x_{-1} = x_0, bhat_0 = 0
    ``ima``:         z_t = z_{t-1} - eta_t grad f_i(x_t);  x_{t+1} a moving average,
                     with lambda_t = t/2, eta_t = (1 + lambda_{t+1}) gamma_t, z_{-1} = x_0

    All three produce the same trajectory on the same sample stream.
    """
    form = cfg.momentum_form if form is None else form
    if form not in ("buffer", "heavy_ball", "ima"):
        raise ValueError(f"unknown momentum form {form!r}")
    sched = cfg.schedule
    if not sched.has_beta:
        raise ValueError("momentum needs a schedule providing beta_t (momentum_pair or explicit)")
    if form == "ima" and sched.kind != "momentum_pair":
        raise ValueError("the ima form is only coupled to the momentum_pair schedule")

    rec = _Recorder(cfg, f"momentum_{form}", trial, *_gap_reference(cfg, composite=False))
    rng = np.random.default_rng(cfg.seed + trial)
    idx = _draw_indices(rng, cfg.iterations, cfg.problem.n)
    x = cfg.start_point()
    grad_i = cfg.problem.grad_i
    rec.record(0, x)

    if form == "buffer":
        m = np.zeros(cfg.problem.d)
        for t in range(cfg.iterations):
            m = sched.beta_at(t) * m + grad_i(int(idx[t]), x)
            x = x - sched.gamma_at(t) * m
            rec.record(t + 1, x)
    elif form == "heavy_ball":
        x_prev = x.copy()
        for t in range(cfg.iterations):
            bhat = 0.0 if t == 0 else sched.gamma_at(t) * sched.beta_at(t) / sched.gamma_at(t - 1)
            x_next = x - sched.gamma_at(t) * grad_i(int(idx[t]), x) + bhat * (x - x_prev)
            x_prev, x = x, x_next
            rec.record(t + 1, x)
    else:  # ima
        z = x.copy()
        for t in range(cfg.iterations):
            lam_next = (t + 1) / 2.0
            eta_t = (1.0 + lam_next) * sched.gamma_at(t)
            z = z - eta_t * grad_i(int(idx[t]), x)
            x = (lam_next * x + z) / (lam_next + 1.0)
            rec.record(t + 1, x)
    return rec.finish(cfg.iterations)


def run_subgradient(cfg: RunConfig, projected: bool = False, trial: int = 0) -> Trace:
    """Stochastic subgradient descent, optionally projected onto the ball B(0, B)."""
    B = cfg.projection_B
    if projected and B is None:
        raise ValueError("projected subgradient run needs projection_B")
    x = cfg.start_point()
    if projected and float(np.linalg.norm(x)) > B * (1.0 + 1e-12):
        raise ValueError("x0 must lie inside the projection ball")
    name = "pssd" if projected else "ssd"
    rec = _Recorder(cfg, name, trial, *_gap_reference(cfg, composite=False))
    rng = np.random.default_rng(cfg.seed + trial)
    idx = _draw_indices(rng, cfg.iterations, cfg.problem.n)
    grad_i = cfg.problem.grad_i
    sched = cfg.schedule
    rec.record(0, x)
    for t in range(cfg.iterations):
        x = x - sched.gamma_at(t) * grad_i(int(idx[t]), x)
        if projected:
            nx = float(np.linalg.norm(x))
            if nx > B:
                x = x * (B / nx)
        rec.record(t + 1, x)
    return rec.finish(cfg.iterations)


def run_prox_gd(cfg: RunConfig, trial: int = 0) -> Trace:
    """Forward-backward splitting x_{t+1} = prox_{gamma g}(x_t - gamma grad f(x_t))."""
    if not cfg.schedule.is_constant:
        raise ValueError("prox_gd requires a constant stepsize schedule")
    if cfg.composite is None:
        raise ValueError("prox_gd needs cfg.composite")
    rec = _Recorder(cfg, "prox_gd", trial, *_gap_reference(cfg, composite=True))
    reg = cfg.composite.reg
    grad = cfg.composite.smooth.grad
    gamma = cfg.schedule.gamma
    x = cfg.start_point()
    rec.record(0, x)
    for t in range(cfg.iterations):
        x = prox(reg, gamma, x - gamma * grad(x))
        rec.record(t + 1, x)
    return rec.finish(cfg.iterations)


def run_prox_sgd(cfg: RunConfig, trial: int = 0) -> Trace:
    """Stochastic forward-backward x_{t+1} = prox_{gamma_t g}(x_t - gamma_t grad f_i(x_t))."""
    if not (cfg.schedule.is_constant or cfg.schedule.kind == "inv_sqrt"):
        raise ValueError("prox_sgd supports constant or inv_sqrt schedules")
    if cfg.composite is None:
        raise ValueError("prox_sgd needs cfg.composite")
    rec = _Recorder(cfg, "prox_sgd", trial, *_gap_reference(cfg, composite=True))
    reg = cfg.composite.reg
    grad_i = cfg.composite.smooth.grad_i
    sched = cfg.schedule
    rng = np.random.default_rng(cfg.seed + trial)
    idx = _draw_indices(rng, cfg.iterations, cfg.problem.n)
    x = cfg.start_point()
    rec.record(0, x)
    for t in range(cfg.iterations):
        g = sched.gamma_at(t)
        x = prox(reg, g, x - g * grad_i(int(idx[t]), x))
        rec.record(t + 1, x)
    return rec.finish(cfg.iterations)


ALGORITHMS = {
    "gd": run_gd,
    "sgd": run_sgd,
    "minibatch_sgd": run_minibatch_sgd,
    "momentum": run_momentum,
    "ssd": lambda cfg, trial=0: run_subgradient(cfg, projected=False, trial=trial),
    "pssd": lambda cfg, trial=0: run_subgradient(cfg, projected=True, trial=trial),
    "prox_gd": run_prox_gd,
    "prox_sgd": run_prox_sgd,
}


def run_algorithm(cfg: RunConfig, algorithm: str, trial: int = 0) -> Trace:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {sorted(ALGORITHMS)}")
    return ALGORITHMS[algorithm](cfg, trial=trial)


def is_deterministic(problem: FiniteSumProblem, algorithm: str, batch_size=None) -> bool:
    """True when the trajectory does not depend on the sampling stream."""
    if algorithm in ("gd", "prox_gd"):
        return True
    if algorithm == "minibatch_sgd":
        return batch_size == problem.n
    return problem.n == 1


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
    xs = trace.iterates[:t]
    if weighting == "uniform":
        return xs.mean(axis=0)
    if weighting == "gamma_weighted":
        w = trace.gamma[:t]
        return (w[:, None] * xs).sum(axis=0) / w.sum()
    if isinstance(weighting, tuple) and weighting[0] == "p_tk":
        L_ref = float(weighting[1])
        g = trace.gamma[:t]
        w = g * (1.0 - 2.0 * g * L_ref)
        bad = np.nonzero(w <= 0)[0]
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"p_tk weight nonpositive at k={k} (gamma_k={g[k]:.6g} >= 1/(2 L_ref))"
            )
        return (w[:, None] * xs).sum(axis=0) / w.sum()
    raise ValueError(f"unknown weighting {weighting!r}")


def write_traces_csv(traces, path) -> None:
    """Serialize traces as CSV: trial,t,gamma_t,f_gap,dist_sq (17 significant digits)."""
    if isinstance(traces, Trace):
        traces = [traces]
    with open(path, "w", newline="\n") as fh:
        fh.write("trial,t,gamma_t,f_gap,dist_sq\n")
        for tr in traces:
            for t, (g, f, d) in enumerate(zip(tr.gamma, tr.f_gap, tr.dist_sq)):
                fh.write(f"{tr.trial},{t},{g:.17g},{f:.17g},{d:.17g}\n")
