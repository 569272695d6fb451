"""Iterative first-order methods with uniform traces.

One stepping core, ``run_lockstep``, runs M trials of any method side by side.
Trial m is a strictly sequential recurrence seeded by ``cfg.seed + m``; index
sampling draws one double per index (and b doubles per size-b batch) from the
trial's own generator, so a batch size of 1 replays the single-sample stream
exactly.  Traces record t = 0..T inclusive with the objective gap, squared
distance to the reference minimizer, and the stepsize at each index.

Trial m's generator is ``default_rng(cfg.seed + m)`` bit for bit, built
without calling it (``_trial_rngs``): one vectorized pass of numpy's
SeedSequence hash over all M seeds gives each trial its four PCG64 state
words, from which PCG64 seeds itself.  A seed at or above 2^128 has more
entropy words than SeedSequence's pool holds, and gets ``default_rng`` itself.

Two lengths split a run, and neither changes a value.  Each trial draws its
samples once per *draw window* (``_draw_steps``), whose draws concatenate to
the trial's one stream; one Fisher-Yates pass turns the doubles of all trials
into indices (b = 1: one uniform index per row), and one gather
(``sample_rows``) reads the sampled terms' data, of which each step takes
views.  The gaps and distances are evaluated once per *gap block*
(``_block_steps``), on the block's stacked iterates, with row-wise oracles,
whose residual is written into one work buffer per call (the ``work``
argument of ``value_rows``).  Outside the recorded steps a gap only feeds the
divergence guard, so there a row whose squared norm is at most the problem's
threshold (``clearing_norm_sq``) is cleared by one dot product, and only the
others get the exact objective (``_block_gaps``).  The window is bounded by
its index array and gathered rows and the block by the objective residual,
so the two differ whenever n is large or M is.

Step t writes x_{t+1} straight into its row of the gap block's iterate
buffer (an extra row carries the block's last iterate to the next block) by
a fixed sequence of in-place ufunc calls into buffers made once per run: the
b sampled gradients (``sampled_grad_kernel``, bound with its residual buffer
once per run), added in order into the first; ``prox`` in place; the
momentum state, in its own buffers; and one 0-d array holding each scalar
(gamma_t / b, beta_t, ...) in turn, filled once at a constant stepsize.  The
floating-point operations are those of the formulas, in their order.

A full-gradient run (``FULL_GRADIENT``) replays its floating-point limit cycle
(``_replaying``): only there is the step a fixed map of the iterate array, as
``RunConfig`` requires a constant stepsize, while a stochastic step reads its
samples and momentum keeps state.  Brent's search compares each new state bit
for bit with one saved state, so it needs O(1) memory, and once a state
repeats each block's remaining states are gathered from the kept cycle in one
``np.take``, bit for bit those stepping would give, without calling an
oracle.  A deterministic run thus costs only the steps before its state
repeats; every state it records is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import Optional

import numpy as np

from .nonsmooth import REQUIRED, Regularizer, SpecError, prox, spec_kind
from .problems import CompositeProblem, FiniteSumProblem, Fixture, GroundTruth

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
    """Raised when trials diverge: an iterate goes non-finite or the gap
    explodes.  ``failures`` lists each diverged (trial, t) in trial order, and
    the message names them all; ``t`` is the earliest."""

    def __init__(self, failures):
        self.failures = [(int(m), int(t)) for m, t in failures]
        self.t = min(t for _, t in self.failures)
        names = ", ".join(f"trial {m} (t={t})" for m, t in self.failures)
        super().__init__(f"{len(self.failures)} trial(s) diverged: {names}")

    def __reduce__(self):
        return (DivergenceError, (self.failures,))


@dataclass(frozen=True)
class StepSchedule:
    """Stepsize (and momentum) schedule.

    kinds: ``constant`` (gamma), ``inv_sqrt`` (gamma_t = gamma0/sqrt(t+1)) and
    ``momentum_pair`` (gamma_t = 2*eta/(t+3), beta_t = t/(t+2)).  A stepsize
    recommended for a finite horizon T is a ``constant`` one: a run reads only
    gamma.
    """

    kind: str
    gamma: float = 0.0
    gamma0: float = 0.0
    eta: float = 0.0

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

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def gamma_at(self, t: int) -> float:
        if self.kind == "constant":
            return self.gamma
        if self.kind == "inv_sqrt":
            return self.gamma0 / math.sqrt(t + 1.0)
        return 2.0 * self.eta / (t + 3.0)  # momentum_pair

    def gammas(self, count: int) -> np.ndarray:
        """gamma_t for t = 0 .. count - 1, each gamma_at(t) bit for bit (sqrt
        and division are correctly rounded in numpy as in math)."""
        if self.kind == "constant":
            return np.full(count, self.gamma)
        t = np.arange(count, dtype=float)
        if self.kind == "inv_sqrt":
            return self.gamma0 / np.sqrt(t + 1.0)
        return 2.0 * self.eta / (t + 3.0)

    def beta_at(self, t: int) -> float:
        if self.kind != "momentum_pair":
            raise ValueError(f"schedule kind {self.kind!r} lacks a momentum parameter beta_t")
        return t / (t + 2.0)

    @staticmethod
    def from_config(cfg) -> "StepSchedule":
        """Read a schedule spec; SpecError names a field that is unknown,
        missing or not a JSON number."""
        kind, fields = spec_kind(cfg, "schedule", _SCHEDULE_FIELDS)
        return getattr(StepSchedule, kind)(**fields)


# each schedule kind's fields, the arguments of its constructor
_SCHEDULE_FIELDS = {"constant": {"gamma": (float, REQUIRED)},
                    "inv_sqrt": {"gamma0": (float, REQUIRED)},
                    "momentum_pair": {"eta": (float, REQUIRED)}}


@dataclass
class Trace:
    """Per-iteration record of one trajectory (rows t = 0..T)."""

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
    ``run_lockstep`` runs (``algorithm``, ``momentum_form``, ``batch_size``).

    A run is checked here and nowhere else: a field that does not fit raises
    SpecError naming it.  The checks against the method run once
    ``algorithm`` is set (``run_algorithm`` sets it through ``replace``, which
    checks again)."""

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
    algorithm: Optional[str] = None

    def __post_init__(self):
        n, d = self.problem.n, self.problem.d
        if self.iterations < 1:
            raise SpecError("iterations", "must be an integer >= 1")
        if self.trials < 1:
            raise SpecError("trials", "must be an integer >= 1")
        if self.seed < 0:
            raise SpecError("seed", f"must be an integer >= 0, got {self.seed}")
        if self.batch_size is not None and not 1 <= self.batch_size <= n:
            raise SpecError("batch_size", f"batch size {self.batch_size} out of range [1, {n}]")
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float)
            if self.x0.shape != (d,):
                raise SpecError("x0", f"must have length {d}")
        if self.algorithm is None:
            return
        sched, algorithm, form = self.schedule, self.algorithm, self.momentum_form
        if algorithm not in ALGORITHMS:
            raise SpecError("algorithm", f"unknown algorithm {algorithm!r}; "
                                         f"expected one of {sorted(ALGORITHMS)}")
        if algorithm in FULL_GRADIENT and not sched.is_constant:
            raise SpecError("schedule", f"{algorithm} requires a constant stepsize schedule")
        if algorithm in ("sgd", "prox_sgd") and not (sched.is_constant or sched.kind == "inv_sqrt"):
            raise SpecError("schedule", f"{algorithm} supports constant or inv_sqrt schedules")
        if algorithm in PROXIMAL and self.composite is None:
            raise ValueError(f"{algorithm} needs cfg.composite")
        if algorithm == "minibatch_sgd" and self.batch_size is None:
            raise SpecError("batch_size", "minibatch_sgd needs a batch size")
        if algorithm == "pssd":
            B = self.projection_B
            if B is None:
                raise SpecError("projection_B", "pssd needs a projection radius")
            if not B > 0:
                raise SpecError("projection_B", f"must be > 0, got {B}")
            if float(np.linalg.norm(self.start_point())) > B * (1.0 + 1e-12):
                raise SpecError("x0", f"must lie inside the projection ball of radius {B}")
        if algorithm == "momentum":
            if form not in ("buffer", "heavy_ball", "ima"):
                raise SpecError("momentum_form", f"unknown momentum form {form!r}")
            if sched.kind != "momentum_pair":
                raise SpecError("schedule", "momentum needs the momentum_pair schedule, "
                                            "which provides beta_t")

    @classmethod
    def for_fixture(cls, fx: Fixture, algorithm: str, schedule: StepSchedule, iterations: int,
                    seed: int = 0, trials: int = 1, batch_size: Optional[int] = None,
                    projection_B: Optional[float] = None, x0=None,
                    momentum_form: str = "buffer") -> "RunConfig":
        """The run of ``algorithm`` on a fixture: a proximal method steps on the
        fixture's composite, and ``pssd`` projects onto the fixture's ``B``
        unless ``projection_B`` is given.  A field the method does not use is a
        SpecError: ``batch_size`` but for minibatch_sgd, ``projection_B`` but
        for pssd, a ``momentum_form`` other than buffer but for momentum."""
        if algorithm == "pssd" and projection_B is None and fx.constants.B > 0:
            projection_B = fx.constants.B
        cfg = cls(problem=fx.problem, ground_truth=fx.ground_truth, schedule=schedule,
                  iterations=iterations, seed=seed, trials=trials, batch_size=batch_size,
                  projection_B=projection_B,
                  composite=fx.composite if algorithm in PROXIMAL else None,
                  x0=x0, momentum_form=momentum_form, algorithm=algorithm)
        for name, given, user in (("batch_size", batch_size is not None, "minibatch_sgd"),
                                  ("projection_B", projection_B is not None, "pssd"),
                                  ("momentum_form", momentum_form != "buffer", "momentum")):
            if given and algorithm != user:
                raise SpecError(name, f"{algorithm} does not use it, only {user} does")
        return cfg

    def start_point(self) -> np.ndarray:
        return (self.problem.default_x0 if self.x0 is None else self.x0).astype(float).copy()


def _draw_window(rngs, k: int, n: int, b: int) -> np.ndarray:
    """The (k, b, M) sample indices of the next k steps of M trials: a uniform
    size-b subset of the n terms per step and trial, by partial Fisher-Yates on
    b doubles (b = 1: one uniform index).  Trial m draws its (k, b) doubles
    with one call on its own generator ``rngs[m]``, so consecutive windows
    concatenate to the trial's one stream.

    Swap j exchanges positions j and min(j + floor(u_j (n - j)), n - 1), for
    the M k rows at once.  No (rows, n) table is built: each row keeps the
    (position, value) pairs its swaps wrote, and position j is final once swap
    j has read it."""
    u = np.empty((len(rngs), k, b))
    for r, drawn in zip(rngs, u):
        r.random(out=drawn)
    if b == 1:  # swap 0 alone: one uniform index per row
        return np.minimum((u * n).astype(np.int64), n - 1).transpose(1, 2, 0)
    u = u.reshape(-1, b)
    out = np.empty(u.shape, dtype=np.int64)
    pos = np.empty(u.shape, dtype=np.int64)  # position swap i wrote, -1 once overwritten
    val = np.empty(u.shape, dtype=np.int64)  # the value swap i wrote there
    for j in range(b):
        kj = np.minimum(j + (u[:, j] * (n - j)).astype(np.int64), n - 1)
        seen, held = pos[:, :j], val[:, :j]
        at_j, at_k = seen == j, seen == kj[:, None]
        out[:, j] = np.where(at_k.any(axis=1), (held * at_k).sum(axis=1), kj)
        pos[:, j] = kj
        val[:, j] = np.where(at_j.any(axis=1), (held * at_j).sum(axis=1), j)
        seen[at_k] = -1
    return out.reshape(len(rngs), k, b).transpose(1, 2, 0)


# numpy's SeedSequence (NEP 19) over a pool of 4 uint32 words.  Its hash
# constants evolve by one multiplication per hash, so in a fixed sequence of
# hashes each one's constants are fixed: _HASH_A[j], _HASH_A[j + 1] those of
# the pool's j-th hash, _HASH_B[k], _HASH_B[k + 1] those of output word k.
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h, dtype=np.uint32)[:, None]


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # 4 entropy words, then 12 mixes
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # generate_state(4, uint64): 8 words
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)  # mix(x, y): L x - R y, xor-shifted
# the mixing pass: pool word src, hashed, mixed into each other word dst in turn
_MIXES = [(src, [dst for dst in range(4) if dst != src], 4 + 3 * src) for src in range(4)]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    value ^= value >> 16
    return value


def _pcg64_states(seed: int, trials: np.ndarray) -> np.ndarray:
    """The (M, 4) uint64 ``SeedSequence(seed + m).generate_state(4, np.uint64)``
    of each trial m, for seeds 0 <= seed + m < 2^128 (at most 4 entropy words,
    zero-padded to the pool), computed for all M seeds at once as (4, M) and
    (8, M) uint32 arrays in the sequence of hashes SeedSequence runs on one."""
    low = seed & 0xFFFFFFFFFFFFFFFF
    lo = trials.astype(np.uint64) + low  # the low 64 bits, wrapping
    hi = (lo < low).astype(np.uint64) + (seed >> 64)  # and the carry into the high ones
    words = np.stack((lo & _MASK32, lo >> 32, hi & _MASK32, hi >> 32)).astype(np.uint32)
    pool = _hashmix(words, _HASH_A[0:4], _HASH_A[1:5])
    for src, dst, j in _MIXES:
        hashed = _hashmix(pool[src], _HASH_A[j:j + 3], _HASH_A[j + 1:j + 4])
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B[0:8], _HASH_B[1:9])
    # little-endian word pairs, as SeedSequence makes its uint64 words
    return np.ascontiguousarray(state.T).astype("<u4", copy=False).view("<u8").astype(
        np.uint64, copy=False)


@cache
def _given_state():
    """An ISeedSequence whose generate_state returns the words it holds.
    Made at first use: ``numpy.random``, which defines ISeedSequence, takes
    longer to import than most runs take to set up."""
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return GivenState


def _trial_rngs(seed: int, trials: np.ndarray) -> list:
    """``np.random.default_rng(seed + m)`` of each trial m, bit for bit: one
    vectorized SeedSequence pass (``_pcg64_states``) gives each PCG64 its
    state words.  A seed outside [0, 2^128) has other than 1 to 4 entropy
    words and goes through ``default_rng`` itself."""
    if trials.min() < 0 or seed + int(trials.max()) >= 2 ** 128:
        return [np.random.default_rng(seed + int(m)) for m in trials]
    given, Generator, PCG64 = _given_state(), np.random.Generator, np.random.PCG64
    return [Generator(PCG64(given(state))) for state in _pcg64_states(seed, trials)]


# methods that step on the full gradient, so their trajectory is deterministic
FULL_GRADIENT = ("gd", "prox_gd")
# methods that step on F = f + g through the prox of g, so they need a composite
PROXIMAL = ("prox_gd", "prox_sgd")
ALGORITHMS = ("gd", "sgd", "minibatch_sgd", "momentum", "ssd", "pssd") + PROXIMAL


def _method(cfg: RunConfig, gamma, X0: np.ndarray):
    """The step of ``cfg.algorithm`` (which ``cfg`` was checked against) from
    the (M, d) start X0.  Returns (batch size b, the oracle's ``sample_rows``
    or None for a full-gradient method, (row-wise objective, its
    ``clearing_norm_sq``, inf, x_ref) of the gap, step), where ``step(t, X,
    out, rows)`` writes the next iterate of every row of X into ``out``,
    given step t's sampled (b, M, d) rows and (b, M) targets (None for a
    full-gradient method), by in-place ufunc calls into buffers made here
    once per run (the b gradients, the momentum state, a 0-d scalar)."""
    sched, algorithm, form = cfg.schedule, cfg.algorithm, cfg.momentum_form
    problem, reg, batch = cfg.problem, None, 1
    gap = (problem.value_rows, problem.clearing_norm_sq, cfg.ground_truth.inf_f,
           cfg.ground_truth.x_star)
    if algorithm in PROXIMAL:
        comp = cfg.composite
        problem, reg = comp.smooth, comp.reg
        gap = (comp.value_rows, comp.clearing_norm_sq, comp.inf_F, comp.x_star_F)
    elif algorithm == "minibatch_sgd":
        batch = cfg.batch_size
    elif algorithm == "pssd":
        reg = Regularizer.ball_indicator(cfg.projection_B)  # its prox is the projection
    terms, coef = np.empty((batch,) + X0.shape), np.empty(())
    first, rest = terms[0], list(terms[1:])  # the b gradients, added in order into the first

    # the full gradient, or the sum of the b sampled gradients, of every row,
    # in an array the step may overwrite
    if algorithm in FULL_GRADIENT:
        def oracle(X, rows):
            return problem.full_grad_rows(X)
    else:
        sampled = problem.sampled_grad_kernel(terms)

        def oracle(X, rows):
            sampled(rows, X)
            for term in rest:
                np.add(first, term, out=first)
            return first

    scale = float(batch)
    # momentum state m_{t-1}, x_{t-1}, z_{t-1}: not views, as block rows are overwritten
    m, prev, z = np.zeros_like(X0), X0.copy(), X0.copy()
    if algorithm != "momentum":
        # x_{t+1} = prox_{gamma_t g}(x_t - (gamma_t / b) * sum of b gradients), that is
        #   gd:            x_{t+1} = x_t - gamma grad f(x_t)
        #   sgd, ssd:      x_{t+1} = x_t - gamma_t grad f_i(x_t), i uniform
        #   minibatch_sgd: x_{t+1} = x_t - (gamma_t / b) sum_{i in S_t} grad f_i(x_t),
        #                  S_t a uniform size-b subset (without replacement)
        #   pssd:          x_{t+1} = Proj_{B(0, B)}(x_t - gamma_t grad f_i(x_t))
        #   prox_gd:       x_{t+1} = prox_{gamma g}(x_t - gamma grad f(x_t))
        #   prox_sgd:      x_{t+1} = prox_{gamma_t g}(x_t - gamma_t grad f_i(x_t))
        varying = not sched.is_constant
        coef.fill(gamma[0] / scale)  # once for all steps at a constant stepsize

        def step(t, X, out, rows):
            G = oracle(X, rows)
            if varying:
                coef.fill(gamma[t] / scale)
            np.subtract(X, np.multiply(G, coef, out=G), out=out)
            if reg is not None:
                prox(reg, gamma[t], out, out=out)
    # momentum: three formulations of one method, which produce the same
    # trajectory on the same sample stream (cfg.momentum_form picks one)
    elif form == "buffer":
        # m_t = beta_t m_{t-1} + grad f_i(x_t);  x_{t+1} = x_t - gamma_t m_t
        def step(t, X, out, rows):
            G = oracle(X, rows)
            coef.fill(sched.beta_at(t))
            np.add(np.multiply(m, coef, out=m), G, out=m)
            coef.fill(gamma[t])
            np.subtract(X, np.multiply(m, coef, out=out), out=out)
    elif form == "heavy_ball":
        # x_{t+1} = x_t - gamma_t grad f_i(x_t) + bhat_t (x_t - x_{t-1}),
        # bhat_t = gamma_t beta_t / gamma_{t-1}, x_{-1} = x_0, bhat_0 = 0
        def step(t, X, out, rows):
            G = oracle(X, rows)
            coef.fill(gamma[t])
            np.subtract(X, np.multiply(G, coef, out=G), out=out)
            coef.fill(0.0 if t == 0 else gamma[t] * sched.beta_at(t) / gamma[t - 1])
            np.add(out, np.multiply(np.subtract(X, prev, out=G), coef, out=G), out=out)
            prev[...] = X
    else:
        # z_t = z_{t-1} - eta_t grad f_i(x_t);  x_{t+1} a moving average of x_t
        # and z_t, with lambda_t = t/2, eta_t = (1 + lambda_{t+1}) gamma_t, z_{-1} = x_0
        def step(t, X, out, rows):
            G = oracle(X, rows)
            lam_next = (t + 1) / 2.0
            coef.fill((1.0 + lam_next) * gamma[t])
            np.subtract(z, np.multiply(G, coef, out=G), out=z)
            coef.fill(lam_next)
            np.add(np.multiply(X, coef, out=out), z, out=out)
            coef.fill(lam_next + 1.0)
            np.divide(out, coef, out=out)
    if algorithm in FULL_GRADIENT:
        return batch, None, gap, _replaying(step, X0)
    return batch, problem.sample_rows, gap, step


def _replaying(step, X0):
    """``step`` of a fixed map of X (a full-gradient method at its constant
    stepsize) from the state X0 at t = 0, replaying the map's cycle once a
    state repeats; both write the next state into ``out``.  Its ``block(t0, t1,
    xs)`` takes steps t0 .. t1 - 1 from x_t0 in xs[0], x_{t+1} into xs[t + 1 - t0].

    Brent's search keeps one saved state x_s, compares each new state with it
    bit for bit (``tobytes``: -0.0 == 0.0, yet the two step differently through
    sign and prox, and NaN equals itself only in its bits), and after ``span``
    steps saves the newest state and doubles the span.  The first match
    x_{t+1} = x_s gives the least period p = t + 1 - s.  The next p - 1 steps
    still call ``step``, and their states are stacked, (p, M, d); from then on
    x_{t+1} = cycle[(t + 1 - s) % p], which a block writes for all its remaining
    steps with one ``np.take``, calling nothing.  Because the state x_{t+1} is
    a function of the bits of x_t alone, that is bit for bit what stepping
    gives.  Memory is one saved state, and the cycle if it holds at most
    _BLOCK_VALUES values (a longer cycle is stepped through, not kept)."""
    saved, s, span = X0.tobytes(), 0, 1
    p = 0  # the period once found: 0 while searching, -1 for a cycle too long to keep
    kept, cycle = [], None  # x_s .. x_{s+p-1}, then their stack once all are kept

    def replay(t, X, out, rows):
        nonlocal saved, s, span, p, cycle
        if cycle is not None:
            out[...] = cycle[(t + 1 - s) % p]
            return
        step(t, X, out, rows)
        if p == 0:
            key = out.tobytes()
            if key == saved:
                p = t + 1 - s if (t + 1 - s) * out.size <= _BLOCK_VALUES else -1
            elif t + 1 - s == span:
                saved, s, span = key, t + 1, 2 * span
        if p > 0:
            kept.append(out.copy())
            if len(kept) == p:
                cycle = np.stack(kept)
                kept.clear()

    def block(t0, t1, xs):
        t = t0
        while t < t1 and cycle is None:
            replay(t, xs[t - t0], xs[t + 1 - t0], None)
            t += 1
        if t < t1:  # reduced here, as mode="wrap" subtracts p from each index until in range
            idx = np.arange(t + 1 - s, t1 + 1 - s) % p
            np.take(cycle, idx, axis=0, out=xs[t + 1 - t0:t1 + 1 - t0])

    replay.block = block
    return replay


@dataclass
class Lockstep:
    """Trials of one method run side by side: their metrics at the steps ``t``."""

    trials: np.ndarray  # (M,) trial numbers
    t: np.ndarray  # recorded steps, ascending
    gamma: np.ndarray  # (T+1,) stepsizes
    f_gap: np.ndarray  # (M, len(t))
    dist_sq: np.ndarray  # (M, len(t))
    averaged: Optional[np.ndarray] = None  # (M, len(t)) gap at the averaged iterate
    iterates: Optional[np.ndarray] = None  # (M, T+1, d)


_BLOCK = 512  # most steps whose samples are drawn, or gaps evaluated, at once
_BLOCK_VALUES = 2 ** 16  # most values one draw window, or one gap block, allocates


def _block_steps(M: int, n: int, d: int) -> int:
    """Steps per gap block for M trials on a problem of n terms in dimension
    d: at most _BLOCK, and few enough that the block's (k M, n) objective
    residual and its (k, M, d) iterates hold at most _BLOCK_VALUES values."""
    return max(1, min(_BLOCK, _BLOCK_VALUES // (M * max(n, d))))


def _draw_steps(M: int, b: int, d: int) -> int:
    """Steps per draw window for M trials sampling b terms per step in
    dimension d: at most _BLOCK, and few enough that the (k, b, M) index array
    and each trial's (k, b, d) share of the gathered (k, b, M, d) rows hold at
    most _BLOCK_VALUES values."""
    return max(1, min(_BLOCK, _BLOCK_VALUES // (b * max(M, d))))


def _clearing_norms(steps):
    """The squared norms of a gap block's (k, M, d) iterates that the guard
    compares with ``clearing_norm_sq``, whose bound holds in any summation
    order; ``einsum`` sums a short row faster than ``vecdot``."""
    return np.einsum("kmd,kmd->km", steps, steps)


def _block_gaps(gap, steps, rows, limit, clear, live, work):
    """The gaps at the steps ``rows`` of a gap block's (k, M, d) iterates
    ``steps``, exact, and the block's (k, M) divergence mask (gap non-finite
    or above ``limit``), as exact gaps at every row would give.

    A row whose computed squared norm is at most ``clear``, the objective's
    ``clearing_norm_sq`` for ``limit``, has a finite exact gap at most
    ``limit``, so it is cleared unevaluated.  The exact objective runs only on
    the recorded rows and on those not cleared, but not on the rows of trials
    no longer ``live`` (diverged in an earlier block), which the mask no longer
    reads.  With every step recorded, every row is exact, in one call."""
    objective, _, inf_val, _ = gap
    k, M, d = steps.shape
    if len(rows) == k:
        gaps = (objective(steps.reshape(-1, d), work[: k * M]) - inf_val).reshape(k, M)
        return gaps[rows], ~np.isfinite(gaps) | (gaps > limit)
    exact = ~(_clearing_norms(steps) <= clear) & live
    exact[rows] = True
    gaps, bad = np.empty((k, M)), np.zeros((k, M), dtype=bool)
    gaps[exact] = objective(steps[exact], work[: exact.sum()]) - inf_val
    bad[exact] = ~np.isfinite(gaps[exact]) | (gaps[exact] > limit)
    return gaps[rows], bad


def run_lockstep(cfg: RunConfig, trials, at=None, averaging=None,
                 keep_iterates: bool = False) -> Lockstep:
    """Run the given trials of ``cfg.algorithm`` in lockstep on one (M, d)
    iterate array.

    Row m is trial ``trials[m]`` exactly as if run alone: its samples come from
    its own ``default_rng(cfg.seed + trial)`` (drawn once per draw window, and
    the windows concatenate to the same stream), which one vectorized
    SeedSequence pass builds for all M trials bit for bit (``_trial_rngs``;
    a seed at or above 2^128 calls ``default_rng``), and the oracles act on rows
    independently.  The steps of a gap block are taken first and then
    evaluated together (``_block_gaps``), so neither the window, the block
    length nor M changes a value.  A full-gradient method draws nothing and
    starts every trial at x0, so its trials are one row stepped and copied.

    Gaps and squared distances are kept at the steps ``at`` (every step when
    None), iterates on request.  An ``averaging`` weighting adds the gap at
    xbar_t at each recorded t >= 1, xbar_t the weighted average of x_0 ..
    x_{t-1} (see ``averaged_iterate``); the gap is the method's own, of F for a
    proximal method and of f otherwise.  Each block adds its terms w_t x_t to
    the running sum with one ``np.add.accumulate``, which adds in sequence as
    ``total = total + w_t x_t`` does, and values its averages in one call.  A
    trial diverges at the first t where its gap is non-finite or above
    1e12 (1 + |gap_0|); one DivergenceError names every diverged trial.
    """
    if cfg.algorithm is None:
        raise ValueError("the config names no algorithm")
    trials = np.array(list(trials), dtype=np.int64)
    M = len(trials)
    if cfg.algorithm in FULL_GRADIENT and M > 1:
        try:
            one = run_lockstep(cfg, trials[:1], at, averaging, keep_iterates)
        except DivergenceError as exc:
            raise DivergenceError((m, exc.t) for m in trials) from None
        return replace(one, trials=trials, **{
            key: np.repeat(value, M, axis=0)
            for key in ("f_gap", "dist_sq", "averaged", "iterates")
            if (value := getattr(one, key)) is not None})
    T, n, d = cfg.iterations, cfg.problem.n, cfg.problem.d
    gamma = cfg.schedule.gammas(T + 1)
    block = _block_steps(M, n, d)
    # a gap block's iterates x_t0 .. x_t1 (step t writes x_{t+1} into row t + 1 - t0)
    xs = np.empty((block + 1, M, d))
    xs[0] = cfg.start_point()
    batch, sample, gap, step = _method(cfg, gamma.tolist(), xs[0])
    objective, clearing_norm_sq, inf_val, x_ref = gap
    recorded = np.arange(T + 1) if at is None else np.unique(np.asarray(at, dtype=np.int64))
    f_gap, dist_sq = np.empty((2, M, len(recorded)))
    averaged = None
    iterates = np.empty((M, T + 1, d)) if keep_iterates else None
    if averaging is not None:
        weights = _weights(gamma, averaging, int(recorded[-1]))
        averaged = np.full((M, len(recorded)), np.nan)
        total = np.zeros((M, d))  # the sum of w_t x_t over the steps before the block
    rngs = _trial_rngs(cfg.seed, trials) if sample else []
    window = _draw_steps(M, batch, d)
    w1 = 0  # the draw window ``drawn`` yields the rows of the steps before w1
    work = np.empty((block * M, 1, n))  # the block's objective residual, one buffer for the run
    first = np.full(M, -1)  # first diverged step of each trial
    # every trial starts at x0, so one row gives the divergence limit
    limit = _DIVERGENCE_FACTOR * (1.0 + abs(float(objective(xs[0, :1], work[:1])[0] - inf_val)))
    clear = clearing_norm_sq(limit, inf_val)
    with np.errstate(all="ignore"):  # diverging rows run on as inf/nan
        for t0 in range(0, T + 1, block):
            t1 = min(t0 + block, T + 1)
            if sample is None:  # a full-gradient run, stepped or replayed a block at once
                step.block(t0, min(t1, T), xs)
            else:
                for t, X, out in zip(range(t0, min(t1, T)), xs, xs[1:]):
                    if t == w1:
                        w1 = min(t + window, T)
                        drawn = zip(*sample(_draw_window(rngs, w1 - t, n, batch)))
                    step(t, X, out, next(drawn))
            steps = xs[: t1 - t0]
            lo, hi = np.searchsorted(recorded, [t0, t1])
            rows = recorded[lo:hi] - t0
            gaps, bad = _block_gaps(gap, steps, rows, limit, clear, first < 0, work)
            f_gap[:, lo:hi] = gaps.T
            diff = steps[rows] - x_ref
            dist_sq[:, lo:hi] = np.vecdot(diff, diff).T
            if keep_iterates:
                iterates[:, t0:t1] = steps.transpose(1, 0, 2)
            newly = bad.any(axis=0) & (first < 0)
            first[newly] = t0 + bad[:, newly].argmax(axis=0)
            if averaging is not None:
                # the block's iterates are read; their rows become the running
                # sums: sums[j] = total + w_t0 x_t0 + ... + w_{t0+j} x_{t0+j}
                k = max(0, min(t1, len(weights)) - t0)
                sums = np.multiply(weights[t0:t0 + k, None, None], steps[:k], out=steps[:k])
                if k:
                    np.add(total, sums[0], out=sums[0])
                    np.add.accumulate(sums, axis=0, out=sums)
                cols = np.arange(lo, hi)[recorded[lo:hi] >= 1]
                if len(cols):
                    ts = recorded[cols]
                    xbar = (np.stack([total if t == t0 else sums[t - t0 - 1] for t in ts])
                            / np.array([weights[:t].sum() for t in ts])[:, None, None])
                    values = objective(xbar.reshape(-1, d), work[: len(ts) * M])
                    averaged[:, cols] = (values - inf_val).reshape(-1, M).T
                if k:
                    total = sums[k - 1].copy()
            if (first >= 0).all():
                break
            xs[0] = xs[t1 - t0]
    failed = np.nonzero(first >= 0)[0]
    if failed.size:
        raise DivergenceError(zip(trials[failed], first[failed]))
    return Lockstep(trials=trials, t=recorded, gamma=gamma, f_gap=f_gap,
                    dist_sq=dist_sq, averaged=averaged, iterates=iterates)


def run_algorithm(cfg: RunConfig, algorithm: str, trial: int = 0) -> Trace:
    """Trial ``trial`` of ``algorithm`` on ``cfg``, with its (T+1, d) iterates."""
    run = run_lockstep(replace(cfg, algorithm=algorithm), [trial], keep_iterates=True)
    return Trace(trial=int(trial), t=run.t, gamma=run.gamma,
                 f_gap=run.f_gap[0], dist_sq=run.dist_sq[0], iterates=run.iterates[0])


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


_G17_SLOTS = 28  # sign, "0." and up to three zeros, 17 digits and a point, "e-0X"
_FORMAT_VALUES = 2 ** 14  # most floats one block of CSV rows formats at once
_CSV_BLOCK_ROWS = _FORMAT_VALUES // 2  # a block's rows: f_gap and dist_sq each
_SLOT = np.arange(18, dtype=np.int8)[:, None]  # slot numbers, broadcast over values


def _split(a):
    """Dekker's split a = hi + lo, each part with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10 ** s) for s in range(23)])  # exact doubles: 5^22 < 2^53
_POW10_HI, _POW10_LO = _split(_POW10)


def _significands(x):
    """(N, X, ok) for the 1-D float array x.  Where ``ok``, |x| rounded half
    to even to 17 significant digits is N 10^(X - 16), with N in [1e16, 1e17)
    (N = 0 and X = 0 for zero).

    For |x| in [1e-6, 1e17) and X = floor(log10 |x|), s = 16 - X is at most
    22, so 10^s is an exact double and Dekker's TwoProduct gives |x| 10^s =
    p + e exactly (p the rounded product, e its error).  Where that exact
    product is at least 1e16 and N = p + rint(e) is below 1e17, X is the
    exponent (log10 may round across a power of ten), p >= 2^53 is an even
    integer and so N is the product rounded half to even.  Every other value
    is not ``ok``; among them would be a product that rounds up to 1e17,
    which no double in the range has (the doubles next to a power of ten are
    further from it than half a unit in the 17th digit)."""
    a = np.abs(x)
    zero = a == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        X = np.floor(np.log10(a))
    X[zero] = 0
    ok = (X >= -6) & (X <= 16)
    a[~ok], X[~ok] = 1.0, 0
    s = (16 - X).astype(np.int64)
    bh, bl = _POW10_HI.take(s), _POW10_LO.take(s)
    p = a * _POW10.take(s)
    ah, al = _split(a)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    N = p.astype(np.int64) + np.rint(e).astype(np.int64)
    ok &= ((p > 1e16) | ((p == 1e16) & (e >= 0)) | zero) & (N < 10 ** 17)
    return N, X.astype(np.int8), ok


def _ascii_digits(N):
    """The 17 decimal digits of each N in [0, 1e17), most significant first,
    as ASCII: a (17, len(N)) uint8 array.  Divisions by 10^8 and 10^4 split
    N into its leading digit and four groups of four digits, whose digits
    come from uint16 division by 10, all groups at once."""
    hi = N.view(np.uint64) // 10 ** 8
    head = hi // 10 ** 8
    halves = np.stack(((hi - head * 10 ** 8).astype(np.uint32),
                       (N.view(np.uint64) - hi * 10 ** 8).astype(np.uint32)))
    top = halves // 10 ** 4
    groups = np.stack((top[0], halves[0] - top[0] * 10 ** 4,
                       top[1], halves[1] - top[1] * 10 ** 4)).astype(np.uint16)
    digits = np.empty((17, len(N)), np.uint8)
    digits[0] = head
    for k in range(4, 0, -1):
        q = groups // 10
        digits[k::4] = groups - q * 10
        groups = q
    digits += 48
    return digits


def _g17_slots(x):
    """The text of ``"%.17g" % v`` for every value v of the 1-D float array
    ``x``: a (_G17_SLOTS, len(x)) uint8 array whose column j holds x[j]'s
    text in order, with NUL bytes in the slots it does not use.

    The values ``_significands`` decides fill fixed slots: the sign, "0."
    and the zeros after it (1e-4 <= |v| < 1), the 17 digits with the point
    after the integer digits, and the exponent ("e-05" or "e-06"),
    dropping trailing fractional zeros and a bare point as %g does.  The
    others (subnormal, below 1e-6, at or above 1e17, inf, NaN, or an
    exponent floor(log10) got wrong) are formatted by ``"%.17g" %`` one at
    a time, the reference the slots reproduce."""
    N, X, ok = _significands(x)
    digits = _ascii_digits(N)
    last = np.max(_SLOT[:17] * (digits != 48), axis=0)  # the last nonzero digit
    expo = X < -4
    small = (X < 0) & ~expo
    pos = np.where(expo, 0, np.maximum(X, -1))  # the point follows digit pos
    out = np.empty((_G17_SLOTS, len(x)), np.uint8)
    out[0] = np.signbit(x) * np.uint8(45)
    out[1] = small * np.uint8(48)
    out[2] = small * np.uint8(46)
    for i in range(3):
        out[3 + i] = (small & (X < -1 - i)) * np.uint8(48)
    region = out[6:24]  # digit j in slot j up to the point, in slot j + 1 after it
    np.multiply(digits, _SLOT[:17] <= pos, out=region[:17])
    region[17] = 0
    region[1:] += digits * ((_SLOT[1:] >= pos + 2) & (_SLOT[1:] <= np.maximum(last, pos) + 1))
    region += ((_SLOT == pos + 1) & (last > pos) & ~small) * np.uint8(46)
    out[24] = expo * np.uint8(101)
    out[25] = expo * np.uint8(45)
    out[26] = expo * np.uint8(48)
    out[27] = expo * (48 - X)
    rest = np.flatnonzero(~ok)  # at most 24 bytes each: "-2.2250738585072014e-308"
    texts = b"".join((b"%.17g" % v).ljust(_G17_SLOTS, b"\0") for v in x[rest].tolist())
    out[:, rest] = np.frombuffer(texts, np.uint8).reshape(-1, _G17_SLOTS).T
    return out


def _int_slots(v):
    """The decimal digits of each nonnegative integer of ``v``: a (width,
    len(v)) uint8 array, right-aligned, with NUL bytes before the leading digit."""
    width = len(str(int(v.max())))
    out = np.empty((width, len(v)), np.uint8)
    for i in range(width - 1, -1, -1):
        q = v // 10
        out[i] = (v - 10 * q + 48) * ((v > 0) | (i == width - 1))
        v = q
    return out


def _head_slots(ints, floats=None):
    """The leading fields of a row, for each row: a (slot, row) uint8 array
    whose column j holds the digits of the integer ints[j] (``_int_slots``)
    and a comma, then, with ``floats``, the ``_g17_slots`` of floats[j] and
    another comma.  Formatted in blocks of _FORMAT_VALUES values, so the
    temporaries are those of one block."""
    width = len(str(int(ints.max(initial=0))))
    out = np.zeros((width + 1 + (0 if floats is None else _G17_SLOTS + 1), len(ints)), np.uint8)
    out[width] = out[-1] = ord(",")
    for lo in range(0, len(ints), _FORMAT_VALUES):
        hi = lo + _FORMAT_VALUES
        digits = _int_slots(ints[lo:hi])  # right-aligned, as its own width may be less
        out[width - len(digits):width, lo:hi] = digits
        if floats is not None:
            out[width + 1:-1, lo:hi] = _g17_slots(floats[lo:hi])
    return out


def _csv_rows(run: Lockstep, trial_head, step_head, lo: int, hi: int) -> bytes:
    """The CSV rows of flat rows lo .. hi-1 of ``run``: flat row r is trial
    ``run.trials[r // (T+1)]`` at step ``r % (T+1)``.

    Every field goes into fixed NUL-padded slots of one (slot, row) array,
    whose rows of text are then one ``translate`` away: "trial," and
    "t,gamma_t," are the columns of the ``_head_slots`` tables ``trial_head``
    and ``step_head`` the row reads, and f_gap and dist_sq are formatted here
    in the slots of ``_g17_slots``."""
    j, t = np.divmod(np.arange(lo, hi), len(run.gamma))
    lw, n = len(trial_head), hi - lo
    head = lw + len(step_head)
    out = np.empty((head + 2 * (_G17_SLOTS + 1), n), np.uint8)
    np.take(trial_head, j, axis=1, out=out[:lw])
    np.take(step_head, t, axis=1, out=out[lw:head])
    values = np.concatenate([run.f_gap.ravel()[lo:hi], run.dist_sq.ravel()[lo:hi]])
    fields = out[head:].reshape(2, _G17_SLOTS + 1, n)
    fields[:, :_G17_SLOTS] = _g17_slots(values).reshape(_G17_SLOTS, 2, n).transpose(1, 0, 2)
    fields[0, _G17_SLOTS] = ord(",")
    fields[1, _G17_SLOTS] = ord("\n")
    return out.T.tobytes().translate(None, b"\0")


def write_traces_csv(run: Lockstep, path, header: bool = True) -> None:
    """Serialize the trials of a run that recorded every step as CSV:
    trial,t,gamma_t,f_gap,dist_sq, trial after trial, each float as
    ``"%.17g" % value`` writes it (17 significant digits).

    With ``header=False`` only the rows are written, so the runs of
    consecutive trial ranges, each written by the process that ran it,
    concatenate behind one header into the file a single call would write;
    no run crosses a process boundary.

    Every float goes through one array formatter (``_g17_slots``): exact
    for 0 and |x| in [1e-6, 1e17) by Dekker's TwoProduct, and ``"%.17g" %``
    one value at a time for the rest (subnormals, values outside that
    range, inf and NaN).  Each trial's "m," and each step's "t,gamma_t," are
    formatted once, into the slot tables of ``_head_slots``; the rows are
    formatted straight from the run's (M, T+1) arrays in blocks of
    _CSV_BLOCK_ROWS rows (``_csv_rows``), which gather their leading fields
    from those tables, so a ``--jobs`` worker's peak memory grows with its
    trials and steps, not with its rows."""
    steps = len(run.gamma)
    if len(run.t) != steps:
        raise ValueError(f"traces need every step recorded; this run recorded "
                         f"{len(run.t)} of {steps}")
    trial_head = _head_slots(np.asarray(run.trials))
    step_head = _head_slots(np.arange(steps), run.gamma)
    total = len(run.trials) * steps
    with open(path, "wb") as fh:
        if header:
            fh.write(b"trial,t,gamma_t,f_gap,dist_sq\n")
        for lo in range(0, total, _CSV_BLOCK_ROWS):
            fh.write(_csv_rows(run, trial_head, step_head, lo,
                               min(lo + _CSV_BLOCK_ROWS, total)))
