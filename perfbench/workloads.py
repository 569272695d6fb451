"""The three workloads: generated configs and the ``cli.main`` argv of each op.

Every op of a workload receives the workload seed as ``--seed-override``;
the seed also generates the inline problem of ``trace_export`` and picks the
starting point and stepsize of two ``certify`` ops among the values their
acceptance criteria use.

Sizes are scaled so one round of a workload takes a few seconds on a 2-core
machine: Monte-Carlo ops run M=50 trials (the acceptance criteria use 1000)
and the ``run_sgd_ls`` export runs 200 trials (1000 take about 9 s per op
there).  Every other parameter (stepsizes, horizons, checkpoints, starting
points, batch size) is the one of the config file or acceptance criterion
named beside the op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from descentlab import problems

from setup_probe import INLINE_D, INLINE_LS, INLINE_N, inline_ls_data

MC_TRIALS = 50
EXPORT_TRIALS = 200
INLINE_TRIALS = 64
INLINE_T = 500
JOBS = 2
SUITE_SAMPLES = 10_000

ALL_FIXTURES = ("ls_4x2", "ls_6x2", "scalar_pl", "abs_2x1", "abs_2x1_reg", "lasso_4x2")

# fixtures each workload names; set-up builds them before the timed region
FIXTURES = {
    "mc_verify": ("ls_4x2", "abs_2x1", "ls_6x2", "lasso_4x2"),
    "trace_export": ("ls_4x2", INLINE_LS),
    "certify": ALL_FIXTURES,
}


@dataclass
class Op:
    """One ``cli.main`` call and what its output must look like."""

    name: str
    kind: str  # verify | run | suite | table
    argv: list
    sizes: dict
    steps: int = 0  # M * T; 0 for ops that run no method
    config: Optional[dict] = None  # run ops: the config, for the replay check
    out_dir: Optional[Path] = None  # run ops: where the trace lands
    fixtures: tuple = field(default_factory=tuple)  # suite ops

    @property
    def trace_path(self) -> Path:
        return self.out_dir / self.config.get("outputs", {}).get("trace", "trace.csv")

    @property
    def trace_rows(self) -> int:
        return self.sizes["M"] * (self.sizes["T"] + 1)


def _sizes(M, T, n, d, b=None) -> dict:
    return {"M": M, "T": T, "n": n, "d": d, "b": b}


def _write(cfg: dict, path: Path) -> str:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return str(path)


def _verify_op(name: str, cfg: dict, work: Path, seed: int, deterministic=False) -> Op:
    spec = cfg["problem"]
    p = problems.fixture(spec["fixture"]).problem
    M = 1 if deterministic else cfg["trials"]
    T = cfg["iterations"]
    path = _write(cfg, work / f"{name}.json")
    return Op(name=name, kind="verify",
              argv=["verify", "--config", path, "--seed-override", str(seed)],
              sizes=_sizes(M, T, p.n, p.d, cfg.get("batch_size")), steps=M * T)


def _run_op(name: str, cfg: dict, work: Path, seed: int, n: int, d: int) -> Op:
    out_dir = work / name
    path = _write(cfg, work / f"{name}.json")
    M, T = cfg["trials"], cfg["iterations"]
    return Op(name=name, kind="run",
              argv=["run", "--config", path, "--out-dir", str(out_dir),
                    "--jobs", str(JOBS), "--seed-override", str(seed)],
              sizes=_sizes(M, T, n, d), steps=M * T, config=cfg, out_dir=out_dir)


def _from_file(root: Path, name: str, **changes) -> dict:
    cfg = json.loads((root / "configs" / name).read_text())
    cfg.update(changes)
    return cfg


def mc_verify(root: Path, work: Path, seed: int) -> list:
    """Six stochastic verify ops, one per stochastic method."""
    c4 = problems.fixture("ls_4x2").constants
    L_b, _ = problems.minibatch_constants(problems.fixture("ls_6x2").constants, 2)
    M = MC_TRIALS
    return [
        _verify_op("sgd_strongly_convex",
                   _from_file(root, "verify_sgd_strongly_convex.json", trials=M), work, seed),
        _verify_op("pssd_convex", _from_file(root, "verify_pssd.json", trials=M), work, seed),
        # acceptance criterion 7
        _verify_op("mini_strongly_convex", {
            "problem": {"fixture": "ls_6x2"}, "algorithm": "minibatch_sgd",
            "schedule": {"kind": "constant", "gamma": 0.9 / (2 * L_b)},
            "iterations": 500, "trials": M, "batch_size": 2, "x0": [1.5, 1.0],
            "checkpoints": [10, 100, 500], "verify": {"setting": "mini_strongly_convex"},
        }, work, seed),
        # acceptance criterion 9
        _verify_op("momentum_convex", {
            "problem": {"fixture": "ls_4x2"}, "algorithm": "momentum",
            "schedule": {"kind": "momentum_pair", "eta": 1.0 / (4 * c4.L_max)},
            "iterations": 500, "trials": M, "x0": [2.0, 0.0],
            "checkpoints": [50, 500], "verify": {"setting": "momentum_convex"},
        }, work, seed),
        # acceptance criterion 10 (unprojected half)
        _verify_op("ssd_convex_general", {
            "problem": {"fixture": "abs_2x1"}, "algorithm": "ssd",
            "schedule": {"kind": "inv_sqrt", "gamma0": 1.0},
            "iterations": 400, "trials": M, "x0": [0.5],
            "checkpoints": [100, 400], "verify": {"setting": "ssd_convex_general"},
        }, work, seed),
        # acceptance criterion 13 (convex half)
        _verify_op("spgd_convex_const", {
            "problem": {"fixture": "lasso_4x2"}, "algorithm": "prox_sgd",
            "schedule": {"kind": "constant", "gamma": 0.9 / (4 * c4.L_max)},
            "iterations": 500, "trials": M, "x0": [2.0, -1.0],
            "checkpoints": [10, 100, 500], "verify": {"setting": "spgd_convex_const"},
        }, work, seed),
    ]


def trace_export(root: Path, work: Path, seed: int) -> list:
    """Two ``run --jobs 2`` ops whose every step is written to a trace CSV."""
    features, targets = inline_ls_data(seed)
    L_max = float((features * features).sum(axis=1).max())
    ls = problems.fixture("ls_4x2").problem
    inline = {
        "problem": {"kind": "least_squares", "features": features.tolist(),
                    "targets": targets.tolist()},
        "algorithm": "sgd", "schedule": {"kind": "constant", "gamma": 0.5 / L_max},
        "iterations": INLINE_T, "trials": INLINE_TRIALS, "seed": 0,
    }
    return [
        _run_op("run_sgd_ls", _from_file(root, "run_sgd_ls.json", trials=EXPORT_TRIALS),
                work, seed, ls.n, ls.d),
        _run_op("sgd_ls_256x16", inline, work, seed, INLINE_N, INLINE_D),
    ]


def certify(root: Path, work: Path, seed: int) -> list:
    """Deterministic verifies, the property suite on all six fixtures and the
    complexity table."""
    lasso = problems.fixture("lasso_4x2")
    ls = problems.fixture("ls_4x2").problem
    return [
        _verify_op("gd_convex", _from_file(root, "verify_gd_convex.json"), work, seed,
                   deterministic=True),
        # acceptance criterion 3: one of its three starting points
        _verify_op("gd_pl", {
            "problem": {"fixture": "scalar_pl"}, "algorithm": "gd",
            "schedule": {"kind": "constant", "gamma": 1.0 / 8.0},
            "iterations": 500, "x0": [(3.0, -7.0, 11.0)[seed % 3]],
            "verify": {"setting": "gd_pl"},
        }, work, seed, deterministic=True),
        # acceptance criterion 12: one of its two stepsizes
        _verify_op("pgd_convex", {
            "problem": {"fixture": "lasso_4x2"}, "algorithm": "prox_gd",
            "schedule": {"kind": "constant",
                         "gamma": (1.0, 0.5)[seed % 2] / lasso.constants.L},
            "iterations": 2000, "x0": [4.0, -3.0], "verify": {"setting": "pgd_convex"},
        }, work, seed, deterministic=True),
        # one suite op per fixture, so each op is short enough to be normalised
        # by the reference loop around it (see reference.py)
        *(Op(name=f"suite_{name}", kind="suite",
             argv=["suite", "--fixture", name, "--samples", str(SUITE_SAMPLES)],
             sizes={"samples": SUITE_SAMPLES, "n": problems.fixture(name).problem.n,
                    "d": problems.fixture(name).problem.d},
             fixtures=(name,))
          for name in ALL_FIXTURES),
        Op(name="table", kind="table",
           argv=["table", "--constants", "ls_4x2", "--epsilon", "1e-3"],
           sizes={"epsilon": 1e-3, "b": 2, "n": ls.n, "d": ls.d}),
    ]


BUILDERS = {"mc_verify": mc_verify, "trace_export": trace_export, "certify": certify}


def make_ops(workload: str, root: Path, work: Path, seed: int) -> list:
    return BUILDERS[workload](root, work, seed)
