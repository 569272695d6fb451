"""Configuration-driven command line: run experiments, verify bounds, emit tables.

Commands
--------
run     execute an experiment, writing a run manifest (always first) and a trace CSV
verify  build the bound curve named by the config, estimate the matching metric,
        and print the verdict as JSON
table   evaluate the iteration-complexity table for a constants source
suite   run the functional-inequality suite on a fixture

Exit codes: 0 success / verdict pass; 2 configuration or hypothesis error
(diagnostics name the offending field or constraint); 3 divergence during a run;
4 verdict or suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import __version__, harness, problems, theory
from .algorithms import (
    ALGORITHMS,
    PROXIMAL,
    DivergenceError,
    RunConfig,
    StepSchedule,
    run_lockstep,
    write_traces_csv,
)
# kept as a module attribute, where perfbench/tracer.py wraps it
from .algorithms import run_algorithm  # noqa: F401
from .nonsmooth import Regularizer, SpecError


class ConfigError(Exception):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"field {fieldname!r}: {message}")
        self.fieldname = fieldname


_NUMBER = (int, float)
# the JSON type of each configuration field; a field whose default is None may be null
_FIELD_TYPES = {
    "problem": dict, "algorithm": str, "schedule": dict, "iterations": int, "trials": int,
    "batch_size": int, "seed": int, "x0": list, "momentum_form": str, "regularizer": dict,
    "projection_B": _NUMBER, "checkpoints": list, "verify": dict, "outputs": dict,
}
_JSON_NAMES = {dict: "a JSON object", str: "a string", int: "an integer", list: "a list",
               _NUMBER: "a number"}


def _is_json(value, kind) -> bool:
    """Whether a parsed JSON value has the given type (true/false are not numbers)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_json(fieldname: str, value, kind, nullable: bool = False) -> None:
    if not (_is_json(value, kind) or (nullable and value is None)):
        raise ConfigError(fieldname, f"must be {_JSON_NAMES[kind]}, got {value!r:.40}")


def _parse(section: str, parse, spec):
    """``parse(spec)``; its errors as a ConfigError naming ``section``, or the
    field within it that has the wrong type."""
    try:
        return parse(spec)
    except SpecError as exc:
        raise ConfigError(f"{section}.{exc.field}", exc.reason) from exc
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(section, str(exc)) from exc


@dataclass
class ExperimentConfig:
    """Parsed experiment description (see README for the JSON schema)."""

    problem: dict
    algorithm: str
    schedule: dict
    iterations: int
    trials: int = 1
    batch_size: Optional[int] = None
    seed: int = 0
    x0: Optional[list] = None
    momentum_form: str = "buffer"
    regularizer: Optional[dict] = None
    projection_B: Optional[float] = None
    checkpoints: Optional[list] = None
    verify: Optional[dict] = None
    outputs: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        _check_json("config", raw, dict)
        names = [f.name for f in fields(ExperimentConfig)]
        unknown = set(raw) - set(names)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration field")
        for req in ("problem", "algorithm", "schedule", "iterations"):
            if req not in raw:
                raise ConfigError(req, "required field missing")
        for f in fields(ExperimentConfig):
            if f.name in raw:
                _check_json(f.name, raw[f.name], _FIELD_TYPES[f.name], nullable=f.default is None)
        cfg = ExperimentConfig(**{k: raw[k] for k in names if k in raw})
        if cfg.algorithm not in ALGORITHMS:
            raise ConfigError("algorithm", f"unknown algorithm {cfg.algorithm!r}")
        if cfg.iterations < 1:
            raise ConfigError("iterations", "must be an integer >= 1")
        if cfg.trials < 1:
            raise ConfigError("trials", "must be an integer >= 1")
        _parse("schedule", StepSchedule.from_config, cfg.schedule)
        if cfg.regularizer is not None:
            _parse("regularizer", Regularizer.from_config, cfg.regularizer)
        if cfg.x0 is not None and not all(_is_json(v, _NUMBER) for v in cfg.x0):
            raise ConfigError("x0", "must be a list of numbers")
        if cfg.checkpoints is not None and not (
                cfg.checkpoints and all(_is_json(c, int) and c >= 0 for c in cfg.checkpoints)):
            raise ConfigError("checkpoints", "must be a nonempty list of nonnegative integers")
        for key, name in cfg.outputs.items():
            _check_json(f"outputs.{key}", name, str)
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return ExperimentConfig.from_dict(raw)


def _build_fixture(cfg: ExperimentConfig) -> problems.Fixture:
    """The config's problem, with the composite its method needs."""
    spec = cfg.problem
    if "fixture" in spec:
        _check_json("problem.fixture", spec["fixture"], str)
        try:
            fx = problems.fixture(spec["fixture"])
        except (KeyError, ValueError) as exc:  # unknown name, malformed fixture file
            raise ConfigError("problem.fixture", str(exc)) from exc
    else:
        fx = problems.Fixture("inline", *_parse("problem", problems.build_problem, spec))

    reg = Regularizer.from_config(cfg.regularizer) if cfg.regularizer else fx.regularizer
    comp = fx.composite
    if cfg.algorithm in PROXIMAL:
        if reg is None:
            raise ConfigError("regularizer", "proximal runs need a regularizer")
        if comp is None or fx.regularizer != reg:
            comp = problems.make_composite(fx.problem, fx.constants, reg)
    return problems.Fixture(fx.name, fx.problem, fx.ground_truth, fx.constants,
                            regularizer=reg, composite=comp)


def _start_point(cfg: ExperimentConfig, fx: problems.Fixture) -> Optional[np.ndarray]:
    """The config's x0 as an array of the problem's dimension (None: the default)."""
    if cfg.x0 is not None and len(cfg.x0) != fx.problem.d:
        raise ConfigError("x0", f"must have length {fx.problem.d}")
    return None if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)


def _run_config(cfg: ExperimentConfig, fx: problems.Fixture, seed: int) -> RunConfig:
    if cfg.algorithm == "minibatch_sgd":
        if cfg.batch_size is None:
            raise ConfigError("batch_size", "minibatch_sgd needs a batch size")
        if not 1 <= cfg.batch_size <= fx.problem.n:
            raise ConfigError("b", f"batch size {cfg.batch_size} out of range "
                                   f"[1, {fx.problem.n}]")
    projection_B = cfg.projection_B
    if cfg.algorithm == "pssd" and projection_B is None:
        projection_B = fx.constants.B if fx.constants.B > 0 else None
        if projection_B is None:
            raise ConfigError("projection_B", "pssd needs a projection radius")
    try:
        return RunConfig(
            problem=fx.problem,
            ground_truth=fx.ground_truth,
            schedule=StepSchedule.from_config(cfg.schedule),
            iterations=cfg.iterations,
            seed=seed,
            trials=cfg.trials,
            batch_size=cfg.batch_size,
            projection_B=projection_B,
            composite=fx.composite if cfg.algorithm in PROXIMAL else None,
            x0=_start_point(cfg, fx),
            momentum_form=cfg.momentum_form,
            algorithm=cfg.algorithm,
        )
    except ValueError as exc:
        raise ConfigError("run", str(exc)) from exc


def _trial_chunk(args):
    """Worker: rebuild the experiment and run a contiguous range of trials,
    returning their traces without the (T+1, d) iterates."""
    raw, seed, lo, hi = args
    cfg = ExperimentConfig.from_dict(raw)
    return run_lockstep(_run_config(cfg, _build_fixture(cfg), seed), range(lo, hi)).traces()


def cmd_run(config_path: str, out_dir: str = ".", jobs: int = 1,
            seed_override: Optional[int] = None) -> int:
    try:
        cfg = load_config(config_path)
        fx = _build_fixture(cfg)
        seed = cfg.seed if seed_override is None else seed_override
        rc = _run_config(cfg, fx, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, cfg.outputs.get("manifest", "manifest.json"))
    trace_path = os.path.join(out_dir, cfg.outputs.get("trace", "trace.csv"))
    manifest = {
        "config": cfg.to_dict(),
        "seed": seed,
        "versions": {
            "descentlab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    try:
        if jobs > 1 and cfg.trials > 1:
            chunks = np.array_split(np.arange(cfg.trials), min(jobs, cfg.trials))
            args = [(cfg.to_dict(), seed, int(ch[0]), int(ch[-1]) + 1)
                    for ch in chunks if len(ch)]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                # map keeps the chunks, and so the trials, in order
                traces = [tr for part in pool.map(_trial_chunk, args) for tr in part]
        else:
            traces = run_lockstep(rc, range(cfg.trials)).traces()
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # the method rejects the config (e.g. gd with a varying schedule)
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    write_traces_csv(traces, trace_path)
    print(f"wrote {manifest_path} and {trace_path}")
    return 0


def cmd_verify(config_path: str, seed_override: Optional[int] = None) -> int:
    try:
        cfg = load_config(config_path)
        if not cfg.verify or "setting" not in cfg.verify:
            raise ConfigError("verify.setting", "verify needs a theorem setting")
        _check_json("verify.setting", cfg.verify["setting"], str)
        row = theory.SETTINGS.get(cfg.verify["setting"])
        if row is None:
            raise ConfigError("verify.setting", f"unknown setting {cfg.verify['setting']!r}")
        # the setting fixes the method; a config field it would not use is an error
        if cfg.algorithm != row.algorithm:
            raise ConfigError("algorithm", f"setting {row.name} runs {row.algorithm!r}, "
                                           f"not {cfg.algorithm!r}")
        if cfg.projection_B is not None:
            raise ConfigError("projection_B", "verify projects with the fixture's B, which "
                                              "the bound uses; leave it unset")
        if cfg.momentum_form != "buffer":
            raise ConfigError("momentum_form", f"verify runs the buffer form, not "
                                               f"{cfg.momentum_form!r}")
        fx = _build_fixture(cfg)
        seed = cfg.seed if seed_override is None else seed_override
        schedule = StepSchedule.from_config(cfg.schedule)
        x0 = _start_point(cfg, fx)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        _, _, verdict = harness.run_verification(
            row.name, fx, schedule, cfg.iterations,
            checkpoints=cfg.checkpoints,
            trials=cfg.trials,
            seed=seed,
            b=cfg.batch_size,
            x0=x0,
            policy=(cfg.verify or {}).get("policy"),
        )
    except ValueError as exc:
        # hypothesis violations and validity-window errors
        print(f"hypothesis error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3

    print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    return 0 if verdict.passed else 4


def _constants_from_json(path: str) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    _check_json("constants", raw, dict)
    for section in ("smooth", "lipschitz", "composite"):
        _check_json(section, raw.get(section), dict, nullable=True)
        for key, val in (raw.get(section) or {}).items():
            _check_json(f"{section}.{key}", val, list if key == "L_i" else _NUMBER, nullable=True)
    _check_json("batch_size", raw.get("batch_size", 2), int)
    sm = raw.get("smooth") or {}
    needed = ("n", "L", "L_max", "mu", "mu_pl", "sigma_star_f", "delta_star_f")
    for key in needed:
        if sm.get(key) is None:
            raise ValueError(f"missing constant: {key}")
    consts = problems.ProblemConstants(
        n=int(sm["n"]), L=float(sm["L"]), L_i=tuple(sm.get("L_i") or ()),
        L_max=float(sm["L_max"]),
        L_avg=float(sm.get("L_avg", sm["L_max"])),
        mu=float(sm["mu"]), mu_pl=float(sm["mu_pl"]),
        sigma_star_f=float(sm["sigma_star_f"]), delta_star_f=float(sm["delta_star_f"]),
    )
    return {
        "smooth": {"constants": consts, "D2": sm.get("D2"), "f0_gap": sm.get("f0_gap")},
        "lipschitz": raw.get("lipschitz"),
        "composite": raw.get("composite"),
        "batch_size": raw.get("batch_size", 2),
    }


def table_sources_for_fixture(name: str, batch_size: int = 2) -> dict:
    """Assemble table inputs from a smooth fixture plus the nonsmooth companions."""
    fx = problems.fixture(name)
    if not math.isfinite(fx.constants.L):
        raise ValueError(f"fixture {name!r} is not smooth; pick a least-squares fixture")
    x0 = fx.problem.default_x0
    d = x0 - fx.ground_truth.x_star
    lip = problems.fixture("abs_2x1")
    # worst case over the solution ball: ||x0 - x*|| <= 2B
    dl = np.array([2.0 * lip.constants.B])
    comp = problems.fixture("lasso_4x2").composite
    dc = comp.smooth.default_x0 - comp.x_star_F
    return {
        "smooth": {
            "constants": fx.constants,
            "D2": float(d @ d),
            "f0_gap": fx.problem.value(x0) - fx.ground_truth.inf_f,
        },
        "lipschitz": {"G": lip.constants.G, "D2": float(dl @ dl)},
        "composite": {
            "sigma_star_F": comp.sigma_star_F,
            "D2": float(dc @ dc),
            "F0_gap": comp.value(comp.smooth.default_x0) - comp.inf_F,
        },
        "batch_size": batch_size,
    }


def cmd_table(constants_source: str, epsilon: float, csv_path: Optional[str] = None,
              batch_size: int = 2) -> int:
    try:
        if os.path.exists(constants_source):
            sources = _constants_from_json(constants_source)
        else:
            sources = table_sources_for_fixture(constants_source, batch_size)
        table = theory.complexity_table(sources, epsilon)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"table error: {exc}", file=sys.stderr)
        return 2
    print(theory.table_to_text(table))
    if csv_path:
        with open(csv_path, "w", newline="\n") as fh:
            fh.write(theory.table_to_csv(table))
        print(f"wrote {csv_path}")
    return 0


def cmd_suite(fixture_names, samples: int = 10_000, out_path: Optional[str] = None) -> int:
    if samples < 1:
        print(f"config error: --samples must be >= 1, got {samples}", file=sys.stderr)
        return 2
    reports = []
    for name in fixture_names:
        try:
            fx = problems.fixture(name)
        except (KeyError, ValueError) as exc:  # unknown name, malformed fixture file
            print(f"config error: fixture {name!r}: {exc}", file=sys.stderr)
            return 2
        reports.append(harness.property_suite(fx, samples=samples))
    payload = json.dumps(reports, indent=2, sort_keys=True)
    print(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")
    return 0 if all(r["ok"] for r in reports) else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="descentlab",
        description="Run first-order methods and verify their convergence bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment, write manifest + trace CSV")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default=".")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--seed-override", type=int, default=None)

    p_ver = sub.add_parser("verify", help="verify a convergence bound empirically")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--seed-override", type=int, default=None)

    p_tab = sub.add_parser("table", help="evaluate the iteration-complexity table")
    p_tab.add_argument("--constants", required=True,
                       help="fixture name or JSON file with the constants")
    p_tab.add_argument("--epsilon", type=float, required=True)
    p_tab.add_argument("--csv", default=None)
    p_tab.add_argument("--batch-size", type=int, default=2)

    p_sui = sub.add_parser("suite", help="run the functional-inequality suite")
    p_sui.add_argument("--fixture", action="append", required=True)
    p_sui.add_argument("--samples", type=int, default=10_000)
    p_sui.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out_dir, args.jobs, args.seed_override)
    if args.command == "verify":
        return cmd_verify(args.config, args.seed_override)
    if args.command == "table":
        return cmd_table(args.constants, args.epsilon, args.csv, args.batch_size)
    return cmd_suite(args.fixture, args.samples, args.out)


if __name__ == "__main__":
    sys.exit(main())
