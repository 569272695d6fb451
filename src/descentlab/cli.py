"""Configuration-driven command line: run experiments, verify bounds, emit tables.

Commands
--------
run     execute an experiment, writing a run manifest (always first) and a trace CSV
verify  build the bound curve named by the config, estimate the matching metric,
        and print the verdict as JSON
table   evaluate the iteration-complexity table for a constants source
suite   run the functional-inequality suite on a fixture

Exit codes: 0 success / verdict pass; 1 stdout closed by its reader; 2
configuration or hypothesis error (diagnostics name the offending field or
constraint); 3 divergence during a run; 4 verdict or suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from functools import cache, partial
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import __version__, harness, problems, theory
from .algorithms import (
    PROXIMAL,
    DivergenceError,
    RunConfig,
    StepSchedule,
    run_lockstep,
    write_traces_csv,
)
# kept as a module attribute, where perfbench/tracer.py wraps it
from .algorithms import run_algorithm  # noqa: F401
from .nonsmooth import (REQUIRED, Regularizer, SpecError, is_json, read_json, spec_fields,
                        spec_section)


# Every config input is read as a spec, so a config error is a SpecError that
# names the config field; so is a SpecError of the run it builds (``RunConfig``).
ConfigError = SpecError

# every configuration field: its JSON kind and its default (README "Config schema")
_CONFIG_FIELDS = {
    "problem": (dict, REQUIRED), "algorithm": (str, REQUIRED), "schedule": (dict, REQUIRED),
    "iterations": (int, REQUIRED), "trials": (int, 1), "batch_size": (int, None), "seed": (int, 0),
    "x0": (list, None), "momentum_form": (str, "buffer"), "regularizer": (dict, None),
    "projection_B": (float, None), "checkpoints": (list, None), "verify": (dict, None),
    "outputs": (dict, {}),
}
_OUTPUT_FIELDS = {"trace": (str, "trace.csv"), "manifest": (str, "manifest.json")}


def _read_verify(spec) -> dict:
    """The verify section: a setting of ``theory.SETTINGS`` and, optionally, a
    policy of ``harness.POLICIES``."""
    verify = spec_fields(spec, {"setting": (str, REQUIRED), "policy": (str, None)})
    if verify["setting"] not in theory.SETTINGS:
        raise SpecError("setting", f"unknown setting {verify['setting']!r}")
    if verify["policy"] not in (None, *harness.POLICIES):
        raise SpecError("policy", f"must be one of {list(harness.POLICIES)}, "
                                  f"got {verify['policy']!r:.40}")
    return verify


class ExperimentConfig(SimpleNamespace):
    """Parsed experiment description: one attribute per field of
    ``_CONFIG_FIELDS``, with ``outputs`` and ``verify`` read (see README for
    the JSON schema)."""

    @staticmethod
    def from_dict(raw) -> "ExperimentConfig":
        cfg = ExperimentConfig(**spec_fields(raw, _CONFIG_FIELDS, "config"))
        if cfg.x0 is not None and not all(is_json(v, float) for v in cfg.x0):
            raise ConfigError("x0", "must be a list of finite numbers")
        if cfg.checkpoints is not None and not (
                cfg.checkpoints and all(is_json(c, int) and c >= 0 for c in cfg.checkpoints)):
            raise ConfigError("checkpoints", "must be a nonempty list of nonnegative integers")
        cfg.outputs = spec_section("outputs", partial(spec_fields, fields=_OUTPUT_FIELDS),
                                   cfg.outputs)
        if cfg.verify is not None:
            cfg.verify = spec_section("verify", _read_verify, cfg.verify)
        return cfg

    def to_dict(self) -> dict:
        return dict(vars(self))


def load_config(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_json(path, "config"))


def _fixture(name: str, named: str = "") -> problems.Fixture:
    """``problems.fixture(name)``, failing with a SpecError: the lookup's
    message for an unknown name, or ``named`` and the error of a fixture file
    it rejects."""
    try:
        return problems.fixture(name)
    except KeyError as exc:  # str() would quote the message
        raise SpecError("", exc.args[0]) from None
    except ValueError as exc:
        raise SpecError("", f"{named}{exc}") from exc


def _output_error(path: str, made: str = "") -> str:
    """Why no file can be written at ``path``, or "" if one can: it must not be a
    directory, and its directory must be a writable one, or ``made``, which the
    command creates, below a writable one."""
    parent = os.path.dirname(os.path.abspath(path))
    if made and parent == os.path.abspath(made):
        while not os.path.lexists(parent):
            parent = os.path.dirname(parent)
    if os.path.isdir(path) or not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        return f"cannot write {path}: not a file in a writable directory"
    return ""


def _build_fixture(cfg: ExperimentConfig) -> problems.Fixture:
    """The config's problem, with the composite its method needs."""
    spec = cfg.problem
    if "fixture" in spec:
        name = spec_section("problem", partial(spec_fields, fields={"fixture": (str, REQUIRED)}),
                            spec)["fixture"]
        fx = spec_section("problem.fixture", _fixture, name)
    else:
        fx = spec_section("problem", partial(problems.fixture_from_spec, "inline"), spec)

    reg = (fx.regularizer if cfg.regularizer is None
           else spec_section("regularizer", Regularizer.from_config, cfg.regularizer))
    field = "problem.regularizer" if cfg.regularizer is None else "regularizer"
    comp = fx.composite
    if cfg.algorithm in PROXIMAL:
        if reg is None:
            raise ConfigError("regularizer", "proximal runs need a regularizer")
        if comp is None or fx.regularizer != reg:
            comp = spec_section(field,
                                partial(problems.make_composite, fx.problem, fx.constants), reg)
    return problems.Fixture(fx.name, fx.problem, fx.ground_truth, fx.constants,
                            regularizer=reg, composite=comp)


def _run_config(cfg: ExperimentConfig, fx: problems.Fixture, seed: int) -> RunConfig:
    """The run the config describes; RunConfig checks it, and a SpecError
    names the config field that does not fit."""
    return RunConfig.for_fixture(
        fx, cfg.algorithm, spec_section("schedule", StepSchedule.from_config, cfg.schedule),
        cfg.iterations, seed=seed, trials=cfg.trials, batch_size=cfg.batch_size,
        projection_B=cfg.projection_B, x0=cfg.x0, momentum_form=cfg.momentum_form)


def _trial_chunk(args):
    """One chunk of a ``--jobs`` run, in a pool worker or, for the first
    chunk, in the calling process: run trials lo .. hi-1 of the checked run
    and write their trace rows to ``path``, behind the header only in the
    first chunk (``lo == 0``).  Returns the (trial, t) of each diverged
    trial, and writes nothing if there is one."""
    rc, lo, hi, path = args
    try:
        run = run_lockstep(rc, range(lo, hi))
    except DivergenceError as exc:
        return exc.failures
    write_traces_csv(run, path, header=lo == 0)
    return []


def cmd_run(config_path: str, out_dir: str = ".", jobs: int = 1,
            seed_override: Optional[int] = None) -> int:
    if jobs < 1:
        raise ConfigError("", f"--jobs must be >= 1, got {jobs}")
    cfg = load_config(config_path)
    seed = cfg.seed if seed_override is None else seed_override
    rc = _run_config(cfg, _build_fixture(cfg), seed)
    manifest_path = os.path.join(out_dir, cfg.outputs["manifest"])
    trace_path = os.path.join(out_dir, cfg.outputs["trace"])
    for key, path in (("manifest", manifest_path), ("trace", trace_path)):
        if error := _output_error(path, made=out_dir):
            raise ConfigError(f"outputs.{key}", error)

    if out_dir:  # "" is the working directory, as the joined paths above read it
        os.makedirs(out_dir, exist_ok=True)
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
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    if jobs > 1 and cfg.trials > 1:
        _run_chunks(rc, jobs, trace_path)
    else:
        write_traces_csv(run_lockstep(rc, range(cfg.trials)), trace_path)
    print(f"wrote {manifest_path} and {trace_path}")
    return 0


def _run_chunks(rc: RunConfig, jobs: int, trace_path: str) -> None:
    """The trials of ``rc`` in ``jobs`` contiguous chunks: this process runs
    the first while a pool of one worker per other chunk runs the rest.  Each
    chunk's rows go to a part file in a temporary directory beside the trace,
    the first part behind the header; on success the first part is renamed
    onto the trace and the others are appended in chunk order, so the trace
    is the file one process would write, and no worker sends its rows back
    to this process.  Raises one DivergenceError naming every diverged trial,
    leaving the trace path as it was."""
    chunks = np.array_split(np.arange(rc.trials), min(jobs, rc.trials))
    with tempfile.TemporaryDirectory(dir=os.path.dirname(trace_path)) as tmp:
        args = [(rc, int(ch[0]), int(ch[-1]) + 1, os.path.join(tmp, f"part{i}.csv"))
                for i, ch in enumerate(chunks)]
        with ProcessPoolExecutor(max_workers=len(chunks) - 1) as pool:
            rest = pool.map(_trial_chunk, args[1:])  # submits every chunk now
            failures = _trial_chunk(args[0])
            # map keeps the chunks, and so the trials, in order
            failures += [f for part in rest for f in part]
        if failures:
            raise DivergenceError(failures)
        # same directory, so the rename is one filesystem's
        os.replace(args[0][3], trace_path)
        with open(trace_path, "ab") as out:
            for _, _, _, part in args[1:]:
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, out)


def cmd_verify(config_path: str, seed_override: Optional[int] = None) -> int:
    cfg = load_config(config_path)
    if cfg.verify is None:
        raise ConfigError("verify.setting", "verify needs a theorem setting")
    row = theory.SETTINGS[cfg.verify["setting"]]
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
    _, _, verdict = harness.run_verification(
        row.name, _build_fixture(cfg),
        spec_section("schedule", StepSchedule.from_config, cfg.schedule), cfg.iterations,
        checkpoints=cfg.checkpoints,
        trials=cfg.trials,
        seed=cfg.seed if seed_override is None else seed_override,
        b=cfg.batch_size,
        x0=cfg.x0,
        policy=cfg.verify["policy"],
    )
    print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    return 0 if verdict.passed else 4


# the sections of a constants file: "smooth" holds the fields of ProblemConstants
# (an integer n, a list L_i, numbers otherwise) and the initial state D2, f0_gap
_CONSTANTS_FIELDS = {
    "smooth": {**{f.name: ({"n": int, "L_i": list}.get(f.name, float), None)
                  for f in fields(problems.ProblemConstants)},
               "D2": (float, None), "f0_gap": (float, None)},
    "lipschitz": {"G": (float, None), "D2": (float, None)},
    "composite": {"sigma_star_F": (float, None), "D2": (float, None), "F0_gap": (float, None)},
}


def _constants_from_json(path: str):
    """A constants file's table sections (``theory.complexity_table``) and batch size."""
    raw = spec_fields(read_json(path), {**dict.fromkeys(_CONSTANTS_FIELDS, (dict, None)),
                                        "batch_size": (int, 2)}, "constants")
    sm, lip, comp = (spec_section(name, partial(spec_fields, fields=table), raw[name] or {})
                     for name, table in _CONSTANTS_FIELDS.items())
    # a constant left out is missing, but for these
    optional = {"L_i": (), "L_avg": sm["L_max"], "G": 0.0, "B": 0.0}
    consts = {}
    for f in fields(problems.ProblemConstants):
        value = optional.get(f.name) if sm[f.name] is None else sm[f.name]
        if value is None:
            raise theory.MissingConstant(f"smooth.{f.name}")
        consts[f.name] = value if f.name == "n" else tuple(value) if f.name == "L_i" else float(value)
    c = problems.ProblemConstants(**consts)
    return {
        "smooth": (c, theory.InitState(D2=sm["D2"], f0_gap=sm["f0_gap"]), None),
        "lipschitz": (replace(c, G=lip["G"]), theory.InitState(D2=lip["D2"]), None),
        "composite": (c, theory.InitState(D2=comp["D2"], F0_gap=comp["F0_gap"]),
                      comp["sigma_star_F"]),
    }, raw["batch_size"]


def table_sources_for_fixture(name: str) -> dict:
    """A smooth fixture's table sections (``theory.complexity_table``): its
    ``harness.bound_inputs`` at its default x0, with its own composite or else
    its f plus lasso_4x2's regularizer; the lipschitz section is its constants
    with abs_2x1's G, and D2 abs_2x1's worst case ||x0 - x*||^2 <= (2B)^2."""
    fx = _fixture(name)
    if not math.isfinite(fx.constants.L):
        raise ValueError(f"fixture {name!r} is not smooth; pick a least-squares fixture")
    if fx.composite is None:
        reg = problems.fixture("lasso_4x2").regularizer
        fx = replace(fx, regularizer=reg,
                     composite=problems.make_composite(fx.problem, fx.constants, reg))
    lip = problems.fixture("abs_2x1").constants
    x0 = fx.problem.default_x0
    return {
        "smooth": harness.bound_inputs(fx, "gd_convex", x0),
        "lipschitz": (replace(fx.constants, G=lip.G), theory.InitState(D2=4.0 * lip.B * lip.B),
                      None),
        "composite": harness.bound_inputs(fx, "pgd_convex", x0),
    }


def cmd_table(constants_source: str, epsilon: float, csv_path: Optional[str] = None,
              batch_size: Optional[int] = None) -> int:
    """The table of a fixture or a constants file; ``batch_size``, when given,
    overrides the source's (2 for a fixture)."""
    if csv_path and (error := _output_error(csv_path)):
        raise ValueError(f"--csv: {error}")
    if os.path.isfile(constants_source):
        sections, b = _constants_from_json(constants_source)
    else:
        sections, b = table_sources_for_fixture(constants_source), 2
    table = theory.complexity_table(sections, b if batch_size is None else batch_size, epsilon)
    print(theory.table_to_text(table))
    if csv_path:
        with open(csv_path, "w", newline="\n") as fh:
            fh.write(theory.table_to_csv(table))
        print(f"wrote {csv_path}")
    return 0


def cmd_suite(fixture_names, samples: int = 10_000, out_path: Optional[str] = None) -> int:
    if samples < 1:
        raise ConfigError("", f"--samples must be >= 1, got {samples}")
    if out_path and (error := _output_error(out_path)):
        raise ConfigError("", f"--out: {error}")
    reports = []
    for name in fixture_names:
        reports.append(harness.property_suite(_fixture(name, f"fixture {name!r}: "),
                                              samples=samples))
    payload = json.dumps(reports, indent=2, sort_keys=True)
    print(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")
    return 0 if all(r["ok"] for r in reports) else 4


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parse_args leaves it
    as it was."""
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
    p_tab.add_argument("--batch-size", type=int, default=None,
                       help="batch size of the mini_sgd row (default: the source's, or 2)")

    p_sui = sub.add_parser("suite", help="run the functional-inequality suite")
    p_sui.add_argument("--fixture", action="append", required=True)
    p_sui.add_argument("--samples", type=int, default=10_000)
    p_sui.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    """Run one command.  The commands raise their failures, and this is the one
    place that reports them: a divergence exits 3; a ValueError exits 2, as a
    table error from ``table`` and elsewhere as a config error (a SpecError)
    or a hypothesis error (any other).  A reader that closed stdout exits 1, as
    Python's own EPIPE handling does, with stdout pointed at os.devnull so that
    the exit flush stays silent."""
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            code = cmd_run(args.config, args.out_dir, args.jobs, args.seed_override)
        elif args.command == "verify":
            code = cmd_verify(args.config, args.seed_override)
        elif args.command == "table":
            code = cmd_table(args.constants, args.epsilon, args.csv, args.batch_size)
        else:
            code = cmd_suite(args.fixture, args.samples, args.out)
        sys.stdout.flush()  # a closed stdout shows here, not in the exit flush
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        kind = ("table" if args.command == "table"
                else "config" if isinstance(exc, SpecError) else "hypothesis")
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
