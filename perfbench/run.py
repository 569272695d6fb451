"""descentlab benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload {mc_verify,trace_export,certify}
                             [--seed N] [--seconds S] [--trace {0,1}]

Run from anywhere inside a descentlab checkout; the program is imported from
the checkout's ``src/`` and driven only through ``descentlab.cli.main([...])``
in this process, with generated config files.  Load is closed-loop from this
single process: one op at a time, ``run`` ops with ``--jobs 2`` workers.

A *round* runs every op of the workload once, back to back; the sum of the
op times is the timed region.  Rounds repeat for ``--seconds`` (at least
three), each followed by the output checks of ``checks.py`` outside the timed
region.  Every round uses the same seed, so every round must give the same
outputs.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:

* ``wall_norm``: median over rounds of the round time in units of the
  reference loop (``reference.py``) timed just before and after each op;
  on a shared machine this is several times steadier than seconds;
* ``trial_steps_per_ref``: sum of M*T over the round's verify and run ops,
  divided by ``wall_norm``;
* ``setup_s``: median over five fresh interpreters of ``import descentlab``
  plus a cold build of every fixture the workload names;
* ``peak_rss_mb``: max ``ru_maxrss`` of this process and its children.

It also prints, without gating them, the same quantities in seconds
(``wall_s``, ``trial_steps_per_s``, ``trace_rows_per_s``), the median
reference time, and ``ops_failed_frac``.

``--trace 1`` alternates untraced rounds with rounds traced by
``tracer.py`` for ``--seconds``, and reports the per-layer metrics named in
``BENCHMARK.json`` (medians over traced rounds).  Counts must repeat exactly
between traced rounds; a difference is reported as a failure.

Seeds: 0 is the default, 1 the alternate.  Results, the environment and the
spans land under ``.perfbench/`` in the checkout.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from reference import reference_s

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_TIMEOUT_S = 120

# per-layer families that exist only on the workloads running that method,
# setting or fixture; absent members read 0
ZERO_FAMILIES = ("algorithms.us_per_step.", "harness.verdict_s.", "harness.property_suite_s.")

# counts that must repeat exactly between traced rounds at one seed
REPEAT_COUNTS = ("problems.grad_i_calls", "problems.value_calls", "problems.grad_calls",
                 "algorithms.trial_steps", "nonsmooth.prox_calls", "cli.trace_bytes")

clock = time.perf_counter


def import_program():
    """Import descentlab from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "descentlab" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'descentlab'} not found; run inside a descentlab checkout")
    if not (ROOT / "configs").is_dir():
        sys.exit(f"error: {ROOT / 'configs'} not found; run inside a descentlab checkout")
    sys.path.insert(0, str(src))
    import descentlab

    if Path(descentlab.__file__).resolve().parent != (src / "descentlab").resolve():
        sys.exit(f"error: imported descentlab from {descentlab.__file__}, not {src}")


@dataclass
class Round:
    wall: float
    op_s: dict
    failures: dict
    trace_bytes: int
    span: object = None
    op_norm: Optional[dict] = None  # op time / mean reference time around the op
    ref: float = 0.0  # median reference-loop time in the round


def call_cli(argv):
    """One op: ``cli.main(argv)`` with its output captured; returns (rc, out, err)."""
    from descentlab import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    except Exception:  # any other raise counts as a failed op
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_round(ops, seed: int, tracer=None, normalize=False) -> Round:
    """Run every op once.  With ``normalize``, time the reference loop before
    the first op and after each op, and divide each op's time by the mean of
    the two reference times around it."""
    import checks

    for op in ops:
        if op.kind == "run":
            op.trace_path.unlink(missing_ok=True)
    results = []
    refs = [reference_s()] if normalize else []
    round_span = tracer.open("bench", "round") if tracer else None
    for op in ops:
        span = tracer.open("cli", "op:" + op.name) if tracer else None
        t = clock()
        rc, out, err = call_cli(op.argv)
        dt = clock() - t
        if tracer:
            tracer.close(span)
        results.append((op, rc, out, err, dt))
        if normalize:
            refs.append(reference_s())
    if tracer:
        tracer.close(round_span)

    failures = {}
    for op, rc, out, err, _ in results:
        try:
            bad = checks.check_op(op, rc, out, seed)
        except Exception:  # a check that cannot run marks its op failed
            bad = ["output check raised:\n" + traceback.format_exc()]
        if bad:
            failures[op.name] = bad + ([err.strip()] if err.strip() else [])
    trace_bytes = sum(op.trace_path.stat().st_size for op in ops
                      if op.kind == "run" and op.trace_path.exists())
    op_s = {r[0].name: r[4] for r in results}
    r = Round(wall=sum(op_s.values()), op_s=op_s, failures=failures,
              trace_bytes=trace_bytes, span=round_span)
    if normalize:
        r.op_norm = {name: dt / ((refs[i] + refs[i + 1]) / 2)
                     for i, (name, dt) in enumerate(op_s.items())}
        r.ref = statistics.median(refs)
    return r


def repeat_for(seconds: float, min_calls: int, step) -> None:
    """Call ``step`` until another call would overrun ``seconds`` (at least ``min_calls``)."""
    calls = 0
    start = clock()
    while True:
        step()
        calls += 1
        if calls >= min_calls and (clock() - start) * (1 + 1 / calls) > seconds:
            return


def measure_setup(fixtures, seed: int) -> list:
    """Set-up seconds of ``SETUP_REPS`` fresh interpreters (see setup_probe.py)."""
    probe = ROOT / "perfbench" / "setup_probe.py"
    samples = []
    for _ in range(SETUP_REPS):
        res = subprocess.run([sys.executable, str(probe), str(seed), *fixtures],
                             capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                             cwd=ROOT)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{res.stderr}")
        samples.append(float(res.stdout.split()[-1]))
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, ops) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "ops": {op.name: {"argv": op.argv[0], **op.sizes} for op in ops},
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _median_op_s(rounds) -> dict:
    return {name: statistics.median(r.op_s[name] for r in rounds) for name in rounds[0].op_s}


def end_to_end(workload: str, ops, seed: int, seconds: float):
    from workloads import FIXTURES

    setup = measure_setup(FIXTURES[workload], seed)
    rounds = []
    repeat_for(seconds, MIN_ROUNDS,
               lambda: rounds.append(run_round(ops, seed, normalize=True)))
    wall = statistics.median(r.wall for r in rounds)
    wall_norm = statistics.median(sum(r.op_norm.values()) for r in rounds)
    steps = sum(op.steps for op in ops)
    rows = sum(op.trace_rows for op in ops if op.kind == "run")
    values = {
        "wall_norm": wall_norm,
        "trial_steps_per_ref": steps / wall_norm,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    # printed, not gated: seconds drift with the machine (see reference.py),
    # and trace rows exist only on trace_export
    raw = {
        "wall_s": (wall, "s"),
        "trial_steps_per_s": (steps / wall, "steps/s"),
        "trace_rows_per_s": (rows / wall, "rows/s"),
        "reference_s": (statistics.median(r.ref for r in rounds), "s"),
    }
    detail = {"setup_samples_s": setup, "round_wall_s": [r.wall for r in rounds],
              "round_ref_s": [r.ref for r in rounds], "round_op_s": [r.op_s for r in rounds],
              "round_op_norm": [r.op_norm for r in rounds],
              "op_median_s": _median_op_s(rounds), "steps_per_round": steps,
              "trace_rows_per_round": rows}
    return values, raw, rounds, detail


def per_layer(workload: str, ops, seed: int, seconds: float, tracer, build_s: float):
    from tracer import round_metrics

    # untraced and traced rounds alternate, so drift in machine speed
    # affects both halves of trace_overhead_frac alike
    untraced, traced = [], []

    def pair():
        untraced.append(run_round(ops, seed))
        tracer.install()
        try:
            traced.append(run_round(ops, seed, tracer))
        finally:
            tracer.uninstall()

    repeat_for(seconds, MIN_TRACED_ROUNDS, pair)
    per_round = []
    for r in traced:
        m = round_metrics(tracer.spans, r.span)
        m["cli.trace_bytes"] = r.trace_bytes
        per_round.append(m)
    repeats = True
    for key in REPEAT_COUNTS:
        seen = [m[key] for m in per_round]
        if len(set(seen)) != 1:
            repeats = False
            print(f"FAILED count repeat: {key} differs between traced rounds: {seen}")
    names = sorted({k for m in per_round for k in m})
    values = {k: statistics.median(m.get(k, 0.0) for m in per_round) for k in names}
    values["problems.fixture_build_s"] = build_s
    untraced_wall = statistics.median(r.wall for r in untraced)
    values["trace_overhead_frac"] = statistics.median(r.wall for r in traced) / untraced_wall - 1
    rounds = untraced + traced
    detail = {"untraced_round_wall_s": [r.wall for r in untraced],
              "traced_round_wall_s": [r.wall for r in traced],
              "op_median_s": _median_op_s(untraced), "counts_repeat": repeats}
    return values, {}, rounds, detail


def select(values: dict, declared: list) -> dict:
    """The declared metrics, with their units, from the computed values."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if name in values:
            value = values[name]
        elif name.startswith(ZERO_FAMILIES):
            value = 0.0
        else:
            raise KeyError(f"metric {name} was not computed")
        if metric["unit"] == "count":
            value = int(round(value))
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_program()
    import workloads
    from setup_probe import build as prebuild
    from tracer import Tracer, build_time

    if args.workload not in workloads.BUILDERS:
        parser.error(f"--workload must be one of {sorted(workloads.BUILDERS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench" / args.workload
    results_dir = ROOT / ".perfbench" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)

    fixtures = workloads.FIXTURES[args.workload]
    tracer = Tracer()
    if args.trace:
        tracer.install()
        phase = tracer.open("bench", "setup")
        try:
            prebuild(fixtures, args.seed)
        finally:
            tracer.close(phase)
            tracer.uninstall()
        build_s = build_time(tracer.spans, phase)
    else:
        prebuild(fixtures, args.seed)
    ops = workloads.make_ops(args.workload, ROOT, work, args.seed)
    env = environment(args.seed, ops)

    if args.trace:
        values, raw, rounds, detail = per_layer(
            args.workload, ops, args.seed, args.seconds, tracer, build_s)
        metrics = select(values, spec["per_layer"])
        tracer.write_spans(results_dir / f"{args.workload}_seed{args.seed}_spans.jsonl")
    else:
        values, raw, rounds, detail = end_to_end(args.workload, ops, args.seed, args.seconds)
        metrics = select(values, spec["end_to_end"])

    attempted = len(ops) * len(rounds)
    failed = sum(len(r.failures) for r in rounds)
    extra = {**raw, "ops_failed_frac": (failed / attempted, "ratio")}
    for i, r in enumerate(rounds):
        for name, problems_found in r.failures.items():
            print(f"FAILED round {i} op {name}: " + "; ".join(problems_found))
    counts_ok = detail.get("counts_repeat", True)
    result = {"correct": failed == 0 and counts_ok, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds of {len(ops)} ops, {failed} failed")
    for name, seconds in detail["op_median_s"].items():
        print(f"  op {name:<22} {seconds:.4f} s median (untraced)")
    for name, m in metrics.items():
        value = m["value"]
        print(f"  {name} = {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value:.6g} {unit}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "detail": detail, "result": result,
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}}
    out = results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
