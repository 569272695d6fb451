"""Output checks.  Each returns a list of problems; an empty list means correct.

* ``verify``: exit code 0 and a verdict whose ``pass`` is true.
* ``suite``: exit code 0, one report per requested fixture at the requested
  sample count, every report ``ok``, every check ``pass`` except
  ``scalar_pl:convexity``, which must be ``expected-fail``.
* ``table``: exit code 0, the six method rows and, in each, the cells the
  theory covers as finite positive numbers and the others as ``not covered``.
* ``run``: exit code 0, the exact CSV header, 1 + M (T+1) lines, and the rows
  of trials 0, M/2 and M-1 equal, within a tolerance set by the float64
  epsilon, to a direct ``algorithms.run_algorithm`` replay of those trials.
  Trial m depends only on (config, seed + m), so the replay also checks that
  the trace does not depend on ``--jobs``.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from descentlab import algorithms, problems

CSV_HEADER = "trial,t,gamma_t,f_gap,dist_sq"
EXPECTED_FAIL = {("scalar_pl", "convexity")}

# 64 units in the last place at unit scale: room for a reordered reduction,
# far below any change of iterate.
REPLAY_TOL = 64 * float(np.finfo(np.float64).eps)

# (method, column) cells the complexity table covers; all others read "not covered"
TABLE_COLUMNS = ("convex_smooth", "convex_lipschitz", "strongly_convex", "pl")
TABLE_COVERED = {
    "gd": set(TABLE_COLUMNS),
    "sgd": set(TABLE_COLUMNS),
    "mini_sgd": {"convex_smooth", "strongly_convex"},
    "momentum": {"convex_smooth"},
    "prox_gd": {"convex_smooth", "strongly_convex"},
    "prox_sgd": {"convex_smooth", "strongly_convex"},
}


def _exit(rc) -> list:
    return [] if rc == 0 else [f"exit code {rc!r}"]


def check_verify(rc, stdout: str) -> list:
    bad = _exit(rc)
    try:
        verdict = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return bad + [f"verdict is not JSON: {exc}"]
    if verdict.get("pass") is not True:
        bad.append(f"verdict did not pass (worst_ratio={verdict.get('worst_ratio')})")
    return bad


def check_suite(rc, stdout: str, fixtures, samples: int) -> list:
    bad = _exit(rc)
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return bad + [f"suite output is not JSON: {exc}"]
    names = [r.get("fixture") for r in reports]
    if names != list(fixtures):
        bad.append(f"suite reports fixtures {names}, expected {list(fixtures)}")
    for report in reports:
        fx = report.get("fixture")
        if report.get("ok") is not True:
            bad.append(f"suite not ok on {fx}")
        if report.get("samples") != samples:
            bad.append(f"suite on {fx} used {report.get('samples')} samples")
        for check in report.get("checks", ()):
            want = "expected-fail" if (fx, check["name"]) in EXPECTED_FAIL else "pass"
            if check["status"] != want:
                bad.append(f"{fx}:{check['name']} is {check['status']}, expected {want}")
    seen = {(r.get("fixture"), c["name"]) for r in reports for c in r.get("checks", ())}
    for key in {k for k in EXPECTED_FAIL if k[0] in fixtures} - seen:
        bad.append(f"{key[0]}:{key[1]} missing from the suite")
    return bad


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def check_table(rc, stdout: str) -> list:
    bad = _exit(rc)
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    rows = {}
    for line in lines[2:]:
        cells = re.split(r"\s{2,}", line.strip())
        rows[cells[0]] = cells[1:]
    if not lines or re.split(r"\s{2,}", lines[0].strip()) != ["method", *TABLE_COLUMNS]:
        bad.append("table header differs")
    if list(rows) != list(TABLE_COVERED):
        return bad + [f"table rows {list(rows)}, expected {list(TABLE_COVERED)}"]
    for method, cells in rows.items():
        if len(cells) != len(TABLE_COLUMNS):
            bad.append(f"table row {method} has {len(cells)} cells")
            continue
        for col, cell in zip(TABLE_COLUMNS, cells):
            if col in TABLE_COVERED[method]:
                v = _number(cell)
                if not (math.isfinite(v) and v > 0):
                    bad.append(f"table {method}/{col} = {cell!r}, expected a positive number")
            elif cell != "not covered":
                bad.append(f"table {method}/{col} = {cell!r}, expected 'not covered'")
    return bad


def replay_config(cfg: dict, seed: int):
    """RunConfig of a ``run`` config, built from the public problem API."""
    spec = cfg["problem"]
    if "fixture" in spec:
        fx = problems.fixture(spec["fixture"])
        problem, gt = fx.problem, fx.ground_truth
    else:
        problem, gt, _ = problems.build_least_squares(spec["features"], spec["targets"])
    x0 = np.asarray(cfg["x0"], dtype=float) if cfg.get("x0") is not None else None
    return algorithms.RunConfig(
        problem=problem, ground_truth=gt,
        schedule=algorithms.StepSchedule.from_config(cfg["schedule"]),
        iterations=cfg["iterations"], seed=seed, trials=cfg["trials"], x0=x0,
        algorithm=cfg["algorithm"],
    )


def check_run(rc, trace_path, cfg: dict, seed: int) -> list:
    bad = _exit(rc)
    M, T = cfg["trials"], cfg["iterations"]
    picked = sorted({0, M // 2, M - 1})
    rows = {m: [] for m in picked}
    wanted = {str(m) for m in picked}
    try:
        with open(trace_path) as fh:
            header = fh.readline().rstrip("\n")
            count = 1
            for line in fh:
                count += 1
                head = line.split(",", 1)[0]
                if head in wanted:
                    rows[int(head)].append(line.rstrip("\n").split(","))
    except OSError as exc:
        return bad + [f"trace unreadable: {exc}"]
    if header != CSV_HEADER:
        bad.append(f"trace header {header!r}, expected {CSV_HEADER!r}")
    if count != 1 + M * (T + 1):
        bad.append(f"trace has {count} lines, expected {1 + M * (T + 1)}")
    rc_replay = replay_config(cfg, seed)
    for m in picked:
        got = rows[m]
        if any(len(r) != 5 for r in got):
            bad.append(f"trial {m}: a row does not have 5 fields")
            continue
        if [r[1] for r in got] != [str(t) for t in range(T + 1)]:
            bad.append(f"trial {m}: rows are not t = 0..{T} in order")
            continue
        ref = algorithms.run_algorithm(rc_replay, cfg["algorithm"], trial=m)
        for col, name in ((2, "gamma"), (3, "f_gap"), (4, "dist_sq")):
            csv_vals = np.array([_number(r[col]) for r in got])
            ref_vals = getattr(ref, name)
            err = np.abs(csv_vals - ref_vals) - REPLAY_TOL * (1.0 + np.abs(ref_vals))
            if not np.all(err <= 0):
                t = int(np.argmax(err))
                bad.append(f"trial {m} {name} at t={t}: trace {float(csv_vals[t])!r} "
                           f"!= replay {float(ref_vals[t])!r}")
    return bad


def check_op(op, rc, stdout: str, seed: int) -> list:
    if op.kind == "verify":
        return check_verify(rc, stdout)
    if op.kind == "suite":
        return check_suite(rc, stdout, op.fixtures, op.sizes["samples"])
    if op.kind == "table":
        return check_table(rc, stdout)
    return check_run(rc, op.trace_path, op.config, seed)
