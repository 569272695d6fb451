"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one small op of each kind (verify, run, suite, table) through
``cli.main``, requires the real output to pass its check, then corrupts the
output one way at a time and requires every corruption to flip the op to
failed.  The run op is made with ``--jobs 2`` and again with ``--jobs 1``;
both traces must pass the replay check.  Exits 0 when every line reads ok.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def _corrupt_suite(stdout: str, edit) -> str:
    reports = json.loads(stdout)
    edit(reports)
    return json.dumps(reports)


def _set_status(fixture: str, check: str, status: str):
    def edit(reports):
        for report in reports:
            for c in report["checks"]:
                if report["fixture"] == fixture and c["name"] == check:
                    c["status"] = status
    return edit


def _rewrite_lines(path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def _perturb(trial: int, column: int, rel: float):
    def edit(lines):
        for i, line in enumerate(lines):
            fields = line.rstrip("\n").split(",")
            if fields[0] == str(trial) and fields[1] == "5":
                fields[column] = repr(float(fields[column]) * (1.0 + rel))
                lines[i] = ",".join(fields) + "\n"
        return lines
    return edit


def _swap_rows(trial: int):
    def edit(lines):
        idx = [i for i, ln in enumerate(lines) if ln.split(",", 1)[0] == str(trial)]
        lines[idx[1]], lines[idx[2]] = lines[idx[2]], lines[idx[1]]
        return lines
    return edit


def main() -> int:
    run.import_program()
    import checks

    work = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = []

    def expect(label: str, problems_found: list, should_fail: bool) -> None:
        ok = bool(problems_found) == should_fail
        results.append(ok)
        detail = problems_found[0].splitlines()[0] if problems_found else "passes"
        print(f"[{'ok' if ok else 'MISSED'}] {label}: {detail}")

    # verify
    cfg = json.loads((run.ROOT / "configs" / "verify_sgd_strongly_convex.json").read_text())
    cfg["trials"] = 10
    path = work / "verify.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run.call_cli(["verify", "--config", str(path), "--seed-override", "3"])
    expect("verify as produced", checks.check_verify(rc, out), False)
    expect("verify exit code 4", checks.check_verify(4, out), True)
    failing = out.replace('"pass": true', '"pass": false')
    expect("verify pass=false", checks.check_verify(rc, failing), True)
    expect("verify output truncated", checks.check_verify(rc, out[:-10]), True)

    # suite
    fixtures = ("ls_4x2", "scalar_pl")
    argv = ["suite", "--fixture", fixtures[0], "--fixture", fixtures[1], "--samples", "500"]
    rc, out, _ = run.call_cli(argv)
    suite = lambda rc_, out_: checks.check_suite(rc_, out_, fixtures, 500)  # noqa: E731
    expect("suite as produced", suite(rc, out), False)
    expect("suite exit code 4", suite(4, out), True)
    expect("suite report not ok",
           suite(rc, _corrupt_suite(out, lambda r: r[0].update(ok=False))), True)
    expect("suite check failing",
           suite(rc, _corrupt_suite(out, _set_status("ls_4x2", "cocoercivity", "fail"))), True)
    expect("suite scalar_pl:convexity passing",
           suite(rc, _corrupt_suite(out, _set_status("scalar_pl", "convexity", "unexpected-pass"))),
           True)
    expect("suite fixture missing", suite(rc, _corrupt_suite(out, lambda r: r.pop())), True)
    expect("suite sample count", suite(rc, _corrupt_suite(out, lambda r: r[0].update(samples=5))),
           True)

    # table
    rc, out, _ = run.call_cli(["table", "--constants", "ls_4x2", "--epsilon", "1e-3"])
    expect("table as produced", checks.check_table(rc, out), False)
    expect("table exit code 2", checks.check_table(2, out), True)
    lines = out.splitlines()
    expect("table row missing", checks.check_table(rc, "\n".join(lines[:-1])), True)
    gd_row = next(ln for ln in lines if ln.startswith("gd "))
    bad_row = gd_row.replace(gd_row.split()[1], "nan", 1)
    expect("table cell nan", checks.check_table(rc, out.replace(gd_row, bad_row)), True)
    expect("table coverage changed",
           checks.check_table(rc, out.replace("not covered", "1.5        ", 1)), True)

    # run, with --jobs 2 and --jobs 1
    cfg = json.loads((run.ROOT / "configs" / "run_sgd_ls.json").read_text())
    cfg.update(trials=6, iterations=30)
    path = work / "run.json"
    path.write_text(json.dumps(cfg))
    trace = work / "out" / cfg["outputs"]["trace"]
    for jobs in ("1", "2"):
        rc, _, _ = run.call_cli(["run", "--config", str(path), "--out-dir", str(work / "out"),
                                 "--jobs", jobs, "--seed-override", "5"])
        expect(f"run --jobs {jobs} as produced", checks.check_run(rc, trace, cfg, 5), False)
    expect("run exit code 3", checks.check_run(3, trace, cfg, 5), True)
    expect("run wrong seed replayed", checks.check_run(rc, trace, cfg, 6), True)
    pristine = trace.read_text()
    corruptions = [
        ("run header", lambda ls: ["trial,t,gamma,f_gap,dist_sq\n"] + ls[1:]),
        ("run row missing", lambda ls: ls[:-1]),
        ("run trial 0 f_gap off by 1e-9", _perturb(0, 3, 1e-9)),
        ("run trial M/2 dist_sq off by 1e-9", _perturb(3, 4, 1e-9)),
        ("run trial M-1 gamma off by 1e-9", _perturb(5, 2, 1e-9)),
        ("run trial M-1 rows out of order", _swap_rows(5)),
    ]
    for label, edit in corruptions:
        trace.write_text(pristine)
        _rewrite_lines(trace, edit)
        expect(label, checks.check_run(rc, trace, cfg, 5), True)

    missed = results.count(False)
    print(f"{len(results) - missed}/{len(results)} self-test expectations met")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
