import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from descentlab import RunConfig, StepSchedule, fixture, run_lockstep, write_traces_csv
from descentlab import cli
from descentlab.problems import FiniteSumProblem
from descentlab.cli import (
    ConfigError,
    ExperimentConfig,
    cmd_run,
    cmd_suite,
    cmd_table,
    cmd_verify,
    load_config,
    main,
)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


_ABS_SPEC = {"kind": "abs_loss", "rows": [[1.0], [1.0]], "targets": [1.0, -1.0]}
_SMOOTH_CONSTANTS = {"n": 4, "L": 1.0, "L_max": 2.0, "mu": 0.5, "mu_pl": 0.5,
                     "sigma_star_f": 0.1, "delta_star_f": 0.1, "D2": 1.0, "f0_gap": 1.0}
_LS_SPEC = {"kind": "least_squares", "features": [[1.0, 0.0], [0.0, 1.0]], "targets": [1.0, 0.0]}
_L1_X = {"kind": "l1", "lambda": "x"}


def _gd_config(**overrides):
    cfg = {
        "problem": {"fixture": "ls_4x2"},
        "algorithm": "gd",
        "schedule": {"kind": "constant", "gamma": 1.0 / 0.75},
        "iterations": 50,
        "trials": 1,
        "seed": 0,
        "x0": [3.0, -1.0],
        "outputs": {"trace": "trace.csv", "manifest": "manifest.json"},
    }
    cfg.update(overrides)
    return cfg


def test_config_roundtrip(tmp_path):
    path = _write(tmp_path, "cfg.json", _gd_config())
    cfg = load_config(path)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert cfg.to_dict() == again.to_dict()


def test_config_unknown_field():
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_dict(_gd_config(bogus=1))


def test_config_scientific_notation(tmp_path):
    payload = _gd_config(schedule={"kind": "constant", "gamma": 1.25e-1})
    cfg = load_config(_write(tmp_path, "cfg.json", payload))
    assert cfg.schedule["gamma"] == 0.125


def test_run_writes_manifest_then_traces(tmp_path):
    path = _write(tmp_path, "cfg.json", _gd_config(trials=2))
    assert cmd_run(path, out_dir=str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert "descentlab" in manifest["versions"]
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "trial,t,gamma_t,f_gap,dist_sq"
    assert len(lines) == 1 + 2 * 51  # T+1 rows per trial


def test_run_repeat_is_byte_identical(tmp_path):
    path = _write(tmp_path, "cfg.json", _gd_config(algorithm="sgd", trials=3,
                                                   schedule={"kind": "constant", "gamma": 0.2}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cmd_run(path, out_dir=str(a)) == 0
    assert cmd_run(path, out_dir=str(b)) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_run_jobs_matches_sequential(tmp_path):
    # T = 600 crosses the first draw window (512 steps for up to 4 trials), and
    # --jobs 3 splits the 4 trials 2 + 1 + 1
    for name, changes in (
            ("sgd", {}),
            ("minibatch_sgd", {"batch_size": 2}),
            ("momentum", {"schedule": {"kind": "momentum_pair", "eta": 0.1}}),
            ("prox_sgd", {"problem": {"fixture": "lasso_4x2"}})):
        path = _write(tmp_path, f"{name}.json", _gd_config(
            **dict({"algorithm": name, "trials": 4, "iterations": 600,
                    "schedule": {"kind": "constant", "gamma": 0.2}}, **changes)))
        traces = []
        for jobs in (1, 2, 3):
            out = tmp_path / f"{name}_{jobs}"
            assert cmd_run(path, out_dir=str(out), jobs=jobs) == 0
            assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "trace.csv"]
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1] == traces[2]
        assert traces[0].count(b"\n") == 1 + 4 * 601


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_empty_out_dir_is_the_working_directory(tmp_path, monkeypatch, jobs):
    # --out-dir "" writes where os.path.join("", name) points: the working directory
    path = _write(tmp_path, "cfg.json", _gd_config(algorithm="sgd", trials=3,
                                                   schedule={"kind": "constant", "gamma": 0.2}))
    ref, work = tmp_path / "ref", tmp_path / "work"
    assert cmd_run(path, out_dir=str(ref)) == 0
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["run", "--config", path, "--out-dir", "", "--jobs", str(jobs)]) == 0
    assert sorted(p.name for p in work.iterdir()) == ["manifest.json", "trace.csv"]
    for name in ("manifest.json", "trace.csv"):
        assert (work / name).read_bytes() == (ref / name).read_bytes()


def test_run_divergence_names_every_trial_whatever_jobs(tmp_path, capsys):
    # gamma * ||phi_i||^2 = 2.9 on two of the four terms: 8 of the 12 sample
    # streams blow up within T = 700 steps, in both halves and all thirds
    path = _write(tmp_path, "cfg.json", _gd_config(
        algorithm="sgd", trials=12, iterations=700, x0=[2.0, 0.0],
        schedule={"kind": "constant", "gamma": 1.45}))
    errs = []
    for jobs in (1, 2, 3):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", "--config", path, "--out-dir", str(out), "--jobs", str(jobs)]) == 3
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == errs[2]
    assert errs[0].startswith("divergence: 8 trial(s) diverged: trial 0 (t=301), ")


def test_gd_run_steps_one_row_for_every_trial(tmp_path, monkeypatch, capsys):
    # every gd trial starts at x0 and draws nothing: one row is stepped, and
    # the run's trials are its copies, whatever --jobs splits
    rows, full_grad_rows = [], FiniteSumProblem.full_grad_rows
    monkeypatch.setattr(FiniteSumProblem, "full_grad_rows",
                        lambda p, X: rows.append(len(X)) or full_grad_rows(p, X))
    path = _write(tmp_path, "cfg.json", _gd_config(trials=5, iterations=600))
    traces = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert cmd_run(path, out_dir=str(out), jobs=jobs) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    assert rows and set(rows) == {1}
    cfg = RunConfig.for_fixture(fixture("ls_4x2"), "gd", StepSchedule.constant(1.0 / 0.75), 600,
                                x0=[3.0, -1.0])
    alone = run_lockstep(cfg, [0])
    write_traces_csv(replace(alone, trials=np.arange(5), f_gap=np.tile(alone.f_gap, (5, 1)),
                             dist_sq=np.tile(alone.dist_sq, (5, 1))), tmp_path / "alone.csv")
    assert (tmp_path / "alone.csv").read_bytes() == traces[0]
    # a divergence names every trial, at the one row's t
    path = _write(tmp_path, "div.json", _gd_config(trials=3, iterations=4000, x0=[50.0, 50.0],
                                                   schedule={"kind": "constant", "gamma": 3.0}))
    errs = []
    for jobs in (1, 2):
        assert main(["run", "--config", path, "--out-dir", str(tmp_path / f"div{jobs}"),
                     "--jobs", str(jobs)]) == 3
        errs.append(capsys.readouterr().err)
    t = re.search(r"trial 0 \(t=(\d+)\)", errs[0]).group(1)
    assert errs[0] == errs[1] == (f"divergence: 3 trial(s) diverged: trial 0 (t={t}), "
                                  f"trial 1 (t={t}), trial 2 (t={t})\n")


def test_run_bad_batch_size_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json",
                  _gd_config(algorithm="minibatch_sgd", batch_size=9,
                             schedule={"kind": "constant", "gamma": 0.01}))
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert "'batch_size'" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_method_rejecting_schedule_exits_2(tmp_path, capsys, jobs):
    path = _write(tmp_path, "cfg.json", _gd_config(
        trials=2, schedule={"kind": "inv_sqrt", "gamma0": 0.1}))
    assert main(["run", "--config", path, "--out-dir", str(tmp_path), "--jobs", str(jobs)]) == 2
    assert "gd requires a constant stepsize schedule" in capsys.readouterr().err


def test_run_divergence_exits_3(tmp_path):
    # gamma * L = 2.25 > 2, so the gd iteration map expands geometrically
    path = _write(tmp_path, "cfg.json",
                  _gd_config(schedule={"kind": "constant", "gamma": 3.0},
                             iterations=4000, x0=[50.0, 50.0]))
    rc = main(["run", "--config", path, "--out-dir", str(tmp_path)])
    assert rc == 3


def test_seed_override(tmp_path):
    path = _write(tmp_path, "cfg.json", _gd_config(algorithm="sgd", trials=1,
                                                   schedule={"kind": "constant", "gamma": 0.2}))
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_run(path, out_dir=str(a), seed_override=123)
    cmd_run(path, out_dir=str(b), seed_override=456)
    assert (a / "trace.csv").read_text() != (b / "trace.csv").read_text()
    assert json.loads((a / "manifest.json").read_text())["seed"] == 123


def test_verify_gd_strongly_convex_passes(tmp_path, capsys):
    payload = _gd_config(iterations=200)
    payload["verify"] = {"setting": "gd_strongly_convex"}
    payload["checkpoints"] = [1, 10, 100, 200]
    path = _write(tmp_path, "cfg.json", payload)
    assert cmd_verify(path) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert "worst_ratio" in out


def test_verify_step_too_large_exits_2(tmp_path, capsys):
    payload = _gd_config(schedule={"kind": "constant", "gamma": 2 / 0.75})
    payload["verify"] = {"setting": "gd_strongly_convex"}
    path = _write(tmp_path, "cfg.json", payload)
    assert main(["verify", "--config", path]) == 2
    assert "gamma <= 1/L" in capsys.readouterr().err


def test_verify_sgd_strongly_convex(tmp_path, capsys):
    payload = {
        "problem": {"fixture": "ls_4x2"},
        "algorithm": "sgd",
        "schedule": {"kind": "constant", "gamma": 0.9 / 4.0},
        "iterations": 200,
        "trials": 200,
        "seed": 0,
        "x0": [2.0, 0.0],
        "checkpoints": [10, 100, 200],
        "verify": {"setting": "sgd_strongly_convex"},
    }
    path = _write(tmp_path, "cfg.json", payload)
    assert cmd_verify(path) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["worst_ratio"] <= 1.0


def _deterministic_verifies():
    """configs/verify_gd_convex.json, acceptance criterion 3 at each starting point
    and criterion 12 at each stepsize, with the verdict each one gives: the gd and
    prox_gd runs reach a cycle of the last bit long before T, which the measured
    gaps show (criterion 12 at 1/L alternates between 0 and 2**-55 from t = 2)."""
    with open(os.path.join(os.path.dirname(__file__), "..", "configs",
                           "verify_gd_convex.json")) as fh:
        gd_convex = json.load(fh)
    pl = {"problem": {"fixture": "scalar_pl"}, "algorithm": "gd",
          "schedule": {"kind": "constant", "gamma": 1.0 / 8.0}, "iterations": 500,
          "verify": {"setting": "gd_pl"}}
    pgd = {"problem": {"fixture": "lasso_4x2"}, "algorithm": "prox_gd", "iterations": 2000,
           "x0": [4.0, -3.0], "verify": {"setting": "pgd_convex"}}
    L = fixture("lasso_4x2").constants.L
    pl_checkpoints = [1, 3, 10, 31, 100, 316, 500]
    pgd_checkpoints = [1, 3, 10, 31, 100, 316, 1000, 2000]
    tiny = 2.7755575615628914e-17
    return [
        (gd_convex, {
            "bound": [3.3333333333333335, 0.33333333333333337, 0.03333333333333334,
                      0.0033333333333333335],
            "checkpoints": [1, 10, 100, 1000], "measured": [0.0, 0.0, 0.0, 0.0],
            "pass": True, "policy": "deterministic", "setting": "gd_convex",
            "worst_ratio": -1.3000000000000003e-09}),
        (dict(pl, x0=[3.0]), {
            "bound": [9.031432868243124, 8.975074610403208, 8.780575888260982,
                      8.222006205564849, 6.625008306021862, 3.3696023342061108,
                      1.8943853304521725],
            "checkpoints": pl_checkpoints,
            "measured": [7.04923370119012, 6.385215117694635, 1.792212934778226e-34,
                         0.0, 0.0, 0.0, 0.0],
            "pass": True, "policy": "deterministic", "setting": "gd_pl",
            "worst_ratio": 0.7805221822492457}),
        (dict(pl, x0=[-7.0]), {
            "bound": [50.1377226283986, 49.82485148816865, 48.74509779630049,
                      45.64421533078102, 36.77853046177559, 18.706244032935498,
                      10.516622072616329],
            "checkpoints": pl_checkpoints,
            "measured": [26.717937457008805, 7.276087050050435, 0.027902307698588816,
                         0.0, 0.0, 0.0, 0.0],
            "pass": True, "policy": "deterministic", "setting": "gd_pl",
            "worst_ratio": 0.5328909253396709}),
        (dict(pl, x0=[11.0]), {
            "bound": [123.61244142321823, 122.84107081707138, 120.17898361026323,
                      112.53388861920753, 90.6759163361603, 46.11945604126696,
                      25.92828835797745],
            "checkpoints": pl_checkpoints,
            "measured": [70.66376315506763, 25.23189706947739, 3.0426433104235038,
                         0.0, 0.0, 0.0, 0.0],
            "pass": True, "policy": "deterministic", "setting": "gd_pl",
            "worst_ratio": 0.5716557509653907}),
        (dict(pgd, schedule={"kind": "constant", "gamma": 1.0 / L}), {
            "bound": [9.255, 3.085, 0.9255000000000001, 0.2985483870967742,
                      0.09255000000000001, 0.029287974683544306, 0.009255000000000001,
                      0.0046275000000000005],
            "checkpoints": pgd_checkpoints,
            "measured": [-tiny, 0.0, tiny, 0.0, tiny, tiny, tiny, tiny],
            "pass": True, "policy": "deterministic", "setting": "pgd_convex",
            "worst_ratio": -1.108049705862299e-09}),
        (dict(pgd, schedule={"kind": "constant", "gamma": 0.5 / L}), {
            "bound": [18.51, 6.17, 1.8510000000000002, 0.5970967741935485,
                      0.18510000000000001, 0.05857594936708861, 0.018510000000000002,
                      0.009255000000000001],
            "checkpoints": pgd_checkpoints,
            "measured": [2.4137500000000003, 0.09960937500000003, 6.079673767062088e-06,
                         tiny, 0.0, 0.0, 0.0, 0.0],
            "pass": True, "policy": "deterministic", "setting": "pgd_convex",
            "worst_ratio": 0.130402484089141}),
    ]


# sha256 of each deterministic verify's stdout, in _deterministic_verifies' order
_VERDICT_DIGESTS = {
    "gd_convex": "4fc97c5fc60424246d101fd1337d6e904a821469a818885370f76445c4c2b569",
    "gd_pl_x0_3": "9072d42ab0a12cb5eb922a077907208d51c198babf09df9fe0289d9afe92a0ce",
    "gd_pl_x0_-7": "98ec2f204ce703808f8977cf83b7512602cd6e602caefca0a985c5bac4641825",
    "gd_pl_x0_11": "ba6f2924bb6117780522500b3d4f0f830957c7a156e5f5565c3be3bb6d6d9dea",
    "pgd_convex_1/L": "b29d30fb51704e0ef0ee83d3533857b95776be06255136e3f18e70aef38bb12f",
    "pgd_convex_0.5/L": "f5b3d9632f7cf7fff25d779d075164397f9eb58770989f4c8705a19ff13f6593",
}


def test_deterministic_verdicts_are_pinned(tmp_path, capsys):
    # == on the dicts compares every float exactly, and the digest every byte
    for k, ((payload, verdict), (name, digest)) in enumerate(
            zip(_deterministic_verifies(), _VERDICT_DIGESTS.items(), strict=True)):
        assert main(["verify", "--config", _write(tmp_path, f"cfg{k}.json", payload)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == verdict, name
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_verify_misconfigured_setting(tmp_path, capsys):
    payload = _gd_config()
    payload["verify"] = {"setting": "nope"}
    path = _write(tmp_path, "cfg.json", payload)
    assert main(["verify", "--config", path]) == 2
    assert "verify.setting" in capsys.readouterr().err


def test_table_from_fixture(tmp_path, capsys):
    assert cmd_table("ls_4x2", 1e-3, csv_path=str(tmp_path / "t.csv")) == 0
    out = capsys.readouterr().out
    assert "not covered" in out
    csv = (tmp_path / "t.csv").read_text()
    assert csv.startswith("method,")


def test_table_epsilon_one(capsys):
    assert cmd_table("ls_4x2", 1.0) == 0
    # log-only cells collapse to zero iterations
    lines = capsys.readouterr().out.splitlines()
    gd_line = next(l for l in lines if l.startswith("gd "))
    assert " 0 " in gd_line


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
def test_table_non_finite_or_non_positive_epsilon_exits_2(capsys, eps):
    assert main(["table", "--constants", "ls_4x2", "--epsilon", eps]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"table error: field 'epsilon': must be finite and > 0, got {float(eps):g}\n"


def test_table_missing_constant_exits_2(tmp_path, capsys):
    payload = {"smooth": {"n": 4, "L": 1.0, "L_max": 2.0, "mu": 0.5, "mu_pl": 0.5,
                          "delta_star_f": 0.1}}  # sigma_star_f missing
    path = _write(tmp_path, "c.json", payload)
    assert main(["table", "--constants", path, "--epsilon", "1e-3"]) == 2
    assert "sigma_star_f" in capsys.readouterr().err


def test_suite_command(tmp_path, capsys):
    assert cmd_suite(["scalar_pl"], samples=1500, out_path=str(tmp_path / "r.json")) == 0
    reports = json.loads((tmp_path / "r.json").read_text())
    statuses = {c["name"]: c["status"] for c in reports[0]["checks"]}
    assert statuses["convexity"] == "expected-fail"


def test_suite_unexpected_pass_exits_4(monkeypatch, capsys):
    from descentlab import harness
    monkeypatch.setitem(harness.EXPECTED_FAIL, "least_squares", {"convexity"})
    assert main(["suite", "--fixture", "ls_4x2", "--samples", "200"]) == 4
    statuses = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)[0]["checks"]}
    assert statuses["convexity"] == "unexpected-pass"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_suite_nonpositive_samples_exits_2(samples, capsys):
    assert main(["suite", "--fixture", "ls_4x2", "--samples", samples]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--samples" in err and samples in err


def test_main_entrypoint(tmp_path):
    path = _write(tmp_path, "cfg.json", _gd_config())
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 0


def test_main_builds_its_parser_once_and_each_call_as_a_fresh_one(capsys):
    # an argparse error, then commands whose append and default arguments a
    # parser that kept state between calls would get wrong
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    calls = [["verify"], ["table", "--constants", "ls_4x2", "--epsilon", "1e-3"],
             ["verify", "--config", os.path.join(root, "configs", "verify_sgd_strongly_convex.json")],
             ["suite", "--fixture", "ls_4x2", "--samples", "50"],
             ["suite", "--fixture", "ls_4x2", "--samples", "50"], ["table", "--epsilon", "x"]]

    def outcome(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        return rc, out.out, out.err

    cli._parser.cache_clear()
    warm = [outcome(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert warm == fresh
    assert [rc for rc, _, _ in warm] == [2, 0, 0, 0, 0, 2]
    assert len(json.loads(warm[4][1])) == 1  # the second suite's --fixture list is its own


def test_inline_problem_config(tmp_path):
    payload = {
        "problem": {"kind": "least_squares",
                    "features": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
                    "targets": [1.0, 1.0, 0.0, 0.0]},
        "algorithm": "gd",
        "schedule": {"kind": "constant", "gamma": 1.0 / 0.75},
        "iterations": 20,
        "x0": [2.0, 2.0],
    }
    path = _write(tmp_path, "cfg.json", payload)
    assert cmd_run(path, out_dir=str(tmp_path)) == 0


def test_inline_regularized_verify(tmp_path, capsys):
    payload = {
        "problem": {"fixture": "ls_4x2"},
        "algorithm": "prox_gd",
        "schedule": {"kind": "constant", "gamma": 1.0 / 0.75},
        "iterations": 100,
        "regularizer": {"kind": "l1", "lambda": 0.1},
        "x0": [3.0, -1.0],
        "checkpoints": [1, 10, 100],
        "verify": {"setting": "pgd_convex"},
    }
    path = _write(tmp_path, "cfg.json", payload)
    assert cmd_verify(path) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_verify_failure_exits_4(tmp_path, monkeypatch, capsys):
    import numpy as np

    import descentlab.cli as cli_mod
    from descentlab.harness import Verdict

    def fake(*args, **kwargs):
        v = Verdict(setting="gd_convex", checkpoints=(1,), measured=np.array([2.0]),
                    bound=np.array([1.0]), policy="deterministic", passed=False,
                    worst_ratio=2.0)
        return None, None, v

    monkeypatch.setattr(cli_mod.harness, "run_verification", fake)
    payload = _gd_config()
    payload["verify"] = {"setting": "gd_convex"}
    path = _write(tmp_path, "cfg.json", payload)
    assert cmd_verify(path) == 4
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_external_fixture_directory(tmp_path, monkeypatch):
    ext = tmp_path / "fixtures"
    ext.mkdir()
    (ext / "tiny_ls.json").write_text(json.dumps({
        "kind": "least_squares",
        "features": [[1.0], [2.0]],
        "targets": [1.0, 1.0],
    }))
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(ext))
    from descentlab import fixture
    fx = fixture("tiny_ls")
    assert fx.problem.n == 2
    # minimizer of (1/2)((x-1)^2 + (2x-1)^2)/2 solves 5x = 3
    assert fx.ground_truth.x_star[0] == pytest.approx(3 / 5)


def test_run_malformed_external_fixture_exits_2(tmp_path, monkeypatch, capsys):
    ext = tmp_path / "fixtures"
    ext.mkdir()
    (ext / "huber_bad.json").write_text(json.dumps({
        "kind": "huber", "features": [[1.0]], "targets": [1.0]}))
    (ext / "ls_no_targets.json").write_text(json.dumps({
        "kind": "least_squares", "features": [[1.0]]}))
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(ext))
    (ext / "abs_mu_x.json").write_text(json.dumps(dict(_ABS_SPEC, strong_mu="x")))
    for name, detail in (("huber_bad", "huber"), ("ls_no_targets", "targets"),
                         ("abs_mu_x", "field 'strong_mu': must be a number")):
        path = _write(tmp_path, "cfg.json", _gd_config(problem={"fixture": name}))
        assert main(["run", "--config", path, "--out-dir", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert "problem.fixture" in err and detail in err


@pytest.mark.parametrize("content,detail", [
    (json.dumps({"kind": "least_squares", "features": [[1.0]]}), "targets"),
    ('{"kind": "least_squares", "features": [[1.0]', "Expecting"),
    ("[1.0]", "JSON object"),
    (json.dumps({"kind": "least_squares", "features": [[1.0]], "targets": [1.0],
                 "regularizer": {"kind": "l1"}}),
     "field 'regularizer.lambda': required field missing"),
    (json.dumps(dict(_ABS_SPEC, strong_mu="x")), "field 'strong_mu': must be a number"),
    (json.dumps({"kind": "least_squares", "features": [[1.0]], "targets": [1.0],
                 "regularizer": _L1_X}), "field 'regularizer.lambda': must be a number"),
    (json.dumps({"kind": "least_squares", "features": [[1.0]], "targets": [1.0],
                 "regularizer": "l1"}), "field 'regularizer': must be a JSON object"),
], ids=["missing_field", "invalid_json", "not_an_object", "regularizer_field", "strong_mu",
        "regularizer_lambda", "regularizer_not_an_object"])
def test_suite_malformed_external_fixture_exits_2(tmp_path, monkeypatch, capsys, content, detail):
    from descentlab import problems
    (tmp_path / "bad.json").write_text(content)
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(tmp_path))
    monkeypatch.delitem(problems._FIXTURE_CACHE, "bad", raising=False)
    assert main(["suite", "--fixture", "bad"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: fixture 'bad'") and detail in err


@pytest.mark.parametrize("payload,fieldname", [
    (_gd_config(schedule={"kind": "constant", "gamma": 1.0, "gama": 1.0}), "schedule.gama"),
    (_gd_config(schedule={"kind": "inv_sqrt", "gamma0": 0.1, "gamma": 5.0}), "schedule.gamma"),
    (_gd_config(regularizer={"kind": "l1", "lambda": 0.1, "lamda": 0.2}), "regularizer.lamda"),
    (_gd_config(problem=dict(_LS_SPEC, bogus=1)), "problem.bogus"),
    (_gd_config(algorithm="ssd", problem=dict(_ABS_SPEC, strongmu=0.5)), "problem.strongmu"),
    (_gd_config(problem=dict(_LS_SPEC, regularizer={"kind": "zero", "lambda": 0.1})),
     "problem.regularizer.lambda"),
    (_gd_config(problem={"fixture": "ls_4x2", "kind": "least_squares"}), "problem.kind"),
    (_gd_config(outputs={"trace": "t.csv", "manifest": "m.json", "log": "l.txt"}),
     "outputs.log"),
], ids=["schedule", "schedule_other_kind", "regularizer", "inline_problem", "inline_abs_problem",
        "inline_regularizer", "fixture_reference", "outputs"])
def test_unknown_nested_field_exits_2_naming_it(tmp_path, capsys, payload, fieldname):
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, "cfg.json", payload),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: field {fieldname!r}: unknown field\n"
    assert not out.exists()


@pytest.mark.parametrize("spec,fieldname", [
    (dict(_ABS_SPEC, strongmu=0.5), "strongmu"),
    (dict(_LS_SPEC, regularizer={"kind": "l1", "lambda": 0.1, "B": 1.0}), "regularizer.B"),
], ids=["problem", "regularizer"])
def test_unknown_field_in_fixture_file_exits_2(tmp_path, monkeypatch, capsys, spec, fieldname):
    from descentlab import problems
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(spec))
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(tmp_path))
    monkeypatch.delitem(problems._FIXTURE_CACHE, "extra", raising=False)
    detail = f"{path}: field {fieldname!r}: unknown field\n"
    cfg = _write(tmp_path, "cfg.json", _gd_config(
        algorithm="ssd", problem={"fixture": "extra"}, schedule={"kind": "inv_sqrt", "gamma0": 0.1},
        verify={"setting": "ssd_convex_general"}))
    for argv, prefix in [
        (["run", "--config", cfg, "--out-dir", str(tmp_path / "out")],
         "config error: field 'problem.fixture': "),
        (["verify", "--config", cfg], "config error: field 'problem.fixture': "),
        (["suite", "--fixture", "extra"], "config error: fixture 'extra': "),
        (["table", "--constants", "extra", "--epsilon", "1e-3"], "table error: "),
    ]:
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr() == ("", prefix + detail)


@pytest.mark.parametrize("payload,fieldname", [
    ({"smooth": dict(_SMOOTH_CONSTANTS, L_mx=2.0)}, "smooth.L_mx"),
    ({"smooth": _SMOOTH_CONSTANTS, "lipschitz": {"G": 1.0, "D2": 1.0, "B": 1.0}}, "lipschitz.B"),
    ({"smooth": _SMOOTH_CONSTANTS, "composite": {"sigma_star_f": 0.1}}, "composite.sigma_star_f"),
    ({"smooth": _SMOOTH_CONSTANTS, "batchsize": 2}, "batchsize"),
], ids=["smooth", "lipschitz", "composite", "top_level"])
def test_table_unknown_constant_exits_2(tmp_path, capsys, payload, fieldname):
    path = _write(tmp_path, "k.json", payload)
    assert main(["table", "--constants", path, "--epsilon", "1e-3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"table error: field {fieldname!r}: unknown field\n"


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("changes,fieldname", [
    ({"schedule": {"kind": "constant"}}, "schedule.gamma"),
    ({"regularizer": {"kind": "l1"}}, "regularizer.lambda"),
    ({"problem": {"kind": "least_squares", "features": [[1.0, 0.0]]}}, "problem.targets"),
    ({"problem": dict(_LS_SPEC, regularizer={"kind": "ball_indicator"})},
     "problem.regularizer.B"),
], ids=["schedule", "regularizer", "problem", "problem_regularizer"])
def test_missing_nested_field_exits_2_naming_it(tmp_path, capsys, command, changes, fieldname):
    argv = [command, "--config", _write(tmp_path, "cfg.json", _verify_config(**changes))]
    if command == "run":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: field {fieldname!r}: required field missing\n"


def _prox_trace(tmp_path, name, problem, **changes):
    out = tmp_path / name
    payload = _gd_config(problem=problem, algorithm="prox_gd", iterations=100, **changes)
    assert cmd_run(_write(tmp_path, f"{name}.json", payload), out_dir=str(out)) == 0
    return (out / "trace.csv").read_bytes()


def test_inline_problem_with_regularizer_runs_as_its_fixture(tmp_path):
    from descentlab import problems
    inline = problems._CATALOGUE["lasso_4x2"]
    assert inline == dict(problems._CATALOGUE["ls_4x2"], regularizer={"kind": "l1", "lambda": 0.1})
    lasso = _prox_trace(tmp_path, "fixture", {"fixture": "lasso_4x2"})
    assert _prox_trace(tmp_path, "inline", dict(inline)) == lasso
    # a top-level regularizer replaces the problem's own
    stronger = {"kind": "l1", "lambda": 0.3}
    replaced = _prox_trace(tmp_path, "replaced", dict(inline), regularizer=stronger)
    assert replaced == _prox_trace(tmp_path, "ls", {"fixture": "ls_4x2"}, regularizer=stronger)
    assert replaced != lasso


def test_verify_divergence_exits_3_naming_trials(tmp_path, capsys):
    payload = {
        "problem": {"fixture": "abs_2x1"},
        "algorithm": "ssd",
        "schedule": {"kind": "inv_sqrt", "gamma0": 1e15},
        "iterations": 50,
        "trials": 20,
        "verify": {"setting": "ssd_convex_general"},
    }
    assert main(["verify", "--config", _write(tmp_path, "cfg.json", payload)]) == 3
    err = capsys.readouterr().err
    assert "20 trial(s) diverged" in err
    assert "trial 0 (t=1)" in err


def test_run_divergence_exits_3_parallel(tmp_path):
    # gamma * L_i > 2 for every term, so each sampled step expands
    path = _write(tmp_path, "cfg.json",
                  _gd_config(algorithm="sgd", trials=4, iterations=6000,
                             schedule={"kind": "constant", "gamma": 3.0},
                             x0=[50.0, 50.0]))
    assert main(["run", "--config", path, "--out-dir", str(tmp_path), "--jobs", "2"]) == 3


def test_shipped_configs_parse_and_run(tmp_path):
    import os
    base = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in os.listdir(base):
        cfg = load_config(os.path.join(base, name))
        assert cfg.iterations >= 1
    assert cmd_run(os.path.join(base, "run_sgd_ls.json"), out_dir=str(tmp_path)) == 0


def test_benchmark_tracer_finds_the_names_it_wraps(monkeypatch, capsys):
    # perfbench/tracer.py looks each wrapped name up as owner.__dict__[attr]
    # (cli/harness.run_algorithm, harness.averaged_iterate and bound_curve,
    # cli.ProcessPoolExecutor, problems/algorithms.prox, the FiniteSumProblem
    # oracles, the problems builders), so removing one fails only under --trace 1
    import os
    from descentlab import algorithms, cli, problems
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    monkeypatch.delitem(problems._FIXTURE_CACHE, "ls_4x2", raising=False)  # rebuilt, traced
    from tracer import Tracer
    tracer = Tracer()
    try:
        tracer.install()
        span = tracer.open("bench", "round")
        rc = main(["verify", "--config", os.path.join(root, "configs", "verify_gd_convex.json")])
        tracer.close(span)
    finally:
        tracer.uninstall()
    assert rc == 0 and json.loads(capsys.readouterr().out)["pass"] is True
    names = {s.name for s in tracer.spans}
    assert {"verdict:gd_convex", "estimate", "bound_curve", "build:build_least_squares"} <= names
    assert cli.run_algorithm is algorithms.run_algorithm  # uninstalled


def _verify_config(**overrides):
    return dict(_gd_config(verify={"setting": "gd_convex"}), **overrides)


@pytest.mark.parametrize("command,payload,fieldname", [
    ("run", 5, "config"),
    ("run", _gd_config(problem=5), "problem"),
    ("run", _gd_config(schedule="constant"), "schedule"),
    ("run", _gd_config(regularizer="l1"), "regularizer"),
    ("run", _gd_config(x0="ab"), "x0"),
    ("run", _gd_config(algorithm="minibatch_sgd", batch_size="2"), "batch_size"),
    ("run", _gd_config(seed="x"), "seed"),
    ("verify", _verify_config(x0="ab"), "x0"),
    ("run", _gd_config(problem={"fixture": [1]}), "problem.fixture"),
    ("run", _gd_config(outputs={"trace": 5}), "outputs.trace"),
    ("verify", _verify_config(verify={"setting": []}), "verify.setting"),
    ("run", _gd_config(algorithm="ssd", problem=dict(_ABS_SPEC, strong_mu="x")),
     "problem.strong_mu"),
    ("run", _gd_config(algorithm="ssd", problem=dict(_ABS_SPEC, ball_B="2")), "problem.ball_B"),
    ("verify", _verify_config(problem=dict(_ABS_SPEC, strong_mu="x")), "problem.strong_mu"),
    ("run", _gd_config(schedule={"kind": "constant", "gamma": "x"}), "schedule.gamma"),
    ("verify", _verify_config(schedule={"kind": "constant", "gamma": "x"}), "schedule.gamma"),
    ("run", _gd_config(schedule={"kind": "horizon_constant", "gamma": 0.1, "horizon": 10}),
     "schedule"),
    ("run", _gd_config(regularizer=_L1_X), "regularizer.lambda"),
    ("verify", _verify_config(regularizer=_L1_X), "regularizer.lambda"),
    ("verify", _verify_config(algorithm="momentum"), "algorithm"),
    ("verify", _verify_config(projection_B=-3), "projection_B"),
    ("verify", _verify_config(momentum_form="nope"), "momentum_form"),
    ("verify", _verify_config(schedule={"kind": "constant", "gamma": float("nan")}),
     "schedule.gamma"),
    ("verify", _verify_config(algorithm="sgd", trials=1, verify={"setting": "sgd_convex_const"},
                              schedule={"kind": "constant", "gamma": 0.1}), "trials"),
    ("verify", _verify_config(verify={"setting": "gd_convex", "polcy": "three_sigma"}),
     "verify.polcy"),
    ("verify", _verify_config(verify={"setting": "gd_convex", "policy": "lenient"}),
     "verify.policy"),
    ("verify", _verify_config(checkpoints=[5000]), "checkpoints"),
    ("verify", _verify_config(algorithm="sgd", trials=10, checkpoints=[0, 50],
                              verify={"setting": "sgd_convex_const"},
                              schedule={"kind": "constant", "gamma": 0.1}), "checkpoints"),
    ("run", _gd_config(problem=dict(_LS_SPEC, features=[[1.0, "a"], [0.0, 1.0]])),
     "problem.features"),
    ("run", _gd_config(algorithm="ssd", problem=dict(_ABS_SPEC, rows=[[1.0], [None]])),
     "problem.rows"),
    ("run", _gd_config(problem=dict(_LS_SPEC, targets=[1.0, "b"])), "problem.targets"),
], ids=["not_an_object", "problem", "schedule", "regularizer", "x0", "batch_size", "seed",
        "verify_x0", "fixture_name", "output_name", "verify_setting", "strong_mu", "ball_B",
        "verify_strong_mu", "gamma", "verify_gamma", "horizon", "lambda", "verify_lambda",
        "verify_other_algorithm", "verify_projection_B", "verify_momentum_form",
        "verify_gamma_nan", "verify_stochastic_one_trial", "verify_unknown_key",
        "verify_unknown_policy", "verify_checkpoint_beyond_iterations",
        "verify_averaged_checkpoint_zero", "features_entry",
        "rows_entry", "targets_entry"])
def test_malformed_config_value_exits_2_naming_field(tmp_path, capsys, command, payload,
                                                     fieldname):
    argv = [command, "--config", _write(tmp_path, "cfg.json", payload)]
    if command == "run":
        argv += ["--out-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: field {fieldname!r}:")


_SMOOTH = {"n": 4, "L": 1.0, "L_max": 2.0, "mu": 0.5, "mu_pl": 0.5, "sigma_star_f": 0.1,
           "delta_star_f": 0.1, "D2": 1.0, "f0_gap": 1.0}


@pytest.mark.parametrize("payload,fieldname", [
    ({"smooth": 5}, "smooth"),
    ([1, 2], "constants"),
    ({"smooth": _SMOOTH, "lipschitz": {"G": [1.0], "D2": 1.0}}, "lipschitz.G"),
    ({"smooth": dict(_SMOOTH, L=float("inf"))}, "smooth.L"),
], ids=["section_not_an_object", "not_an_object", "constant_not_a_number",
        "constant_infinity"])
def test_table_malformed_constants_file_exits_2(tmp_path, capsys, payload, fieldname):
    path = _write(tmp_path, "k.json", payload)
    assert main(["table", "--constants", path, "--epsilon", "1e-3"]) == 2
    assert capsys.readouterr().err.startswith(f"table error: field {fieldname!r}:")


@pytest.mark.parametrize("source,extra,b", [
    ("file", [], 9),
    ("ls_4x2", ["--batch-size", "0"], 0),
], ids=["constants_file_batch_size_9", "flag_batch_size_0"])
def test_table_batch_size_out_of_range_names_the_field(tmp_path, capsys, source, extra, b):
    if source == "file":
        source = _write(tmp_path, "k.json", {"smooth": _SMOOTH, "batch_size": 9})
    assert main(["table", "--constants", source, "--epsilon", "1e-3", *extra]) == 2
    assert capsys.readouterr().err == (
        f"table error: field 'batch_size': batch size b={b} out of range [1, 4]\n")


_LIPSCHITZ = {"G": 1.0, "D2": 1.0}
_COMPOSITE = {"sigma_star_F": 0.1, "D2": 1.0, "F0_gap": 1.0}


@pytest.mark.parametrize("payload,name", [
    ({"smooth": _SMOOTH}, "lipschitz.D2"),
    ({"smooth": _SMOOTH, "lipschitz": {"D2": 1.0}}, "lipschitz.G"),
    ({"smooth": _SMOOTH, "lipschitz": _LIPSCHITZ}, "composite.D2"),
    ({"smooth": _SMOOTH, "lipschitz": _LIPSCHITZ,
      "composite": {"D2": 1.0, "F0_gap": 1.0}}, "composite.sigma_star_F"),
    ({"smooth": {k: v for k, v in _SMOOTH.items() if k != "D2"}, "lipschitz": _LIPSCHITZ,
      "composite": _COMPOSITE}, "smooth.D2"),
    ({"smooth": {k: v for k, v in _SMOOTH.items() if k != "mu"}}, "smooth.mu"),
], ids=["no_lipschitz", "lipschitz_G", "no_composite", "composite_sigma_star_F", "smooth_D2",
        "smooth_mu"])
def test_table_missing_constant_names_its_section(tmp_path, capsys, payload, name):
    path = _write(tmp_path, "c.json", payload)
    assert main(["table", "--constants", path, "--epsilon", "1e-3"]) == 2
    assert capsys.readouterr().err == f"table error: missing constant: {name}\n"


def test_table_mu_above_L_exits_2(tmp_path, capsys):
    payload = {"smooth": dict(_SMOOTH, mu=3.0), "lipschitz": _LIPSCHITZ, "composite": _COMPOSITE}
    path = _write(tmp_path, "c.json", payload)
    assert main(["table", "--constants", path, "--epsilon", "1e-3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("table error: inconsistent constants: mu=3 > L=1 "
                   "(mu <= L for every L-smooth f)\n")
    # the complete file, with mu <= L, prints its table
    payload["smooth"]["mu"] = 0.5
    assert main(["table", "--constants", _write(tmp_path, "c.json", payload),
                 "--epsilon", "1e-3"]) == 0


@pytest.mark.parametrize("command", ["run", "verify"])
def test_x0_of_wrong_length_is_a_config_error(tmp_path, capsys, command):
    argv = [command, "--config", _write(tmp_path, "cfg.json", _verify_config(x0=[1.0, 2.0, 3.0]))]
    if command == "run":
        argv += ["--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == "config error: field 'x0': must have length 2"


def test_verify_empty_checkpoints_is_a_config_error(tmp_path, capsys):
    assert main(["verify", "--config", _write(tmp_path, "cfg.json",
                                              _verify_config(checkpoints=[]))]) == 2
    assert capsys.readouterr().err.startswith("config error: field 'checkpoints':")


@pytest.mark.parametrize("fixture_name,algorithm,gamma0,T,setting,min_t", [
    ("ls_4x2", "sgd", 0.1, 10, "sgd_convex_invsqrt", 49),
    ("abs_2x1", "ssd", 1.0, 1, "ssd_convex_invsqrt", 2),
])
def test_verify_horizon_before_the_validity_window_exits_2(tmp_path, capsys, fixture_name,
                                                           algorithm, gamma0, T, setting, min_t):
    # no checkpoints: the default ones all lie before min_t
    cfg = {"problem": {"fixture": fixture_name}, "algorithm": algorithm, "iterations": T,
           "schedule": {"kind": "inv_sqrt", "gamma0": gamma0}, "trials": 5,
           "verify": {"setting": setting}}
    assert main(["verify", "--config", _write(tmp_path, "cfg.json", cfg)]) == 2
    assert capsys.readouterr() == ("", f"hypothesis error: horizon T={T} ends before the "
                                       f"validity window t >= {min_t} of setting {setting}\n")


@pytest.mark.parametrize("kind", ["directory", "invalid_json"])
@pytest.mark.parametrize("command", ["run", "verify", "suite", "table"])
def test_unreadable_fixture_file_exits_2_naming_its_path(tmp_path, monkeypatch, capsys,
                                                         command, kind):
    from descentlab import problems
    ext = tmp_path / "fixtures"
    ext.mkdir()
    path = ext / "unread.json"
    if kind == "directory":  # unreadable even by root, which ignores file modes
        path.mkdir()
        detail = f"cannot read {path}: [Errno 21] Is a directory: {str(path)!r}\n"
    else:
        path.write_text('{"kind": "least_squares",\n')
        detail = f"invalid JSON in {path} at line 2: Expecting property name enclosed in double quotes\n"
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(ext))
    monkeypatch.delitem(problems._FIXTURE_CACHE, "unread", raising=False)
    cfg = _write(tmp_path, "cfg.json", _gd_config(problem={"fixture": "unread"},
                                                  verify={"setting": "gd_convex"}))
    argv, prefix = {
        "run": (["run", "--config", cfg, "--out-dir", str(tmp_path / "out")],
                "config error: field 'problem.fixture': "),
        "verify": (["verify", "--config", cfg], "config error: field 'problem.fixture': "),
        "suite": (["suite", "--fixture", "unread"], "config error: fixture 'unread': "),
        "table": (["table", "--constants", "unread", "--epsilon", "1e-3"], "table error: "),
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", prefix + detail)


@pytest.mark.parametrize("command", ["run", "verify", "suite"])
def test_failed_abs_certificate_exits_2(tmp_path, monkeypatch, capsys, command):
    import numpy as np

    from descentlab import problems
    (tmp_path / "abs_copy.json").write_text(json.dumps(problems._CATALOGUE["abs_2x1_reg"]))
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(tmp_path))
    monkeypatch.delitem(problems._FIXTURE_CACHE, "abs_copy", raising=False)
    # a broken box solve: every multiplier at the corner +1, so x* comes out wrong
    monkeypatch.setattr(problems, "_box_qp", lambda H, g: np.ones_like(g))
    if command == "suite":
        argv = ["suite", "--fixture", "abs_copy"]
    else:
        cfg = {"problem": {"fixture": "abs_copy"}, "algorithm": "ssd", "iterations": 10,
               "schedule": {"kind": "inv_sqrt", "gamma0": 0.1},
               "verify": {"setting": "ssd_convex_general"}}
        argv = [command, "--config", _write(tmp_path, "cfg.json", cfg)]
        argv += ["--out-dir", str(tmp_path)] if command == "run" else []
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "abs_loss minimizer not certified" in err
    assert "abs_copy" not in problems._FIXTURE_CACHE


_MINI_B9 = dict(_gd_config(algorithm="minibatch_sgd", batch_size=9, trials=10,
                           schedule={"kind": "constant", "gamma": 0.01}),
                verify={"setting": "mini_convex_const"})


@pytest.mark.parametrize("payload,fieldname", [
    (_gd_config(schedule={"kind": "inv_sqrt", "gamma0": 0.1}), "schedule"),
    (_gd_config(algorithm="momentum"), "schedule"),
    (_gd_config(problem={"fixture": "abs_2x1"}, algorithm="pssd",
                schedule={"kind": "inv_sqrt", "gamma0": 1.5}, x0=[5.0]), "x0"),
    (_MINI_B9, "batch_size"),
    # a field the method does not use
    (_gd_config(projection_B=-3), "projection_B"),
    (_gd_config(momentum_form="nope"), "momentum_form"),
    (_gd_config(algorithm="sgd", batch_size=2), "batch_size"),
    # NaN and Infinity are not JSON numbers
    (_gd_config(schedule={"kind": "constant", "gamma": float("inf")}), "schedule.gamma"),
    (_gd_config(x0=[float("nan"), 1.0]), "x0"),
    (_gd_config(projection_B=float("inf")), "projection_B"),
], ids=["gd_inv_sqrt", "momentum_constant", "pssd_x0_outside_ball", "batch_size_9",
        "gd_projection_B", "gd_momentum_form", "sgd_batch_size", "gamma_inf", "x0_nan",
        "projection_B_inf"])
def test_run_rejects_config_before_writing(tmp_path, capsys, payload, fieldname):
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, "cfg.json", payload),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: field {fieldname!r}:")
    assert not (out / "manifest.json").exists()


def test_run_and_verify_report_a_bad_batch_size_alike(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _MINI_B9)
    assert main(["run", "--config", path, "--out-dir", str(tmp_path / "out")]) == 2
    run_err = capsys.readouterr().err
    assert main(["verify", "--config", path]) == 2
    assert capsys.readouterr().err == run_err
    assert run_err.startswith("config error: field 'batch_size':")


@pytest.mark.parametrize("command,config,fieldname", [
    ("run", {k: v for k, v in _gd_config().items() if k != "iterations"}, "iterations"),
    ("run", None, "config"),  # no such file
    ("run", "{not json", "config"),
    ("verify", _gd_config(verify={"policy": "three_sigma"}), "verify.setting"),
    ("run", _gd_config(algorithm="prox_gd"), "regularizer"),
], ids=["missing_required_field", "unreadable_file", "invalid_json", "verify_without_setting",
        "proximal_without_regularizer"])
def test_cli_config_checks_name_the_field(tmp_path, capsys, command, config, fieldname):
    path = tmp_path / "cfg.json"
    if isinstance(config, dict):
        path.write_text(json.dumps(config))
    elif config is not None:
        path.write_text(config)
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: field {fieldname!r}:")
    assert not (tmp_path / "out").exists()


def _table(capsys, *argv):
    assert main(["table", "--epsilon", "1e-3", *argv]) == 0
    return capsys.readouterr().out


def _constants_file(tmp_path, name):
    """The constants-file form of a fixture's table sections, with batch size 2."""
    from dataclasses import asdict

    from descentlab.cli import table_sources_for_fixture
    sections = table_sources_for_fixture(name)
    (c, init, _), (lip, lip_init, _), (_, comp_init, sF) = (
        sections[k] for k in ("smooth", "lipschitz", "composite"))
    return _write(tmp_path, f"{name}.json", {
        "smooth": dict(asdict(c), D2=init.D2, f0_gap=init.f0_gap),
        "lipschitz": {"G": lip.G, "D2": lip_init.D2},
        "composite": {"sigma_star_F": sF, "D2": comp_init.D2, "F0_gap": comp_init.F0_gap},
        "batch_size": 2})


def test_table_constants_file_matches_its_fixture(tmp_path, capsys):
    # lasso_4x2 has a composite of its own; the ls fixtures take lasso_4x2's regularizer
    for name in ("ls_4x2", "ls_6x2", "lasso_4x2"):
        path = _constants_file(tmp_path, name)
        batches = [[]] + [["--batch-size", str(b)] for b in range(1, fixture(name).problem.n + 1)]
        for eps in ("1e-3", "0.05", "0.5", "2"):
            for b in batches:
                argv = ["table", "--epsilon", eps, *b, "--csv", str(tmp_path / "t.csv")]
                assert main([*argv, "--constants", path]) == 0
                from_file = capsys.readouterr().out, (tmp_path / "t.csv").read_text()
                assert main([*argv, "--constants", name]) == 0
                assert (capsys.readouterr().out, (tmp_path / "t.csv").read_text()) == from_file
        # --batch-size overrides the file's batch_size as it does the fixture's default
        b2 = _table(capsys, "--constants", path).splitlines()
        b3 = _table(capsys, "--constants", path, "--batch-size", "3").splitlines()
        changed = [new.split()[0] for old, new in zip(b2, b3) if old != new]
        assert changed == ["mini_sgd"], name


# sha256 of the table's stdout at the default batch size and at b = n
_TABLE_DIGESTS = {
    ("ls_4x2", "1e-3", None): "3706c8fc9cf5678a1e8e986fdf62ddbea14c36e9dd8ee84892d3699b4e2ed711",
    ("ls_4x2", "1e-3", 4): "1402edca33113c0c889a9da977f13827a0101982c7a123437e9722b2e3324df2",
    ("ls_4x2", "0.05", None): "e4c1ddb7c321d9da933cb754c5ecc26c458aebe757c7b1331d2e3efebbdd67d2",
    ("ls_4x2", "0.05", 4): "1e92aa93f4c41618372f861a381988343c5b66a7ae2194fdc08403bfa33d17df",
    ("ls_4x2", "0.5", None): "b8e3907861c74845ba962c0f3569e1326005b8781de44cf480cd3e9820c9c58d",
    ("ls_4x2", "0.5", 4): "a2c627c1c56913db5c530bb53176cdfc931827207ba77443e513b6023f27d437",
    ("ls_4x2", "2", None): "5820b90a1729327c93b4628489960544bc2895a75016ad8210ef4d76758e4a5f",
    ("ls_4x2", "2", 4): "40c8fe9822156ff29d40b619d458a1afece2873166801d1b8e245d3e6204ad62",
    ("ls_6x2", "1e-3", None): "2b5fd62d0e0ce71d658caa57d38f89d2467428d72c7c7e89b7eba5f3aa456dc8",
    ("ls_6x2", "1e-3", 6): "15033640c850509eadf37216df920c86c5e898978661b7bff2cb3ece756c0b60",
    ("ls_6x2", "0.05", None): "9a2981b52692fb1b4f99d968255a3b860dd84e913b4ff29d6a965bacbe08c50a",
    ("ls_6x2", "0.05", 6): "1d069fa52ebc269214258bec008fd3dc421340c8fea0da73d7ea3e833aaaa580",
    ("ls_6x2", "0.5", None): "bd72490886481ca3ca6756bc3e12883b7a2ee7a155dad1c8274b773c4beb1a0b",
    ("ls_6x2", "0.5", 6): "ed6a9f845bc599b5cb095456633ffe5b4fbb09b22d3ede9e0b75d0f102617b6b",
    ("ls_6x2", "2", None): "28815971182b5c4b26d8eec6845f48ebc7c7c182ccfe5c01c109e25403668873",
    ("ls_6x2", "2", 6): "9c8d8adc6bd4aff5ac8036702d75ce5898bc6a27bcb0f66a1bd633cf92031dca",
}


@pytest.mark.parametrize("name,eps,b", list(_TABLE_DIGESTS))
def test_table_stdout_is_pinned(capsys, name, eps, b):
    extra = [] if b is None else ["--batch-size", str(b)]
    assert main(["table", "--constants", name, "--epsilon", eps, *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_DIGESTS[name, eps, b]


def test_table_fixture_is_not_shadowed_by_a_directory(tmp_path, monkeypatch, capsys):
    # a run's out dir named like the fixture, as ``run --out-dir ls_4x2`` leaves
    monkeypatch.chdir(tmp_path)
    argv = ["table", "--constants", "ls_4x2", "--epsilon", "1e-3"]
    assert main(argv) == 0
    clean = capsys.readouterr()
    (tmp_path / "ls_4x2").mkdir()
    assert main(argv) == 0
    assert capsys.readouterr() == clean


# sha256 of scalar_pl's outputs: the property suite's report at 2000 samples
# (no config), and the trace of each run config
_SCALAR_PL_GD = {"problem": {"fixture": "scalar_pl"}, "algorithm": "gd", "iterations": 500,
                 "schedule": {"kind": "constant", "gamma": 0.125}, "trials": 1, "seed": 0}
_SCALAR_PL_DIGESTS = {
    "suite": (None, "b57a640b7b51e2290c55ba34dacb49efdabac4fbc381d237ffb4aa1705a70f47"),
    "gd_x0_3": (dict(_SCALAR_PL_GD, x0=[3.0]),
                "85394972d52c582e4b4e41b6ad6620e1f22e31a10566d6d1308298de5c5c2635"),
    "gd_x0_-0": (dict(_SCALAR_PL_GD, x0=[-0.0]),
                 "f8bfeef7b8d6d35def5f03e2a49eceef4f1e1dd2588c07d4667c7def0f650c4a"),
    "sgd": (dict(_SCALAR_PL_GD, algorithm="sgd", schedule={"kind": "constant", "gamma": 3e-4},
                 trials=5, x0=[3.0]),
            "4072022864d308f089797035073fc7a662c56053e7f3cd2b75568280e25dfaa7"),
}


@pytest.mark.parametrize("name", list(_SCALAR_PL_DIGESTS))
def test_scalar_pl_outputs_are_pinned(tmp_path, capsys, name):
    cfg, digest = _SCALAR_PL_DIGESTS[name]
    if cfg is None:
        assert main(["suite", "--fixture", "scalar_pl", "--samples", "2000"]) == 0
        out = capsys.readouterr().out.encode()
    else:
        assert main(["run", "--config", _write(tmp_path, "cfg.json", cfg),
                     "--out-dir", str(tmp_path / "out")]) == 0
        out = (tmp_path / "out" / "trace.csv").read_bytes()
    assert hashlib.sha256(out).hexdigest() == digest


# sha256 of the property suite's report at 2000 samples on every catalogue
# fixture (scalar_pl's is in _SCALAR_PL_DIGESTS)
_SUITE_DIGESTS = {
    "ls_4x2": "685ebcc0a5cc391f6c53afddbfa6ca3a1f401d60fc8dc008a820a6f38bf83dda",
    "ls_6x2": "025a129a1ed4d1ff8c53e9c1490fc9312f196fe33591f3b2d6f72f084f259ff9",
    "abs_2x1": "deb2a0905f78f77f9a3789b3991751730b266dfa3731de648df640e5fed9e9a1",
    "abs_2x1_reg": "30796d509f860250d3fbcfed1e7d1a02c04ee0749aafb3ec85b71445092eff3e",
    "lasso_4x2": "4868f05a85ae712f4b121b23f56c299f4abc3cc66b53748fe46e39b2e2718b32",
}


@pytest.mark.parametrize("name", list(_SUITE_DIGESTS))
def test_suite_stdout_is_pinned(capsys, name):
    assert main(["suite", "--fixture", name, "--samples", "2000"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _SUITE_DIGESTS[name]


@pytest.mark.parametrize("argv", [
    ["verify", "--config", os.path.join(os.path.dirname(__file__), "..", "configs",
                                        "verify_gd_convex.json")],
    ["table", "--constants", "ls_4x2", "--epsilon", "1e-3"],
    ["suite", "--fixture", "ls_4x2", "--samples", "50"]], ids=["verify", "table", "suite"])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        run = subprocess.run([sys.executable, "-m", "descentlab.cli", *argv], stdout=write_end,
                             stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                             timeout=120)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (1, b""), run.stderr.decode()


# below about 1e-154 eps**2 underflows: sgd_convex_const's count ((...)/eps)^2 is
# then infinite or a division by zero, and at 5e-324 gd_convex's L*D2/(2*eps) is
@pytest.mark.parametrize("eps,setting", [
    ("1e-150", None), ("1e-160", "sgd_convex_const"), ("1e-170", "sgd_convex_const"),
    ("1e-300", "sgd_convex_const"), ("5e-324", "gd_convex"),
])
@pytest.mark.parametrize("source", ["fixture", "file"])
def test_table_epsilon_without_a_finite_count_exits_2(tmp_path, capsys, eps, setting, source):
    path = "ls_4x2" if source == "fixture" else _constants_file(tmp_path, "ls_4x2")
    rc = main(["table", "--constants", path, "--epsilon", eps])
    out, err = capsys.readouterr()
    if setting is None:
        assert rc == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1cd48a7c96995cffa4925eb99c274a20931c26e2cef3e9351a5c8a1dd2e07cbe")
        return
    assert rc == 2 and out == ""
    assert err == (f"table error: field 'epsilon': no finite iteration count for {setting} "
                   f"at {float(eps):g}\n")


# L_max = 0 (or subnormal) divides sgd_convex_const's sigma by zero, and L*D2 = inf
# leaves gd_convex with no count at any eps: the constants are at fault, not eps
@pytest.mark.parametrize("smooth,setting", [
    ({"L_max": 0.0}, "sgd_convex_const"), ({"L_max": 1e-320}, "sgd_convex_const"),
    ({"L": 1e300, "L_max": 1e300, "D2": 1e300}, "gd_convex"),
], ids=["L_max_0", "L_max_subnormal", "L_D2_overflows"])
def test_table_constants_without_a_finite_count_exit_2(tmp_path, capsys, smooth, setting):
    payload = {"smooth": dict(_SMOOTH, **smooth), "lipschitz": _LIPSCHITZ, "composite": _COMPOSITE}
    path = _write(tmp_path, "c.json", payload)
    assert main(["table", "--constants", path, "--epsilon", "1e-3"]) == 2
    assert capsys.readouterr() == ("", f"table error: no finite iteration count for {setting} "
                                       f"at 0.001 from these constants\n")


def test_table_prox_rows_read_the_fixtures_own_composite(tmp_path, monkeypatch, capsys):
    # ls_4x2's f with l1(0.2), not the l1(0.1) a fixture without a composite borrows
    from descentlab import problems
    ext = tmp_path / "fixtures"
    ext.mkdir()
    spec = {"kind": "least_squares", "features": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
            "targets": [1.0, 1.0, 0.0, 0.0], "regularizer": {"kind": "l1", "lambda": 0.2}}
    (ext / "ls_4x2_l1.json").write_text(json.dumps(spec))
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(ext))
    monkeypatch.delitem(problems._FIXTURE_CACHE, "ls_4x2_l1", raising=False)
    path = _constants_file(tmp_path, "ls_4x2_l1")
    for eps in ("1e-3", "0.05"):  # prox_sgd's cells need eps <= sigma_star_F / L_max
        rows = {}
        for source in ("ls_4x2", "ls_4x2_l1", path):
            assert main(["table", "--constants", source, "--epsilon", eps]) == 0
            rows[source] = capsys.readouterr().out.splitlines()
        assert rows[path] == rows["ls_4x2_l1"]
        changed = [new.split()[0] for old, new in zip(rows["ls_4x2"], rows[path]) if old != new]
        assert changed == ["prox_gd", "prox_sgd"], eps


@pytest.mark.parametrize("command,seed,override", [
    ("run", -1, None), ("run", 0, -5), ("verify", 0, -3),
], ids=["run_config_seed", "run_seed_override", "verify_seed_override"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, seed, override):
    payload = _gd_config(algorithm="sgd", trials=4, seed=seed, iterations=20,
                         schedule={"kind": "constant", "gamma": 0.2}, checkpoints=[10, 20],
                         verify={"setting": "sgd_strongly_convex"})
    out = tmp_path / "out"
    argv = [command, "--config", _write(tmp_path, "cfg.json", payload)]
    argv += [] if override is None else ["--seed-override", str(override)]
    argv += ["--out-dir", str(out)] if command == "run" else []
    assert main(argv) == 2
    bad = seed if override is None else override
    assert capsys.readouterr().err == (f"config error: field 'seed': must be an integer >= 0, "
                                       f"got {bad}\n")
    assert not out.exists()


@pytest.mark.parametrize("command,prefix", [
    ("suite", "config error: "),
    ("table", "table error: "),
    ("run", "config error: field 'problem.fixture': "),
    ("verify", "config error: field 'problem.fixture': "),
], ids=["suite", "table", "run", "verify"])
def test_unknown_fixture_is_named_once_without_added_quotes(tmp_path, monkeypatch, capsys,
                                                            command, prefix):
    from descentlab.problems import fixture_names
    monkeypatch.chdir(tmp_path)  # table reads a file named nope, if there is one
    path = _write(tmp_path, "cfg.json", _gd_config(problem={"fixture": "nope"},
                                                   verify={"setting": "gd_strongly_convex"}))
    argv = {"suite": ["suite", "--fixture", "nope"],
            "table": ["table", "--constants", "nope", "--epsilon", "0.1"],
            "run": ["run", "--config", path, "--out-dir", str(tmp_path / "out")],
            "verify": ["verify", "--config", path]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"{prefix}unknown fixture 'nope'; available: {fixture_names()}\n"
    assert err.count("nope") == 1 and '"' not in err


@pytest.mark.parametrize("case", ["out_dir_under_a_file", "trace_in_missing_dir", "jobs_0",
                                  "jobs_-3", "suite_out", "table_csv"])
def test_unwritable_output_or_bad_jobs_exits_2_before_writing(tmp_path, capsys, case):
    blocked = tmp_path / "file" / "x"  # under a file, so no directory can be made there
    (tmp_path / "file").write_text("")
    cfg = _write(tmp_path, "cfg.json", _gd_config(
        outputs={"trace": "nodir/t.csv"} if case == "trace_in_missing_dir" else {}))
    run = ["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]
    argv, prefix = {
        "out_dir_under_a_file": (run[:-1] + [str(blocked)],
                                 "config error: field 'outputs.manifest': cannot write"),
        "trace_in_missing_dir": (run, "config error: field 'outputs.trace': cannot write"),
        "jobs_0": (run + ["--jobs", "0"], "config error: --jobs must be >= 1, got 0"),
        "jobs_-3": (run + ["--jobs", "-3"], "config error: --jobs must be >= 1, got -3"),
        "suite_out": (["suite", "--fixture", "ls_4x2", "--samples", "10", "--out", str(blocked)],
                      "config error: --out: cannot write"),
        "table_csv": (["table", "--constants", "ls_4x2", "--epsilon", "0.1", "--csv",
                       str(blocked)], "table error: --csv: cannot write"),
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]


def _recording_trial_chunk(args, log, trial_chunk=cli._trial_chunk):
    # a forked worker inherits this patch and appends to the same file
    with open(log, "a") as fh:
        fh.write(f"{args[1]} {args[2]} {os.getpid()}\n")
    return trial_chunk(args)


def _counting_starts(monkeypatch) -> list:
    """The pids of the processes started from here on, in start order."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        start(self)
        started.append(self.pid)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return started


def test_run_jobs_starts_one_worker_per_chunk(tmp_path, monkeypatch):
    # --jobs 8 splits 3 trials into 3 chunks: the calling process runs the
    # first, and 2 forked workers the others; 8 workers would idle 6
    started = _counting_starts(monkeypatch)
    log = tmp_path / "chunks.txt"
    monkeypatch.setattr(cli, "_trial_chunk", partial(_recording_trial_chunk, log=log))
    path = _write(tmp_path, "cfg.json", _gd_config(algorithm="sgd", trials=3,
                                                   schedule={"kind": "constant", "gamma": 0.2}))
    assert cmd_run(path, out_dir=str(tmp_path / "one")) == 0
    assert started == [] and not log.exists()
    assert cmd_run(path, out_dir=str(tmp_path / "eight"), jobs=8) == 0
    assert len(started) == 2
    chunks = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    assert chunks == [(0, 1, os.getpid()), (1, 2, started[0]), (2, 3, started[1])]
    assert sorted(p.name for p in (tmp_path / "eight").iterdir()) == ["manifest.json", "trace.csv"]
    assert ((tmp_path / "eight" / "trace.csv").read_bytes()
            == (tmp_path / "one" / "trace.csv").read_bytes())


class _ChunkFailure(Exception):
    pass


def _failing_trial_chunk(args, fail_lo, exit_code=None, trial_chunk=cli._trial_chunk):
    # fails the chunk that starts at trial fail_lo: raises, or exits without a result
    if args[1] == fail_lo:
        if exit_code is not None:
            os._exit(exit_code)
        raise _ChunkFailure(f"chunk at {fail_lo}")
    return trial_chunk(args)


def _twelve_trials(tmp_path, seed, gamma=1.45):
    # the diverging run described below; no step expands at gamma 0.2. At
    # --jobs 3 the chunks are trials 0-3, 4-7 and 8-11
    return _write(tmp_path, "cfg.json", _gd_config(
        algorithm="sgd", trials=12, iterations=200, x0=[2.0, 0.0], seed=seed,
        schedule={"kind": "constant", "gamma": gamma}))


@pytest.mark.parametrize("case", ["passes", "caller_chunk_diverges", "worker_chunk_diverges",
                                  "caller_chunk_raises"])
def test_run_jobs_leaves_no_child_process(tmp_path, monkeypatch, case):
    seed, gamma, code = {"passes": (0, 0.2, 0), "caller_chunk_diverges": (62, 1.45, 3),
                         "worker_chunk_diverges": (108, 1.45, 3),
                         "caller_chunk_raises": (0, 0.2, None)}[case]
    path = _twelve_trials(tmp_path, seed, gamma)
    argv = ["run", "--config", path, "--out-dir", str(tmp_path / "out"), "--jobs", "3"]
    if code is None:
        monkeypatch.setattr(cli, "_trial_chunk", partial(_failing_trial_chunk, fail_lo=0))
        with pytest.raises(_ChunkFailure, match="chunk at 0"):
            main(argv)
    else:
        assert main(argv) == code
    assert multiprocessing.active_children() == []
    listed = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert listed == (["manifest.json", "trace.csv"] if code == 0 else ["manifest.json"])


def test_run_jobs_worker_exception_reaches_the_caller(tmp_path, monkeypatch):
    # the forked workers inherit the patch; the second worker's chunk fails
    path = _twelve_trials(tmp_path, 0, gamma=0.2)
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "_trial_chunk", partial(_failing_trial_chunk, fail_lo=8))
    with pytest.raises(_ChunkFailure, match="chunk at 8"):
        cmd_run(path, out_dir=str(out), jobs=3)
    monkeypatch.setattr(cli, "_trial_chunk",
                        partial(_failing_trial_chunk, fail_lo=4, exit_code=7))
    with pytest.raises(RuntimeError, match="exited with code 7 before sending"):
        cmd_run(path, out_dir=str(out), jobs=3)
    assert multiprocessing.active_children() == []
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


# sgd at gamma 1.45 from (2, 0) for 200 steps blows up sample streams 62 and
# 64, and 116 and 118, and no other stream in 62..73 or 108..119: at seed 62
# trials 0 and 2 diverge, in the calling process's chunk at --jobs 2 (trials
# 0-5) and 3 (0-3); at seed 108 trials 8 and 10, in the last worker's chunk
# (6-11 and 8-11)
@pytest.mark.parametrize("seed,diverged", [(62, ["0", "2"]), (108, ["8", "10"])],
                         ids=["caller_chunk", "worker_chunk"])
def test_run_divergence_in_one_chunk_leaves_the_out_dir_as_it_was(tmp_path, capsys, seed,
                                                                   diverged):
    path = _twelve_trials(tmp_path, seed)
    errs = []
    for jobs in (1, 2, 3):
        fresh, kept = tmp_path / f"fresh{jobs}", tmp_path / f"kept{jobs}"
        kept.mkdir()
        (kept / "trace.csv").write_bytes(b"an earlier run's trace\n")
        inode = (kept / "trace.csv").stat().st_ino
        for out in (fresh, kept):
            assert main(["run", "--config", path, "--out-dir", str(out),
                         "--jobs", str(jobs)]) == 3
            errs.append(capsys.readouterr().err)
        assert [p.name for p in fresh.iterdir()] == ["manifest.json"]
        assert sorted(p.name for p in kept.iterdir()) == ["manifest.json", "trace.csv"]
        assert (kept / "trace.csv").read_bytes() == b"an earlier run's trace\n"
        assert (kept / "trace.csv").stat().st_ino == inode
    assert len(set(errs)) == 1
    assert re.findall(r"trial (\d+) \(t=", errs[0]) == diverged


# at step 1/L the second coordinate moves by 1e-8 of its distance a step, so
# the composite's reference solve is far from done after 50 steps
_ILL_SPEC = {"kind": "least_squares", "features": [[1.0, 0.0], [0.0, 1e-4]],
             "targets": [1.0, 1.0], "regularizer": {"kind": "l1", "lambda": 1e-12}}


def test_composite_solve_that_does_not_converge_exits_2(tmp_path, monkeypatch, capsys):
    from descentlab import problems
    spec = _ILL_SPEC
    monkeypatch.setattr(problems, "_COMPOSITE_MAX_ITERS", 50)
    path = tmp_path / "ill.json"
    path.write_text(json.dumps(spec))
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(tmp_path))
    monkeypatch.delitem(problems._FIXTURE_CACHE, "ill", raising=False)
    detail = ("composite reference solver did not converge: fixed-point residual 1.000e-04 "
              "after 50 iterations\n")
    # only a proximal method reads the composite of an inline problem
    cfg = _write(tmp_path, "cfg.json", _gd_config(problem=spec, algorithm="prox_gd"))
    for argv, prefix in [
        (["run", "--config", cfg, "--out-dir", str(tmp_path / "out")],
         "config error: field 'problem.regularizer': "),
        (["suite", "--fixture", "ill"], f"config error: fixture 'ill': {path}: "),
        (["table", "--constants", "ill", "--epsilon", "1e-3"], f"table error: {path}: "),
    ]:
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr() == ("", prefix + detail)


@pytest.mark.parametrize("command", ["run", "verify"])
def test_smooth_method_on_inline_composite_skips_the_solve(tmp_path, monkeypatch, command):
    from descentlab import problems

    def no_solve(*args):
        raise AssertionError("make_composite called")

    monkeypatch.setattr(problems, "make_composite", no_solve)
    cfg = _write(tmp_path, "cfg.json", _gd_config(problem=_ILL_SPEC, schedule={
        "kind": "constant", "gamma": 1.0}, verify={"setting": "gd_convex"}))
    out = ["--out-dir", str(tmp_path / "out")] if command == "run" else []
    assert main([command, "--config", cfg] + out) == 0


@pytest.mark.parametrize("command", ["run", "verify"])
def test_proximal_run_on_nonsmooth_fixture_names_regularizer(tmp_path, capsys, command):
    # abs_2x1 has no finite L, so its composite has no reference solve
    cfg = _write(tmp_path, "cfg.json", {
        "problem": {"fixture": "abs_2x1"}, "algorithm": "prox_gd", "iterations": 10,
        "schedule": {"kind": "constant", "gamma": 0.1},
        "regularizer": {"kind": "l1", "lambda": 0.1}, "verify": {"setting": "pgd_convex"}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg] + (["--out-dir", str(out)] if command == "run" else [])) == 2
    assert capsys.readouterr() == ("", "config error: field 'regularizer': composite reference "
                                       "solve needs finite smoothness L > 0\n")
    assert not out.exists()


def test_commands_raise_and_only_main_reports(tmp_path, capsys):
    from descentlab import DivergenceError
    diverging = _write(tmp_path, "cfg.json", _gd_config(
        schedule={"kind": "constant", "gamma": 3.0}, iterations=4000, x0=[50.0, 50.0],
        verify={"setting": "gd_convex"}))
    with pytest.raises(ConfigError, match="--jobs must be >= 1"):
        cmd_run(diverging, out_dir=str(tmp_path), jobs=0)
    with pytest.raises(DivergenceError):
        cmd_run(diverging, out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="gamma <= 1/L"):
        cmd_verify(diverging)
    with pytest.raises(ConfigError, match="unknown fixture 'nope'"):
        cmd_table("nope", 0.1)
    with pytest.raises(ConfigError, match="--samples must be >= 1"):
        cmd_suite(["ls_4x2"], samples=0)
    assert capsys.readouterr().err == ""
