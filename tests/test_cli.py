import json

import pytest

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
    path = _write(tmp_path, "cfg.json", _gd_config(algorithm="sgd", trials=4,
                                                   schedule={"kind": "constant", "gamma": 0.2}))
    a, b = tmp_path / "seq", tmp_path / "par"
    assert cmd_run(path, out_dir=str(a), jobs=1) == 0
    assert cmd_run(path, out_dir=str(b), jobs=3) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_run_bad_batch_size_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json",
                  _gd_config(algorithm="minibatch_sgd", batch_size=9,
                             schedule={"kind": "constant", "gamma": 0.01}))
    assert cmd_run(path, out_dir=str(tmp_path)) == 2
    assert "'b'" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_method_rejecting_schedule_exits_2(tmp_path, capsys, jobs):
    path = _write(tmp_path, "cfg.json", _gd_config(
        trials=2, schedule={"kind": "inv_sqrt", "gamma0": 0.1}))
    assert cmd_run(path, out_dir=str(tmp_path), jobs=jobs) == 2
    assert "gd requires a constant stepsize schedule" in capsys.readouterr().err


def test_run_divergence_exits_3(tmp_path):
    # gamma * L = 2.25 > 2, so the gd iteration map expands geometrically
    path = _write(tmp_path, "cfg.json",
                  _gd_config(schedule={"kind": "constant", "gamma": 3.0},
                             iterations=4000, x0=[50.0, 50.0]))
    rc = cmd_run(path, out_dir=str(tmp_path))
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
    assert cmd_verify(path) == 2
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


def test_verify_misconfigured_setting(tmp_path, capsys):
    payload = _gd_config()
    payload["verify"] = {"setting": "nope"}
    path = _write(tmp_path, "cfg.json", payload)
    assert cmd_verify(path) == 2
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


def test_table_missing_constant_exits_2(tmp_path, capsys):
    payload = {"smooth": {"n": 4, "L": 1.0, "L_max": 2.0, "mu": 0.5, "mu_pl": 0.5,
                          "delta_star_f": 0.1}}  # sigma_star_f missing
    path = _write(tmp_path, "c.json", payload)
    assert cmd_table(path, 1e-3) == 2
    assert "sigma_star_f" in capsys.readouterr().err


def test_suite_command(tmp_path, capsys):
    assert cmd_suite(["scalar_pl"], samples=1500, out_path=str(tmp_path / "r.json")) == 0
    reports = json.loads((tmp_path / "r.json").read_text())
    statuses = {c["name"]: c["status"] for c in reports[0]["checks"]}
    assert statuses["convexity"] == "expected-fail"


def test_suite_unexpected_pass_exits_4(monkeypatch, capsys):
    from descentlab import harness
    monkeypatch.setitem(harness.EXPECTED_FAIL, "ls_4x2", {"convexity"})
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
        assert cmd_run(path, out_dir=str(tmp_path / name)) == 2
        err = capsys.readouterr().err
        assert "problem.fixture" in err and detail in err


@pytest.mark.parametrize("content,detail", [
    (json.dumps({"kind": "least_squares", "features": [[1.0]]}), "targets"),
    ('{"kind": "least_squares", "features": [[1.0]', "Expecting"),
    ("[1.0]", "JSON object"),
    (json.dumps({"kind": "least_squares", "features": [[1.0]], "targets": [1.0],
                 "regularizer": {"kind": "l1"}}), "regularizer needs field 'lambda'"),
    (json.dumps(dict(_ABS_SPEC, strong_mu="x")), "field 'strong_mu': must be a number"),
    (json.dumps({"kind": "least_squares", "features": [[1.0]], "targets": [1.0],
                 "regularizer": _L1_X}), "field 'regularizer.lambda': must be a number"),
    (json.dumps({"kind": "least_squares", "features": [[1.0]], "targets": [1.0],
                 "regularizer": "l1"}), "a regularizer spec is a JSON object"),
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


def test_verify_divergence_exits_3_naming_trials(tmp_path, capsys):
    payload = {
        "problem": {"fixture": "abs_2x1"},
        "algorithm": "ssd",
        "schedule": {"kind": "inv_sqrt", "gamma0": 1e15},
        "iterations": 50,
        "trials": 20,
        "verify": {"setting": "ssd_convex_general"},
    }
    assert cmd_verify(_write(tmp_path, "cfg.json", payload)) == 3
    err = capsys.readouterr().err
    assert "20 trial(s) diverged" in err
    assert "trial 0 (t=1)" in err


def test_run_divergence_exits_3_parallel(tmp_path):
    # gamma * L_i > 2 for every term, so each sampled step expands
    path = _write(tmp_path, "cfg.json",
                  _gd_config(algorithm="sgd", trials=4, iterations=6000,
                             schedule={"kind": "constant", "gamma": 3.0},
                             x0=[50.0, 50.0]))
    assert cmd_run(path, out_dir=str(tmp_path), jobs=2) == 3


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
    ("run", _gd_config(schedule={"kind": "horizon_constant", "gamma": 0.1, "horizon": "x"}),
     "schedule.horizon"),
    ("run", _gd_config(regularizer=_L1_X), "regularizer.lambda"),
    ("verify", _verify_config(regularizer=_L1_X), "regularizer.lambda"),
    ("verify", _verify_config(algorithm="momentum"), "algorithm"),
    ("verify", _verify_config(projection_B=-3), "projection_B"),
    ("verify", _verify_config(momentum_form="nope"), "momentum_form"),
], ids=["not_an_object", "problem", "schedule", "regularizer", "x0", "batch_size", "seed",
        "verify_x0", "fixture_name", "output_name", "verify_setting", "strong_mu", "ball_B",
        "verify_strong_mu", "gamma", "verify_gamma", "horizon", "lambda", "verify_lambda",
        "verify_other_algorithm", "verify_projection_B", "verify_momentum_form"])
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
], ids=["section_not_an_object", "not_an_object", "constant_not_a_number"])
def test_table_malformed_constants_file_exits_2(tmp_path, capsys, payload, fieldname):
    path = _write(tmp_path, "k.json", payload)
    assert main(["table", "--constants", path, "--epsilon", "1e-3"]) == 2
    assert capsys.readouterr().err.startswith(f"table error: field {fieldname!r}:")


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


@pytest.mark.parametrize("command", ["run", "verify", "suite"])
def test_failed_abs_certificate_exits_2(tmp_path, monkeypatch, capsys, command):
    import types

    import numpy as np
    import scipy.optimize

    from descentlab import problems
    (tmp_path / "abs_copy.json").write_text(json.dumps(problems._CATALOGUE["abs_2x1_reg"]))
    monkeypatch.setenv("DESCENTLAB_FIXTURES", str(tmp_path))
    monkeypatch.delitem(problems._FIXTURE_CACHE, "abs_copy", raising=False)
    # a broken dual solve: every multiplier at the corner +1, so x* comes out wrong
    monkeypatch.setattr(scipy.optimize, "minimize",
                        lambda fun, x0, **kw: types.SimpleNamespace(x=np.ones_like(x0)))
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
