"""The benchmark's span tracer (perfbench/tracer.py) against the program: every
name it patches exists, the per-step prox still goes through the module name
it wraps, and uninstalling puts every original back."""

import json
from pathlib import Path

from descentlab import cli, problems

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_counts_and_uninstalls(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    lasso = problems.fixture("lasso_4x2")  # built before the patches: no solve is traced
    T = 20
    verify = tmp_path / "verify.json"
    verify.write_text(json.dumps({
        "problem": {"fixture": "lasso_4x2"}, "algorithm": "prox_sgd",
        "schedule": {"kind": "constant", "gamma": 0.9 / (4 * lasso.constants.L_max)},
        "iterations": T, "trials": 3, "checkpoints": [T],
        "verify": {"setting": "spgd_convex_const"}}))
    run = tmp_path / "run.json"
    run.write_text(json.dumps({
        "problem": {"fixture": "ls_4x2"}, "algorithm": "sgd",
        "schedule": {"kind": "constant", "gamma": 0.2}, "iterations": T, "trials": 4}))
    tracer = Tracer()
    tracer.install()  # a KeyError here names a patched name the program lost
    try:
        patched = list(tracer._patches)
        for owner, attr, original in patched:  # every patched name is installed
            assert owner.__dict__[attr] is not original, attr
        round_span = tracer.open("bench", "round")
        assert cli.main(["verify", "--config", str(verify)]) == 0
        assert cli.main(["run", "--config", str(run), "--out-dir", str(tmp_path / "out"),
                         "--jobs", "2"]) == 0
        tracer.close(round_span)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
    calls = {}
    for span in tracer.spans:
        for key, (count, _) in span.calls.items():
            calls[key] = calls.get(key, 0) + count
    # one row-wise prox per step, called by name from algorithms
    assert calls["nonsmooth.prox"] == T
    # the traced run --jobs 2 ran every step of its 4 trials, as one process would
    trace = (tmp_path / "out" / "trace.csv").read_bytes()
    assert trace.count(b"\n") == 1 + 4 * (T + 1)
    assert cli.main(["run", "--config", str(run), "--out-dir", str(tmp_path / "one")]) == 0
    assert (tmp_path / "one" / "trace.csv").read_bytes() == trace
