"""The benchmark's span tracer wraps tiltreg around a fit and restores it.

``perfbench/tracing.py`` looks up the names it wraps in tiltreg's modules, so
a name it expects but the library no longer binds breaks every traced
benchmark run.  This runs a small fit under the tracer, and one op of every
benchmark workload with and without it.
"""

import importlib
import inspect
import pathlib
import sys

import pytest

from tiltreg import cli, regression
from tests.conftest import simulate_intercept_only

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


tracing = _perfbench("tracing")
workloads = _perfbench("workloads")


def _namespaces():
    """Every tiltreg module and every class they define, with a copy of its dict."""
    spaces = []
    for name, mod in list(sys.modules.items()):
        if name == "tiltreg" or name.startswith("tiltreg."):
            spaces.append((mod, dict(vars(mod))))
            for obj in vars(mod).values():
                if inspect.isclass(obj) and obj.__module__.startswith("tiltreg"):
                    spaces.append((obj, dict(vars(obj))))
    return spaces


def test_fit_under_tracer_records_and_restores():
    spec = simulate_intercept_only(300, 3.0, 0.5, seed=2)
    before = _namespaces()
    tracer = tracing.Tracer()
    with tracer.installed():
        model = regression.fit(spec)
    assert model.converged
    assert "regression.fit" in {span[0] for span in tracer.spans}
    for owner, attrs in before:
        for key, value in attrs.items():
            assert vars(owner)[key] is value, f"{owner.__name__}.{key} not restored"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_op_is_correct_traced_and_untraced(name, tmp_path, monkeypatch):
    monkeypatch.chdir(PERFBENCH.parent)
    workload = workloads.WORKLOADS[name](7, str(tmp_path))
    workload.warm_up()
    with tracing.Tracer().installed():
        traced = workload.op()
    assert workload.check(traced) is None
    assert workload.check(workload.op()) is None


def test_cli_dispatch_follows_the_tracer(tmp_path):
    # main keeps one parser per process; the handler it calls must be the
    # one bound at call time, wrapped only while the tracer is installed.
    argv = ["sample", "--n", "5", "--beta", "1", "--lambda", "1",
            "--out", str(tmp_path / "draws.csv")]
    assert cli.main(argv) == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(argv) == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("cli.cmd_sample") == 1
    assert cli.main(argv) == 0
    assert [span[0] for span in tracer.spans] == names
