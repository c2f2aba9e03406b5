import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lime_case_study_runs_end_to_end(tmp_path, lime_path, capsys):
    run = _load("run_lime_analysis").run
    assert run(str(lime_path), str(tmp_path)) == 0
    for name in ("lime_model.json", "lime_qq.svg", "lime_worm.svg",
                 "lime_residuals.csv"):
        assert (tmp_path / name).stat().st_size > 0
    assert len((tmp_path / "lime_residuals.csv").read_text().splitlines()) == 386
    out = capsys.readouterr().out.splitlines()
    i = out.index("Effect sizes (multiplicative, on the median foliage biomass):")
    assert out[i + 1:i + 5] == [
        "  +10 years of age : x1.421",
        "  natural vs coppice: x0.669",
        "  planted vs coppice: x1.635",
        "  shape parameter   : 0.148",
    ]
