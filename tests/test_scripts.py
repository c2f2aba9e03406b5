import importlib.util
import pathlib

import numpy as np

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


def test_ingest_timing_runs_on_a_small_file(tmp_path, capsys):
    script = _load("time_ingest")
    assert script.main(["--rows", "1000", "--reps", "1",
                        "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "ingest_1000.csv").read_text().splitlines()
    assert lines[0] == "y,x1,x2,z,g" and len(lines) == 1001
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {
        "Coppice", "Natural", "Planted"}
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1000 rows, 1 alternating runs per tree"
    assert out[2].split()[:2] == ["ingest_csv", "median"]
    assert out[3].split()[:3] == ["tiltreg", "fit", "median"]
    assert out[-1] == "model files byte-identical across runs: True"


def test_diagnostics_timing_runs_on_a_small_sample(tmp_path, capsys):
    script = _load("time_diagnostics")
    assert script.main(["--rows", "1000", "--reps", "1",
                        "--outdir", str(tmp_path)]) == 0
    data = np.load(tmp_path / "diagnostics_1000.npz")
    assert data["y"].shape == (1000,)
    assert data["W"].shape == (1000, 3) and data["Z"].shape == (1000, 2)
    for kind in ("qq", "worm"):
        assert (tmp_path / f"{kind}.svg").read_bytes().endswith(b"</svg>\n")
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1000 rows, 1 alternating runs per tree"
    phases = [line.split() for line in out[2:7]]
    assert [words[0] for words in phases] == [
        "fit", "residuals", "report", "qq", "worm"]
    for words in phases:
        assert words[1] == "median" and words[-3] == "maxrss"
    assert out[7].split()[:3] == ["svg", "bytes", "qq"]
