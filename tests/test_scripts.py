"""The scripts under ``scripts/`` run against the package as it is."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_case_study_refuses_brute_force_and_writes_both_tables(tmp_path, capsys):
    case_study = _load("case_study")
    assert case_study.main(["--buses", "12", "--k", "6", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "brute force refused as expected" in out
    assert "Hurwitz=True" in out
    for label in ("trace", "freq_h2"):
        lines = (tmp_path / f"scores_{label}.csv").read_text().splitlines()
        assert lines[0] == "rank,id,score"
        assert len(lines) == 67  # header + C(12, 2) links
