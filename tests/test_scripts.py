"""Smoke tests of the command-line scripts under scripts/."""

import importlib.util
from pathlib import Path

from xrprobe.scenario import PROFILE_TARGETS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_profiles_prints_one_row_per_profile(capsys):
    _load("calibrate_profiles").main(["--seeds", "4"])
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()
            if line.split()[:1] and line.split()[0] in PROFILE_TARGETS]
    assert [row[0] for row in rows] == list(PROFILE_TARGETS)
    for row in rows:
        video_target, audio_target = PROFILE_TARGETS[row[0]]
        assert row[1] == "4"
        assert float(row[3]) == video_target
        assert float(row[6]) == audio_target
        # the largest outlier above the upper fence lies above the median
        skew_median, high_outlier = float(row[9]), float(row[10])
        assert high_outlier == 0.0 or high_outlier >= skew_median
