"""Every narrative demo runs to completion in-process and prints its story."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert len(capsys.readouterr().out.splitlines()) >= 5
