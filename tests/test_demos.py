"""Every script in demos/ runs to completion in this process."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    # anything a demo writes, in the working or the temporary directory,
    # lands in tmp_path, which must be empty again afterwards
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(script), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.out
    assert "error" not in captured.err
    assert list(tmp_path.iterdir()) == []
