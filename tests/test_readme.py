"""The README's library quick tour runs as written, so a renamed or removed
public name fails here instead of leaving the documentation broken."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)  # the tour writes warp.svg into the working directory
    exec(compile(blocks[0], str(README), "exec"), {})
    assert (tmp_path / "warp.svg").read_text(encoding="utf-8").startswith("<svg ")
