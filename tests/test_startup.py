"""Start-up cost: what `import gridmorph.cli` and each command load.

The package root resolves its exports on first use, and the commands that
draw import the grid, map, spline, trend and SVG modules when they run, so
ingest, average and twopoint never load them.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import gridmorph
from gridmorph import core, gridlab, maps
from gridmorph.render import _escape

DRAWING = ("gridmorph.gridlab", "gridmorph.maps", "gridmorph.render", "gridmorph.synthetic",
           "gridmorph.tps", "gridmorph.trend")
# urllib.parse is not listed: pathlib imports it, and numpy imports pathlib
HEAVY = ("xml", "urllib.request", "http", "email", "socket")


def run_python(code: str, *args: str) -> dict:
    """Run code in a fresh interpreter on this checkout; it prints one JSON document."""
    src = os.path.dirname(os.path.dirname(gridmorph.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded(modules, packages) -> list[str]:
    return sorted(m for m in modules for p in packages if m == p or m.startswith(p + "."))


def test_cli_import_loads_no_drawing_or_network_module():
    modules = run_python("import json, sys, gridmorph.cli; print(json.dumps(list(sys.modules)))")
    assert loaded(modules, HEAVY) == []
    assert loaded(modules, DRAWING) == []
    assert loaded(modules, ["gridmorph"]) == ["gridmorph", "gridmorph.cli", "gridmorph.core",
                                              "gridmorph.errors", "gridmorph.formats",
                                              "gridmorph.registration"]


def test_data_commands_import_nothing_more(tmp_path):
    data = tmp_path / "in.tps"
    data.write_text("LM=3\n0 0\n1 0\n0 1\nID=a\nLM=3\n0 0\n2 0\n0 1.5\nID=b\n",
                    encoding="utf-8")
    code = """
import json, sys
import gridmorph.cli
data, out = sys.argv[1:]
before = set(sys.modules)
codes = [gridmorph.cli.main(argv) for argv in (
    ["ingest", data, "-o", out], ["average", out, "-o", out + ".mean"],
    ["twopoint", out, "--baseline", "1,2", "-o", out + ".two"])]
print(json.dumps({"codes": codes, "added": sorted(set(sys.modules) - before)}))
"""
    result = run_python(code, str(data), str(tmp_path / "out.json"))
    assert result["codes"] == [0, 0, 0]
    assert loaded(result["added"], ["gridmorph"]) == []


def test_drawing_command_imports_on_first_use(tmp_path):
    code = """
import json, sys
import gridmorph.cli
code = gridmorph.cli.main(["demo", "kite", "--outdir", sys.argv[1]])
print(json.dumps({"code": code, "modules": list(sys.modules)}))
"""
    result = run_python(code, str(tmp_path / "demo"))
    assert result["code"] == 0
    assert loaded(result["modules"], DRAWING) == ["gridmorph.gridlab", "gridmorph.maps",
                                                  "gridmorph.render", "gridmorph.tps"]
    assert loaded(result["modules"], HEAVY) == []


def test_lazy_root_exports():
    result = run_python("""
import json, sys, gridmorph
before = sorted(m for m in sys.modules if m.startswith("gridmorph."))
star = {}
exec("from gridmorph import *", star)  # resolves every name in __all__
print(json.dumps({"before": before, "star": sorted(set(star) - {"__builtins__"}),
                  "dir": dir(gridmorph)}))
""")
    assert result["before"] == []
    assert len(gridmorph.__all__) == 97
    assert result["star"] == sorted(gridmorph.__all__)
    assert set(gridmorph.__all__) <= set(result["dir"])
    assert {"render", "tps", "__version__"} <= set(result["dir"])


def test_root_exports_match_their_modules():
    for name in gridmorph.__all__:
        module = importlib.import_module(f"gridmorph.{gridmorph._MODULE_OF[name]}")
        assert getattr(gridmorph, name) is getattr(module, name)
    # the constants the option table needs live in core; gridlab and maps re-export them
    assert gridlab.MAX_GRID_SAMPLES is core.MAX_GRID_SAMPLES is gridmorph.MAX_GRID_SAMPLES
    assert gridlab.DEFAULT_CELLS is core.DEFAULT_CELLS
    assert maps.PROTOTYPE_KINDS is core.PROTOTYPE_KINDS is gridmorph.PROTOTYPE_KINDS
    assert gridmorph.render is sys.modules["gridmorph.render"]
    with pytest.raises(AttributeError, match="no_such_name"):
        gridmorph.no_such_name


def test_escape_matches_saxutils():
    from xml.sax.saxutils import escape
    for text in ("a<b&c", "&amp; <tag attr=\"x\" y='z'> -> &lt;", "<<&&>>", "", "plain é ü"):
        assert _escape(text) == escape(text)
