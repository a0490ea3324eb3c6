"""Seeded, bounded fuzz of every subcommand's flags and --config documents, and of the
bytes of input and config files.

QuickCheck-style property testing (Claessen & Hughes, ICFP 2000): main runs
in-process on tiny inputs with drawn flag text and drawn config documents,
and the only property is that it returns 0, 2 or 3 with no exception
escaping. numpy RuntimeWarnings count as exceptions here (pyproject.toml).
The strategies cap the grid (cells <= 4, samples <= 3, small extend
multiples), so the suite stays within a few seconds. The file fuzz writes
small valid files with at most one planted fault and blank lines above it;
a message that names a line must name the fault's.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmorph import Dataset, parse_tps_file, synthetic_vilmann, write_dataset
from gridmorph.cli import OPTIONS, main

TPS = ("LM=3\n0 0\n1 0\n0 1\nID=a\n"
       "LM=3\n0 0\n2 0.1\n0 2\nID=b\n"
       "LM=3\n0.1 0\n1 0.5\n0 1.5\nID=c\n")

# subcommand -> (input file, table options it takes, output flags)
COMMANDS = {
    "ingest": ("in.tps", (), ("-o", "out/ingest.json")),
    "average": ("vilmann.json", ("group",), ("-o", "out/average.json")),
    "twopoint": ("vilmann.json", ("baseline",), ("-o", "out/twopoint.json")),
    "survey": ("vilmann.json", ("targets",), ("-o", "out/survey.svg")),
    "rotations": ("vilmann.json", ("targets", "threshold", "nonaffine"),
                  ("-o", "out/rotations.csv", "--svg", "out/rotations.svg")),
    "fit": ("vilmann.json", ("degree", "baseline", "targets", "trim", "hull", "extend",
                             "cells", "margin", "samples"), ("--outdir", "out/fit")),
}

# Values each option accepts on the Vilmann data, as command-line text. The
# grid's size grows with cells, samples and extend multiples: keep those small.
GOOD_TEXT = {
    "group": ["age7", "age150"],
    "baseline": ["3,8", "1,2", "1,5", "8,3"],
    "targets": ["age7,age150", "age150,age7", ""],
    "threshold": ["0", "0.15", "-0", "1e300", ".5"],
    "degree": ["2"],
    "trim": ["template", "target"],
    "extend": [f"{side}:{mult}" for side in ("left", "right", "up", "down")
               for mult in ("0.5", "1", "2", "1e-9", "1e308")],
    "cells": ["1", "2", "4"],
    "margin": ["0", "0.25", "1", "100", "1e-300"],
    "samples": ["2", "3"],
}
EDGE_TEXT = ["nan", "NaN", "inf", "-inf", "1e400", "-1e400", "-0", "0", "2.5", "1e308",
             "", " ", "true", "2,2", "0,2", "1,99", "a,b", "age7", "left:", "in:1",
             "right:-1", "up:nan", "3", "5", "-1"]

json_scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=8)
                | st.floats(allow_nan=True, allow_infinity=True))
json_values = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=6)


def as_json(name, text):
    """The config form of an accepted command-line value."""
    if name in ("cells", "samples", "degree"):
        return int(text)
    if name in ("threshold", "margin"):
        return float(text)
    return [text] if name == "extend" else text


@st.composite
def option_value(draw, name, argv, good):
    """A value the option accepts, or else edge-case text, any text or any JSON."""
    if name in ("hull", "nonaffine"):
        return True if argv else draw(st.booleans() if good else json_values)
    if good:
        text = draw(st.sampled_from(GOOD_TEXT[name]))
        return text if argv else as_json(name, text)
    if name in ("cells", "samples") and not argv:  # any JSON but a large integer
        return draw(st.integers(-1, 4) | json_values.filter(lambda v: type(v) is not int))
    return draw(st.sampled_from(EDGE_TEXT) | st.text(max_size=6) if argv
                else st.sampled_from(EDGE_TEXT) | json_values)


@st.composite
def invocations(draw, options):
    """Flags for argv and a --config document (None for no file) over the options.

    At most one option gets a drawn bad value; the others get accepted values,
    so many examples get past the checks into the analysis."""
    argv, config = [], {}
    bad = draw(st.sampled_from([None, *options]))
    for name in options:
        where = draw(st.sampled_from(["argv"] * 4 + ["config"] * 4 + ["absent"]))
        if where == "argv":
            value = draw(option_value(name, True, name != bad))
            argv.append(f"--{name}" if value is True else f"--{name}={value}")
        elif where == "config":
            config[name] = draw(option_value(name, False, name != bad))
    if draw(st.sampled_from(range(10))) == 9:  # a key of no option, or of another's
        key = draw(st.sampled_from(["Degree", "thresold", "out-dir", "output", *OPTIONS]))
        config[key] = draw(json_values)
    if draw(st.sampled_from(range(20))) == 19:
        return argv, draw(st.sampled_from(["[1, 2]", "{", "null", '"degree"', "{}"]))
    if not config and draw(st.booleans()):
        return argv, None
    return argv, json.dumps(config)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    (root / "in.tps").write_text(TPS, encoding="utf-8")
    (root / "vilmann.json").write_text(write_dataset(Dataset(synthetic_vilmann())),
                                       encoding="utf-8")
    (root / "out").mkdir()
    return root


def run(workdir, argv, config):
    if config is not None:
        (workdir / "cfg.json").write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(workdir / "cfg.json")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), (argv, config)


@pytest.mark.parametrize("command, examples", [
    ("ingest", 15), ("average", 20), ("twopoint", 20), ("survey", 10), ("rotations", 40),
    ("fit", 120),
])
def test_subcommand_exits_cleanly(workdir, command, examples):
    source, options, outputs = COMMANDS[command]

    @settings(max_examples=examples, derandomize=True, database=None, deadline=None)
    @given(invocations(options))
    def check(invocation):
        argv, config = invocation
        outs = [str(workdir / out) if "/" in out else out for out in outputs]
        run(workdir, [command, str(workdir / source), *argv, *outs], config)

    check()


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["parallelogram", "rotated_parallelogram", "trapezoid", "kite",
                        "synthetic-vilmann"]), invocations(["degree", "cells"]))
def test_demo_exits_cleanly(workdir, kind, invocation):
    # demo takes no table option: only a config file can name one
    run(workdir, ["demo", kind, "--outdir", str(workdir / "out" / "demo")], invocation[1])


# ---------------------------------------------------------------------------
# file bytes

LONG = "1" * 140_000  # past csv's field limit (131,072) and int()'s 4300 digits, in 140 KB
DEEP = "[" * 3000 + "]" * 3000  # past the recursion limit of json's decoder

# suffix -> (argv before the file, lines of a valid file, after the file)
FILES = {
    ".tps": (["ingest"], TPS.splitlines(), ["-o"]),
    ".csv": (["ingest"], ["id,group,x1,y1,x2,y2,x3,y3", "a,g,0,0,1,0,0,1", "b,g,0,0,2,0.1,0,2",
                          "c,h,0.1,0,1,0.5,0,1.5"], ["-o"]),
    ".json": (["ingest"], write_dataset(Dataset(parse_tps_file(TPS))).splitlines(), ["-o"]),
    "--config": (["twopoint", "in.tps", "--config"], ["{", '  "baseline": "1,2"', "}"], ["-o"]),
}


@st.composite
def drawn_files(draw, suffix):
    """(lines, code, line): a valid file's lines with at most one fault and up to three blank
    lines above it, the exit code it must give, and the 1-based line its message must name
    (None for a valid file, or for a fault with no line: too deep or too long to decode)."""
    lines, code = list(FILES[suffix][1]), 2
    at = draw(st.sampled_from([None, *range(len(lines))]))
    if at is None:
        code = 0
    elif suffix == ".tps":  # records of five lines: LM=3, three coordinate lines, ID=
        if at % 5 == 0:
            lines[at] = f"LM={LONG}"
        elif at % 5 == 4:  # a long ID is valid
            lines[at], code, at = f"ID={LONG}", 0, None
        else:
            lines[at] = draw(st.sampled_from(["0 abc", f"{LONG} 0", "0 0 0", "0,0"]))
    elif suffix == ".csv":
        at = max(at, 1)  # a data row
        cells = lines[at].split(",")
        lines[at] = ",".join(draw(st.sampled_from([
            cells[:4] + ["abc"] + cells[5:], cells[:4] + [LONG] + cells[5:], cells[:-1],
            [""] + cells[1:]])))
    elif draw(st.booleans()):
        lines[at] += " x"
    else:  # a value too deep or too long to decode, or a long string
        key, value = ('"group": ', '""') if suffix == ".json" else ('"baseline": ', '"1,2"')
        fault = draw(st.sampled_from([DEEP, LONG, f'"{LONG}"']))
        lines = "\n".join(lines).replace(key + value, key + fault, 1).split("\n")
        code = 0 if suffix == ".json" and fault[0] == '"' else 2
        at = None
    for gap in sorted(draw(st.lists(st.integers(0, len(lines) if at is None else at),
                                    max_size=3)), reverse=True):
        lines.insert(gap, draw(st.sampled_from(["", " ", "\t"])))
        at = None if at is None else at + 1
    return lines, code, None if at is None else at + 1


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(list(FILES)).flatmap(lambda suffix: st.tuples(
    st.just(suffix), drawn_files(suffix), st.sampled_from(["\n", "\r\n"]))))
def test_drawn_files_exit_cleanly_at_their_true_line(workdir, drawn):
    suffix, (lines, code, line), newline = drawn
    path = workdir / ("drawn.json" if suffix == "--config" else f"drawn{suffix}")
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    assert path.stat().st_size < 300_000
    before, _, after = FILES[suffix]
    argv = [str(workdir / arg) if arg == "in.tps" else arg for arg in before]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        got = main([*argv, str(path), *after, str(workdir / "out" / "drawn.json")])
    err = err.getvalue()
    assert got == code and "Traceback" not in err, err[:300]
    assert re.findall(r"\bline (\d+)", err) == ([] if line is None else [str(line)]), err[:300]
