"""Smoke checks of the command line: byte-stable outputs, exit codes and memory bounds. Run as
`python tests/smoke.py WORKDIR COMMAND...`: COMMAND, `gridmorph` or `python -m gridmorph` with src/
on PYTHONPATH, runs in WORKDIR (about 70 MB). One line per check; exit 1 if any check failed."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

from helpers import ring_csv, short_baseline_outline

# a parent of its own prints the child's exit code and peak resident set (KiB) last: on Linux a
# process keeps the high-water mark of the one that forked it, and this script holds numpy
PEAK = ("import resource, subprocess, sys; rc = subprocess.run(sys.argv[1:]).returncode; "
        "print('\\nPEAK', rc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
# the console script's main keeps freed memory for reuse: under glibc the dense fit touches no more
# pages inside main than its process's peak resident set (12 MB for 48; with the default
# thresholds, 115 MB). The pages of the imports and of the interpreter's exit are not main's, so
# the minor faults are counted around main alone.
FAULTS = """\
import contextlib, os, resource, sys
from gridmorph import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
    assert cli.main(sys.argv[1:]) == 0
usage = resource.getrusage(resource.RUSAGE_SELF)
print((usage.ru_minflt - before) * os.sysconf("SC_PAGE_SIZE"), usage.ru_maxrss * 1024)
"""
VILMANN = "demo/demo_synthetic_vilmann.json"
DENSE_FIT = ["fit", VILMANN, "--degree", "2", "--baseline", "1,5", "--cells", "96", "--outdir"]


class Smoke:
    """COMMAND, run in the working directory, and the names of the checks that failed so far."""

    def __init__(self, command: list[str]):
        self.command, self.failed = command, []

    def check(self, name, ok, value, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {value}", flush=True)
        if not ok:  # with the command's stderr, if any
            self.failed.append(name)
            print("".join(f"     | {line}\n" for line in detail.splitlines()), end="", flush=True)

    def exits(self, name, code, *args, says="", cwd=None, limit_kib=None, command=None):
        """Check that COMMAND (or command) args exits with code, says and no Traceback in its
        stderr; return its stdout, stderr and peak resident set in KiB. limit_kib limits its
        address space (ulimit -v) in that child alone."""
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (limit_kib * 1024,) * 2)
        proc = subprocess.run([sys.executable, "-c", PEAK, *(command or self.command), *args],
                              cwd=cwd, capture_output=True, encoding="utf-8", errors="replace",
                              env=dict(os.environ, OPENBLAS_NUM_THREADS="1") if limit_kib else None,
                              preexec_fn=limit if limit_kib else None)
        out, _, tail = proc.stdout.rpartition("\nPEAK ")
        rc, kib = map(int, tail.split()) if proc.returncode == 0 else (proc.returncode, 0)
        err = proc.stderr
        self.check(name, rc == code and says in err and "Traceback" not in err,
                   ", ".join([f"exit {rc}", f"{kib / 1024:.1f} MiB peak", *err.split("\n")[-2:-1]]),
                   err)
        return out, err, kib

    def same_bytes(self, name, files, *runs):
        """Check that each run of COMMAND exits 0, then that the files hold equal nonempty bytes."""
        for n, args in enumerate(runs, 1):
            self.exits(f"{name}, run {n}", 0, *args)
        data = [Path(f).read_bytes() if os.path.exists(f) else None for f in files]
        self.check(f"{name}, same bytes", bool(data[0]) and data.count(data[0]) == len(data),
                   " ".join("missing" if d is None else f"{len(d)} B" for d in data))

    def write(self, name, text):
        Path(name).write_text(text, encoding="utf-8")


def main(argv) -> int:
    if len(argv) < 2:
        sys.exit(__doc__)
    # a relative PYTHONPATH (src, on a checkout) is taken from where the script starts
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths if p)
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])
    smoke = Smoke(argv[1:])
    # the streamed SVG is byte-stable from one run to the next
    smoke.same_bytes("demo kite SVG", ["demo/demo_kite_maps.svg", "demo2/demo_kite_maps.svg"],
                     ["demo", "kite", "--outdir", "demo"], ["demo", "kite", "--outdir", "demo2"])
    smoke.exits("demo synthetic-vilmann", 0, "demo", "synthetic-vilmann", "--outdir", "demo")
    # the segment table and the marker runs of its network are byte-stable too
    smoke.same_bytes("rotations CSV", ["rotations_1.csv", "rotations_2.csv"],
                     *(["rotations", VILMANN, "--threshold", "0", "-o", f"rotations_{run}.csv",
                        "--svg", f"rotations_{run}.svg"] for run in (1, 2)))
    smoke.same_bytes("rotations SVG", ["rotations_1.svg", "rotations_2.svg"])
    # so are the outline panels of every baseline
    smoke.same_bytes("survey SVG", ["survey_1.svg", "survey_2.svg"],
                     *(["survey", VILMANN, "-o", f"survey_{run}.svg"] for run in (1, 2)))
    # each point set's markers are one array layer: the 1,770 panels of a 60-landmark survey hold
    # 3,540 marker layers, not 212,400 single markers (91 MB peak before, 43 MB after)
    angles = 2 * np.pi * np.arange(60) / 60
    radii = 1.0 + 0.1 * np.cos(3 * angles)
    rows = ["id,group," + ",".join(f"x{i},y{i}" for i in range(1, 61))]
    for n in range(4):
        group, stretch = ("young", "old")[n // 2], 1.0 + 0.1 * (n // 2)
        x, y = stretch * radii * np.cos(angles) + 0.01 * n, radii * np.sin(angles) - 0.01 * n
        rows.append(f"spec_{n + 1},{group}," + ",".join(f"{a:.6f},{b:.6f}" for a, b in zip(x, y)))
    smoke.write("outline60.csv", "\n".join(rows) + "\n")
    peak = smoke.exits("60-landmark survey", 0, "survey", "outline60.csv", "-o", "survey60.svg")[2]
    smoke.check("60-landmark survey under 70 MB", peak * 1024 < 70e6, f"{peak * 1024 / 1e6:.1f} MB")
    # the dataset JSON is a fixed point of ingest
    smoke.same_bytes("ingest fixed point", [VILMANN, "in_1.json", "in_2.json"],
                     ["ingest", VILMANN, "-o", "in_1.json"],
                     ["ingest", "in_1.json", "-o", "in_2.json"])
    # dataset I/O holds one configuration, one text slice or one block at a time, so the ingest of
    # a 3000x20 wide CSV and of the same rows as TPS, the average of the JSON and each twopoint of
    # it peak within 14 MiB of a bare import of the CLI, and twopoint's bytes are the same from one
    # run to the next. The dense 96-cell fit, whose grids and template trim read the spec's axis
    # tables by blocks and build no whole preimage, peaks within 14.6 MiB of the bare import
    rng = np.random.default_rng(0)
    rows, tps = ["id,group," + ",".join(f"x{i},y{i}" for i in range(1, 21))], []
    # noisy copies of one shape, so that the average converges
    for n, xy in enumerate(rng.uniform(500.0, 1500.0, 40) + rng.normal(0.0, 10.0, (3000, 40))):
        cells = [f"{v:.4f}" for v in xy]
        rows.append(f"spec_{n + 1:05d},{('young', 'old')[n % 2]}," + ",".join(cells))
        tps += ["LM=20", *(f"{x} {y}" for x, y in zip(cells[::2], cells[1::2])),
                f"ID=spec_{n + 1:05d}"]
    smoke.write("wide3000.csv", "\n".join(rows) + "\n")
    smoke.write("wide3000.tps", "\n".join(tps) + "\n")
    bare = smoke.exits("bare import", 0, "-c", "import gridmorph.cli", command=[sys.executable])[2]
    for name, bound, args in [
            ("ingest", 14, ["ingest", "wide3000.csv", "-o", "wide3000.json"]),
            ("ingest tps", 14, ["ingest", "wide3000.tps", "-o", "wide3000.json"]),
            ("average", 14, ["average", "wide3000.json", "-o", "wide3000_means.json"]),
            *((f"twopoint {run}", 14, ["twopoint", "wide3000.json", "--baseline", "1,11",
                                       "-o", f"wide3000_twopoint_{run}.json"]) for run in (1, 2)),
            ("dense fit", 14.6, [*DENSE_FIT, "fit_peak"])]:
        margin = (smoke.exits(name, 0, *args)[2] - bare) / 1024
        smoke.check(f"{name} within {bound} MiB of a bare import", margin < bound, f"+{margin:.1f}")
    smoke.same_bytes("twopoint JSON", ["wide3000_twopoint_1.json", "wide3000_twopoint_2.json"])
    # the dense 96-cell fit, whose three grids share one spec's axis tables, is byte-stable
    smoke.same_bytes("dense fit SVG", ["fit_1/fit_1-5.svg", "fit_2/fit_1-5.svg"],
                     [*DENSE_FIT, "fit_1"], [*DENSE_FIT, "fit_2"])
    # so is a grid extended past the data, whose spline is evaluated from per-axis tables of the
    # extended lattice
    smoke.same_bytes("extended fit SVG", ["extend_1/fit_1-5.svg", "extend_2/fit_1-5.svg"],
                     *(["fit", VILMANN, "--degree", "2", "--baseline", "1,5", "--extend", "left:1",
                        "--outdir", f"extend_{run}"] for run in (1, 2)))
    out = smoke.exits("dense fit in main", 0, "-c", FAULTS, *DENSE_FIT, "fit_3",
                      command=[sys.executable])[0]
    touched, peak = map(int, out.split() or (1, 0))
    smoke.check("dense fit's pages in main within its peak", touched <= peak,
                f"{touched / 1e6:.1f} MB touched, {peak / 1e6:.1f} MB peak")
    # a command builds only its own parser, from sys.argv: every help text still prints, and the
    # usage line of an unrecognized argument still names all seven commands
    for cmd in ["", "ingest", "average", "twopoint", "survey", "rotations", "fit", "demo"]:
        smoke.exits(f"{cmd or 'gridmorph'} --help", 0, *cmd.split(), "--help")
    smoke.exits("unrecognized argument", 2, "fit", "x", "--outdir", "o", "--bogus", says="usage: "
                "gridmorph [-h] {ingest,average,twopoint,survey,rotations,fit,demo} ...")
    # the exit-code contract: 2 for an InputError, 3 for a NumericalError, never a traceback
    smoke.write("malformed.tps", "LM=3\n0 0\n1 x\n2 2\n")
    smoke.exits("malformed TPS", 2, "ingest", "malformed.tps", "-o", "malformed.json")
    smoke.write("coincident.tps", "LM=3\n0 0\n0 0\n1 1\n")
    smoke.exits("coincident baseline", 3, "twopoint", "coincident.tps", "--baseline", "1,2",
                "-o", "coincident.json")
    # every option is checked before the input is read: a bad flag is reported even when the input
    # file does not exist
    smoke.exits("bad --degree, missing input", 2, "fit", "does-not-exist.json", "--degree", "7",
                "--outdir", "o", says="--degree")
    # input that the csv and json modules cannot read is an InputError too: a CSV cell past csv's
    # field limit, and a dataset JSON or a --config file nested 3000 deep
    smoke.write("long.csv", "id,x1,y1,x2,y2,x3,y3\na," + "1" * 200000 + ",2,3,4,5,6\n")
    smoke.write("deep.json", "[" * 3000 + "]" * 3000 + "\n")
    for name, args in [("long CSV cell", ["long.csv"]), ("deep JSON", ["deep.json"]),
                       ("deep --config", [VILMANN, "--config", "deep.json"])]:
        smoke.exits(name, 2, "ingest", *args, "-o", "refused.json")
    # an allocation past the memory limit is exit 3 with no traceback: the spline of 20,000
    # landmarks needs a (20000, 20000) array
    smoke.write("wide20000.csv", ring_csv(20000))
    smoke.exits("20,000-landmark fit under 1,048,576 KiB", 3, "fit", "wide20000.csv", "--degree",
                "2", "--baseline", "1,5000", "--outdir", "wide20000", limit_kib=1048576)
    # a baseline vector past the largest float is registered in an exactly scaled frame: no
    # overflow warning (an error in this step) and no false "nearly coincide"
    smoke.write("wide.tps", "LM=3\n1.7e308 0\n-1.7e308 0\n0 1\n")
    smoke.exits("wide twopoint", 0, "twopoint", "wide.tps", "--baseline", "1,2", "-o", "wide.json")
    # so is every Procrustes centring: deviations past the largest float neither overflow nor stop
    # GPA with a false "did not converge"
    smoke.write("wide4.tps", "LM=4\n1.7e308 0\n-1.7e308 0\n-1.7e308 1\n-1.7e308 2\n")
    smoke.exits("wide average", 0, "average", "wide4.tps", "-o", "wide4.json")
    # a cubic fit on a baseline 1e-5 of the outline long (tests/test_cli.py's outline): its rank
    # and solve are taken on the framed template, so it exits 0 with no overflow warning
    smoke.write("outline.csv", short_baseline_outline(1e-5))
    smoke.exits("cubic fit on a short baseline", 0, "fit", "outline.csv", "--degree", "3",
                "--baseline", "1,2", "--outdir", "short")
    # float() reads underscores and Arabic-Indic digits in TPS coordinates, so both files give the
    # same bytes, silently
    for twin, text in [("ascii", "10 20\n30.5 40\n-0 1e3\nID=a\nLM=3\n1 0\n0 1\n2.5 -7"),
                       ("digits", "1_0 2_0\n3_0.5 4_0\n-٠ ١e٣\nID=a\nLM=3\n١ ٠\n0 1\n٢.٥ -٧")]:
        os.makedirs(twin, exist_ok=True)
        smoke.write(f"{twin}/sample.tps", f"LM=3\n{text}\nID=b\n")
        err = smoke.exits(f"{twin} TPS", 0, "ingest", "sample.tps", "-o", "out.json", cwd=twin)[1]
        smoke.check(f"{twin} TPS, no warning", "Warning" not in err, f"{len(err)} B stderr", err)
    smoke.same_bytes("ascii and digits TPS", ["ascii/out.json", "digits/out.json"])
    print(f"{len(smoke.failed)} failed" + "".join(f"\n  {name}" for name in smoke.failed))
    return 1 if smoke.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
