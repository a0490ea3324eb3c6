"""The benchmark's workloads: seeded input files, the CLI calls of one op, and
the checks every op's outputs must pass.

An op is the list of ``gridmorph`` command lines that one timed iteration
runs, in order. All paths are relative to the directory holding the inputs,
so the outputs (which echo input paths in their provenance and messages)
have the same bytes wherever the checkout lives.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import gen

#: Seed of the inputs whose output digests are recorded in digests.json.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Inputs:
    """What one seed gives a workload: files to write and what to expect back."""

    files: dict[str, str]               # relative path -> text
    commands: list[list[str]]           # argv of each CLI call of one op
    outputs: list[str]                  # files every op must write
    planted: list[list[float]] | None   # (6, 2) trend coefficients to recover
    coefficients_csv: str | None        # where the fit writes its coefficients
    tolerance: float = 0.0


def _fit_call(data: str, k: int, cells: int) -> tuple[list[str], str, list[str]]:
    """argv of a degree-2 fit over the baseline 1, k/2+1, and the files it writes."""
    tag = f"1-{k // 2 + 1}"
    outdir = f"out/fit_{cells}"
    argv = ["fit", data, "--degree", "2", "--baseline", f"1,{k // 2 + 1}",
            "--cells", str(cells), "--outdir", outdir]
    files = [f"{outdir}/fit_{tag}.svg", f"{outdir}/fit_{tag}_residuals.csv",
             f"{outdir}/fit_{tag}_coefficients.csv"]
    return argv, f"{outdir}/fit_{tag}_coefficients.csv", files


def _planted_fit(seed: int, k: int, cells: int, extra: list[list[str]],
                 extra_outputs: list[str]) -> Inputs:
    text, pair = gen.two_group_outline(seed, k, per_group=1, noise=0.0)
    argv, coefficients, outputs = _fit_call("in/outline.json", k, cells)
    return Inputs({"in/outline.json": text}, [argv] + extra, outputs + extra_outputs,
                  pair["coefficients"].tolist(), coefficients, pair["tolerance"])


def paper_figures(seed: int, tiny: bool) -> Inputs:
    demo = ["demo", "kite", "--outdir", "out/demo"]
    return _planted_fit(seed, 8, 6 if tiny else 24, [demo],
                        ["out/demo/demo_kite.json", "out/demo/demo_kite.svg",
                         "out/demo/demo_kite_maps.svg"])


def dense_grid(seed: int, tiny: bool) -> Inputs:
    return _planted_fit(seed, 8, 12 if tiny else 96, [], [])


def many_landmarks(seed: int, tiny: bool) -> Inputs:
    k, per_group = (24, 3) if tiny else (200, 10)
    text, _ = gen.two_group_outline(seed, k, per_group=per_group, noise=0.002)
    fit, _, outputs = _fit_call("in/landmarks.json", k, 6 if tiny else 24)
    rotations = ["rotations", "in/landmarks.json", "--threshold", "0.15",
                 "-o", "out/rotations.csv", "--svg", "out/rotations.svg"]
    return Inputs({"in/landmarks.json": text}, [fit, rotations],
                  outputs + ["out/rotations.csv", "out/rotations.svg"], None, None)


def large_sample(seed: int, tiny: bool) -> Inputs:
    n, k = (40, 6) if tiny else (3000, 20)
    tps, wide = gen.large_sample(seed, n, k)
    commands = [
        ["ingest", "in/sample.tps", "-o", "out/from_tps.json"],
        ["ingest", "in/sample.csv", "-o", "out/from_csv.json"],
        ["average", "out/from_csv.json", "-o", "out/means.json"],
        ["twopoint", "out/from_csv.json", "--baseline", f"1,{k // 2 + 1}",
         "-o", "out/twopoint.json"],
    ]
    return Inputs({"in/sample.tps": tps, "in/sample.csv": wide}, commands,
                  ["out/from_tps.json", "out/from_csv.json", "out/means.json",
                   "out/twopoint.json"], None, None)


WORKLOADS = {
    "paper_figures": paper_figures,
    "dense_grid": dense_grid,
    "many_landmarks": many_landmarks,
    "large_sample": large_sample,
}


def coefficient_error(text: str, planted: list[list[float]]) -> float:
    """Largest |fitted - planted| over the coefficients CSV the fit wrote."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if len(rows) != len(planted):
        return float("inf")
    return max(abs(float(row[1 + c]) - planted[r][c])
               for r, row in enumerate(rows) for c in range(2))
