"""The measured process of one benchmark run: drives ``gridmorph.cli.main``
in-process, one op at a time, and checks every op's outputs.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's ``src`` and the BLAS thread cap already in the environment.
Usage: ``python3 bench/worker.py JOB.json``; the job names the input sets,
the run length and whether to trace, and where to write the result.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import spans
import workloads
from calibration import Calibration


def call(cli, argv: list[str]):
    """Exit code of one CLI call; a crash is reported in place of a code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code
    except Exception:  # a crash fails this op; the run goes on
        return "crash: " + traceback.format_exc(limit=-2).strip()


def run_op(cli, commands: list[list[str]],
           calibration: Calibration) -> tuple[float, float, list, str, str]:
    """Run the CLI calls of one op in the current directory.

    Returns the wall time of the calls, their time at the reference speed
    (each call scaled by the calibrations around it), the exit codes and
    the captured output. Only the calls are timed.
    """
    shutil.rmtree("out", ignore_errors=True)
    os.mkdir("out")
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    codes: list = []
    seconds = scaled = 0.0
    # catch_warnings() lets each op print its warnings again, as a fresh
    # process would, so stderr repeats from op to op.
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        for argv in commands:
            elapsed, at_reference, code = calibration.scaled(lambda: call(cli, argv))
            seconds += elapsed
            scaled += at_reference
            codes.append(code)
            if code != 0:
                break
    return seconds, scaled, codes, stdout.getvalue(), stderr.getvalue()


def digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def check_op(inputs: dict, codes: list, stdout: str, stderr: str) -> tuple[list[str], dict]:
    """Problems with one op's outputs, and the digests of everything it wrote."""
    problems = [f"command {i + 1} exited with {code!r}"
                for i, code in enumerate(codes) if code != 0]
    if len(codes) == len(inputs["commands"]) and not problems:
        missing = [path for path in inputs["outputs"] if not os.path.isfile(path)]
        problems += [f"missing output {path}" for path in missing]
    digests = {path: digest(path) for path in inputs["outputs"] if os.path.isfile(path)}
    digests["<stdout>"] = hashlib.sha256(stdout.encode()).hexdigest()
    digests["<stderr>"] = hashlib.sha256(stderr.encode()).hexdigest()
    if inputs["planted"] is not None and not problems:
        with open(inputs["coefficients_csv"], encoding="utf-8") as handle:
            error = workloads.coefficient_error(handle.read(), inputs["planted"])
        if not error <= inputs["tolerance"]:
            problems.append(f"trend coefficients off the planted ones by {error:.3g} "
                            f"(tolerance {inputs['tolerance']:.3g})")
    return problems, digests


def compare(digests: dict, expected: dict, what: str) -> list[str]:
    return [f"{path} differs from {what}" for path in sorted(set(digests) | set(expected))
            if digests.get(path) != expected.get(path)]


def loop(cli, inputs: dict, seconds: float, max_ops: int | None, expected: dict | None,
         recorder: spans.Recorder | None = None) -> list[dict]:
    """Closed loop: ops back to back until the time is up.

    With a recorder, every second op is traced, so drift in the machine's
    speed hits traced and untraced ops alike; the run has at least one of
    each.
    """
    calibration = Calibration()
    ops: list[dict] = []
    least = 1 if recorder is None else 2
    deadline = time.perf_counter() + seconds
    while len(ops) < least or (time.perf_counter() < deadline
                               and (max_ops is None or len(ops) < max_ops)):
        traced = recorder is not None and len(ops) % 2 == 1
        if traced:
            recorder.begin_op()
            recorder.install()
        try:
            elapsed, scaled, codes, stdout, stderr = run_op(cli, inputs["commands"], calibration)
        finally:
            if traced:
                recorder.uninstall()
        if traced:
            recorder.counts["cli.bytes_written"] += len(stdout.encode()) + len(stderr.encode())
            recorder.end_op()
        problems, digests = check_op(inputs, codes, stdout, stderr)
        if expected is None:
            expected = digests
        else:
            problems += compare(digests, expected, "the run's first op")
        ops.append({"seconds": elapsed, "scaled_s": scaled, "problems": problems,
                    "traced": traced})
    return ops


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": openblas}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    import gridmorph.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        print(f"error: imported gridmorph from {cli.__file__}, not from {job['src']}",
              file=sys.stderr)
        return 2
    reference, run = job["sets"]
    result: dict = {"versions": versions(), "phases": {},
                    "calibration_reference_s": Calibration.REFERENCE_S}

    # One op on the default seed: it checks the recorded digests and warms up.
    os.chdir(reference["dir"])
    elapsed, _, codes, stdout, stderr = run_op(cli, reference["commands"], Calibration())
    problems, digests = check_op(reference, codes, stdout, stderr)
    if reference["recorded"] is not None:
        problems += compare(digests, reference["recorded"], "the recorded digest")
    result["reference"] = {"seconds": elapsed, "problems": problems, "digests": digests}

    os.chdir(run["dir"])
    recorder = spans.Recorder() if job["trace"] else None
    ops = loop(cli, run, job["seconds"], job["max_ops"], run["recorded"], recorder)
    result["phases"]["untraced"] = [op for op in ops if not op["traced"]]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if recorder is not None:
        traced = [op for op in ops if op["traced"]]
        stats = recorder.per_op()
        exact = [recorder.exact_counts(s, c) for s, c in zip(stats, recorder.op_counts)]
        for op, values in zip(traced, exact):
            if values != exact[0]:
                op["problems"].append("calls or counts differ from the first traced op")
        result["phases"]["traced"] = traced
        result["layer"] = recorder.layer_metrics()
        result["exact"] = exact[0]
        result["missing"] = recorder.missing
        result["broken"] = sorted(recorder.broken)
        recorder.write(job["spans_path"])

    with open(job["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
