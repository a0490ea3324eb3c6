"""gridmorph benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload paper_figures --seed 1 --seconds 25 --trace 0

Run from anywhere; the program measured is the ``src/gridmorph`` next to
this directory. The run writes its inputs, outputs, run record and (with
--trace 1) its spans under ``.bench_work/<workload>/`` and prints every
metric with its unit to stderr. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.

    python3 bench/run.py --self-test        # tiny sizes: counts repeat, names match
    python3 bench/run.py --record-digests   # re-record digests.json (default seed)

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: BLAS threads per process. The ops are single-threaded Python with small
#: BLAS calls, and one thread keeps the numbers steady on a shared machine.
#: Set before numpy loads (gen.py imports it), so it holds here and in every
#: process started from here.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import spans  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 7
#: A run must end within this many seconds of starting.
RUN_LIMIT_S = 170.0
#: op_p90_s is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100


class BenchError(Exception):
    """The benchmark could not measure; no result line is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for the end_to_end and per_layer lists of BENCHMARK.json."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def measure_setup(env: dict, cwd: Path, runs: int) -> tuple[list[float], list[float]]:
    """Wall times, and times at the reference speed, of fresh interpreters
    that each finish `import gridmorph.cli`."""
    calibration = Calibration()
    wall, scaled = [], []
    for _ in range(runs):
        elapsed, at_reference, done = calibration.scaled(lambda: subprocess.run(
            [sys.executable, "-c", "import gridmorph.cli"], env=env, cwd=cwd,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60))
        if done.returncode != 0:
            raise BenchError("import gridmorph.cli failed:\n" + done.stderr.decode(errors="replace"))
        wall.append(elapsed)
        scaled.append(at_reference)
    return wall, scaled


def input_set(directory: Path, inputs: workloads.Inputs, recorded: dict | None) -> dict:
    for rel, text in inputs.files.items():
        path = directory / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    return {"dir": str(directory), "commands": inputs.commands, "outputs": inputs.outputs,
            "planted": inputs.planted, "coefficients_csv": inputs.coefficients_csv,
            "tolerance": inputs.tolerance, "recorded": recorded}


def run_worker(job: dict, job_path: Path, env: dict, timeout: float) -> dict:
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle, indent=1)
    try:
        done = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                              env=env, cwd=job["sets"][0]["dir"], stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the measured process did not finish within {timeout:.0f} s")
    if done.returncode != 0:
        raise BenchError(f"the measured process exited with {done.returncode}")
    with open(job["result_path"], encoding="utf-8") as handle:
        return json.load(handle)


def ops_per_s(times: list[float]) -> float:
    return len(times) / sum(times)


def load_digests(workload: str) -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            return json.load(handle)[workload]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no recorded digests for {workload} in {DIGESTS.name}: {exc!r}")


def measure(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
            max_ops: int | None = None, setup_runs: int = SETUP_RUNS,
            check_recorded: bool = True) -> tuple[dict, dict]:
    """One run: returns the result line and the run record."""
    started = time.perf_counter()
    if not (SRC / "gridmorph" / "cli.py").is_file():
        raise BenchError(f"no gridmorph sources under {SRC}")
    declared = declared_metrics()
    make = workloads.WORKLOADS[workload]
    # Digests are recorded for the full-size inputs of the default seed only.
    recorded = load_digests(workload) if check_recorded and not tiny else None
    work = WORK / (f"selftest-{workload}" if tiny else workload)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sets = [input_set(work / "ref", make(workloads.DEFAULT_SEED, tiny), recorded),
            input_set(work / "run", make(seed, tiny),
                      recorded if seed == workloads.DEFAULT_SEED else None)]
    env = child_env()
    setup_wall, setup = ([], []) if trace else measure_setup(env, work, setup_runs)
    job = {"src": str(SRC), "sets": sets, "seconds": seconds, "trace": trace,
           "max_ops": max_ops, "spans_path": str(work / "spans.jsonl"),
           "result_path": str(work / "result.json")}
    result = run_worker(job, work / "job.json", env,
                        RUN_LIMIT_S - (time.perf_counter() - started))

    phases = result["phases"]
    ops = [op for phase in phases.values() for op in phase]
    attempted = 1 + len(ops)
    problems = result["reference"]["problems"] + [p for op in ops for p in op["problems"]]
    failed = (1 if result["reference"]["problems"] else 0) + sum(1 for op in ops if op["problems"])
    times = [op["scaled_s"] for op in phases["untraced"]]
    wall = [op["seconds"] for op in phases["untraced"]]
    extras: dict = {
        "failed_ops_ratio": {"value": failed / attempted, "unit": "ratio"},
        "setup_wall_s": {"value": statistics.median(setup_wall) if setup_wall else 0.0,
                         "unit": "s"},
        "op_p50_wall_s": {"value": statistics.median(wall), "unit": "s"},
        "ops_per_s_wall": {"value": ops_per_s(wall), "unit": "1/s"},
        "machine_slowdown": {"value": statistics.median(w / t for w, t in zip(wall, times)),
                             "unit": "ratio"},
    }
    if len(times) >= P90_MIN_OPS:
        extras["op_p90_s"] = {"value": statistics.quantiles(times, n=10)[-1], "unit": "s"}
    if trace:
        values = dict(result["layer"])
        values["trace.untraced_ops_per_s"] = ops_per_s(times)
        values["trace.traced_ops_per_s"] = ops_per_s([op["scaled_s"] for op in phases["traced"]])
        values["trace.slowdown"] = (values["trace.untraced_ops_per_s"]
                                    / values["trace.traced_ops_per_s"])
        units = dict(spans.LAYER_METRICS)
        kind = "per_layer"
    else:
        values = {"setup_s": statistics.median(setup), "ops_per_s": ops_per_s(times),
                  "op_p50_s": statistics.median(times),
                  "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}
        kind = "end_to_end"
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared[kind]:
        raise BenchError(f"emitted {kind} metrics {sorted(emitted.items())} do not match "
                         f"BENCHMARK.json {sorted(declared[kind].items())}")

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "default_seed": workloads.DEFAULT_SEED,
        "tiny": tiny, "trace": trace, "seconds": seconds, "commit": git_commit(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, **result["versions"],
        "commands": sets[1]["commands"],
        "ops": {phase: len(phase_ops) for phase, phase_ops in phases.items()},
        "samples": {"setup_s": len(setup), "op_p50_s": len(times),
                    "op_p90_s": len(times) if "op_p90_s" in extras else 0},
        "setup_wall_s": setup_wall, "setup_scaled_s": setup,
        "op_wall_s": wall, "op_scaled_s": times,
        "calibration_reference_s": result["calibration_reference_s"],
        "metrics": metrics, "extras": extras, "result": line,
        "problems": problems[:20], "reference_digests": result["reference"]["digests"],
        "exact_counts": result.get("exact"),
        "missing_targets": result.get("missing", []), "broken_hooks": result.get("broken", []),
    }
    with open(work / "record.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return line, record


def report(record: dict) -> None:
    """Every metric by name with its unit, and what failed, on stderr."""
    ops = ", ".join(f"{n} {phase}" for phase, n in record["ops"].items())
    print(f"{record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"ops: {ops} (+1 reference on seed {record['default_seed']})  "
          f"failed {record['result']['failed']} of {record['result']['attempted']}",
          file=sys.stderr)
    rows = dict(record["metrics"], **record["extras"])
    for name, metric in rows.items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    if "op_p90_s" not in rows:
        print(f"  {'op_p90_s':<42} {'n/a':>16} (fewer than {P90_MIN_OPS} ops)", file=sys.stderr)
    for line in record["problems"]:
        print(f"  problem: {line}", file=sys.stderr)
    for key in ("missing_targets", "broken_hooks"):
        if record[key]:
            print(f"  {key.replace('_', ' ')}: {', '.join(record[key])}", file=sys.stderr)


def self_test() -> int:
    """At tiny sizes: no op fails, metric names match BENCHMARK.json, counts repeat."""
    failures = []
    for name in workloads.WORKLOADS:
        line, _ = measure(name, 1, 60.0, False, tiny=True, max_ops=2, setup_runs=1)
        first_line, first = measure(name, 1, 60.0, True, tiny=True, max_ops=4)
        second_line, second = measure(name, 1, 60.0, True, tiny=True, max_ops=4)
        for result in (line, first_line, second_line):
            if not result["correct"]:
                failures.append(f"{name}: {result['failed']} failed op(s)")
        if first["exact_counts"] != second["exact_counts"]:
            failures.append(f"{name}: exact counts differ between two traced runs")
        if first["missing_targets"] or first["broken_hooks"]:
            failures.append(f"{name}: missing {first['missing_targets']}, "
                            f"broken {first['broken_hooks']}")
        print(f"{name}: {len(first['exact_counts'])} exact counts repeat, "
              f"{len(line['metrics'])} + {len(first_line['metrics'])} metric names match",
              file=sys.stderr)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def record_digests() -> int:
    """Write the output digests of the default seed's op for every workload."""
    digests = {}
    for name in workloads.WORKLOADS:
        line, record = measure(name, workloads.DEFAULT_SEED, 0.0, False, max_ops=1,
                               setup_runs=1, check_recorded=False)
        if not line["correct"]:
            report(record)
            return 1
        digests[name] = record["reference_digests"]
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            parser.error("--workload is required")
        line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
