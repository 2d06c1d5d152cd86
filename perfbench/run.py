#!/usr/bin/env python3
"""Repository benchmark for the S-CORE reproduction.

Builds the benchmark driver from the checkout's sources (first use only),
runs one workload and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Lines before it are a human-readable
report: every metric with its unit, quartiles and sample count, which per-layer
values are computed, failures, and the second-seed pass.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the repository root. See perfbench/README.md for the workloads.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "perfbench"
WORKLOADS = ("converge", "distributed", "stream", "control-plane")
# The driver process must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 150
DETERMINISTIC = ("cost_reduction_pct", "cost_ratio_vs_fresh", "sim_converge_s",
                 "control_mb")


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, unit in list(e2e.items()) + list(layers.items()):
        if not stats.valid_metric_name(name) or not stats.valid_unit(unit):
            raise BenchError("invalid metric declaration %r [%r]" % (name, unit))
    return e2e, layers


def build():
    """Configure (once) and build the driver and the agent daemon."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no S-CORE sources next to perfbench/ (src/ missing)")
    build_dir = ROOT / BUILD
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4", "--target",
                    "perfbench_driver", "score_agent"],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return build_dir / "perfbench_driver"


def run_driver(binary, workload, seed, seconds, trace):
    """Run the driver in its own process group; returns its raw record."""
    workdir = BUILD / "run"
    (ROOT / workdir).mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out after %d s" % RUN_TIMEOUT_S
    finally:
        # Agent daemons share the group; none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "driver exited with %s" % proc.returncode
    return json.loads(lines[-1]), None


def check_repeats(raw):
    """Deterministic values must repeat bit for bit across repetitions;
    returns one failure per repetition that differs from the first."""
    failures = []
    for key, values in sorted(raw["exact"].items()):
        for i, v in enumerate(values[1:], start=1):
            if v != values[0]:
                failures.append("%s differs in repetition %d: %r vs %r"
                                % (key, i, v, values[0]))
    return failures


def end_to_end_metrics(raw):
    timing, exact, once = raw["timing"], raw["exact"], raw["once"]
    values = {
        "setup_s": stats.median(timing["setup_s"]),
        "run_s": stats.median(timing["run_s"]),
        "updates_per_s": stats.median(timing["updates_per_s"]),
        "peak_rss_mb": once["peak_rss_mb"],
    }
    for key in DETERMINISTIC:
        values[key] = exact[key][0]
    return values


def per_layer_metrics(raw, declared):
    """Per-layer values; layers a workload does not run report 0."""
    values = {name: 0.0 for name in declared}
    computed = set()
    for name, layer in raw["layers"].items():
        values[name] = layer["value"]
        if layer["computed"]:
            computed.add(name)
    deliver = raw["distributions"].get("hypervisor.remote_deliver_us")
    if deliver:
        values["hypervisor.remote_deliver_p50_us"] = stats.percentile(deliver, 50)
        values["hypervisor.remote_deliver_p99_us"] = stats.percentile(deliver, 99)
        values["hypervisor.remote_deliver_samples"] = len(deliver)
    measured = set(raw["layers"]) | (
        {"hypervisor.remote_deliver_p50_us", "hypervisor.remote_deliver_p99_us",
         "hypervisor.remote_deliver_samples"} if deliver else set())
    return values, computed, measured


def result_for(raw, trace, e2e_units, layer_units):
    """The result line's fields plus report lines for one workload."""
    failures = list(raw["failures"])
    attempted, failed = raw["attempted"], raw["failed"]
    repeat_failures = check_repeats(raw)
    failures += repeat_failures
    failed += len(repeat_failures)
    report = []
    metrics = {}
    try:
        if trace:
            values, computed, measured = per_layer_metrics(raw, layer_units)
            units = layer_units
        else:
            values, computed, measured = end_to_end_metrics(raw), set(), set(e2e_units)
            units = e2e_units
        extra = set(values) - set(units)
        if extra:
            raise BenchError("undeclared metrics: %s" % ", ".join(sorted(extra)))
        not_run = []
        for name, unit in units.items():
            v = values[name]
            if v is None or not math.isfinite(v):
                raise BenchError("metric %s is not a finite number" % name)
            metrics[name] = {"value": v, "unit": unit}
            if name not in measured:
                not_run.append(name)
                continue
            tag = "computed" if name in computed else "measured"
            report.append("  %-40s %16.6g %-8s %s" % (name, v, unit, tag))
        if not_run:
            report.append("  n/a, reported as 0 (layer not run here): " +
                          ", ".join(not_run))
    except (BenchError, KeyError, ValueError) as e:
        # Metrics missing after failed operations are explained by them; with
        # no failed operation the record itself is broken.
        failures.append("result: %s" % e)
        failed = max(failed, 1)
        metrics = {}
    if not trace and raw["timing"]:
        for key in ("setup_s", "run_s", "updates_per_s"):
            if raw["timing"].get(key):
                report.append("  %-14s %s" % (key, stats.describe(raw["timing"][key])))
    for name, samples in sorted(raw["distributions"].items()):
        if samples:
            report.append("  %-14s %s" % (name, stats.describe(samples)))
    for key, v in sorted(raw["once"].items()):
        report.append("  once: %s = %.6g" % (key, v))
    if raw["second_seed"]:
        report.append("  second seed: " + ", ".join(
            "%s=%.6g" % kv for kv in sorted(raw["second_seed"].items())))
    for f in failures:
        report.append("  FAILED: " + f)
    correct = failed == 0 and bool(metrics) and attempted >= 1
    return correct, max(attempted, 1), failed, metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    try:
        e2e_units, layer_units = declared_metrics()
        binary = build()
    except (BenchError, OSError, ValueError, subprocess.CalledProcessError) as e:
        log("perfbench: cannot build or configure: %s" % e)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        raw, error = run_driver(binary, workload, args.seed, args.seconds,
                                bool(args.trace))
        if raw is None:
            raw = {"attempted": 1, "failed": 1, "failures": [error], "timing": {},
                   "exact": {}, "once": {}, "layers": {}, "distributions": {},
                   "second_seed": {}}
        correct, n, f, m, report = result_for(raw, bool(args.trace), e2e_units,
                                              layer_units)
        print("== %s (seed %d, trace %d): %s, %d ops, %d failed"
              % (workload, args.seed, args.trace, "ok" if correct else "FAILED",
                 n, f))
        print("\n".join(report))
        all_correct = all_correct and correct
        attempted += n
        failed += f
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({"%s.%s" % (workload, k): v for k, v in m.items()})
    print(json.dumps({"correct": all_correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
