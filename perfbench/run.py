#!/usr/bin/env python3
"""End-to-end benchmark of tribvote: build, self-test, run one workload.

    python3 perfbench/run.py --workload paper_n100 --seed 7 --seconds 30 --trace 0

Workloads: those BENCHMARK.json lists (paper_n100, crowd_n200,
net_loopback), or "all" (every workload, untraced then traced). --trace 1
runs the traced variant, which reports the per-layer metrics and a profile
table. --record FILE (with --workload all)
also writes the results and their provenance to FILE; it refuses a build
that is not Release.

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) built
against the repository's src/ libraries, in $CARGO_TARGET_DIR/perfbench when
that variable is set, else in .bench_build/perfbench. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure (once) and build the driver and self-test in Release."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no tribvote sources next to perfbench/ (src/CMakeLists.txt)", 2)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    selftest = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode:
        sys.stderr.write(selftest.stdout)
        fail("perfbench_selftest failed")


def load_spec():
    """BENCHMARK.json: the workload names and metric lists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at the repository root", 2)
    with open(path) as f:
        return json.load(f)


def order_metrics(workload, reported, listed, required):
    """The driver's metrics in the order BENCHMARK.json lists them, each
    with its listed unit. A per-layer metric the workload does not exercise
    reads 0; a missing end-to-end (required) metric, another unit or an
    unlisted name is a benchmark bug."""
    ordered = {}
    for entry in listed:
        metric = reported.pop(entry["name"], None)
        if metric is None:
            if required:
                fail("%s did not report %s" % (workload, entry["name"]))
            metric = {"value": 0, "unit": entry["unit"]}
        if metric["unit"] != entry["unit"]:
            fail("%s reported %s in %s, BENCHMARK.json lists %s"
                 % (workload, entry["name"], metric["unit"], entry["unit"]))
        ordered[entry["name"]] = metric
    if reported:
        fail("%s reported metrics BENCHMARK.json does not list: %s"
             % (workload, ", ".join(reported)))
    return ordered


def run_workload(bdir, spec, workload, seed, seconds, trace):
    """Run the driver once; echo its output; return its JSON result and
    every metric its table printed."""
    cmd = [os.path.join(bdir, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    # Own process group, so a timeout also stops net_loopback's responder.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(err)
    if proc.returncode:
        fail("%s exited with %d" % (workload, proc.returncode))
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    result["metrics"] = order_metrics(
        workload, result["metrics"],
        spec["per_layer"] if trace else spec["end_to_end"], not trace)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return result, printed_metrics(lines[:-1])


def printed_metrics(lines):
    """The "name value unit" rows of the driver's metric table."""
    rows = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] != "metric":
            try:
                rows[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
            except ValueError:
                pass
    return rows


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(bdir, seed):
    out = subprocess.run([os.path.join(bdir, "perfbench_driver"), "--provenance"],
                         capture_output=True, text=True, check=True)
    info = json.loads(out.stdout)
    info.update({
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    })
    return info


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="with --workload all: write results + provenance")
    args = parser.parse_args()
    if args.record and args.workload != "all":
        fail("--record needs --workload all", 2)

    bdir = build_dir()
    build(bdir)
    if args.workload != "all":
        result, _ = run_workload(bdir, spec, args.workload, args.seed,
                                 args.seconds, bool(args.trace))
        print(json.dumps(result))
        return

    info = provenance(bdir, args.seed)
    print("provenance " + json.dumps(info))
    if args.record and (info["build_type"] != "Release" or not info["ndebug"]):
        fail("refusing to record from a %s build" % info["build_type"])
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    recorded = {"provenance": info, "workloads": {}}
    for workload in workloads:
        for trace in (False, True):
            result, printed = run_workload(bdir, spec, workload, args.seed,
                                           args.seconds, trace)
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][workload + "." + name] = metric
            recorded["workloads"].setdefault(workload, {}).update(
                {("traced" if trace else "untraced"):
                 dict(result, printed=printed)})
    if args.record:
        with open(args.record, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
        print("recorded " + args.record)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
