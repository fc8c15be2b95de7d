#!/usr/bin/env python3
"""Builds and runs the bytebrain service benchmark.

One run of one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: parse_loghub2 (offline Train + MatchAll over the 14
LogHub-2.0 specs), query_mixed (index-backed wire queries beside an
open-loop writer), and ingest_durable (closed-loop IngestBatch over
loopback sockets into group-commit disk topics with live retrains; its
figures swing with background retrain timing, so BENCHMARK.json does not
list it). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones of the traced run (its
spans go to <build>/spans/). The end-to-end names are shared by every
workload: throughput is logs/s or queries/s, p50_ms/p99_ms are per
dataset parse or per query, ga is the grouping accuracy; each run also
prints its workload's own metric names (parse_logs_per_s, query_p99_ms,
mixed_ingest_p99_ms, ...) with units above the JSON line.

    python3 perfbench/run.py --self-test

runs every workload at tiny sizes, checks that each declared metric is
printed with its unit, and that deliberately corrupted results (a dropped
ack, a dropped page, scrambled groups) fail the output checks.

The library is built from the enclosing checkout with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); scratch
storage lives under that directory and is removed after each run.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("parse_loghub2", "ingest_durable", "query_mixed")
DRIVER_TIMEOUT_S = 170

# The workload metrics each run prints for the reader besides the
# declared ones (the names the per-workload rows are discussed under).
NAMED_METRICS = {
    "parse_loghub2": ["parse_logs_per_s", "parse_ga", "peak_rss_mb"],
    "ingest_durable": ["ingest_logs_per_s", "ingest_batch_p50_ms",
                       "ingest_batch_p99_ms", "ingest_ga",
                       "disk_bytes_per_input_byte", "peak_rss_mb"],
    "query_mixed": ["queries_per_s", "query_p50_ms", "query_p99_ms",
                    "mixed_ingest_p99_ms", "peak_rss_mb"],
}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no bytebrain sources next to perfbench/ (expected ../src)")
    out = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit code, stdout text)."""
    tmp = os.path.join(build_root(), "tmp", "%s-%d" % (workload, os.getpid()))
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp", tmp]
    if trace:
        cmd += ["--spans", os.path.join(build_root(), "spans",
                                        "%s-seed%s.jsonl" % (workload, seed))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        code = 124
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        out += "\nperfbench: driver timed out after %d s\n" % DRIVER_TIMEOUT_S
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return code, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_test(driver):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            label = "%s trace=%d" % (workload, trace)
            code, out = run_driver(driver, workload, 7, 1, trace, ["--tiny"])
            result = last_json(out)
            if code != 0 or result is None or result.get("correct") is not True:
                problems.append("%s: exit %d, result %r" % (label, code, result))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"} \
                    or result["attempted"] < 1:
                problems.append("%s: malformed result %r" % (label, result))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append("%s: metrics/units %r != declared %r" %
                                (label, got, declared[trace]))
            for name in NAMED_METRICS[workload]:
                if not re.search(r"^\s+%s\s+\S+\s+\S+" % re.escape(name), out, re.M):
                    problems.append("%s: %s not printed with a unit" % (label, name))
            print("self-test: %-28s ok" % label)
    corruptions = [("ingest_durable", "drop_ack", "acked sequence numbers"),
                   ("query_mixed", "drop_page", "paged counts"),
                   ("parse_loghub2", "scramble_groups", "grouping accuracy")]
    for workload, mode, expect in corruptions:
        label = "%s --corrupt %s" % (workload, mode)
        code, out = run_driver(driver, workload, 7, 1, False,
                               ["--tiny", "--corrupt", mode])
        result = last_json(out)
        if code == 0 or result is None or result.get("correct") is not False \
                or expect not in out:
            problems.append("%s: expected a failed check, got exit %d" %
                            (label, code))
        else:
            print("self-test: %-28s fails as it should" % label)
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    driver = build()
    if args.self_test:
        sys.exit(self_test(driver))
    code, out = run_driver(driver, args.workload, args.seed, args.seconds,
                           args.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0 and last_json(out) is None:
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
