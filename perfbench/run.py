#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload local_monitor --seed 1 --seconds 10 --trace 0

Workloads: local_monitor, spark_column (see perfbench/README.md).
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
and writes the spans to perfbench/out/trace/. The first call builds the
program from source (perfbench/build.py). Exits non-zero, without a result
line, when the build, the run or the result check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import build  # noqa: E402

WORKLOADS = ("local_monitor", "spark_column")
RUN_TIMEOUT_S = 170
# A fixed 2 GiB young generation under a single-threaded throughput
# collector: the sorts behind `quantile` allocate about 2.5 MB a call, and
# with G1's adaptive sizing, or several collector threads copying a sketch's
# boxed items in racing order, tail latencies and the heap layout that
# `quantile` and `rank` walk varied from run to run.
JVM_HEAP = ["-XX:+UseParallelGC", "-XX:ParallelGCThreads=1", "-Xms4g", "-Xmx4g", "-Xmn2g"]
# JIT compiles that block the thread that asked for them. In the background a
# method's compiled code depends on how far its profile had come when a
# compiler thread got to it, which the host's timing decides: `quantile`,
# `rank` and the updates ran up to 1.5x slower in some runs than in others.
# A blocking compile happens at the same point of the program in every run.
JIT = ["-Xbatch"]

# Module opens Spark's own launcher passes to a Java 17 driver.
JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def parse():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (isinstance(r, dict) and set(r) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(r["attempted"], int) and r["attempted"] >= 1
            and isinstance(r["failed"], int) and isinstance(r["metrics"], dict)
            and set(r["metrics"]) == expected_metrics(trace))


def main():
    args = parse()
    try:
        cp = build.ensure_built()
    except build.BuildError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    out = build.OUT
    tmp = out / "tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [build.java_bin()] + JVM_HEAP + JIT + [f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={build.BENCH / 'log4j2.properties'}"] + JAVA_OPENS + [
        "-cp", cp, "repro.perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out), "--tmp", str(tmp)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not valid_result(lines[-1], args.trace):
        sys.stdout.write("\n".join(line for line in lines if not line.startswith("{")) + "\n")
        print(f"perfbench: run failed (exit {done.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
