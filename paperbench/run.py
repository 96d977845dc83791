#!/usr/bin/env python3
"""Builds and runs the paper benchmark.

Run from the root of the repository:

  python3 paperbench/run.py --workload paper-cold --seed 0 --seconds 25 --trace 0
  python3 paperbench/run.py --steadiness 5 [--workloads paper-warm] [--seconds S]
  python3 paperbench/run.py --unit-tests
  python3 paperbench/run.py --write-manifest

Every mode first builds paperbench/ (and the library from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; build output goes to
stderr.  A run prints its metrics and, as the last line of stdout, one JSON
result object (see paperbench/README.md).
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-cold", "paper-warm", "serve-cells"]


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures once, then builds incrementally; exits 1 on failure."""
    out = build_dir()
    if not (os.path.exists(os.path.join(out, "build.ninja"))
            or os.path.exists(os.path.join(out, "Makefile"))):
        cmd = ["cmake", "-S", HERE, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would skip configure next time.
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("paperbench: configure failed")
    cmd = ["cmake", "--build", out, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("paperbench: build failed")
    return os.path.join(out, "paperbench")


def run_args(binary, args):
    out = build_dir()
    return [binary, *args,
            "--work-dir", os.path.join(out, "work-%d" % os.getpid()),
            "--trace-file", os.path.join(out, "trace-%s.json" % args[1])]


def steadiness(repeats, workloads, seconds, first_seed):
    """Runs each workload `repeats` times on seeds first_seed.. and prints
    each end-to-end metric's median, quartiles and IQR/median."""
    for workload in workloads:
        runs = []
        for seed in range(first_seed, first_seed + repeats):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            ok = proc.returncode == 0 and result and result["correct"]
            values = " ".join(
                "%s=%.5g" % (k, v["value"])
                for k, v in (result["metrics"].items() if result else []))
            print("%s seed=%d exit=%d correct=%s %s" %
                  (workload, seed, proc.returncode, bool(ok), values),
                  flush=True)
            if result:
                runs.append(result["metrics"])
        if not runs:
            continue
        print("%-28s %14s %14s %14s %10s" %
              (workload, "q1", "median", "q3", "iqr/med"))
        for name in runs[0]:
            values = [r[name]["value"] for r in runs if name in r]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print("  %-26s %14.6g %14.6g %14.6g %10.4f" %
                  (name, q1, med, q3, spread))
        print(flush=True)


def main(argv):
    if "--steadiness" in argv:
        opts = dict(zip(argv[0::2], argv[1::2]))
        repeats = int(opts["--steadiness"])
        workloads = opts.get("--workloads", ",".join(WORKLOADS)).split(",")
        build()
        seconds = opts.get("--seconds")
        if seconds is None:  # default: the manifest's run length
            with open("BENCHMARK.json") as f:
                seconds = json.load(f)["run_seconds"]
        steadiness(repeats, workloads, int(seconds),
                   int(opts.get("--first-seed", "1")))
        return 0
    binary = build()
    if argv == ["--unit-tests"]:
        return subprocess.run([binary + "_tests"]).returncode
    if argv == ["--write-manifest"]:
        return subprocess.run([binary, "--write-manifest",
                               "BENCHMARK.json"]).returncode
    if len(argv) < 2 or argv[0] != "--workload":
        sys.exit("usage: see the top of paperbench/run.py")
    sys.stdout.flush()
    os.execv(binary, run_args(binary, argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
