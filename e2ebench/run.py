#!/usr/bin/env python3
"""Builds and runs the iFDK end-to-end benchmark.

Usage (from the root of an iFDK checkout):

    python3 e2ebench/run.py --workload fdk_bp_bound --seed 1 --seconds 25 \
        --trace 0

The C++ harness is configured and built (Release) under the build directory
named by $CARGO_TARGET_DIR, else `.bench_build/`, then run with the same
arguments. Traced runs (--trace 1) write a Chrome trace-event file under
`<build dir>/traces/`. The harness's last stdout line is the JSON result; the
exit code is the harness's (nonzero on any failed request or build error).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configures (once) and builds the harness; returns its path."""
    build_dir = os.path.join(build_root, "e2ebench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                if step is not steps[-1]:
                    # A failed configure can leave a half-written cache;
                    # drop the tree so the next run configures afresh.
                    shutil.rmtree(build_dir, ignore_errors=True)
                    fail("cmake configure failed")
                fail(f"build failed; see {log_path}")
    return os.path.join(build_dir, "ifdk_e2ebench")


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"{ROOT} is not an iFDK checkout (CMakeLists.txt or src/ missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_root = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(build_root)

    # Every argument goes to the harness; a traced run without --trace-out
    # gets a trace file under the build directory.
    known = argparse.ArgumentParser(add_help=False)
    known.add_argument("--workload", default="run")
    known.add_argument("--seed", default="0")
    known.add_argument("--trace", default="0")
    known.add_argument("--trace-out")
    opts, _ = known.parse_known_args(argv)
    args = list(argv)
    if opts.trace != "0" and opts.trace_out is None:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(trace_dir, f"{opts.workload}-seed{opts.seed}.json")]

    proc = subprocess.Popen([binary] + args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
