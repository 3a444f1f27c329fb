#!/usr/bin/env python3
"""Builds the stap benchmark driver from source and runs one workload.

Usage, from the repository root:

  python3 perfbench/run.py --workload serve_small|batch_large|approx_corpus \
      --seed N --seconds S --trace 0|1

The first run configures and builds libstap plus the driver into
.bench_build/perfbench (a few minutes); later runs only check that the
build is current. Build output goes to stderr; the driver's stdout passes
through, so its last line is the result JSON. Any further arguments
(--plant, --dump, see src/main.cc) are passed to the driver.
The exit code is the driver's, or 1 if the build fails or the run
overruns its time limit.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "stap_perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(BINARY):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    command = [BINARY] + sys.argv[1:]
    process = subprocess.Popen(command, cwd=ROOT)

    def stop(signum, _frame):
        process.kill()
        process.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print("perfbench: run overran its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
