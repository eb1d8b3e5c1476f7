#!/usr/bin/env python3
"""Build and run the native receive-path benchmark.

    python3 rxbench/run.py --workload udp64 --seed 1 --seconds 20 --trace 0

Builds rxbench/ (a CMake package over the repository's src/) into
.bench_build/rxbench at the repository root, then runs the benchmark with
the given arguments. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the traced run's
spans are written to .bench_build/rxbench/spans-<workload>.tsv.
"""
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rxbench")


def run(cmd, **kwargs):
    """Run cmd to completion; a SIGTERM/SIGINT to us is passed on to it."""
    proc = subprocess.Popen(cmd, **kwargs)

    def forward(signum, _frame):
        proc.send_signal(signum)

    signals = (signal.SIGTERM, signal.SIGINT)
    old = {s: signal.signal(s, forward) for s in signals}
    try:
        return proc.wait()
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)


def build():
    generated = any(os.path.exists(os.path.join(BUILD, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", BUILD, "--target", "rxbench", "-j", jobs],
               stdout=sys.stderr) == 0


def flag(args, name):
    """Value following `name` in args, or None."""
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main(argv):
    if not build():
        print("rxbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if flag(args, "--trace") == "1":
        workload = flag(args, "--workload") or "run"
        if not re.fullmatch(r"[\w.-]+", workload):
            workload = "run"
        args += ["--spans", os.path.join(BUILD, "spans-%s.tsv" % workload)]
    sys.stdout.flush()
    return run([os.path.join(BUILD, "rxbench")] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
