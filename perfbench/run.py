#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload pay-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The OCaml program is built with dune
into .bench_build/ and run with the same arguments; its last line of
standard output is the result object (see perfbench/NOTES.md). With
--trace 1 the span log is written to .bench_build/perfbench/.
Exits non-zero, printing no result, when the sources are missing or
the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("pay-hot", "pay-wide")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "main.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"perfbench: {need} not found under {ROOT}; "
                     "run from the root of a full checkout")

    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled",
         "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, timeout=700)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")

    out_dir = os.path.join(BUILD_DIR, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.tsv")]
    # The runtime's event ring (traced run) lives beside the build.
    # One Dpool domain: a second domain makes every minor GC a
    # stop-the-world across both CPUs of a small machine, so the
    # figures would follow the other CPU's load (see NOTES.md).
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=out_dir,
               DPOOL_DOMAINS="1")
    run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=170)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
