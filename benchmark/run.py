#!/usr/bin/env python3
"""Builds cimbench from the checked-out sources, then runs it.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --list

Every run configures and (incrementally) builds benchmark/build in
Release, so the binary always matches the sources and its build
provenance is current; the first run in a fresh tree compiles the library.
Build output goes to stderr, so stdout is cimbench's alone and its last
line is the JSON result. The exit code is cimbench's, or 2 without a
result when the build fails (for example when ../src is absent).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")


def build():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    return subprocess.run([os.path.join(BUILD, "cimbench"),
                           *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
