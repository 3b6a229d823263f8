#!/usr/bin/env python3
"""Build the INFless simulator benchmark from this checkout and run it.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program's libraries are compiled from ../src together with the
benchmark, in Release, into perfbench/build/. Build output goes to
stderr; stdout carries the benchmark's report, whose last line is the
result as one JSON object. Span files go to perfbench/out/. Without the
program's sources next to the benchmark the command fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "perfbench")


def fail(why):
    print("perfbench: " + why, file=sys.stderr)
    sys.exit(1)


def src_digest():
    """SHA-256 over the paths and contents of every file under src/."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or 'unknown' when it is not a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(ROOT):
            return "unknown"
        commit = git("rev-parse", "HEAD")
        return commit + ("-dirty" if git("status", "--porcelain", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at %s; run from a full checkout" %
             os.path.join(ROOT, "src"))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                ["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, *sys.argv[1:], "--commit", git_commit(),
           "--src-digest", src_digest(), "--out", OUT]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
