#!/usr/bin/env python3
"""Build and run the dsmcheck benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scale_push --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe with dune (build output goes to stderr), stamps
the run with the commit it measures, and runs it. The last line of
standard output is the result JSON; the exit code is the benchmark's own
(non-zero when the build or any correctness check fails). See README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def commit_id():
    """The git commit, or a digest of the sources when not in a git tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return source_digest()
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def source_digest():
    """A digest of the sources the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("_"))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build():
    """Builds bench.exe; True on success. Build output goes to stderr."""
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    args = [exe] + sys.argv[1:] + [
        "--commit", commit_id(),
        "--out-dir", os.path.join(HERE, "_out"),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
