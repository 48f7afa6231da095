#!/usr/bin/env python3
"""Build and run the t1map benchmark program (perfbench/src) on one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload in turn with the same options and
exits non-zero unless every run succeeds with all its checks passing.

t1bench is configured and built from source on first use, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), and rebuilt
when sources change.  Build output goes to stderr; stdout is the t1bench
report, whose last line is the JSON result.  Scratch files (serve cache
directories, Unix sockets, Chrome traces) go to .bench_build/run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table1", "verify", "verify_par", "serve")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no t1map sources at {ROOT / 'src'}; run from a full checkout")
    env = dict(os.environ, CCACHE_DISABLE="1")
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(out_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "t1bench",
                  "-j", "3"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("building t1bench failed: " + " ".join(step))
    return out_dir / "t1bench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_timeout_s(seconds):
    """A run measures for `seconds`, then may finish one pass and its
    checks; set-up and the untimed oracle runs come on top.  Twice the
    measured time plus 90 s covers all of that with room to spare."""
    return 2 * seconds + 90


def run_workload(binary, workload, args, work_dir):
    """Runs t1bench on one workload, echoing its report; returns the exit
    code and whether the result line says every check passed."""
    command = [str(binary), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--commit", git_commit(),
               "--source-digest", source_digest(), "--work-dir", work_dir]
    timeout = run_timeout_s(args.seconds)
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=timeout,
                                stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"t1bench exceeded {timeout} s on {workload} and was stopped")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    try:
        correct = json.loads(result.stdout.strip().splitlines()[-1])["correct"]
    except (IndexError, ValueError, KeyError, TypeError):
        correct = False
    return result.returncode, correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.relpath(out_dir.parent / "run", ROOT)
    if args.workload != "all":
        return run_workload(binary, args.workload, args, work_dir)[0]
    failed = [w for w in WORKLOADS
              if run_workload(binary, w, args, work_dir) != (0, True)]
    print("perfbench: all workloads: " +
          (f"FAILED {', '.join(failed)}" if failed else "every check passed"),
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
