#!/usr/bin/env python3
"""Build and run the repository benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload sort_mem --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds the `perfbench` package
(release, offline) into $CARGO_TARGET_DIR, default `.bench_build`, runs
one workload in a fresh scratch directory under `.bench_tmp`, and prints
the run's metadata line followed, as the last line, by the result object
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. Any build or run
failure exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sort_mem", "sort_file_lat30", "listrank_file_ckpt")
# The build of a fresh checkout may take long; a run must end well
# within three minutes of its measuring time.
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 120


def source_id():
    """The git commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "third_party", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml", ".lock"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {build.returncode})")

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--tmp", str(tmp),
        "--commit", source_id(),
    ]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + RUN_SLACK_S,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if run.returncode != 0:
        sys.exit(f"perfbench: run failed (exit {run.returncode})")
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
