#!/usr/bin/env python3
"""Build and run the rascad benchmark.

    python3 perfbench/run.py --workload <paper_mix|large_pool|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the `rascad` release binary and the benchmark harness from the
checkout's sources (offline, into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the harness. The last line of standard output
is the JSON result. Build output goes to standard error. Any failure
exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "harness"
RUN_TIMEOUT_S = 170


def build(target: Path) -> None:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "rascad-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HARNESS / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def reap(group: int) -> None:
    """Stops anything the harness left in its process group and waits
    until the group is empty."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main() -> int:
    for name in ("Cargo.toml", "crates"):
        if not (ROOT / name).exists():
            print(f"perfbench: {ROOT / name} is missing; run from a full checkout", file=sys.stderr)
            return 1
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build(target)
    harness = target / "release" / "perfbench-harness"
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += ["--rascad", str(target / "release" / "rascad")]
    env = dict(os.environ, RASCAD_FLIGHT_PATH=str(target / "perfbench-flight.jsonl"))
    proc = subprocess.Popen([str(harness), *args], cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        reap(proc.pid)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
