#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload search_wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test            # in-process == TCP oracle

Run it from anywhere inside a checkout: the repository root is the parent of
this file's directory. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), and results and span traces to the state/
directory beside it. The last line of standard output
is the run's result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench",
         "fedfc_serve"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources built."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
             if p.is_file()]
    files.append(ROOT / "tools" / "fedfc_serve.cc")
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def run(cmd):
    """Runs the benchmark binary in its own session; kills it on timeout
    and when this script is interrupted or terminated."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check search_wide over TCP against in-process")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    if not (ROOT / "src").is_dir() or not build(out):
        log("cannot build the program under test")
        return 1
    binary = out / "perfbench"
    common = ["--seed", str(args.seed), "--root", str(ROOT),
              "--state-dir", str(out / "state")]
    if args.self_test:
        code, text = run([str(binary), "--self-test"] + common)
        sys.stdout.write(text)
        return code

    code, text = run([str(binary), "--workload", args.workload,
                      "--trace", str(args.trace), "--seconds", str(args.seconds),
                      "--serve-bin", str(out / "fedfc_serve"),
                      "--source-id", source_id()] + common)
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if code != 0 or not isinstance(result, dict) or "metrics" not in result:
        log(f"benchmark failed (exit {code}) without a result")
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
