#!/usr/bin/env python3
"""Campaign benchmark: build the benchmark program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload avp-scalar --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1     # every workload, --trace 0 and 1
    python3 perfbench/run.py --selftest

The benchmark package (perfbench/CMakeLists.txt) is configured and built under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of standard output is the run's JSON result. Each run is also appended to a
ledger (perfbench-results/ledger.jsonl next to the build), and its
deterministic counters must repeat exactly those of every earlier run of the
same workload, seed and sources; the avp-scalar and avp-lanes canonical store
digests must agree for the same seed. A mismatch marks the result incorrect
and exits nonzero.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("avp-scalar", "avp-lanes", "long-raw-farm")
RUN_LIMIT_S = 175        # the whole run, build excluded
FIRST_BUILD_LIMIT_S = 880
ENGINE_PAIR = ("avp-scalar", "avp-lanes")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    with open(log_path, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def tail(path, lines=30):
    try:
        return "\n".join(Path(path).read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def build(root, build_dir):
    """Configure (once) and build the benchmark program; None on failure."""
    bench_dir = Path(__file__).resolve().parent
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir.parent / "perfbench-build.log"
    if not (build_dir / "CMakeCache.txt").exists():
        rc = run_logged(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log_path)
        if rc != 0:
            log(f"configure failed:\n{tail(log_path)}")
            return None
    cache = (build_dir / "CMakeCache.txt").read_text(errors="replace")
    if "-fsanitize" in cache:
        log("refusing to measure a sanitizer build")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    # The package's default target is the benchmark program (the library is
    # EXCLUDE_FROM_ALL); building it also regenerates a stale build tree.
    rc = run_logged(["cmake", "--build", str(build_dir), "-j", jobs], log_path)
    if rc != 0:
        log(f"build failed:\n{tail(log_path)}")
        return None
    return build_dir / "campaign_bench"


def source_id(root):
    """Digest of the sources the benchmark program is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root):
    """HEAD of the repository rooted exactly here, else 'none'."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()) != root:
            return "none"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_program(cmd, limit_s):
    """Run the benchmark program in its own process group.

    The group is killed on timeout, and after the program exits.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(limit_s, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"benchmark program exceeded {limit_s:.0f} s and was killed")
        return None, ""
    finally:
        # Fork-call farm workers share the group; none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def check_ledger(ledger, record):
    """Problems found comparing `record` with earlier ledger entries."""
    problems = []
    if not ledger.exists():
        return problems
    for line in ledger.read_text().splitlines():
        try:
            old = json.loads(line)
        except json.JSONDecodeError:
            continue
        same_inputs = all(old.get(k) == record[k] for k in
                          ("seed", "trace", "source_id", "injections", "testcases"))
        if not same_inputs:
            continue
        if (old.get("workload") == record["workload"]
                and old.get("counters") != record["counters"]):
            problems.append(f"deterministic counters {record['counters']} differ "
                            f"from an earlier run's {old.get('counters')}")
        if ({old.get("workload"), record["workload"]} == set(ENGINE_PAIR)
                and old.get("canonical_digest") != record["canonical_digest"]):
            problems.append(f"{record['workload']} canonical digest "
                            f"{record['canonical_digest']} differs from "
                            f"{old.get('workload')}'s {old.get('canonical_digest')}")
    return problems


def run_workload(program, root, build_root, workload, seed, seconds, trace,
                 limit):
    """One measured or traced run: print its output, return its status."""
    results = build_root / "perfbench-results"
    cmd = [str(program), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--work", str(build_root / "perfbench-work" / workload),
           "--results", str(results),
           "--source-id", source_id(root), "--git-sha", git_sha(root)]
    rc, out = run_program(cmd, limit)
    if rc is None:
        return 1
    if rc < 0:
        sys.stdout.write(out)
        log(f"benchmark program killed by {signal.Signals(-rc).name}, "
            "without a result")
        return 1
    lines = out.splitlines()
    record = None
    result = None
    for line in lines:
        if line.startswith("perfbench-record: "):
            record = json.loads(line[len("perfbench-record: "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if record is None or result is None:
        sys.stdout.write(out)
        log(f"benchmark program exited {rc} without a result")
        return rc or 1

    ledger = results / "ledger.jsonl"
    problems = check_ledger(ledger, record)
    for p in problems:
        log(f"CHECK FAILED {p}")
    record["metrics"] = result["metrics"]
    record["finished_unix"] = time.time()
    results.mkdir(parents=True, exist_ok=True)
    with open(ledger, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    if problems:
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return rc if rc != 0 else (1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, measured and traced")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.seed is None:
        ap.error("--seed is required")
    if not args.selftest and (args.workload is None) == (not args.all):
        ap.error("give exactly one of --workload and --all")

    started = time.monotonic()
    root = Path.cwd().resolve()
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    first_build = not (build_root / "perfbench" / "CMakeCache.txt").exists()
    program = build(root, build_root / "perfbench")
    if program is None:
        return 1
    spent = time.monotonic() - started
    # A first run may spend up to FIRST_BUILD_LIMIT_S building; later runs
    # count their (no-op) build against RUN_LIMIT_S.
    limit = (min(RUN_LIMIT_S, FIRST_BUILD_LIMIT_S - spent) if first_build
             else RUN_LIMIT_S - spent)

    if args.selftest:
        rc, out = run_program([str(program), "--selftest", "--work",
                              str(build_root / "perfbench-work")], limit)
        sys.stdout.write(out)
        return 0 if rc == 0 else 1
    if args.all:
        status = 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                status |= run_workload(program, root, build_root, workload,
                                       args.seed, args.seconds, trace,
                                       RUN_LIMIT_S)
        return status
    return run_workload(program, root, build_root, args.workload, args.seed,
                        args.seconds, args.trace, limit)


if __name__ == "__main__":
    sys.exit(main())
