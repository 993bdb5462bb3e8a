#!/usr/bin/env python3
"""Build and run the texcache repo benchmark (see README.md here).

    python3 benchmark/run.py              every workload once, seed 1
    python3 benchmark/run.py --traced     ... and each once more traced
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
the bench program, the texcached daemon and its texcached_load driver
under .bench_build/ (about a minute on four cores); later calls
configure again, which picks up the current git SHA, and rebuild only
what changed. Each
workload runs in a bench process of its own, so peak memory is per
workload. Its spill files, socket, logs and Chrome traces live in
.bench_build/work/<workload>/; the spill files and the socket are
gone when the run ends.

For one workload the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics (each metric a value and
its unit). Every run also writes a result file - metrics, digests of
the checked outputs and a host record - to --out (default
.bench_build/results/). The exit code is 0 only when every checked
output matched and every metric was reported.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BENCH_BIN = BUILD_DIR / "texcache_bench"
DAEMON = BUILD_DIR / "texcache" / "tools" / "texcached"
LOAD = BUILD_DIR / "texcache" / "tools" / "texcached_load"
EXPECTED = BENCH_DIR / "expected.json"

# One workload run must end well inside the 180 s a benchmark run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)


def build():
    """Configure and build the bench program and the service tools.
    Configuring every time keeps the git SHA of the host record right
    after a checkout; with a cache in place it takes about a second."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the texcache sources (CMakeLists.txt, src/) are not beside "
             "benchmark/", 2)
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" \
            not in cache.read_text(errors="replace"):
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    BUILD_DIR.mkdir(exist_ok=True)
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(BUILD_DIR / "tmp"))
    (BUILD_DIR / "tmp").mkdir(exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD_DIR), "--target",
              "texcache_bench", "-j", jobs]]
    log_path = BUILD_DIR / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = str(e)
            if rc != 0:
                tail = log_path.read_text(errors="replace")[-3000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}")


def bench_env(work, trace):
    """The caller's environment without TEXCACHE_* settings, which
    would change what the workloads do, plus the dump directory, which
    also takes any temporary file."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TEXCACHE_")}
    env["TEXCACHE_STATS_DIR"] = str(work)
    env["TMPDIR"] = str(work)
    if trace:
        env["TEXCACHE_TRACE"] = "spans"
    return env


def stop_group(pgid):
    """Kill whatever is left of a bench process group (a daemon
    whose bench process died) and wait until none of it remains."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_bench(workload, seed, seconds, trace):
    """One bench process; returns its parsed result line or None."""
    work = BUILD_DIR / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(BENCH_BIN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work", str(work.relative_to(ROOT)),
           "--daemon", str(DAEMON), "--load", str(LOAD),
           "--expected", str(EXPECTED)]
    with open(work / "bench.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=bench_env(work, trace),
                                stdout=subprocess.PIPE, stderr=log,
                                start_new_session=True, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop_group(proc.pid)
            proc.communicate()
            print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return None
        finally:
            stop_group(proc.pid)
    shutil.rmtree(work / "spill", ignore_errors=True)
    (work / "texcached.sock").unlink(missing_ok=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (work / "bench.log").read_text(errors="replace")[-3000:]
        print(f"run.py: {workload} bench process exited {proc.returncode}:\n{tail}",
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print(f"run.py: {workload} printed no result line", file=sys.stderr)
        return None


def run_one(spec, workload, seed, seconds, trace, out_dir):
    """Run, check and record one workload; returns the result object."""
    specs = spec["per_layer" if trace else "end_to_end"]
    raw = run_bench(workload, seed, seconds, trace)
    if raw is None:
        return None
    metrics = {}
    for m in specs:
        # A layer the workload does not use is reported as 0.
        value = raw["metrics"].get(m["name"], 0 if trace else None)
        if not isinstance(value, (int, float)):
            print(f"run.py: {workload} did not report {m['name']}",
                  file=sys.stderr)
            return None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = set(raw["metrics"]) - set(metrics)
    if extra:
        print(f"run.py: {workload} reported unknown metrics {sorted(extra)}",
              file=sys.stderr)
        return None
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    result = {"correct": failed == 0 and attempted >= 1,
              "attempted": attempted, "failed": failed, "metrics": metrics}

    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), **result, "digests": raw["digests"],
              "host": raw["host"]}
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(out_dir / name, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    for mname, m in metrics.items():
        print(f"{workload:<15} {mname:<30} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:<15} {'failed_frac':<30} "
          f"{failed / max(attempted, 1):>16.6g} failed/attempted "
          f"({failed} of {attempted})")
    return result


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report the per-layer metrics instead")
    ap.add_argument("--traced", action="store_true",
                    help="with every workload: also run each traced")
    ap.add_argument("--out", type=Path, default=BUILD_DIR / "results",
                    help="directory for the result files")
    args = ap.parse_args()

    build()
    if args.workload:
        result = run_one(spec, args.workload, args.seed, args.seconds,
                         bool(args.trace), args.out)
        if result is None:
            sys.exit(1)
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)

    ok = True
    for w in names:
        for trace in ([False, True] if args.traced else [bool(args.trace)]):
            result = run_one(spec, w, args.seed, args.seconds, trace,
                             args.out)
            ok = ok and result is not None and result["correct"]
    print("all outputs correct" if ok else "FAILED", file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
