#!/usr/bin/env python3
"""Repository benchmark: build perfbench/main.exe from source, run a workload,
check its output, and print the result object as the last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-clique --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Workloads, metrics and the statistics behind them: perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

WORKLOADS = ["sweep-clique", "sweep-churn", "serve-mix", "campaign"]
BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
TMP_DIR = os.path.join(".bench_build", "tmp")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def source_rev():
    """Git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", ".c", "dune", "dune-project", ".py")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a rumor checkout (dune-project and lib/ not found)")
    os.makedirs(TMP_DIR, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", "release", "./perfbench/main.exe"]
    # Everything the build writes stays in the checkout: no shared dune
    # cache, compiler temporaries under .bench_build/.
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(TMP_DIR))
    try:
        p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if p.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run_exe(args):
    """Run main.exe in its own process group; return (exit code, stdout lines)."""
    env = dict(os.environ, PERFBENCH_REV=REV, TMPDIR=os.path.abspath(TMP_DIR))
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{' '.join(args)}: timed out after {RUN_TIMEOUT_S} s")
    finally:
        # Forked campaign workers share the group; none may outlive us.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.splitlines()


def validate(result, spec, trace):
    """The result object must carry exactly the declared metrics, finite."""
    want = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    errors = []
    if set(metrics) != {m["name"] for m in want}:
        errors.append("metric names differ from BENCHMARK.json: "
                      f"missing {sorted({m['name'] for m in want} - set(metrics))}, "
                      f"extra {sorted(set(metrics) - {m['name'] for m in want})}")
    for m in want:
        v = metrics.get(m["name"])
        if v is None:
            continue
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            errors.append(f"{m['name']}: value {v.get('value')!r} is not a finite number")
        if v.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {v.get('unit')!r}, declared {m['unit']!r}")
    return errors


def run_workload(spec, workload, seed, seconds, trace, extra=(), quiet=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", *extra]
    code, lines = run_exe(args)
    for line in lines[:-1] if not quiet else []:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {workload}: no result line (exit {code})", file=sys.stderr)
        return None, False
    errors = validate(result, spec, trace)
    for e in errors:
        print(f"perfbench: {workload}: {e}", file=sys.stderr)
    ok = code == 0 and not errors and result.get("correct") is True and result.get("failed") == 0
    if not ok:
        result["correct"] = False
    return result, ok


def smoke(spec):
    """Every workload at tiny size, traced and untraced, every gate on; then
    each workload once more with one output corrupted, which must fail."""
    failures = []
    for w in WORKLOADS:
        for trace in (False, True):
            _, ok = run_workload(spec, w, 1, 0.3, trace, ["--smoke"])
            if not ok:
                failures.append(f"{w} trace={int(trace)} failed")
        _, ok = run_workload(spec, w, 1, 0.3, False, ["--smoke", "--inject-wrong"], quiet=True)
        if ok:
            failures.append(f"{w}: an injected wrong output passed the gates")
        else:
            print(f"smoke: {w}: injected wrong output rejected, as it must be")
    for f in failures:
        print(f"SMOKE FAILED: {f}")
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return not failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, all gates, a few seconds")
    a = ap.parse_args()
    spec = load_spec()
    if not a.smoke and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.smoke:
        sys.exit(0 if smoke(spec) else 1)
    if a.workload == "all":
        ok_all = True
        for w in WORKLOADS:
            _, ok = run_workload(spec, w, a.seed, a.seconds, a.trace == 1)
            ok_all = ok_all and ok
        print("all workloads: " + ("ok" if ok_all else "FAILED"))
        sys.exit(0 if ok_all else 1)
    result, ok = run_workload(spec, a.workload, a.seed, a.seconds, a.trace == 1)
    if result is None:
        sys.exit(1)
    print(json.dumps(result))
    sys.exit(0 if ok else 1)


REV = source_rev()

if __name__ == "__main__":
    main()
