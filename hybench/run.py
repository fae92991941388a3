#!/usr/bin/env python3
"""Build and run the repository benchmark (hybench).

Run from the root of a source checkout:

  python3 hybench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
      Build hybench/ (CMake, into .bench_build/), run one workload and print
      its metrics; the last stdout line is the JSON result. W may be "all"
      (each workload in its own process, one after another).
  python3 hybench/run.py --smoke
      Every workload at a tiny size, untraced and traced; fails unless each
      metric named in BENCHMARK.json is printed with its unit.
  python3 hybench/run.py sweep --workload W --seeds 1-10 --out FILE
      Run one seed after another, appending each result to FILE (JSON lines).
  python3 hybench/run.py spread FILE
      Per workload and metric: median, quartiles and (q3 - q1) / median
      against the metric's bound.
  python3 hybench/run.py compare BASE CAND
      Parent vs change: each side's median and quartiles and a verdict
      (better / no worse / worse / unresolved) per workload and metric.

Exit status: 0 when every check passed, 1 when a check failed or a run hit
its deadline, 2 on a usage or build error (no result is printed then).
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hybench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["allgather_irregular", "summa_lookahead", "service_churn"]
DEFAULT_SEED = 20190805

# Wall-clock limits. A run must end within RUN_LIMIT_S of its start; the
# first run in a checkout also builds, within BUILD_LIMIT_S.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 700.0


class BuildError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


# ---- build -----------------------------------------------------------------


def build():
    """Configure (once) and build the hybench target; a no-op when current."""
    if not os.path.isfile(os.path.join(ROOT, "src", "minimpi", "runtime.h")):
        raise BuildError("no runtime sources under %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    deadline = time.monotonic() + BUILD_LIMIT_S
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            step(cmd, deadline)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        step(["cmake", "--build", BUILD, "--target", "hybench", "-j", jobs],
             deadline)
    if not os.access(BINARY, os.X_OK):
        raise BuildError("build produced no %s" % BINARY)


def step(cmd, deadline):
    # Build output goes to stderr: stdout's last line is the result.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        kill(proc)
        raise BuildError("build step timed out: %s" % " ".join(cmd))
    if rc != 0:
        raise BuildError("build step failed (%d): %s" % (rc, " ".join(cmd)))


def kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


# ---- one run ---------------------------------------------------------------


def child_env():
    # HYMPI_* switches (tracing, tuning tables, resilience, QoS) would change
    # what is measured; the benchmark pins its own configuration.
    return {k: v for k, v in os.environ.items() if not k.startswith("HYMPI_")}


def run_one(workload, seed, seconds, trace, smoke=False, echo=True,
            limit_s=RUN_LIMIT_S):
    """Run the binary once; return its parsed result (dict) and exit code.

    A run that outlives limit_s is killed; its finished ops come from the
    last progress line and the unfinished pass counts as failed ops.
    """
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, "host_spans_%s.json" % workload)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, env=child_env(), text=True,
                            start_new_session=True)
    deadline = time.monotonic() + limit_s
    lines = []
    progress = (0, 0, 1)
    timed_out = False
    # Read line by line; a watchdog alarm bounds the blocking reads.
    def on_alarm(signum, frame):
        raise TimeoutError()
    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(0.1, deadline - time.monotonic()))
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            lines.append(line)
            if line.startswith("# progress "):
                f = dict(kv.split("=") for kv in line.split()[2:])
                progress = (int(f["attempted"]), int(f["failed"]),
                            int(f["next"]))
            elif echo and not line.startswith("{"):
                print(line, flush=True)
        proc.wait()
    except TimeoutError:
        timed_out = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    if timed_out:
        kill(proc)
        attempted, failed, pending = progress
        log("hybench: %s (seed %d) exceeded its %.0f s deadline; killed"
            % (workload, seed, limit_s))
        result = {"correct": False, "attempted": attempted + pending,
                  "failed": failed + pending,
                  "metrics": {"ops_ok_frac": {
                      "value": 1.0 - (failed + pending) / float(attempted + pending),
                      "unit": "ratio"}}}
        return result, 1
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if result is None:
        result = {"correct": False, "attempted": progress[0] + progress[2],
                  "failed": progress[1] + progress[2], "metrics": {}}
        log("hybench: %s exited %d without a result" % (workload, proc.returncode))
        return result, 1
    return result, proc.returncode


def save(path, workload, seed, trace, result):
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "trace": trace, "result": result}) + "\n")


# ---- smoke -------------------------------------------------------------------


def smoke():
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, rc = run_one(workload, DEFAULT_SEED, 1.0, trace,
                                 smoke=True, echo=False)
            where = "%s --trace %d" % (workload, trace)
            if rc != 0 or not result.get("correct"):
                problems.append("%s: run failed (exit %d)" % (where, rc))
            metrics = result.get("metrics", {})
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for name, unit in declared.items():
                got = metrics.get(name)
                if got is None:
                    problems.append("%s: %s not printed" % (where, name))
                elif got.get("unit") != unit:
                    problems.append("%s: %s in %s, declared %s"
                                    % (where, name, got.get("unit"), unit))
            for name in metrics:
                if name not in declared:
                    problems.append("%s: %s not declared in BENCHMARK.json"
                                    % (where, name))
            print("smoke %-24s trace=%d  %d metrics  %s"
                  % (workload, trace, len(metrics),
                     "ok" if rc == 0 and result.get("correct") else "FAILED"))
    for p in problems:
        print("smoke: " + p)
    return 1 if problems else 0


# ---- statistics, spread and compare -------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(path):
    """{workload: {trace: [record, ...]}} from a JSON-lines file."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], {}).setdefault(
                    rec["trace"], []).append(rec)
    return runs


def metric_specs(spec):
    out = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = (m["better"], m.get("bound"), 0)
    for m in spec["per_layer"]:
        out[m["name"]] = (m["better"], None, 1)
    return out


def values_of(records, name):
    return [(r["seed"], r["result"]["metrics"][name]["value"])
            for r in records if name in r["result"].get("metrics", {})]


def spread(path):
    spec = load_spec()
    specs = metric_specs(spec)
    runs = load_runs(path)
    worst = 0
    for workload in sorted(runs):
        for trace in sorted(runs[workload]):
            recs = runs[workload][trace]
            bad = sum(1 for r in recs if not r["result"].get("correct"))
            print("%s trace=%d: %d runs, %d incorrect" % (workload, trace, len(recs), bad))
            worst = max(worst, 1 if bad else 0)
            for name, (better, bound, t) in specs.items():
                if t != trace:
                    continue
                vals = [v for _, v in values_of(recs, name)]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                rel = (q3 - q1) / med if med else 0.0
                flag = ""
                if bound is not None:
                    flag = "ok" if rel <= bound / 3 else ("within bound" if rel <= bound else "TOO WIDE")
                print("  %-36s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f %s%s"
                      % (name, med, q1, q3, rel,
                         "" if bound is None else "bound %.3f " % bound, flag))
    return worst


def verdict(better, bound, base, cand):
    """Parent (base) vs change (cand), each a list of (seed, value).

    Pairs match by seed when both sides ran the same seeds, else by order.
    """
    bs = dict(base)
    if all(s in bs for s, _ in cand) and len(cand) == len(base):
        pairs = [(bs[s], v) for s, v in cand]
    else:
        pairs = list(zip([v for _, v in base], [v for _, v in cand]))
    bvals = [v for _, v in base]
    cvals = [v for _, v in cand]
    bq1, bmed, bq3 = quartiles(bvals)
    _, cmed, _ = quartiles(cvals)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    gain = sign * (cmed - bmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > (bq3 - bq1):
        return "better"
    if all(sign * (c - b) > 0 for c in cvals for b in bvals):
        return "better"
    if bound is None:
        return "changed" if gain < -(bq3 - bq1) else "same"
    if bmed and (bq3 - bq1) / abs(bmed) > bound:
        return "unresolved"
    if bmed and -gain / abs(bmed) > bound:
        return "worse"
    return "no worse"


def compare(base_path, cand_path):
    spec = load_spec()
    specs = metric_specs(spec)
    base, cand = load_runs(base_path), load_runs(cand_path)
    worse = False
    for workload in sorted(set(base) & set(cand)):
        for trace in sorted(set(base[workload]) & set(cand[workload])):
            print("%s trace=%d (%d base runs, %d change runs)"
                  % (workload, trace, len(base[workload][trace]),
                     len(cand[workload][trace])))
            for name, (better, bound, t) in specs.items():
                if t != trace:
                    continue
                b = values_of(base[workload][trace], name)
                c = values_of(cand[workload][trace], name)
                if not b or not c:
                    continue
                bq = quartiles([v for _, v in b])
                cq = quartiles([v for _, v in c])
                v = verdict(better, bound, b, c)
                worse = worse or v == "worse"
                print("  %-36s base %-12.6g [%-12.6g %-12.6g]  change %-12.6g [%-12.6g %-12.6g]  %s"
                      % (name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], v))
    return 1 if worse else 0


# ---- entry point ---------------------------------------------------------------


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv):
    if argv and argv[0] in ("spread", "compare"):
        if argv[0] == "spread" and len(argv) == 2:
            return spread(argv[1])
        if argv[0] == "compare" and len(argv) == 3:
            return compare(argv[1], argv[2])
        log(__doc__)
        return 2

    sweep = bool(argv) and argv[0] == "sweep"
    ap = argparse.ArgumentParser(description="Build and run hybench.")
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seeds", default=None, help="sweep: e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="sweep: results file")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv[1:] if sweep else argv)

    try:
        build()
    except BuildError as e:
        log("hybench: %s" % e)
        return 2

    if args.smoke:
        return smoke()
    if args.workload is None:
        log("hybench: --workload is required")
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = load_spec()["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in workloads):
        log("hybench: unknown workload %s" % args.workload)
        return 2
    seeds = parse_seeds(args.seeds) if sweep and args.seeds else [args.seed]
    out = args.out if sweep else None
    status = 0
    for workload in workloads:
        for seed in seeds:
            result, rc = run_one(workload, seed, seconds, args.trace)
            if out:
                save(out, workload, seed, args.trace, result)
            status = status or (0 if rc == 0 else 1)
            if not sweep:
                print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
