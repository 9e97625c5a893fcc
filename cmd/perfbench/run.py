#!/usr/bin/env python3
"""Entry point of the mprs host-cost benchmark.

Builds the perfbench Go program from the checkout into .bench_build/ (with
its Go build cache there too) and runs it in a fresh process per run, so
peak RSS is per run.

One run (the last stdout line is the JSON result; exit status 0 only if the
run completed):

    python3 cmd/perfbench/run.py --workload det2-gnp --seed 1 --seconds 15 --trace 0

Every workload once, as a table of each metric with its unit and failed_frac:

    python3 cmd/perfbench/run.py --all [--seed 1] [--seconds 15] [--trace 0|1]

Steadiness: N fresh runs per workload at seeds seed..seed+N-1, printing each
end-to-end metric's median, quartiles and spread (IQR / median) against its
bound in BENCHMARK.json; --save keeps the raw results as JSON:

    python3 cmd/perfbench/run.py --repeat 10 --workload det2-gnp [--save FILE]
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["det2-gnp", "luby-gnp-large", "cliquedet2-gnp", "luby-multiproc"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def local_env():
    """The environment for every child process: temporary files, Go caches
    and config writes all stay under .bench_build."""
    env = dict(os.environ)
    env.update(
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        HOME=os.path.join(BUILD, "home"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    """Builds the benchmark binary. Exits non-zero when the mprs sources are
    absent."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod two levels above cmd/perfbench/: the mprs sources are not in this checkout")
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=local_env(),
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout). The binary gets its
    own process group, which is killed if it overruns, so no worker outlives
    the run."""
    cmd = [BINARY, "run", "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace),
           "-workdir", os.path.join(BUILD, "work")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=local_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def end_to_end_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def fmt(v):
    return f"{v:.6g}"


def print_table(rows):
    """rows: (workload, result) pairs. Prints one line per metric."""
    for workload, res in rows:
        if res is None:
            print(f"{workload:16s} FAILED: no result")
            continue
        frac = res["failed"] / res["attempted"]
        print(f"{workload:16s} {'failed_frac':26s} {fmt(frac):>14s}  "
              f"({res['failed']}/{res['attempted']} solves, correct={res['correct']})")
        for name, m in sorted(res["metrics"].items()):
            print(f"{workload:16s} {name:26s} {fmt(m['value']):>14s} {m['unit']}")


def repeat(workloads, n, seed, seconds, trace, save):
    bounds = end_to_end_bounds()
    raw = {}
    worst = 0.0
    for w in workloads:
        results = []
        for s in range(seed, seed + n):
            code, out = run_once(w, s, seconds, trace)
            res = result_of(out) if code == 0 else None
            if res is None or not res["correct"]:
                print(f"{w} seed {s}: run failed (exit {code})", file=sys.stderr)
            else:
                print(f"{w} seed {s}: " + " ".join(
                    f"{k}={fmt(v['value'])}" for k, v in sorted(res["metrics"].items())), flush=True)
            results.append(res)
        raw[w] = results
        ok = [r for r in results if r is not None and r["correct"]]
        print(f"{w}: {len(ok)}/{n} runs correct")
        if len(ok) < 2:
            continue
        for name in sorted(ok[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in ok]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound}  " + ("steady" if spread < bound / 3 else
                                                "within bound" if spread <= bound else "NOISY")
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {name:26s} median {fmt(statistics.median(vals)):>12s}  "
                  f"q1 {fmt(q1):>12s}  q3 {fmt(q3):>12s}  spread {spread:7.4f}  {verdict}")
    if save:
        with open(save, "w") as f:
            json.dump(raw, f, indent=1)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload once and print a table")
    ap.add_argument("--repeat", type=int, default=0, help="runs per workload for the steadiness report")
    ap.add_argument("--save", help="with --repeat: write the raw results to this JSON file")
    args = ap.parse_args()

    build()
    if args.repeat:
        workloads = [args.workload] if args.workload else WORKLOADS
        repeat(workloads, args.repeat, args.seed, args.seconds, args.trace, args.save)
        return 0
    if args.all:
        rows = []
        for w in WORKLOADS:
            code, out = run_once(w, args.seed, args.seconds, args.trace)
            rows.append((w, result_of(out) if code == 0 else None))
        print_table(rows)
        return 0 if all(r is not None and r["correct"] for _, r in rows) else 1
    if not args.workload:
        ap.error("--workload is required (or --all / --repeat)")
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
