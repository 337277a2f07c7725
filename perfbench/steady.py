#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs every workload in BENCHMARK.json
in two sets of ten runs of run_seconds each, each run with its own seed
(1-10, then 11-20), and for each end-to-end metric prints each set's median
and quartiles, the spread (interquartile distance over the median) and
whether the sets agree within the bounds in BENCHMARK.json.

    python3 perfbench/steady.py

Agreement means: in every set each metric's spread is within its bound, the
second set's median is not worse than the first's by more than the bound,
and the share of failed operations is the same in every run. Run from the
repository root. Exits 1 when the sets disagree.
"""
import json
import statistics
import subprocess
import sys

RUNS = 10
SETS = 2


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks\n{out.stdout[-2000:]}")
    # The host yardstick, timed at the start and end of the run.
    res["yardstick"] = [float(l.split()[3]) for l in lines if l.startswith("# yardstick")]
    return res


def spread(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse(m, a, b):
    """How much b is worse than a, as a share of a."""
    if a == 0:
        return 0.0
    return (b - a) / a if m["better"] == "lower" else (a - b) / a


def main():
    spec = json.load(open("BENCHMARK.json"))
    seconds = spec["run_seconds"]
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = s * RUNS + i + 1
                r = run_once(spec["command"], w, seed, seconds)
                runs.append(r)
                short = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.5g}"
                                 for m in spec["end_to_end"][:5])
                print(f"  {w} set {s + 1} seed {seed}: yardstick {r['yardstick']} ms {short}",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        print(f"\n== {w} ({RUNS} runs per set, {seconds} s each)")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"   failed share: {sorted(shares)}")
        if len(shares) != 1:
            ok = False
            print("   FAILED SHARE DIFFERS")
        for m in spec["end_to_end"]:
            n, bound = m["name"], m["bound"]
            row = f"   {n:20s} bound {bound:5.3f}"
            meds = []
            for runs in sets:
                q1, q2, q3, sp = spread([r["metrics"][n]["value"] for r in runs])
                meds.append(q2)
                flag = "" if sp <= bound else " SPREAD>BOUND"
                ok = ok and flag == ""
                row += f" | med {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {sp:.4f}{flag}"
            d = worse(m, meds[0], meds[1])
            agree = d <= bound
            ok = ok and agree
            row += f" | drift {d:+.4f} {'agree' if agree else 'DISAGREE'}"
            print(row, flush=True)
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
