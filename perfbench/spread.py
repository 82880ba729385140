#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile distance over the median),
against the bounds in BENCHMARK.json.

Run from the root of the checkout:

    python3 perfbench/spread.py --workloads cells-read,serve-mixed --seeds 1-10

--json FILE also writes the figures as JSON (the form baseline.json
records them in).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)), help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--json", help="write the figures to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{wl} seed {seed}: incorrect: {res}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in sorted(res["metrics"].items())), flush=True)
        out[wl] = {}
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  ABOVE bound/3"
            print(f"  {wl:12s} {name:16s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}{flag}")
            out[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vs)}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=2, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
