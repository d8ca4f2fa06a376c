#!/usr/bin/env python3
"""Steadiness and seed evidence for SCALE-bench.

Runs every workload of BENCHMARK.json once per seed (end-to-end mode), in
one or more sets, and writes perfbench/STEADINESS.md:

  * per metric: median, quartiles and the quartile spread (Q3 - Q1) as a
    share of the median, flagged when it exceeds the metric's bound or a
    third of it;
  * with two sets: each set's median and the drift between them, and
    whether every simulated metric and digest repeated bit for bit;
  * seed checks: distinct seeds give distinct digests, a repeated seed
    gives the identical digest.

    python3 perfbench/steadiness.py --seeds 10 --sets 2

Each raw result line is appended to perfbench/steadiness_runs.jsonl.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Host-clock metrics; the rest are simulated and repeat exactly per seed.
HOST_METRICS = {"procs_per_s", "setup_s", "peak_rss_mb"}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.time()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {res.returncode}")
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")),
                  None)
    out = json.loads(lines[-1])
    out.update(workload=workload, seed=seed, digest=digest,
               wall_s=round(time.time() - t0, 1))
    return out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--report", default=os.path.join(HERE, "STEADINESS.md"))
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    log = open(os.path.join(HERE, "steadiness_runs.jsonl"), "a")
    runs = {}  # (set, workload) -> [result]
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                r = run_once(w, seed, seconds)
                r["set"] = s
                log.write(json.dumps(r) + "\n")
                log.flush()
                runs.setdefault((s, w), []).append(r)
                print(f"set {s} {w} seed {seed}: correct={r['correct']} "
                      f"digest={r['digest']} ({r['wall_s']} s)", flush=True)
    repeat = {w: run_once(w, seeds[0], seconds) for w in workloads}

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    md = ["# SCALE-bench steadiness", "",
          f"Host: {cpu}, nproc = {os.cpu_count()}, "
          f"{platform.system()} {platform.release()}. "
          f"{len(seeds)} seeds ({seeds[0]}..{seeds[-1]}) per workload, "
          f"{args.sets} set(s), --seconds {seconds}, end-to-end mode.",
          "", "Spread = (Q3 - Q1) / median over the seeds of one set, "
          "Python `statistics.quantiles(n=4)`. Flags: `>bound` fails the "
          "acceptance rule, which exempts the spread of setup_s but not its "
          "drift; `>bound/3` misses the "
          "steadiness target.", ""]
    problems = []
    for w in workloads:
        md += [f"## {w}", ""]
        header = "| metric | unit | bound |"
        rule = "|---|---|---|"
        for s in range(args.sets):
            header += f" set {s} median | Q1 | Q3 | spread |"
            rule += "---|---|---|---|"
        if args.sets > 1:
            header += " drift |"
            rule += "---|"
        md += [header + " flag |", rule + "---|"]
        for name in bounds:
            row = f"| {name} | {units[name]} | {bounds[name]} |"
            flag = []
            meds = []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in runs[(s, w)]]
                med, q1, q3, sp = spread(vals)
                meds.append(med)
                row += f" {med:.6g} | {q1:.6g} | {q3:.6g} | {sp:.4f} |"
                if sp > bounds[name]:
                    flag.append(f"set {s} >bound")
                elif sp > bounds[name] / 3:
                    flag.append(f"set {s} >bound/3")
            if args.sets > 1:
                drift = (meds[-1] - meds[0]) / meds[0] if meds[0] else 0.0
                row += f" {drift:+.4f} |"
                if abs(drift) > bounds[name]:
                    flag.append("drift >bound")
            md.append(row + f" {', '.join(flag)} |")
            if flag:
                problems.append(f"{w} {name}: {', '.join(flag)}")
        md.append("")

        digests = [r["digest"] for r in runs[(0, w)]]
        distinct = len(set(digests)) == len(digests)
        same = repeat[w]["digest"] == digests[0]
        sim_same = all(
            repeat[w]["metrics"][n]["value"] == runs[(0, w)][0]["metrics"][n]["value"]
            for n in bounds if n not in HOST_METRICS)
        md.append(f"Seed check: {len(set(digests))} distinct digests over "
                  f"{len(digests)} seeds ({'ok' if distinct else 'COLLISION'}); "
                  f"seed {seeds[0]} re-run digest {repeat[w]['digest']} "
                  f"{'identical' if same and sim_same else 'DIFFERS'}.")
        if args.sets > 1:
            ident = all(
                a["digest"] == b["digest"] and all(
                    a["metrics"][n]["value"] == b["metrics"][n]["value"]
                    for n in bounds if n not in HOST_METRICS)
                for a, b in zip(runs[(0, w)], runs[(args.sets - 1, w)]))
            md.append(f"Sets 0 and {args.sets - 1}: simulated metrics and "
                      f"digests {'bit-identical' if ident else 'DIFFER'} "
                      "seed for seed.")
            if not ident:
                problems.append(f"{w}: simulated metrics differ across sets")
        if not (distinct and same and sim_same):
            problems.append(f"{w}: seed check failed")
        if not all(r["correct"] for s in range(args.sets) for r in runs[(s, w)]):
            problems.append(f"{w}: an output check failed")
        md.append("")
    md += ["## Summary", ""]
    md += [f"- {p}" for p in problems] or ["- every spread within a third "
                                           "of its bound; all checks passed"]
    open(args.report, "w").write("\n".join(md) + "\n")
    print("\n".join(problems) or "steady")


if __name__ == "__main__":
    main()
