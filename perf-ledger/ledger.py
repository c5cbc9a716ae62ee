#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

Reads the command and run length from BENCHMARK.json at the repository
root, runs each workload ``--repeat`` times per seed (a repeated seed must
give the same report digest every time), and prints per metric the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the quartile spread as a share of the median. With ``--record PATH`` it
also writes that summary, the report digests and host information as a
JSON baseline record.

    python3 perf-ledger/ledger.py --seeds 1-10
    python3 perf-ledger/ledger.py --workloads paper-mix --seeds 1-5 --trace 1
    python3 perf-ledger/ledger.py --seeds 42 --repeat 10 \
        --record perf-ledger/baseline/end-to-end-seed42.json

Run it from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def host_info():
    info = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/proc/meminfo") as f:
            info["mem_total_kb"] = int(f.readline().split()[1])
    except (OSError, ValueError, IndexError):
        pass
    for tool in ("rustc", "cargo"):
        try:
            out = subprocess.run([tool, "--version"], capture_output=True, text=True)
            info[tool] = out.stdout.strip()
        except OSError:
            pass
    return info


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    digest = next((l.split()[1] for l in lines if l.startswith("report_digest")), None)
    passes = next(([float(x) for x in l.split(":", 1)[1].split()]
                   for l in lines if l.startswith("run_s per pass")), [])
    return result, digest, wall, passes


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values),
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", help="comma list (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--record", help="write the summary as a JSON record")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    units = {m["name"]: m["unit"] for m in bench[key]}
    seeds = parse_seeds(args.seeds)

    record = {
        "schema": "perf-ledger-baseline/1",
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "command": bench["command"],
        "run_seconds": seconds,
        "trace": args.trace,
        "seeds": seeds,
        "repeat": args.repeat,
        "workloads": {},
    }
    worst = []
    for w in workloads:
        samples, digests, walls, pass_times = {}, {}, [], {}
        for seed in seeds:
            for k in range(args.repeat):
                result, digest, wall, passes = run_once(bench["command"], w, seed,
                                                        seconds, args.trace)
                pass_times[f"{seed}" if args.repeat == 1 else f"{seed}#{k}"] = passes
                if not result["correct"]:
                    raise SystemExit(f"{w} seed {seed}: checks failed")
                if digests.setdefault(str(seed), digest) != digest:
                    raise SystemExit(f"{w} seed {seed}: report digest changed between runs")
                walls.append(wall)
                for name, m in result["metrics"].items():
                    samples.setdefault(name, []).append(m["value"])
                print(f"  {w} seed {seed}: {wall:.1f} s", file=sys.stderr)
        summary = {name: {**summarise(v), "unit": units.get(name)}
                   for name, v in samples.items()}
        record["workloads"][w] = {
            "metrics": summary,
            "report_digests": digests,
            "invocation_wall_s": summarise(walls),
            "pass_run_s": pass_times,
        }
        print(f"\n{w} ({len(seeds)} seeds x {args.repeat}, trace {args.trace})")
        print(f"  {'metric':<30}{'median':>16}{'q1':>16}{'q3':>16}{'spread':>9}{'bound':>7}")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = "  > bound/3"
                worst.append((w, name, s["spread"], bound))
            print(f"  {name:<30}{s['median']:>16.6g}{s['q1']:>16.6g}{s['q3']:>16.6g}"
                  f"{s['spread']:>9.4f}{bound if bound is not None else '-':>7}{flag}")
    if args.record:
        os.makedirs(os.path.dirname(args.record) or ".", exist_ok=True)
        with open(args.record, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
        print(f"\nwrote {args.record}")
    if worst:
        print("\nspreads above a third of their bound:")
        for w, name, spread, bound in worst:
            print(f"  {w} {name}: {spread:.4f} (bound {bound})")


if __name__ == "__main__":
    main()
