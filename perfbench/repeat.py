#!/usr/bin/env python3
"""Repeatability report for the benchmark.

Runs every workload `--runs` times per set (each run with its own
seed), for `--sets` sets, and prints for every end-to-end metric the
median, the quartiles (`statistics.quantiles(values, n=4)`), the spread
(interquartile distance over the median) against a third of the metric's
bound, and how far each later set's median moved from the first set's,
against the bound. Acceptance is on the metrics as printed (rates and
latencies rescaled to the reference host, see BENCHMARK.md); the raw
spread of each is shown beside it. `setup_s`'s spread is shown but not
gated (set-up time is gated on its median only); its shift is.

    python3 perfbench/repeat.py [--runs 10] [--sets 2] [--seconds S]
        [--workloads nominal,stress] [--out perfbench/REPEATABILITY.md]

Run from the repository root. Seeds are 1000 + run index + 100 × set.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    """Interquartile distance over the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    a = ap.parse_args()

    metrics = spec["end_to_end"]
    rows = []
    host = None
    started = time.time()
    for w in a.workloads.split(","):
        sets = []
        for s in range(a.sets):
            values = {m["name"]: [] for m in metrics}
            raws = {m["name"]: [] for m in metrics}
            for r in range(a.runs):
                report, result = run_once(w, 1000 + r + 100 * s, a.seconds)
                host = host or report.get("host")
                if not result["correct"]:
                    print(f"{w} seed {1000 + r + 100 * s}: correct=false", file=sys.stderr)
                for m in metrics:
                    v = result["metrics"][m["name"]]["value"]
                    values[m["name"]].append(v)
                    raws[m["name"]].append(report.get("raw_metrics", {}).get(m["name"], v))
            sets.append((values, raws))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds, spreads, raw_spreads = [], [], []
            for values, raws in sets:
                med = statistics.median(values[name])
                meds.append(med)
                spreads.append(spread(values[name]))
                raw_spreads.append(spread(raws[name]))
            q1, _, q3 = statistics.quantiles(sets[0][0][name], n=4)
            sign = 1 if m["better"] == "lower" else -1
            shifts = [sign * (later - meds[0]) / meds[0] for later in meds[1:]]
            rows.append((w, name, m["unit"], meds[0], q1, q3, spreads, raw_spreads, shifts, bound))

    lines = [
        f"Repeatability: {a.sets} set(s) × {a.runs} run(s) per workload, "
        f"{a.seconds} s per run, {time.time() - started:.0f} s in all.",
        "",
        f"Host: `{json.dumps(host)}`",
        "",
        "Spread = (q3 − q1) / median of a set; shift = how much worse a later set's median "
        "is than the first set's, as a share of it. Acceptance: spread ≤ bound "
        "and shift ≤ bound, except that `setup_s`'s spread is not gated (set-up time is "
        "gated on its median only); the target is spread < bound / 3.",
        "",
        "| workload | metric | unit | median | q1 | q3 | spread per set | raw spread per set | shift | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    all_ok = True
    for w, name, unit, med, q1, q3, spreads, raw_spreads, shifts, bound in rows:
        ok = all(x <= bound for x in shifts) and (name == "setup_s" or all(x <= bound for x in spreads))
        all_ok &= ok
        lines.append(
            f"| {w} | {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
            f"{', '.join(f'{x:.3f}' for x in spreads)} | {', '.join(f'{x:.3f}' for x in raw_spreads)} | "
            f"{', '.join(f'{x:+.3f}' for x in shifts) or '–'} | "
            f"{bound} | {'yes' if ok else 'NO'} |"
        )
    lines.append("")
    lines.append("All within bounds: " + ("yes" if all_ok else "NO"))
    text = "\n".join(lines) + "\n"
    print(text)
    if a.out:
        pathlib.Path(a.out).write_text(text)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
