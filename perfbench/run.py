#!/usr/bin/env python3
"""Build and run the XED reproduction's benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <nominal|stress> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form builds `perfbench/` (its own Cargo workspace, release
profile) into `$CARGO_TARGET_DIR` (default `.bench_build`) and runs it;
the last stdout line is the result object. `--selftest` runs every
workload in smoke mode, checks that the metric names and units printed
match BENCHMARK.json, and checks that a deliberately wrong golden drives
`success_rate` below 1.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["nominal", "stress"]


def target_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))


def source_hash():
    """SHA-256 over the sources the benchmark builds (the checkout is not
    always a git repository, so this stands in for the commit hash)."""
    h = hashlib.sha256()
    files = []
    for base in (ROOT / "crates", BENCH / "src"):
        if base.is_dir():
            files += [p for p in base.rglob("*") if p.is_file() and p.suffix in (".rs", ".toml")]
    files += [p for p in (ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml") if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build():
    """Builds the benchmark; returns the binary path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    # Cargo's output goes to stderr: stdout's last line is the result.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        return None
    return target_dir() / "release" / "xed-perfbench"


def run(binary, args, quiet=False):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    env = dict(os.environ, PERFBENCH_SOURCE_HASH=source_hash())
    done = subprocess.run([str(binary)] + args, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL if quiet else None,
                          text=True, timeout=170)
    return done.returncode, done.stdout.splitlines()


def selftest(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for w in WORKLOADS:
        for trace in ("0", "1"):
            code, lines = run(binary, ["--workload", w, "--seed", "7", "--seconds", "1",
                                       "--trace", trace, "--smoke"])
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            problems = []
            if code != 0:
                problems.append(f"exit {code}")
            missing, extra = want[trace].keys() - got.keys(), got.keys() - want[trace].keys()
            if missing or extra:
                problems.append(f"missing {sorted(missing)} extra {sorted(extra)}")
            units = sorted(k for k in got.keys() & want[trace].keys() if got[k] != want[trace][k])
            if units:
                problems.append(f"units differ from BENCHMARK.json: {units}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
            if trace == "0" and result.get("metrics", {}).get("success_rate", {}).get("value") != 1.0:
                problems.append("success_rate != 1")
            print(f"selftest {w} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
            ok &= not problems
        code, lines = run(binary, ["--workload", w, "--seed", "7", "--seconds", "1",
                                   "--trace", "0", "--smoke", "--perturb-golden"], quiet=True)
        result = json.loads(lines[-1]) if code == 0 and lines else {}
        rate = result.get("metrics", {}).get("success_rate", {}).get("value", 1.0)
        bad = code != 0 or rate >= 1.0 or result.get("correct") is not False
        print(f"selftest {w} wrong golden: success_rate={rate} {'FAILED' if bad else 'ok'}")
        ok &= not bad
    print("selftest: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args == ["--selftest"]:
        return selftest(binary)
    if "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "unknown"
        args = args + ["--spans", str(target_dir() / f"perfbench-spans-{workload}.json")]
    code, lines = run(binary, args)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
