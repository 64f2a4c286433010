#!/usr/bin/env python3
"""Campaign benchmark: build perfbench/ and run one workload.

Run from the repository root:

  python3 perfbench/run.py --workload inject|soak|fleet --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

Every call configures and builds perfbench/ (which pulls in src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; only the
first call compiles everything. Build output goes to stderr, so the last
stdout line is the benchmark's JSON result. A traced run (--trace 1) also writes its
spans as Chrome trace-event JSON into the build directory.

--self-test runs every workload at the short self-test sizes twice in each
trace mode. It checks that each run is correct and emits exactly the
metrics BENCHMARK.json names, with their units, and that the deterministic
outputs (counts, cycle counts, digests) are equal across the two runs.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("inject", "soak", "fleet")
DETERMINISTIC_UNITS = {"count", "cycles", "ratio"}


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure and build the benchmark; return the binary or None."""
    bdir = build_dir()
    steps = [["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(bdir), "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return bdir / "harbor_perfbench"


def commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def command(exe, workload, seed, seconds, trace, quick=False):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit()]
    if trace:
        cmd += ["--spans-out", str(build_dir() / f"spans_{workload}.json")]
    if quick:
        cmd.append("--quick")
    return cmd


def run_capture(exe, workload, trace):
    r = subprocess.run(command(exe, workload, 1, 1, trace, quick=True),
                       capture_output=True, text=True, timeout=170)
    lines = r.stdout.strip().splitlines()
    if r.returncode or not lines:
        raise RuntimeError(f"{workload} --trace {trace} exited {r.returncode}:\n"
                           f"{r.stdout}{r.stderr}")
    facts = [ln for ln in lines if ln.startswith("fact ")]
    return json.loads(lines[-1]), facts


def self_test(exe):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[group]}
            runs = [run_capture(exe, workload, trace) for _ in range(2)]
            tag = f"{workload} --trace {trace}"
            for result, _ in runs:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if not result["correct"]:
                    problems.append(f"{tag}: correct is false")
                if got != want:
                    problems.append(f"{tag}: metrics/units {sorted(got.items())} "
                                    f"!= BENCHMARK.json {sorted(want.items())}")
            (first, facts1), (second, facts2) = runs
            if facts1 != facts2:
                problems.append(f"{tag}: facts differ between runs:\n{facts1}\n{facts2}")
            for name, m in first["metrics"].items():
                if m["unit"] in DETERMINISTIC_UNITS and \
                        m["value"] != second["metrics"][name]["value"]:
                    problems.append(f"{tag}: {name} differs between runs: "
                                    f"{m['value']} vs {second['metrics'][name]['value']}")
            print(f"self-test {tag}: {len(first['metrics'])} metrics, "
                  f"{len(facts1)} facts", flush=True)
    for p in problems:
        print("self-test FAILED: " + p)
    print("self-test: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")

    exe = build()
    if exe is None:
        return 2
    sys.stdout.flush()
    if args.self_test:
        return self_test(exe)
    return subprocess.run(command(exe, args.workload, args.seed, args.seconds,
                                  args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
