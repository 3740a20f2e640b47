#!/usr/bin/env python3
"""Oasis layered benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --report [--seconds <s>]

Run from the repository root. The first form builds the benchmark (a
package of its own in this directory) from source, runs one workload,
relays its report, and prints one JSON object as the last line of stdout:
every end-to-end metric with --trace 0, every per-layer metric with
--trace 1. The traced run takes its scheduler/shard/channel counters from a
second build with the simulator's `obs` feature, which collects them only
there. Any failed output check, or a failed build, exits non-zero.

--report runs every workload on the default seed and on the held-out seed
and prints their end-to-end metrics side by side.

Build outputs go to $CARGO_TARGET_DIR (default .bench_build); spans of
traced runs to .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["pod_pair_mux", "device_io", "fleet_control"]
DEFAULT_SEED = 1
HELDOUT_SEED = 0x5EED0BAD
BIN = "oasis-perfbench"


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the plain and the `obs` binary; return their paths (or exit)."""
    plain = target_dir()
    obs = os.path.join(plain, "obs")
    for tdir, features in ((plain, []), (obs, ["--features", "obs"])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", MANIFEST, "--target-dir", tdir] + features
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    return (os.path.join(plain, "release", BIN),
            os.path.join(obs, "release", BIN))


def run(binary, args):
    """Run the benchmark binary; relay its report and return
    (exit code, parsed last-line JSON or None)."""
    r = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(r.stdout, file=sys.stderr)
        return r.returncode or 1, None
    return r.returncode, result


def measure(args):
    plain, obs = build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, result = run(plain, common)
    if result is None:
        sys.exit(f"run.py: {args.workload} printed no result (exit {code})")
    if args.trace:
        ocode, counters = run(obs, ["--workload", args.workload, "--seed",
                                    str(args.seed), "--obs-counters"])
        if counters is None:
            sys.exit(f"run.py: obs counters of {args.workload} missing (exit {ocode})")
        print("obs build counters: " + ", ".join(
            f"{k}={v['value']:g}" for k, v in counters["metrics"].items()))
        result["metrics"].update(counters["metrics"])
        result["correct"] = result["correct"] and counters["correct"]
        code = code or ocode
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        sys.exit(code or 1)


def report(args):
    plain, _ = build()
    rows = {}
    failed = False
    for w in WORKLOADS:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            code, result = run(plain, ["--workload", w, "--seed", str(seed),
                                       "--seconds", str(args.seconds),
                                       "--trace", "0"])
            failed |= code != 0 or result is None or not result["correct"]
            rows[(w, seed)] = result
    print(f"{'workload':14} {'metric':16} {'unit':11} "
          f"{'seed ' + str(DEFAULT_SEED):>16} {'held-out ' + hex(HELDOUT_SEED):>20}")
    for w in WORKLOADS:
        a, b = rows[(w, DEFAULT_SEED)], rows[(w, HELDOUT_SEED)]
        if a is None or b is None:
            print(f"{w:14} (no result)")
            continue
        for name, m in a["metrics"].items():
            print(f"{w:14} {name:16} {m['unit']:11} {m['value']:16.6g} "
                  f"{b['metrics'][name]['value']:20.6g}")
        print(f"{w:14} {'correct':16} {'':11} {str(a['correct']):>16} {str(b['correct']):>20}")
    if failed:
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", action="store_true")
    args = p.parse_args()
    if args.report:
        report(args)
    elif args.workload:
        measure(args)
    else:
        p.error("--workload or --report is required")


if __name__ == "__main__":
    main()
