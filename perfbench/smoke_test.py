#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/smoke_test.py

1. The load generator's unit tests, including the negative controls: each
   checker is fed one altered reply and must reject it.
2. A smoke-size run (1 s) of every workload in BENCHMARK.json, untraced
   and traced. Each must exit 0, pass its correctness gate with no failed
   frame, and print every metric BENCHMARK.json names for that mode, each
   with its declared unit.
3. Run from a directory holding only BENCHMARK.json and the benchmark's
   files, the benchmark must fail without printing a result.

Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    sys.exit(f"smoke_test: FAIL: {msg}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    test = ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(test, cwd=ROOT, env=env).returncode != 0:
        fail("unit tests / negative controls")
    print("ok   unit tests and negative controls")

    for name in (w["name"] for w in spec["workloads"]):
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            cmd = [*spec["command"], "--workload", name, "--seed", "1", "--seconds", "1",
                   "--trace", trace]
            out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
            tag = f"{name} trace={trace}"
            if out.returncode != 0:
                fail(f"{tag}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{tag}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{tag}: correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
            got = result["metrics"]
            if sorted(got) != sorted(m["name"] for m in wanted):
                fail(f"{tag}: metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
            for m in wanted:
                v = got[m["name"]]
                if v["unit"] != m["unit"] or not isinstance(v["value"], (int, float)):
                    fail(f"{tag}: {m['name']} = {v}, want a number in {m['unit']}")
            print(f"ok   {tag}: {len(got)} metrics with units, {result['attempted']} frames checked")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or out.stdout.strip():
            fail(f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")
    print("ok   a directory without the sources fails without a result")


if __name__ == "__main__":
    main()
