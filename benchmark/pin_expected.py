#!/usr/bin/env python3
"""Rewrites benchmark/expected.json from a full-size and a smoke-size run.

Run from the repository root after `bash benchmark/run.sh --smoke` has built
the harness. Use it only when a change is *meant* to move an outcome (a new
reduction in the model checker, a different trial definition); a pure
speed-up must leave every pin alone.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(
    os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")),
    "release",
    "am-benchmark",
)
SEED = 11


def outcomes(extra):
    out = os.path.join(HERE, "out", "pin")
    cmd = [BINARY, "--seed", str(SEED), "--seconds", "0", "--trace", "0", "--out", out]
    # The run reports "incorrect" while the pins are stale; that is expected.
    subprocess.run(cmd + extra, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
    with open(os.path.join(out, "result.json")) as f:
        doc = json.load(f)
    return {name: w["outcome"] for name, w in doc["end_to_end"].items()}


def main():
    if not os.path.exists(BINARY):
        sys.exit(f"{BINARY} not found: run `bash benchmark/run.sh --smoke` first")
    pins = {"seed": SEED, "full": outcomes([]), "smoke": outcomes(["--smoke"])}
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(pins, f, indent=2)
        f.write("\n")
    print("benchmark/expected.json rewritten; rebuild to embed it")


if __name__ == "__main__":
    main()
