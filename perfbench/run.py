#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <contention|camdn_closed|serve_replay> \\
        [--seed <n>] [--workload-seed <n>] [--seconds <s>] [--trace <0|1>]

The script builds the `perfbench` package (a Cargo workspace of its own,
depending on the repository's crates by path) in release mode, offline,
into $CARGO_TARGET_DIR (default: perfbench/target), then runs the binary
with the same arguments. Cargo's output goes to stderr, so the binary's
JSON result stays the last line of stdout. When the build or the run
fails, the script exits non-zero and prints no result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds the benchmark; returns the executable's path, or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--message-format=json-render-diagnostics",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        return None
    exe = None
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue
        msg = json.loads(line)
        if (msg.get("reason") == "compiler-artifact"
                and msg.get("target", {}).get("name") == "perfbench"
                and msg.get("executable")):
            exe = msg["executable"]
    return exe


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
