#!/usr/bin/env python3
"""Build the sitra benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) with path dependencies on the repository's
crates; it builds into $CARGO_TARGET_DIR (default perfbench/target).
Traced runs (--trace 1) also write their spans as JSONL to
<target dir>/perfbench-traces/<workload>-seed<seed>.jsonl.
The last line of standard output is the result JSON.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def flag(args, name):
    if name in args[:-1]:
        return args[args.index(name) + 1]
    return None


def main(args):
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: the sitra sources are not next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    target = target_dir()
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(target, "release", "sitra-perfbench")] + args
    if flag(args, "--trace") == "1" and flag(args, "--spans") is None:
        name = "{}-seed{}.jsonl".format(flag(args, "--workload"), flag(args, "--seed"))
        cmd += ["--spans", os.path.join(target, "perfbench-traces", name)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
