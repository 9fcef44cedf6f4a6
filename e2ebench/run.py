#!/usr/bin/env python3
"""Build and run the lbmf end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package (its own cargo
workspace under e2ebench/, release profile, default features), checks that
the build does not carry lbmf's `check-hooks` feature, prints the enabled
features of lbmf, lbmf-store and lbmf-cilk, then runs the workload under a
hard deadline. The last line of standard output is the workload's JSON
result. Exits nonzero, without a result, when the sources are missing or
the build fails.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run may take 180 s; the binary stops itself at 150 s.
RUN_TIMEOUT_S = 170
CRATES = ("lbmf", "lbmf-store", "lbmf-cilk")


def cargo(*args, **kw):
    return subprocess.run(
        ["cargo", *args, "--offline", "--manifest-path", MANIFEST],
        cwd=ROOT, text=True, **kw)


def build():
    """Build the release binary; return its path, or None on failure."""
    proc = cargo("build", "--release", "--message-format=json-render-diagnostics",
                 stdout=subprocess.PIPE)
    if proc.returncode != 0:
        return None
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg.get("target", {}).get("name") == "lbmf-e2ebench":
            exe = msg["executable"]
    return exe


def features():
    """Enabled cargo features per package of the benchmark build."""
    proc = cargo("tree", "-e", "features", "--prefix", "none", "--format", "{p}|{f}",
                 stdout=subprocess.PIPE)
    if proc.returncode != 0:
        return None
    found = {}
    for line in proc.stdout.splitlines():
        m = re.match(r"^(\S+) v\S+ \(.*\)\|(.*?)(?: \(\*\))?$", line)
        if m:
            feats = found.setdefault(m.group(1), set())
            feats.update(f for f in m.group(2).split(",") if f)
    return found


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("e2ebench: the lbmf sources (crates/) are missing", file=sys.stderr)
        return 2
    exe = build()
    if exe is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    feats = features()
    if feats is None:
        print("e2ebench: cargo tree failed", file=sys.stderr)
        return 2
    if "check-hooks" in feats.get("lbmf", set()):
        print("e2ebench: lbmf/check-hooks is enabled; refusing to measure a hooked build",
              file=sys.stderr)
        return 2
    shown = " ".join(f"{c}=[{','.join(sorted(feats.get(c, ())))}]" for c in CRATES)
    print(f"# build: release features {shown}", flush=True)
    try:
        proc = subprocess.run([exe, *sys.argv[1:]], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        print(f"e2ebench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
