#!/usr/bin/env python3
"""Correctness gate over the benchmark: run every nvbench workload for a few
seconds and check that it exits 0 (its own output checks passed) and that
its simulation trace hash equals the one recorded in nvbench_golden.txt.

    python3 tools/nvbench_gate.py [--seconds 2]

Run it from the repository root. Each golden line is `workload hash` (seed 1)
or `workload seed hash`; every line is one run. A trace hash does not depend
on --seconds (a longer run only repeats the same simulation more often), so a
short run is enough. Host timings are not checked: this is not a performance
gate. A deliberate model change updates nvbench_golden.txt in the same commit.
Exit status: 0 all workloads pass, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tools" / "nvbench_golden.txt"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()

    golden = []
    for line in GOLDEN.read_text().splitlines():
        fields = line.split()
        if fields:
            workload, *seed, want = fields
            golden.append((workload, seed[0] if seed else "1", want))
    ok = True
    for workload, seed, want in golden:
        name = f"{workload} seed {seed}"
        proc = subprocess.run(
            [sys.executable, "nvbench/run.py", "--workload", workload, "--seed", seed,
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: nvbench exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
            ok = False
            continue
        prov = next(json.loads(line.split(" ", 1)[1]) for line in proc.stdout.splitlines()
                    if line.startswith("provenance "))
        got = sorted(set(prov["trace_hash"]))
        if got != [want]:
            print(f"{name}: trace hash {', '.join(got)} != golden {want}")
            ok = False
        else:
            print(f"{name}: ok ({want})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
