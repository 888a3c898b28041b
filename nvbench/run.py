#!/usr/bin/env python3
"""The nvgas benchmark: builds the simulator from source, runs one workload,
checks its outputs and prints its metrics.

    python3 nvbench/run.py --workload gups-net-64 --seed 1 --seconds 10 --trace 0

Run it from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, taken with tracing off; with --trace 1 they
are the per-layer ones, from counter deltas, an untraced run and a traced run
(gprof build plus sim::Trace). The line before it holds the provenance.
README.md in this directory describes the workloads and metrics.

The exit code is 0 when the outputs were correct, 1 when a correctness check
failed (the result is still printed) and 2 when nothing could be measured.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "nvbench"
# Modules of the simulator, as the first `nvgas::<name>` in a symbol names
# them; apps/kvstore lives in nvgas::apps::kv. Anything else under nvgas
# (World, the fiber-facing awaitables) is defined in src/core.
MODULES = ("sim", "net", "gas", "core", "rt", "lb", "util")
BUCKETS = MODULES + ("kv", "other")
# Per-run limit on each program this script starts.
CHILD_TIMEOUT_S = 170
# The kv SLO-capacity ladder, in requests/s per node.
LADDER_BASE, LADDER_STEP, LADDER_RUNGS = 2e5, 1.05, 32


def fail(msg):
    print(f"nvbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, cwd=None, log=None, check=True):
    """Run `cmd` in its own process group to completion and return its
    (exit code, stdout). On timeout the whole group is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S if log is None else 850)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out")
    if log is not None:
        log.write_text(out + err)
    if check and proc.returncode != 0:
        fail(f"{' '.join(map(str, cmd))} exited {proc.returncode}:\n{(out + err)[-4000:]}")
    return proc.returncode, out


def build():
    """Configure once, then bring both program variants up to date."""
    for need in ("src/core/world.hpp", "apps/kvstore/server.hpp"):
        if not (ROOT / need).is_file():
            fail(f"{need} not found: run from a checkout of the repository")
    for tool in ("cmake", "c++", "gprof"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        run_child(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log=BUILD / "configure.log")
    jobs = str(min(4, os.cpu_count() or 1))
    run_child(["cmake", "--build", str(BUILD), "-j", jobs], log=BUILD / "build.log")


def drive(binary, workload, seed, seconds, *flags, cwd=None):
    _, out = run_child([str(BUILD / binary), f"--workload={workload}", f"--seed={seed}",
                        f"--seconds={seconds}", *flags], cwd=cwd)
    return json.loads(out.strip().splitlines()[-1])


def module_of(symbol):
    m = re.search(r"\bnvgas::(\w+)", symbol)
    if m is None:
        return "other"
    name = m.group(1)
    if name == "apps":
        return "kv"
    return name if name in MODULES else "core"


def self_shares(gmon_dir):
    """Flat-profile self time bucketed by module, as shares of the total."""
    _, flat = run_child(["gprof", "-b", "-p", str(BUILD / "nvbench_pg"),
                      str(gmon_dir / "gmon.out")])
    row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
    secs = dict.fromkeys(BUCKETS, 0.0)
    for line in flat.splitlines():
        m = row.match(line)
        if m:
            secs[module_of(m.group(2))] += float(m.group(1))
    total = sum(secs.values())
    if total <= 0:
        fail("gprof recorded no samples")
    return {k: v / total for k, v in secs.items()}


def source_digest():
    h = hashlib.sha256()
    for sub in ("src", "apps", "nvbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def slo_capacity_mops(workload, seed, nodes, ladder):
    """The kv SLO capacity: the highest rate on the per-node ladder
    LADDER_BASE x LADDER_STEP^k at which a short steady-rate run keeps its
    score (GET p999, or the backlog's drain time if longer) within the SLO.
    The ladder is searched by bisection, assuming that a rung passes whenever
    a higher one does, and the result is interpolated on the score between
    the last passing and the first failing rung. Each rung runs in its own
    process: a rung that aborts (the simulator's forwarding-loop watchdog can
    fire under overload with migrations in flight) counts as failing and is
    recorded as crashed in the provenance."""
    seen = {}

    def rung(k):
        if k not in seen:
            rate = LADDER_BASE * LADDER_STEP ** k
            code, out = run_child([str(BUILD / "nvbench"), f"--workload={workload}",
                                   f"--seed={seed}", f"--rung-rate={rate!r}"], check=False)
            r = {"rate_per_node": rate, "crashed": code != 0, "pass": False}
            if code == 0:
                r.update(json.loads(out.strip().splitlines()[-1]))
            seen[k] = r
            ladder.append(r)
        return seen[k]

    lo, hi = 0, LADDER_RUNGS - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rung(mid)["pass"]:
            lo = mid
        else:
            hi = mid
    if not rung(lo)["pass"]:  # below the ladder: scale its bottom by the miss
        bottom = seen[lo]
        miss = bottom["slo_us"] / bottom["score_us"] if bottom.get("ok") else 0.0
        per_node = bottom["rate_per_node"] * min(1.0, miss)
    elif rung(hi)["pass"]:  # above the ladder: report its top
        per_node = seen[hi]["rate_per_node"]
    else:
        p, f = seen[lo], seen[hi]
        frac = 0.0
        if f.get("ok"):
            frac = min(1.0, (p["slo_us"] - p["score_us"]) / (f["score_us"] - p["score_us"]))
        per_node = p["rate_per_node"] + (f["rate_per_node"] - p["rate_per_node"]) * frac
    return per_node * nodes / 1e6


def end_to_end(workload, seed, seconds):
    r = drive("nvbench", workload, seed, seconds)
    if workload.startswith("kv"):
        r["ladder"] = []
        r["metrics"]["sim_slo_capacity_mops"] = slo_capacity_mops(
            workload, seed, r["nodes"], r["ladder"])
    values = {k: v for k, v in r["metrics"].items() if k.startswith("sim_")}
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        values[name] = r["host"][name]
    return [r], values


def per_layer(workload, seed, seconds):
    plain = drive("nvbench", workload, seed, seconds / 2, "--min-reps=2")
    gmon_dir = BUILD / "gprof" / workload
    gmon_dir.mkdir(parents=True, exist_ok=True)
    (gmon_dir / "gmon.out").unlink(missing_ok=True)
    traced = drive("nvbench_pg", workload, seed, seconds / 2, "--traced", "--min-reps=1",
                   cwd=gmon_dir)
    if traced["trace_hash"] != plain["trace_hash"]:
        traced["errors"].append(f"traced run changed the simulation: trace hash "
                                f"{traced['trace_hash']} != {plain['trace_hash']}")
    values = {k: v for k, v in plain["metrics"].items() if "." in k}
    values["sim.engine.host_ns_per_event"] = plain["host"]["ns_per_event"]
    for module, share in self_shares(gmon_dir).items():
        values[f"host.self_share.{module}"] = share
    values["host.tracing_overhead"] = (traced["host"]["wall_s_median"]
                                       / plain["host"]["wall_s_median"])
    for span in ("world_ctor_s", "alloc_s"):
        values[f"host.span.{span}"] = traced["host"][span]
    values["host.span.run_s"] = traced["host"]["wall_s_median"]
    values["host.span.issue_ns_per_op"] = traced["host"]["issue_ns_per_op"]
    return [plain, traced], values


def main():
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found next to the nvbench directory")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    # Pin this process, and so every program it starts from here on, to one
    # CPU: when the scheduler moved nvbench between CPUs, its set-up
    # times came out 1.7x slower in some runs and not in others.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runs, values = (per_layer if args.trace else end_to_end)(
        args.workload, args.seed, args.seconds)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in bench[section]:
        # A layer a workload never enters reports 0 (e.g. kv.* on GUPS).
        value = values.get(spec["name"], 0.0) if args.trace else values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    errors = [e for r in runs for e in r["errors"]]
    first = runs[0]
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host_cores": os.cpu_count(), **first["build"],
        "git_rev": git_rev(), "source_sha256": source_digest(),
        "trace_hash": [r["trace_hash"] for r in runs], "events": first["events"],
        "reps": [r["reps"] for r in runs], "setup_samples": first["host"]["setup_samples"],
        "wall_s_reps": first["host"]["wall_s_reps"],
        "ladder": first.get("ladder"), "errors": errors,
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("provenance " + json.dumps(provenance))
    correct = not errors and all(r["failed"] == 0 for r in runs)
    print(json.dumps({"correct": correct, "attempted": int(first["attempted"]),
                      "failed": int(max(r["failed"] for r in runs)), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
