"""adaptsim benchmark: one workload per invocation, driven through the CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of an adaptsim checkout.  With --trace 0 it prints the
end-to-end metrics (wall_s, agent_steps_per_s, setup_s, peak_rss_mib); with
--trace 1 the per-layer metrics of a traced process and the tracing overhead
against an untraced one.  Every operation's outputs are checked; the last
line of stdout is one JSON object, and the exit code is 1 if any check
failed.  Each measuring process is fresh, so memory and set-up of one
workload never carry over into another.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS

# Fresh set-up processes, half before and half after the timed process, so that
# the median spans the run rather than one moment of a VM whose speed drifts.
SETUP_PROCESSES = 8
TIMED_MIN_OPS = 3
RUN_LIMIT_S = 170  # every worker of a run must end within this; the run must end within 180 s
# Probe-loop time of the fast state of the 2-vCPU Xeon VM this benchmark was
# written on.  Each time is rescaled by PROBE_REFERENCE_S / (mean probe sample
# while it ran): the time the work takes with the CPU at that speed.  A fixed
# reference, not one taken from the run, because a run can spend all of its
# 30 s in the slow state.  See SpeedProbe in worker.py and README.md.
PROBE_REFERENCE_S = 265e-6

# Counts derived from array shapes and string lengths, not measured traffic.
COMPUTED_COUNTS = ("rng.lanes_computed", "rng.lanes_advanced", "kernels.elements",
                   "output.rows", "output.bytes")


class WorkerError(RuntimeError):
    pass


def worker(workload: str, seed: int, mode: str, *flags: str, deadline: float) -> dict:
    """Run perfbench/worker.py in a fresh process and return its JSON result.

    The process is killed if it is still running at `deadline` (monotonic).
    """
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode, *flags]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker for {workload} still running at the run's deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(seed: int, result: dict) -> dict:
    """Machine, versions and commit, recorded with every result."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    index = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for entry in sorted(index.glob("index*")) if index.is_dir() else ():
        level, kind = _read(str(entry / "level")), _read(str(entry / "type"))
        caches[f"L{level} {kind}"] = _read(str(entry / "size"))
    head = _read(".git/HEAD")
    commit = _read(os.path.join(".git", head[5:])) if head.startswith("ref: ") else head
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": result.get("python"),
        "numpy": result.get("numpy"),
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "computed_counts": list(COMPUTED_COUNTS),
    }


def end_to_end(name: str, seed: int, seconds: float, units: dict,
               deadline: float) -> tuple[dict, list[dict], dict]:
    def setup():
        return worker(name, seed, "setup", deadline=deadline)

    setup()  # compiles bytecode and fills the file cache; discarded
    setups = [setup() for _ in range(SETUP_PROCESSES // 2)]
    timed = worker(name, seed, "timed", "--seconds", str(seconds),
                   "--min-ops", str(TIMED_MIN_OPS), deadline=deadline)
    setups += [timed] + [setup() for _ in range(SETUP_PROCESSES // 2)]
    ref = PROBE_REFERENCE_S
    wall = statistics.median(w * ref / p for w, p in zip(timed["walls"], timed["speeds"]))
    metrics = {
        "wall_s": wall,
        "agent_steps_per_s": WORKLOADS[name].agent_steps / wall,
        "setup_s": statistics.median(r["setup_s"] * ref / r["setup_probe"] for r in setups),
        "peak_rss_mib": timed["peak_rss_mib"],
    }
    raw = {
        "wall_s": statistics.median(timed["walls"]),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "probe_s": statistics.median(timed["speeds"]),
        "setups": [[r["setup_s"], r["setup_probe"]] for r in setups],
    }
    return metrics, [timed], raw


def per_layer(name: str, seed: int, seconds: float, units: dict,
              deadline: float) -> tuple[dict, list[dict], dict]:
    flags = ["--seconds", str(seconds / 2)]
    plain = worker(name, seed, "timed", *flags, *(["--workers2"] if name == "sweep_small" else []),
                   deadline=deadline)
    traced = worker(name, seed, "traced", *flags, deadline=deadline)
    ref = PROBE_REFERENCE_S
    timed = {k for k, unit in units.items() if unit == "s" or unit.startswith(("ns/", "us/"))}
    layers = [
        {k: v * ref / speed if k in timed else v for k, v in op.items()}
        for op, speed in zip(traced["layers"], traced["speeds"])
    ]
    metrics = {key: statistics.median(op[key] for op in layers) for key in layers[0]}
    metrics["analysis.workers2_speedup"] = plain.get("workers2_speedup", 0.0)
    plain_wall = statistics.median(w / p for w, p in zip(plain["walls"], plain["speeds"]))
    traced_wall = statistics.median(w / p for w, p in zip(traced["walls"], traced["speeds"]))
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    raw = {
        "trace.overhead_frac": statistics.median(traced["walls"]) / statistics.median(plain["walls"])
        - 1.0,
        "probe_s": statistics.median(traced["speeds"]),
    }
    return metrics, [plain, traced], raw


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not all(os.path.exists(p) for p in ("src/adaptsim/__init__.py", "configs", "BENCHMARK.json")):
        print("error: run from the root of an adaptsim checkout "
              "(src/adaptsim, configs/ or BENCHMARK.json not found)", file=sys.stderr)
        return 2

    # BENCHMARK.json names every metric and its unit; the two must agree
    declared = json.loads(pathlib.Path("BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    measure = per_layer if args.trace else end_to_end
    seconds = args.seconds or declared["run_seconds"]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        metrics, results, raw = measure(args.workload, args.seed, seconds, units, deadline)
    except (WorkerError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    env = environment(args.seed, results[0])

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"failed_frac {failed / attempted:g} ({failed} of {attempted} operations), "
          f"{len(results[-1]['walls'])} timed operations")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:.6g} {units[key]}")
    print(f"not rescaled: {json.dumps({k: v for k, v in raw.items() if k != 'setups'})}")
    print(f"env: {json.dumps(env)}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "not_rescaled": raw,
        "walls": [r["walls"] for r in results],
        "probes": [r["speeds"] for r in results],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    out = pathlib.Path("perfbench", "out", "results")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
