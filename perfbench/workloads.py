"""The four benchmark workloads: inputs made from a seed, the CLI call of one
operation, and the check of what that operation wrote.

Only the standard library is imported here, so that a worker can time the
import of adaptsim itself as part of set-up.

Inputs vary with the seed in values that do not change the amount of work
(scenario seeds, adaptation rates, growth rates, budgets); population sizes,
horizons, sample counts and candidate intervals are fixed per workload, so
run-to-run spread measures the machine, not the inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import pathlib
import random
from dataclasses import dataclass
from typing import Callable

# Seed at which each workload's artifacts are pinned by digest; any other
# seed is checked by invariants only.
DEFAULT_SEED = 1

# First 16 hex digits of sha256(run.csv) for the shipped configs, as
# produced by `adaptsim simulate --config configs/<name>.json`.
CONFIG_DIGESTS = {
    "baseline": "d694e771976d6387",
    "continuous": "38f5fcb7fbae12b2",
    "punctuated": "821c365b80ce9da1",
    "segments": "1cc532a2c873e7bd",
    "interventions": "913f438d1fec181c",
}

# The three-segment mix of configs/segments.json.
SEGMENT_MIX = (
    ("early", 0.16, (0.25, 0.45), (0.1, 0.3)),
    ("mainstream", 0.68, (0.1, 0.25), (0.01, 0.3)),
    ("late", 0.16, (0.02, 0.1), (0.001, 0.3)),
)

SWEEP_METRICS = [
    "time_avg_active_satisfaction",
    "final_adopted_fraction",
    "peak_satisfaction",
    "time_to_stabilization",
]


def _segments(rnd: random.Random) -> list[dict]:
    scale = rnd.uniform(0.9, 1.1)
    return [
        {
            "name": name,
            "fraction": fraction,
            "gamma_range": [lo * scale, hi * scale],
            "bass": {"p": p, "q": q},
            "initial_headroom": 0.5,
            "headroom_jitter": 0.05,
        }
        for name, fraction, (lo, hi), (p, q) in SEGMENT_MIX
    ]


def _rnd(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _simulate_large_inputs(seed: int) -> dict[str, dict]:
    rnd = _rnd("simulate_large", seed)
    return {
        "scenario.json": {
            "horizon": 100,
            "seed": rnd.randrange(2**32),
            "population": {"size": 100_000, "segments": _segments(rnd)},
            "schedule": {
                "kind": "continuous",
                "c0": 1.0,
                "resource_growth": 0.868 * rnd.uniform(0.95, 1.05),
                "alpha": 0.08,
            },
            "satisfaction": {"k": 1.0, "b": 0.0},
        }
    }


def _sweep_small_inputs(seed: int) -> dict[str, dict]:
    rnd = _rnd("sweep_small", seed)
    gamma = rnd.uniform(0.15, 0.25)
    return {
        "scenario.json": {
            "horizon": 60,
            "seed": rnd.randrange(2**32),
            "population": {
                "size": 30,
                "segments": [
                    {
                        "name": "all",
                        "fraction": 1.0,
                        "gamma_range": [gamma, gamma],
                        "bass": {"p": 1.0, "q": 0.0},
                        "initial_headroom": 0.5,
                        "headroom_jitter": 0.0,
                    }
                ],
            },
            "schedule": {
                "kind": "continuous",
                "c0": 1.0,
                "resource_growth": 0.3 * rnd.uniform(0.9, 1.1),
                "alpha": 0.1,
            },
            "satisfaction": {"k": 1.0, "b": 0.0},
        },
        "sweep.json": {
            "samples": 256,
            "seed": rnd.randrange(2**32),
            "metrics": SWEEP_METRICS,
            "dimensions": [
                {
                    "name": "gamma",
                    "lo": rnd.uniform(0.04, 0.06),
                    "hi": rnd.uniform(0.38, 0.42),
                    "paths": [
                        ["population", "segments", 0, "gamma_range", 0],
                        ["population", "segments", 0, "gamma_range", 1],
                    ],
                }
            ],
        },
    }


def _simulate_emit_inputs(seed: int) -> dict[str, dict]:
    rnd = _rnd("simulate_emit", seed)
    scale = rnd.uniform(0.9, 1.1)
    return {
        "scenario.json": {
            "horizon": 200,
            "seed": rnd.randrange(2**32),
            "population": {
                "size": 2000,
                "segments": [
                    {
                        "name": "all",
                        "fraction": 1.0,
                        "gamma_range": [0.2 * scale, 0.4 * scale],
                        "bass": {"p": 0.03, "q": 0.38},
                        "initial_headroom": 0.5,
                        "headroom_jitter": 0.05,
                    }
                ],
            },
            "schedule": {
                "kind": "continuous",
                "c0": 1.0,
                "resource_growth": 0.3 * rnd.uniform(0.95, 1.05),
                "alpha": 0.08,
            },
            "satisfaction": {"k": 1.0, "b": 0.0, "lambda": 2.25},
            "churn": {"s_churn": -0.1, "eta": 0.5, "cap": 0.05},
            "interventions": [
                {
                    "kind": "novelty_reset",
                    "rho": 0.3,
                    "decay_delta": 0.7,
                    "schedule": {"start": 40, "period": 40},
                },
                {
                    "kind": "expectation_management",
                    "weight_w": 0.4,
                    "announce_discount_a": 0.85,
                    "schedule": {"at": 100},
                },
                {
                    "kind": "strategic_dip",
                    "depth": 0.15,
                    "duration": 4,
                    "schedule": {"at": 60},
                },
            ],
        }
    }


def _cadence_mid_inputs(seed: int) -> dict[str, dict]:
    rnd = _rnd("cadence_mid", seed)
    jump = math.log(2.0)
    return {
        "scenario.json": {
            "horizon": 200,
            "seed": rnd.randrange(2**32),
            "population": {"size": 2000, "segments": _segments(rnd)},
            "schedule": {
                "kind": "punctuated",
                "c0": 1.0,
                "releases": [{"time": t, "log_jump": jump} for t in range(25, 200, 25)],
            },
            "satisfaction": {"k": 1.0, "b": 0.0},
        },
        # not an adaptsim document: the CLI arguments that vary with the seed
        "budget.json": {"budget": 7 * jump * rnd.uniform(0.9, 1.1)},
    }


def _read_csv(path: pathlib.Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_run_csv(path: pathlib.Path, horizon: int) -> list[str]:
    """The three state fractions sum to 1 and frac_churned never decreases."""
    rows = _read_csv(path)
    problems = []
    if len(rows) != horizon:
        problems.append(f"{path.name}: {len(rows)} rows, expected {horizon}")
    churned_before = 0.0
    for row in rows:
        fracs = [float(row[k]) for k in ("frac_potential", "frac_active", "frac_churned")]
        if abs(math.fsum(fracs) - 1.0) > 1e-9:
            problems.append(f"{path.name}: fractions sum to {math.fsum(fracs)!r} at t={row['t']}")
            break
        if fracs[2] < churned_before:
            problems.append(f"{path.name}: frac_churned decreases at t={row['t']}")
            break
        churned_before = fracs[2]
    return problems


def _check_simulate_large(out: pathlib.Path) -> list[str]:
    return _check_run_csv(out / "sim" / "run.csv", 100)


def _check_simulate_emit(out: pathlib.Path) -> list[str]:
    sim = out / "sim"
    problems = _check_run_csv(sim / "run.csv", 200)
    with open(sim / "traces.csv", "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    if lines != 200 * 2000 + 1:
        problems.append(f"traces.csv: {lines} lines, expected {200 * 2000 + 1}")
    for name in ("satisfaction.svg", "segments.svg", "phases.svg"):
        text = (sim / name).read_text(encoding="utf-8")
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            problems.append(f"{name}: not a complete SVG document")
    manifest = json.loads((sim / "manifest.json").read_text(encoding="utf-8"))
    expected = ["run.csv", "traces.csv", "satisfaction.svg", "segments.svg", "phases.svg",
                "manifest.json"]
    if manifest.get("outputs") != expected:
        problems.append(f"manifest.json: outputs {manifest.get('outputs')!r}")
    return problems


def _check_sweep_small(out: pathlib.Path) -> list[str]:
    rows = _read_csv(out / "sweep.csv")
    problems = []
    if [row["sample"] for row in rows] != [str(i) for i in range(256)]:
        problems.append(f"sweep.csv: {len(rows)} rows, expected samples 0..255 in order")
    for row in rows:
        if row["error"]:
            problems.append(f"sweep.csv: sample {row['sample']} failed: {row['error']}")
            break
        for metric in SWEEP_METRICS[:3]:
            if not math.isfinite(float(row[metric])):
                problems.append(f"sweep.csv: sample {row['sample']} {metric} not finite")
    return problems


def _check_cadence_mid(out: pathlib.Path) -> list[str]:
    with open(out / "cadence.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    table = [(int(iv), float(obj)) for iv, obj in rows[1:-1]]
    problems = []
    if rows[0] != ["interval", "objective"] or [iv for iv, _ in table] != list(range(4, 20)):
        problems.append("cadence.csv: expected one row per interval 4..19")
        return problems
    if not all(math.isfinite(obj) for _, obj in table):
        problems.append("cadence.csv: non-finite objective")
    top = max(obj for _, obj in table)
    best = min(iv for iv, obj in table if obj >= top - 1e-9)
    if rows[-1] != ["best", str(best)]:
        problems.append(f"cadence.csv: best row {rows[-1]!r}, table says {best}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    agent_steps: int  # simulated agent-steps in one operation
    inputs: Callable[[int], dict[str, dict]]
    argv: Callable[[pathlib.Path, dict[str, dict]], list[str]]
    artifacts: tuple[str, ...]  # paths under the work directory, digested in order
    check: Callable[[pathlib.Path], list[str]]
    pinned: str  # artifact digest at DEFAULT_SEED

    def digest(self, out: pathlib.Path) -> str:
        h = hashlib.sha256()
        for rel in self.artifacts:
            h.update(rel.encode() + b"\0")
            h.update((out / rel).read_bytes())
        return h.hexdigest()[:16]

    def verify(self, out: pathlib.Path, seed: int) -> list[str]:
        problems = self.check(out)
        if seed == DEFAULT_SEED and not problems:
            got = self.digest(out)
            if got != self.pinned:
                problems.append(f"artifact digest {got}, pinned {self.pinned}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate_large",
            agent_steps=100_000 * 100,
            inputs=_simulate_large_inputs,
            argv=lambda out, docs: ["simulate", "--config", str(out / "scenario.json"),
                                    "--out", str(out / "sim")],
            artifacts=("sim/run.csv",),
            check=_check_simulate_large,
            pinned="b5ec4289b43551ae",
        ),
        Workload(
            name="sweep_small",
            agent_steps=256 * 30 * 60,
            inputs=_sweep_small_inputs,
            argv=lambda out, docs: ["sweep", "--config", str(out / "scenario.json"),
                                    "--sweep", str(out / "sweep.json"), "--parallel", "1",
                                    "--out", str(out / "sweep.csv")],
            artifacts=("sweep.csv",),
            check=_check_sweep_small,
            pinned="e12b000dba90fd5d",
        ),
        Workload(
            name="simulate_emit",
            agent_steps=2000 * 200,
            inputs=_simulate_emit_inputs,
            argv=lambda out, docs: ["simulate", "--config", str(out / "scenario.json"),
                                    "--out", str(out / "sim"), "--plots", "--agent-traces"],
            artifacts=("sim/run.csv", "sim/traces.csv", "sim/satisfaction.svg",
                       "sim/segments.svg", "sim/phases.svg"),
            check=_check_simulate_emit,
            pinned="bd33a6f143db4bd7",
        ),
        Workload(
            name="cadence_mid",
            agent_steps=16 * 2000 * 200,
            inputs=_cadence_mid_inputs,
            argv=lambda out, docs: ["optimize-cadence", "--config", str(out / "scenario.json"),
                                    "--budget", repr(docs["budget.json"]["budget"]),
                                    "--intervals", "4..19", "--out", str(out / "cadence.csv")],
            artifacts=("cadence.csv",),
            check=_check_cadence_mid,
            pinned="0a400fcc3e3b5f87",
        ),
    )
}
