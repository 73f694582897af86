"""Per-layer spans and counts, recorded from outside the adaptsim package.

`install` replaces public functions of adaptsim's modules at the sites where
other modules look them up: the names a module imported (`engine.run` as
seen by `cli`), module attributes read at call time (`config` functions
imported inside `analysis` functions), and methods on classes (`rng`
banks, event schedules, charts).  The package itself is not edited.

Each wrapped call is a span with a label such as ``engine.run``; the label's
prefix is its layer.  A span's self time is its duration minus the time of
the spans it directly encloses.  Spans are aggregated per label as they
close rather than kept one by one: one sweep operation opens over 100k.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Calls, inclusive and self time per span label, and work counts, since reset.

    Each wrapper holds its label's row directly, so a traced call costs two
    clock reads and a few list updates.
    """

    def __init__(self):
        self._stack: list[list] = []  # [layer, time of directly enclosed spans]
        self._spans: dict[str, list] = {}  # label -> [calls, inclusive s, self s]
        self._entries: dict[str, list] = {}  # layer -> [calls entering it from another layer]
        self.counts: Counter = Counter()  # named work counts

    def reset(self) -> None:
        for row in self._spans.values():
            row[:] = [0, 0.0, 0.0]
        for row in self._entries.values():
            row[0] = 0
        self.counts.clear()

    def wrap(self, label: str, fn, count=None):
        """`fn` traced as `label`; `count(counts, args, kwargs)` runs before the call."""
        layer = label.split(".", 1)[0]
        stack = self._stack
        span = self._spans.setdefault(label, [0, 0.0, 0.0])
        entered = self._entries.setdefault(layer, [0])
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or stack[-1][0] != layer:
                entered[0] += 1
            if count is not None:
                count(counts, args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                span[0] += 1
                span[1] += dur
                span[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def calls(self, label: str) -> int:
        return self._spans.get(label, [0])[0]

    def incl(self, label: str) -> float:
        return self._spans.get(label, [0, 0.0])[1]

    def self_s(self, label: str) -> float:
        return self._spans.get(label, [0, 0.0, 0.0])[2]

    def entries(self, layer: str) -> int:
        return self._entries.get(layer, [0])[0]

    def layer_self(self, layer: str) -> float:
        return sum(row[2] for k, row in self._spans.items() if k.split(".", 1)[0] == layer)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        c = self.counts
        rng_lanes = c["rng.lanes_computed"]
        rng_draw_s = self.self_s("rng.draw")
        kernel_s = self.layer_self("kernels")
        engine_s = self.layer_self("engine")
        csv_s = self.incl("output.run_csv_text") + self.incl("output.traces_csv_text")
        return {
            "rng.self_s": self.layer_self("rng"),
            "rng.calls": self.entries("rng"),
            "rng.lanes_computed": rng_lanes,
            "rng.lanes_advanced": c["rng.lanes_advanced"],
            "rng.useful_lane_frac": _ratio(c["rng.lanes_advanced"], rng_lanes),
            "rng.ns_per_lane": _ratio(rng_draw_s * 1e9, rng_lanes),
            "kernels.self_s": kernel_s,
            "kernels.calls": self.entries("kernels"),
            "kernels.elements": c["kernels.elements"],
            "kernels.ns_per_element": _ratio(kernel_s * 1e9, c["kernels.elements"]),
            "engine.self_s": engine_s,
            "engine.runs": c["engine.runs"],
            "engine.steps": c["engine.steps"],
            "engine.us_per_step": _ratio(engine_s * 1e6, c["engine.steps"]),
            "engine.ns_per_agent_step": _ratio(engine_s * 1e9, c["engine.agent_steps"]),
            "config.self_s": self.layer_self("config"),
            "config.calls": self.entries("config"),
            "population.self_s": self.layer_self("population"),
            "population.agents_built": c["population.agents_built"],
            "schedule.self_s": self.layer_self("schedule"),
            "schedule.calls": self.entries("schedule"),
            "interventions.calls": self.entries("interventions"),
            "interventions.self_s": self.layer_self("interventions"),
            "analysis.lhs_s": self.incl("analysis.lhs_sample"),
            "analysis.metrics_s": self.incl("analysis.metric"),
            "analysis.classify_phases_calls": self.calls("analysis.classify_phases"),
            "analysis.dispatch_self_s": self.self_s("analysis.run_sweep")
            + self.self_s("analysis.optimize_cadence"),
            "output.run_csv_s": self.incl("output.run_csv_text"),
            "output.traces_csv_s": self.incl("output.traces_csv_text"),
            "output.rows": c["output.rows"],
            "output.bytes": c["output.bytes"],
            "output.ns_per_row": _ratio(csv_s * 1e9, c["output.rows"]),
            "output.write_s": self.self_s("output.emit_run"),
            "svgplot.self_s": self.layer_self("svgplot"),
            "svgplot.charts": self.calls("svgplot.render"),
            "cli.self_s": self.layer_self("cli"),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_lanes(counts, args, kwargs):
    bank = args[0]
    mask = kwargs.get("mask", args[1] if len(args) > 1 else None)
    lanes = bank.n
    counts["rng.lanes_computed"] += lanes
    counts["rng.lanes_advanced"] += lanes if mask is None else int(np.count_nonzero(mask))


def _count_elements(counts, args, kwargs):
    counts["kernels.elements"] += max((a.size for a in args if isinstance(a, np.ndarray)), default=1)


def _count_run(counts, args, kwargs):
    scenario = args[0]
    counts["engine.runs"] += 1
    counts["engine.steps"] += scenario.horizon
    counts["engine.agent_steps"] += scenario.horizon * scenario.population_size


def _count_agents(counts, args, kwargs):
    counts["population.agents_built"] += args[1]


def _count_run_csv(counts, args, kwargs):
    counts["output.rows"] += args[0].horizon + 1


def _count_traces_csv(counts, args, kwargs):
    run_out = args[0]
    counts["output.rows"] += run_out.horizon * run_out.scenario.population_size + 1


def install(tracer: Tracer) -> None:
    """Wrap every traced call site; call once, after importing adaptsim."""
    from adaptsim import analysis, cli, config, engine, interventions, output, rng, svgplot

    def patch(owner, attr, label, count=None):
        setattr(owner, attr, tracer.wrap(label, getattr(owner, attr), count))

    def patch_text(owner, attr, label, count):
        # the CSV text is ASCII, so its length is its size in bytes
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            text = fn(*args, **kwargs)
            tracer.counts["output.bytes"] += len(text)
            return text

        setattr(owner, attr, tracer.wrap(label, measured, count))

    patch(cli, "main", "cli.main")

    for attr in ("load_scenario", "load_document", "load_sweep_spec", "scenario_digest"):
        patch(cli, attr, f"config.{attr}")
    patch(output, "scenario_digest", "config.scenario_digest")
    # analysis imports this inside its functions, so the module attribute is the site
    patch(config, "parse_scenario_document", "config.parse_scenario_document")

    patch(engine, "capability_series", "schedule.capability_series")
    patch(analysis, "cadence_to_schedule", "schedule.cadence_to_schedule")
    patch(analysis, "capability_at", "schedule.capability_at")

    patch(engine, "build_population", "population.build_population", _count_agents)

    for cls in (rng.StreamBank, rng.Stream):
        patch(cls, "__init__", "rng.seed")
        patch(cls, "uniform", "rng.draw")
    patch(rng.StreamBank, "next_u64", "rng.draw", _count_lanes)
    patch(rng.Stream, "randint", "rng.draw")
    patch(rng, "derive_seed", "rng.seed")

    for attr in ("bass_hazard", "churn_probability", "log_satisfaction", "update_reference"):
        patch(engine, attr, f"kernels.{attr}", _count_elements)

    patch(cli, "run", "engine.run", _count_run)
    patch(analysis, "run", "engine.run", _count_run)
    patch(engine, "run", "engine.run", _count_run)  # run_many's sequential path
    patch(analysis, "run_many", "engine.run_many")

    patch(interventions.EventSchedule, "fires_at", "interventions.fires_at")

    patch(cli, "run_sweep", "analysis.run_sweep")
    patch(cli, "optimize_cadence", "analysis.optimize_cadence")
    patch(analysis, "lhs_sample", "analysis.lhs_sample")
    for owner in (cli, output, analysis):
        patch(owner, "classify_phases", "analysis.classify_phases")
    patch(analysis, "time_avg_active_satisfaction", "analysis.metric")
    for name, fn in list(analysis.METRICS.items()):
        analysis.METRICS[name] = tracer.wrap("analysis.metric", fn)

    patch(cli, "emit_run", "output.emit_run")
    patch_text(output, "run_csv_text", "output.run_csv_text", _count_run_csv)
    patch_text(output, "traces_csv_text", "output.traces_csv_text", _count_traces_csv)
    for attr in ("satisfaction_chart", "segments_chart", "phases_chart"):
        patch(output, attr, "output.chart")

    patch(svgplot.LineChart, "render", "svgplot.render")
