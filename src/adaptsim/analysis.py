"""Post-run analytics: phase labeling, gap metrics, cadence search, sweeps.

Everything here consumes RunOutput or plain series and is pure; the
cadence optimizer and sweep runner fan out independent engine runs with
common or derived seeds and assemble order-independent tables.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, replace

import numpy as np

from . import config, rng
from .engine import RunFailure, RunOutput, Scenario, map_ordered, run, run_many
from .errors import ConfigurationError, DomainError
from .schedule import BudgetedCadence, cadence_to_schedule, capability_at


class PhaseKind(str, enum.Enum):
    RAPID_GAIN = "rapid_gain"
    DIMINISHING_RETURNS = "diminishing_returns"
    STABILIZATION = "stabilization"
    RESURGENCE = "resurgence"


@dataclass(frozen=True)
class PhaseLabel:
    """A half-open step interval [start, end) with a single phase kind."""

    kind: PhaseKind
    start: int
    end: int


def smooth_series(series, window: int) -> np.ndarray:
    """Centered moving average, window shrinking symmetrically at the ends."""
    arr = np.asarray(series, dtype=np.float64)
    half = np.minimum(window // 2, np.minimum(np.arange(arr.size), arr.size - 1 - np.arange(arr.size)))
    cs = np.concatenate([[0.0], np.cumsum(arr)])
    i = np.arange(arr.size)
    return (cs[i + half + 1] - cs[i - half]) / (2 * half + 1)


def slope_series(smoothed: np.ndarray) -> np.ndarray:
    """Per-step slope: central differences inside, one-sided at the ends."""
    return np.gradient(smoothed)


def classify_phases(
    series,
    window: int = 9,
    theta_hi: float | None = None,
    theta_lo: float | None = None,
    min_plateau: int = 10,
) -> list[PhaseLabel]:
    """Segment a trajectory into gain, slowdown, plateau, and revival phases.

    Steps are labeled from the smoothed slope: slope >= theta_hi is a
    rapid gain (a resurgence instead once a plateau has already closed);
    |slope| <= theta_lo sustained for min_plateau steps is stabilization;
    remaining positive-slope steps after a gain are diminishing returns;
    anything left inherits the nearest preceding label.  Unset thresholds
    default to 25% and 2.5% of the peak absolute smoothed slope, keeping
    the classifier scale-free.  A series with no qualifying gain or
    plateau at all is reported as one stabilization interval.
    """
    arr = np.asarray(series, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("series must be finite")
    if window < 1 or window % 2 == 0:
        raise DomainError("window must be an odd positive integer")
    if arr.size <= window:
        raise DomainError(f"series of length {arr.size} is too short for window {window}")
    if min_plateau < 1:
        raise DomainError("min_plateau must be positive")
    if theta_hi is not None and theta_lo is not None and not (0.0 < theta_lo < theta_hi):
        raise DomainError("need 0 < theta_lo < theta_hi")
    slope = slope_series(smooth_series(arr, window))
    peak = float(np.max(np.abs(slope)))
    hi = 0.25 * peak if theta_hi is None else theta_hi
    lo = 0.025 * peak if theta_lo is None else theta_lo

    n = arr.size
    labels: list[PhaseKind | None] = [None] * n

    # plateaus first: they anchor both stabilization and resurgence
    plateau_runs = []
    start = None
    for i in range(n + 1):
        flat = i < n and abs(slope[i]) <= lo
        if flat and start is None:
            start = i
        elif not flat and start is not None:
            if i - start >= min_plateau:
                plateau_runs.append((start, i))
            start = None
    for a, b in plateau_runs:
        labels[a:b] = [PhaseKind.STABILIZATION] * (b - a)

    for i in range(n):
        if labels[i] is None and slope[i] >= hi:
            closed = any(b <= i for _, b in plateau_runs)
            labels[i] = PhaseKind.RESURGENCE if closed else PhaseKind.RAPID_GAIN

    gain_seen = False
    for i in range(n):
        if labels[i] in (PhaseKind.RAPID_GAIN, PhaseKind.RESURGENCE):
            gain_seen = True
        elif labels[i] is None and gain_seen and slope[i] > 0.0:
            labels[i] = PhaseKind.DIMINISHING_RETURNS

    if all(lab is None for lab in labels):
        return [PhaseLabel(PhaseKind.STABILIZATION, 0, n)]
    last: PhaseKind | None = None
    for i in range(n):
        if labels[i] is None:
            labels[i] = last
        else:
            last = labels[i]
    first = next(lab for lab in labels if lab is not None)
    for i in range(n):
        if labels[i] is None:
            labels[i] = first
        else:
            break

    out: list[PhaseLabel] = []
    for i, lab in enumerate(labels):
        if out and out[-1].kind is lab:
            out[-1] = replace(out[-1], end=i + 1)
        else:
            out.append(PhaseLabel(lab, i, i + 1))
    return out


def finite_stretch(series) -> tuple[int, np.ndarray]:
    """The first contiguous run of finite values and the step it starts at.

    Steps before the first participant and after the population empties
    carry NaN; the run is empty when the series has no finite value.
    """
    arr = np.asarray(series, dtype=np.float64)
    finite = np.append(np.isfinite(arr), False)  # the sentinel ends every run
    first = int(np.argmax(finite))
    end = first + int(np.argmin(finite[first:]))
    return first, arr[first:end]


def _minmax_norm(values: np.ndarray) -> np.ndarray | None:
    lo = float(np.nanmin(values))
    hi = float(np.nanmax(values))
    span = hi - lo
    if span <= 1e-12 * max(1.0, abs(lo), abs(hi)):
        return None
    return (values - lo) / span


def satisfaction_gap(run_out: RunOutput) -> np.ndarray:
    """Normalized log-capability minus normalized mean satisfaction.

    Both series are min-max normalized over the horizon; if either is
    constant the gap is defined as all zeros.  Steps with no active
    agents carry NaN satisfaction and therefore NaN gap.
    """
    if run_out.horizon < 2:
        raise DomainError("need a horizon of at least 2 steps")
    if int(run_out.participants.sum()) == 0:
        raise DomainError("no active agents at any step")
    norm_c = _minmax_norm(np.log(run_out.capability))
    norm_s = _minmax_norm(run_out.mean_satisfaction)
    if norm_c is None or norm_s is None:
        return np.zeros(run_out.horizon)
    return norm_c - norm_s


def time_to_half_peak(series, baseline: float) -> int | None:
    """First step after the peak at which the series has lost half its
    rise over baseline; None if it never does."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("series must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError("series must be finite")
    peak_t = int(np.argmax(arr))
    threshold = baseline + 0.5 * (float(arr[peak_t]) - baseline)
    below = np.flatnonzero(arr[peak_t + 1 :] <= threshold)
    return None if below.size == 0 else peak_t + 1 + int(below[0])


# ---------------------------------------------------------------------------
# summary metrics


def time_avg_active_satisfaction(run_out: RunOutput) -> float | None:
    """Average satisfaction per active agent-step (churners' last step
    included), weighting steps by how many agents experienced them."""
    weights = run_out.participants.astype(np.float64)
    total = float(weights.sum())
    if total == 0.0:
        return None
    lived = weights > 0
    return float(np.dot(run_out.mean_satisfaction[lived], weights[lived]) / total)


def final_adopted_fraction(run_out: RunOutput) -> float | None:
    return float(run_out.frac_active[-1] + run_out.frac_churned[-1])


def churn_total(run_out: RunOutput) -> float | None:
    return float(run_out.frac_churned[-1])


def peak_satisfaction(run_out: RunOutput) -> float | None:
    s = run_out.mean_satisfaction
    if np.all(np.isnan(s)):
        return None
    return float(np.nanmax(s))


def time_to_stabilization(run_out: RunOutput) -> float | None:
    """Start step of the first stabilization phase of mean satisfaction,
    classified with default thresholds over the contiguous stretch of
    steps that have active agents; None when no plateau qualifies."""
    first, stretch = finite_stretch(run_out.mean_satisfaction)
    try:
        phases = classify_phases(stretch)
    except DomainError:
        return None
    for ph in phases:
        if ph.kind is PhaseKind.STABILIZATION:
            return float(first + ph.start)
    return None


METRICS = {
    "time_avg_active_satisfaction": time_avg_active_satisfaction,
    "final_adopted_fraction": final_adopted_fraction,
    "churn_total": churn_total,
    "peak_satisfaction": peak_satisfaction,
    "time_to_stabilization": time_to_stabilization,
}


# ---------------------------------------------------------------------------
# cadence optimization


@dataclass(frozen=True)
class CadenceSearch:
    """Search over release intervals spending a fixed log-capability budget.

    Every candidate runs with the base scenario's seed (common random
    numbers), so objective differences reflect pacing alone.  Ties
    within tie_tolerance go to the smallest interval: float objectives
    of equivalent pacings differ only by rounding noise.
    """

    base: Scenario
    total_log_budget: float
    intervals: tuple[int, ...]
    tie_tolerance: float = 1e-9

    def validate(self) -> None:
        self.base.validate()
        if not (np.isfinite(self.total_log_budget) and self.total_log_budget > 0.0):
            raise ConfigurationError("total_log_budget must be a positive finite number")
        if len(self.intervals) < 2:
            raise ConfigurationError("need at least 2 candidate intervals")
        for iv in self.intervals:
            if not isinstance(iv, int) or isinstance(iv, bool) or iv < 1:
                raise ConfigurationError("candidate intervals must be integers >= 1")
            if iv >= self.base.horizon:
                raise ConfigurationError(
                    f"candidate interval {iv} does not fit horizon {self.base.horizon}"
                )
        if not (np.isfinite(self.tie_tolerance) and self.tie_tolerance >= 0.0):
            raise ConfigurationError("tie_tolerance must be >= 0")


@dataclass(frozen=True)
class CadenceResult:
    best_interval: int
    table: tuple[tuple[int, float], ...]


def cadence_scenario(search: CadenceSearch, interval: int) -> Scenario:
    """The base scenario with its schedule replaced by the paced releases."""
    cadence = BudgetedCadence(search.total_log_budget, interval)
    c0 = capability_at(search.base.schedule, 0)
    sched = cadence_to_schedule(cadence, search.base.horizon, c0)
    return replace(search.base, schedule=sched)


def optimize_cadence(search: CadenceSearch, workers: int | None = None) -> CadenceResult:
    """Exhaustively score every candidate interval and pick the winner.

    The objective is time-averaged active satisfaction.  The table keeps
    candidate order for audit; the winner is the smallest interval whose
    objective is within tie_tolerance of the maximum.
    """
    search.validate()
    scenarios = [cadence_scenario(search, iv) for iv in search.intervals]
    outs = run_many(scenarios, workers=workers)
    table = []
    for iv, out in zip(search.intervals, outs):
        if isinstance(out, RunFailure):
            raise ConfigurationError(f"interval {iv}: {out.error}")
        obj = time_avg_active_satisfaction(out)
        if obj is None:
            raise DomainError(f"interval {iv}: no active agent-steps to average")
        table.append((iv, obj))
    best_obj = max(obj for _, obj in table)
    best = min(iv for iv, obj in table if obj >= best_obj - search.tie_tolerance)
    return CadenceResult(best_interval=best, table=tuple(table))


# ---------------------------------------------------------------------------
# Latin-hypercube sweeps


@dataclass(frozen=True)
class SweepDimension:
    """One swept quantity; every path in `paths` receives the sampled value.

    Multiple paths let logically single parameters that appear in
    several document fields (both ends of a range, say) move together.
    """

    name: str
    paths: tuple[tuple[str | int, ...], ...]
    lo: float
    hi: float

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("sweep dimension name must be non-empty")
        if not self.paths or any(len(p) == 0 for p in self.paths):
            raise ConfigurationError(f"dimension {self.name!r}: needs at least one non-empty path")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise ConfigurationError(f"dimension {self.name!r}: need lo < hi, both finite")


@dataclass(frozen=True)
class SweepSpec:
    dimensions: tuple[SweepDimension, ...]
    samples: int
    seed: int
    metrics: tuple[str, ...]

    def validate(self) -> None:
        if not self.dimensions:
            raise ConfigurationError("sweep needs at least one dimension")
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ConfigurationError("sweep dimension names must be unique")
        if not isinstance(self.samples, int) or isinstance(self.samples, bool) or self.samples < 2:
            raise ConfigurationError("sweep.samples must be an integer >= 2")
        if (
            not isinstance(self.seed, int)
            or isinstance(self.seed, bool)
            or not (0 <= self.seed < 2**64)
        ):
            raise ConfigurationError("sweep.seed must be an unsigned 64-bit integer")
        if not self.metrics:
            raise ConfigurationError("sweep.metrics must be non-empty")
        for m in self.metrics:
            if m not in METRICS:
                known = ", ".join(sorted(METRICS))
                raise ConfigurationError(f"unknown metric {m!r}; known metrics: {known}")


def lhs_sample(spec: SweepSpec) -> np.ndarray:
    """Latin-hypercube matrix, shape (samples, dimensions).

    Per dimension: one uniform draw inside each of the `samples`
    equal-width strata of [lo, hi], visited in a stream-derived
    permutation, so marginal stratification is exact by construction.
    Each dimension consumes its own substream of spec.seed.
    """
    spec.validate()
    n = spec.samples
    cols = []
    for d, dim in enumerate(spec.dimensions):
        stream = rng.Stream(spec.seed, d, rng.PURPOSE_SAMPLING)
        offsets = np.asarray([stream.uniform() for _ in range(n)])
        strata_vals = dim.lo + (np.arange(n) + offsets) * (dim.hi - dim.lo) / n
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = stream.randint(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        cols.append(strata_vals[perm])
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class SweepRow:
    index: int
    values: tuple[float, ...]
    metrics: dict[str, float | None]
    error: str | None = None


def patch_document(document: dict, path: tuple[str | int, ...], value: float) -> None:
    """Set a numeric leaf in a nested dict/list document, in place."""
    node = document
    walked = []
    for key in path[:-1]:
        walked.append(key)
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            raise ConfigurationError(
                f"sweep path {_path_str(path)}: missing at {_path_str(tuple(walked))}"
            ) from None
    leaf = path[-1]
    try:
        old = node[leaf]
    except (KeyError, IndexError, TypeError):
        raise ConfigurationError(f"sweep path {_path_str(path)}: missing leaf") from None
    if not isinstance(old, (int, float)) or isinstance(old, bool):
        raise ConfigurationError(f"sweep path {_path_str(path)}: target is not numeric")
    node[leaf] = value


def _path_str(path: tuple[str | int, ...]) -> str:
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else str(key))
    return out


def parse_sweep_document(document: dict) -> SweepSpec:
    """Validate a sweep document and build its SweepSpec."""
    spec = config.read_record(SweepSpec, document, "sweep")
    with config.rewrap("sweep"):
        spec.validate()
    return spec


def load_sweep_spec(path) -> SweepSpec:
    return parse_sweep_document(config.load_json(path))


def _sweep_sample(job: tuple[dict, tuple[str, ...]]) -> tuple[dict, str | None]:
    document, metric_names = job
    try:
        out = run(config.parse_scenario_document(document))
        return {m: METRICS[m](out) for m in metric_names}, None
    except (ConfigurationError, DomainError) as exc:
        return {m: None for m in metric_names}, str(exc)


def run_sweep(
    spec: SweepSpec, base_document: dict, workers: int | None = None
) -> list[SweepRow]:
    """Evaluate an LHS design against a base scenario document.

    Sample i patches the document at every dimension path, overrides the
    seed with one derived from (spec.seed, i), runs, and computes the
    requested metrics.  Failures are recorded in their row without
    stopping the sweep; rows come back in sample order regardless of
    worker interleaving.
    """
    spec.validate()
    config.parse_scenario_document(base_document)  # fail fast if the base itself is broken
    matrix = lhs_sample(spec)
    jobs = []
    for i in range(spec.samples):
        doc = copy.deepcopy(base_document)
        for d, dim in enumerate(spec.dimensions):
            for path in dim.paths:
                patch_document(doc, path, float(matrix[i, d]))
        doc["seed"] = rng.derive_seed(spec.seed, i)
        jobs.append((doc, spec.metrics))
    return [
        SweepRow(index=i, values=tuple(float(v) for v in matrix[i]), metrics=metric_values, error=error)
        for i, (metric_values, error) in enumerate(map_ordered(_sweep_sample, jobs, workers))
    ]
