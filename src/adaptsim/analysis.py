"""Post-run analytics: phase labeling, gap metrics, cadence search, sweeps.

Everything here consumes RunOutput or plain series and is pure; the
cadence optimizer and sweep runner fan out independent engine runs with
common or derived seeds and assemble order-independent tables.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import config, rng
from .engine import RunOutput, Scenario, map_ordered, run, run_many
from .errors import ConfigurationError, DomainError, check_int, check_real, check_seed, record
from .schedule import BudgetedCadence, cadence_to_schedule, capability_at


class PhaseKind(str, enum.Enum):
    RAPID_GAIN = "rapid_gain"
    DIMINISHING_RETURNS = "diminishing_returns"
    STABILIZATION = "stabilization"
    RESURGENCE = "resurgence"


_KINDS = tuple(PhaseKind)  # a step's kind code is its index here


@dataclass(frozen=True)
class PhaseLabel:
    """A half-open step interval [start, end) with a single phase kind."""

    kind: PhaseKind
    start: int
    end: int


def smooth_series(series, window: int) -> np.ndarray:
    """Centered moving average, window shrinking symmetrically at the ends.

    Step i averages the 2*half + 1 steps around it, half = min(window // 2,
    i, n - 1 - i), as the difference of two entries of the series'
    cumulative sum (from 0.0) divided by that count.  A window that is not
    an odd positive integer raises DomainError.
    """
    _check_window(window)
    arr = np.asarray(series, dtype=np.float64)
    n, h = arr.size, window // 2
    cs = np.empty(n + 1)
    cs[0] = 0.0
    arr.cumsum(out=cs[1:])
    out = np.empty(n)
    out[h : n - h] = (cs[window:] - cs[:-window]) / window
    # the shrinking windows: step i < h averages steps 0 .. 2i (cs[2i + 1]
    # is cs[2i + 1] - cs[0] for every value), step n - 1 - i steps
    # n - 1 - 2i .. n - 1; a series of at most 2h steps has only these
    left, right = min(h, (n + 1) // 2), min(h, n // 2)
    counts = np.arange(1, 2 * left + 1, 2)
    out[:left] = cs[1 : 2 * left : 2] / counts
    out[n - right :] = (cs[n] - cs[n - 2 * right + 1 : n : 2]) / counts[:right][::-1]
    return out


def _check_window(window) -> None:
    if window < 1 or window % 2 == 0:
        raise DomainError("window must be an odd positive integer")


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
    plateau at all is reported as one stabilization interval, and one
    whose smoothed slopes leave the float range raises DomainError.
    """
    arr = np.asarray(series, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError("series must be finite")
    _check_window(window)
    n = arr.size
    if n <= window:
        raise DomainError(f"series of length {n} is too short for window {window}")
    if min_plateau < 1:
        raise DomainError("min_plateau must be positive")
    if theta_hi is not None and theta_lo is not None and not (0.0 < theta_lo < theta_hi):
        raise DomainError("need 0 < theta_lo < theta_hi")
    # numpy.gradient's differences: central inside, one-sided at the ends
    slope = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        f = smooth_series(arr, window)
        slope[1:-1] = (f[2:] - f[:-2]) / 2.0
        slope[0], slope[-1] = f[1] - f[0], f[-1] - f[-2]
    if not np.isfinite(slope).all():
        raise DomainError("series is too large to smooth: its smoothed slopes are not finite")
    flatness = np.abs(slope)
    peak = float(flatness.max())
    hi = 0.25 * peak if theta_hi is None else theta_hi
    lo = 0.025 * peak if theta_lo is None else theta_lo

    starts, ends = true_runs(flatness <= lo)
    long = ends - starts >= min_plateau
    plateau = np.zeros(n, dtype=bool)
    for a, b in zip(starts[long].tolist(), ends[long].tolist()):
        plateau[a:b] = True
    gain = ~plateau & (slope >= hi)
    # a step's kind code indexes _KINDS; later rules override earlier ones
    code = np.full(n, -1, dtype=np.int8)
    code[np.logical_or.accumulate(gain) & (slope > 0.0)] = _KINDS.index(PhaseKind.DIMINISHING_RETURNS)
    code[gain] = _KINDS.index(PhaseKind.RAPID_GAIN)
    if long.any():  # gains after the first plateau has ended are resurgences
        closed = int(ends[long][0])
        code[closed:][gain[closed:]] = _KINDS.index(PhaseKind.RESURGENCE)
    code[plateau] = _KINDS.index(PhaseKind.STABILIZATION)
    # each unlabeled step takes the preceding label, leading ones the first
    steps = np.flatnonzero(code >= 0)
    if not steps.size:
        return [PhaseLabel(PhaseKind.STABILIZATION, 0, n)]
    kinds = code[steps]
    turns = np.flatnonzero(kinds[1:] != kinds[:-1]) + 1
    starts = [0, *steps[turns].tolist()]
    kinds = [int(kinds[0]), *kinds[turns].tolist()]
    return [PhaseLabel(_KINDS[k], a, b) for k, a, b in zip(kinds, starts, [*starts[1:], n])]


def true_runs(mask) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the maximal runs of True in a boolean array;
    run k covers the half-open steps [starts[k], ends[k])."""
    padded = np.zeros(len(mask) + 2, dtype=bool)
    padded[1:-1] = mask
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2]


def finite_stretch(series) -> tuple[int, np.ndarray]:
    """The first contiguous run of finite values and the step it starts at.

    Steps before the first participant and after the population empties
    carry NaN; the run is empty when the series has no finite value.
    """
    arr = np.asarray(series, dtype=np.float64)
    starts, ends = true_runs(np.isfinite(arr))
    first, end = (int(starts[0]), int(ends[0])) if starts.size else (0, 0)
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
    if not math.isfinite(baseline):
        raise DomainError("baseline must be finite")
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
    s = s[~np.isnan(s)]
    return float(s.max()) if s.size else None


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

TIE_TOLERANCE = 1e-9


@record
class CadenceSearch:
    """Search over release intervals spending a fixed log-capability budget.

    Building one builds, and so checks, its candidates: the base scenario
    with each interval's paced releases from the base C(0).  They all
    run with the base seed (common random numbers), so objective
    differences reflect pacing alone.  Ties within TIE_TOLERANCE go to
    the smallest interval: float objectives of equivalent pacings differ
    only by rounding noise.
    """

    base: Scenario
    total_log_budget: float
    intervals: range | tuple[int, ...]  # built in order; a range stays a range
    candidates: tuple[Scenario, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.intervals[:2]) < 2:  # len() of a huge range overflows
            raise ConfigurationError("need at least 2 candidate intervals")
        c0 = capability_at(self.base.schedule, 0)
        schedules = (
            cadence_to_schedule(BudgetedCadence(self.total_log_budget, iv), self.base.horizon, c0)
            for iv in self.intervals
        )
        candidates = tuple(replace(self.base, schedule=s) for s in schedules)
        object.__setattr__(self, "candidates", candidates)


@dataclass(frozen=True)
class CadenceResult:
    best_interval: int
    table: tuple[tuple[int, float], ...]


def optimize_cadence(search: CadenceSearch) -> CadenceResult:
    """Exhaustively score every candidate interval and pick the winner.

    The objective is time-averaged active satisfaction.  The table keeps
    candidate order for audit; the winner is the smallest interval whose
    objective is within TIE_TOLERANCE of the maximum.
    """
    outs = run_many(search.candidates)
    table = []
    for iv, out in zip(search.intervals, outs):
        obj = time_avg_active_satisfaction(out)
        if obj is None:
            raise DomainError(f"interval {iv}: no active agent-steps to average")
        table.append((iv, obj))
    best_obj = max(obj for _, obj in table)
    best = min(iv for iv, obj in table if obj >= best_obj - TIE_TOLERANCE)
    return CadenceResult(best_interval=best, table=tuple(table))


# ---------------------------------------------------------------------------
# Latin-hypercube sweeps


@record
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
        message = f"dimension {self.name!r}: need lo < hi, both finite"
        check_real(self.lo, message)
        check_real(self.hi, message, self.lo, open_lo=True)


@record
class SweepSpec:
    """A Latin-hypercube design over one or more dimensions; checked when built."""

    dimensions: tuple[SweepDimension, ...]
    samples: int
    seed: int
    metrics: tuple[str, ...]

    def __post_init__(self):
        if not self.dimensions:
            raise ConfigurationError("sweep needs at least one dimension")
        names = [d.name for d in self.dimensions]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigurationError(f"sweep.dimensions[{i}].name: sweep dimension names must be unique")
        check_int(self.samples, 2, "sweep.samples must be an integer >= 2")
        check_seed(self.seed, "sweep.seed")
        if not self.metrics:
            raise ConfigurationError("sweep.metrics must be non-empty")
        for m in self.metrics:
            if m not in METRICS:
                known = ", ".join(sorted(METRICS))
                raise ConfigurationError(f"unknown metric {m!r}; known metrics: {known}")
        # sweep.csv's columns: sample, the dimension names, the metrics, error
        taken = {"sample", "error", *self.metrics}
        repeats = [(f"sweep.dimensions[{i}].name", n) for i, n in enumerate(names) if n in taken]
        repeats += [(f"sweep.metrics[{i}]", m) for i, m in enumerate(self.metrics) if m in self.metrics[:i]]
        if repeats:
            path, name = repeats[0]
            raise ConfigurationError(f"{path}: {name!r} repeats a column name of sweep.csv")


def lhs_sample(spec: SweepSpec) -> np.ndarray:
    """Latin-hypercube matrix, shape (samples, dimensions).

    Per dimension: one uniform draw inside each of the `samples`
    equal-width strata of [lo, hi], visited in a stream-derived
    permutation, so marginal stratification is exact by construction.
    Each dimension consumes its own substream of spec.seed.
    """
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
    """Set a numeric leaf in a nested dict/list document.

    ``document`` changes in place, and each dict and list below it on the
    path is replaced by a shallow copy first, so that a container it shares
    with another document, such as a sweep's base, keeps its values.
    """
    node = document
    walked = []
    for key in path[:-1]:
        walked.append(key)
        try:
            child = node[key]
        except (KeyError, IndexError, TypeError):
            raise ConfigurationError(
                f"sweep path {_path_str(path)}: missing at {_path_str(tuple(walked))}"
            ) from None
        if isinstance(child, (dict, list)):
            child = node[key] = copy.copy(child)
        node = child
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
    return config.read_record(SweepSpec, document, "sweep")


def load_sweep_spec(path) -> SweepSpec:
    return parse_sweep_document(config.load_json(path))


def _sweep_sample(job: tuple[dict, tuple[str, ...]]) -> tuple[dict, str | None]:
    document, metric_names = job
    try:
        out = run(config.parse_scenario_document(document))
        return {m: METRICS[m](out) for m in metric_names}, None
    except (ConfigurationError, DomainError) as exc:
        return {m: None for m in metric_names}, str(exc)
    except Exception as exc:  # e.g. a MemoryError: the sample fails, not the sweep
        error = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        return {m: None for m in metric_names}, error


def run_sweep(
    spec: SweepSpec, base_document: dict, workers: int | None = None
) -> list[SweepRow]:
    """Evaluate an LHS design against a base scenario document.

    Sample i patches the document at every dimension path, overrides the
    seed with one derived from (spec.seed, i), runs, and computes the
    requested metrics.  A sample copies only the top-level object and the
    dicts and lists on its paths (see patch_document) and shares the rest
    with the base document, which it never mutates.  A sweep path missing
    from the base document raises ConfigurationError before any sample
    runs; any other failure is recorded in its row (a broken base document
    fails every row).  Rows come back in sample order regardless of worker
    interleaving.
    """
    matrix = lhs_sample(spec)
    jobs = []
    for i in range(spec.samples):
        doc = copy.copy(base_document)
        for d, dim in enumerate(spec.dimensions):
            for path in dim.paths:
                patch_document(doc, path, float(matrix[i, d]))
        doc["seed"] = rng.derive_seed(spec.seed, i)
        jobs.append((doc, spec.metrics))
    return [
        SweepRow(index=i, values=tuple(float(v) for v in matrix[i]), metrics=metric_values, error=error)
        for i, (metric_values, error) in enumerate(map_ordered(_sweep_sample, jobs, workers))
    ]
