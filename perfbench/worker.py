"""One fresh process of a benchmark run.

It sets up one workload (imports adaptsim, writes the workload's input
documents and validates them), then times or traces that workload's CLI
operations and checks every output.  run.py starts it; it prints one JSON
object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|timed|traced
        [--seconds S] [--min-ops K] [--workers2]

Run from the root of a checkout with PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import sys
from time import perf_counter

from workloads import CONFIG_DIGESTS, WORKLOADS, Workload

MAX_PROBLEMS = 5  # problems reported per process; every one is counted
PROBE_INTERVAL_S = 0.05
SETUP_PROBE_INTERVAL_S = 0.01  # set-up takes about 0.2 s; this gives it 20 samples
PROBE_LOOP = 4000  # about 0.3 ms of pure Python, so probing costs 0.6% (3% in set-up)


class SpeedProbe:
    """Samples the speed of the CPU this process runs on, during timed work.

    The VM this benchmark was written on runs its vCPUs at speeds that
    change by up to 1.5x every few seconds, whatever runs inside it.  A
    timer signal interrupts timed work every PROBE_INTERVAL_S to time a
    fixed pure-Python loop; the mean of those samples over a timed interval
    tells how fast the CPU was during it.  run.py rescales each time to a
    fixed reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_) -> None:
        start = perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc = (acc * 31 + i) % 1_000_003
        self.samples.append(perf_counter() - start)

    def time(self, fn, interval: float = PROBE_INTERVAL_S):
        """(fn(), wall seconds, mean probe sample during the call).

        Samples over twice the interval's median are dropped from the mean:
        they were interrupted, which says nothing about the CPU's speed.
        """
        first = len(self.samples)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        start = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if len(self.samples) == first:
            self._sample()  # shorter than one interval: sample right after
        taken = self.samples[first:]
        typical = statistics.median(taken)
        return result, wall, statistics.fmean(x for x in taken if x <= 2 * typical)


class Session:
    """A workload set up in this process, with its work directory."""

    def __init__(self, workload: Workload, seed: int, workdir: pathlib.Path, probe: SpeedProbe):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.speeds: list[float] = []
        _, self.setup_s, self.setup_probe = probe.time(self._setup, SETUP_PROBE_INTERVAL_S)
        source = pathlib.Path(sys.modules["adaptsim"].__file__).resolve()
        if not source.is_relative_to(pathlib.Path("src").resolve()):
            raise SystemExit(f"adaptsim imported from {source}, not from ./src")

    def _setup(self) -> None:
        self.cli = importlib.import_module("adaptsim.cli")
        config = importlib.import_module("adaptsim.config")
        self.docs = self.workload.inputs(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, doc in self.docs.items():
            (self.workdir / name).write_text(json.dumps(doc, indent=2), encoding="utf-8")
        if self.call(["validate", "--config", str(self.workdir / "scenario.json")]) != 0:
            raise SystemExit(f"{self.workload.name}: generated scenario does not validate")
        if "sweep.json" in self.docs:
            config.load_sweep_spec(self.workdir / "sweep.json")

    def call(self, argv: list[str]) -> int:
        """adaptsim.cli.main(argv), looked up at call time so traced wrappers apply."""
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])

    def operation(self, argv: list[str] | None = None, check=None) -> tuple[float, float]:
        """Run one CLI operation and check what it wrote.

        Without arguments this is the workload's own operation, checked by
        the workload; `check` returns the problems of any other call.
        Returns the wall time and the mean probe sample during it.
        """
        check = check or (lambda: self.workload.verify(self.workdir, self.seed))
        argv = argv or self.workload.argv(self.workdir, self.docs)

        def attempt():
            try:
                return self.call(argv), None
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                return None, f"{argv[0]} raised {type(exc).__name__}: {exc}"

        gc.collect()
        (rc, crash), wall, speed = self.probe.time(attempt)
        if crash:
            self.record([crash])
        elif rc != 0:
            self.record([f"{argv[0]}: exit code {rc}"])
        else:
            try:
                self.record(check())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.record([f"{argv[0]}: unreadable output: {type(exc).__name__}: {exc}"])
        return wall, speed

    def timed_loop(self, seconds: float, min_ops: int, after_op=None) -> None:
        """Operations until `seconds` have passed and at least `min_ops` ran.

        The first one is not a separate warm-up: the median absorbs its
        lazy set-up, and the peak resident set is read right after it,
        before repeated operations fragment the heap.
        """
        deadline = perf_counter() + seconds
        while len(self.walls) < min_ops or perf_counter() < deadline:
            wall, speed = self.operation()
            self.walls.append(wall)
            self.speeds.append(speed)
            if len(self.walls) == 1:
                self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if after_op is not None:
                after_op()

    def workers2_speedup(self) -> float:
        """Untimed sweep at --parallel 2; its CSV must equal the one-worker CSV."""
        one, two = self.workdir / "sweep.csv", self.workdir / "sweep2.csv"
        argv = self.workload.argv(self.workdir, self.docs)
        argv[argv.index("--parallel") + 1] = "2"
        argv[argv.index("--out") + 1] = str(two)

        def check():
            same = two.read_bytes() == one.read_bytes()
            return [] if same else ["sweep.csv at --parallel 2 differs from --parallel 1"]

        wall, _ = self.operation(argv, check)
        return statistics.median(self.walls) / wall

    def check_golden(self) -> None:
        """run.csv of every shipped config against its pinned digest."""
        for name, pinned in CONFIG_DIGESTS.items():
            run_csv = self.workdir / f"golden_{name}" / "run.csv"

            def check():
                got = hashlib.sha256(run_csv.read_bytes()).hexdigest()[:16]
                return [] if got == pinned else [f"configs/{name}.json: run.csv {got}, pinned {pinned}"]

            self.operation(["simulate", "--config", f"configs/{name}.json",
                            "--out", str(run_csv.parent)], check)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--workers2", action="store_true", help="also time --parallel 2 (sweep)")
    args = parser.parse_args()

    workdir = pathlib.Path("perfbench", "out", "work", f"{args.workload}-{os.getpid()}")
    probe = SpeedProbe()
    try:
        session = Session(WORKLOADS[args.workload], args.seed, workdir, probe)
        result: dict = {"setup_s": session.setup_s, "setup_probe": session.setup_probe}
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            layers: list[dict] = []

            def snapshot():
                layers.append(tracer.metrics())
                tracer.reset()

        if args.mode == "timed":
            session.timed_loop(args.seconds, args.min_ops)
            result["peak_rss_mib"] = session.peak_rss_mib
            if args.workers2:
                result["workers2_speedup"] = session.workers2_speedup()
        elif args.mode == "traced":
            session.timed_loop(args.seconds, args.min_ops, snapshot)
            result["layers"] = layers
        if args.mode != "setup":
            session.check_golden()
        import numpy

        result.update(
            walls=session.walls,
            speeds=session.speeds,
            probe_samples=probe.samples,
            attempted=session.attempted,
            failed=session.failed,
            problems=session.problems,
            python=sys.version.split()[0],
            numpy=numpy.__version__,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
