"""The benchmark in ``perfbench/`` wraps adaptsim functions by name from
outside the package; a rename or removal there breaks the benchmark, not
the package's own tests.  This guard installs its wrappers and runs one
traced simulate, optimize-cadence and sweep in a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json
import pathlib
import sys
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)  # getattr on every wrapped name
from adaptsim import cli, config

out = pathlib.Path(sys.argv[1])
assert callable(config.load_sweep_spec)  # perfbench/worker.py loads sweeps through config
code = cli.main(["simulate", "--config", "configs/interventions.json", "--out", str(out)])
assert code == 0, code
metrics = tracer.metrics()
assert metrics["engine.runs"] == 1, metrics
assert metrics["population.agents_built"] == 2000, metrics
assert metrics["kernels.elements"] > 0, metrics

base = json.loads(pathlib.Path("configs/baseline.json").read_text())
base["horizon"] = 30
base["population"]["size"] = 20
(out / "small.json").write_text(json.dumps(base))
sweep = json.loads(pathlib.Path("configs/sweep_gamma.json").read_text())
sweep["samples"] = 5
(out / "sweep.json").write_text(json.dumps(sweep))

tracer.reset()
cadence = ["--budget", "1.5", "--intervals", "4..7", "--out", str(out / "cadence.csv")]
code = cli.main(["optimize-cadence", "--config", str(out / "small.json"), *cadence])
assert code == 0, code
metrics = tracer.metrics()
assert metrics["engine.runs"] == 4, metrics
assert tracer.calls("schedule.cadence_to_schedule") == 4, metrics
assert tracer.calls("schedule.capability_at") == 1, metrics
assert tracer.calls("engine.run_many") == 1, metrics

tracer.reset()
sweep_args = ["--sweep", str(out / "sweep.json"), "--out", str(out / "sweep.csv")]
code = cli.main(["sweep", "--config", str(out / "small.json"), *sweep_args])
assert code == 0, code
metrics = tracer.metrics()
assert metrics["engine.runs"] == 5, metrics
assert metrics["analysis.lhs_s"] > 0.0, metrics
"""


def test_benchmark_wrappers_install_and_trace(tmp_path):
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    # no bytecode cache is written into perfbench/
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
