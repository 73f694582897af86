"""The benchmark in ``perfbench/`` wraps adaptsim functions by name from
outside the package; a rename or removal there breaks the benchmark, not
the package's own tests.  This guard installs its wrappers and runs one
traced command in a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import sys
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)  # getattr on every wrapped name
from adaptsim import cli, config

assert callable(config.load_sweep_spec)  # perfbench/worker.py loads sweeps through config
code = cli.main(["simulate", "--config", "configs/interventions.json", "--out", sys.argv[1]])
assert code == 0, code
metrics = tracer.metrics()
assert metrics["engine.runs"] == 1, metrics
assert metrics["population.agents_built"] == 2000, metrics
assert metrics["kernels.elements"] > 0, metrics
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
