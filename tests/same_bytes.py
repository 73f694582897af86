"""Compare the output bytes of two commits on the same drawn scenarios.

Hypothesis does not draw the same examples at two commits, even with
``derandomize=True``: it mixes literals it finds in the package source into
its draws.  So the documents are drawn once into a file, and each commit
digests that file:

    PYTHONPATH=src python tests/same_bytes.py draw 1000 docs.jsonl
    PYTHONPATH=src python tests/same_bytes.py digest docs.jsonl > a.txt
    PYTHONPATH=<other checkout>/src python tests/same_bytes.py digest docs.jsonl > b.txt
    cmp a.txt b.txt

``digest`` imports nothing from the tests, so this one script digests the
package of any checkout that ``PYTHONPATH`` puts first.

``draw N FILE`` writes N traced scenario documents, one JSON object a line,
from ``test_properties.scenarios()``.  ``digest FILE`` prints a line per
document: the sha256 of its run.csv and traces.csv and of the run.csv of
the same scenario untraced, at the default block size, then all three again
with one step a block (``engine._BLOCK_ELEMENTS = 1``); or the
ConfigurationError text of a document that does not parse.

Sweeps are compared the same way, through the CLI's sweep.csv:

    PYTHONPATH=src python tests/same_bytes.py sweeps sweeps.jsonl
    PYTHONPATH=src python tests/same_bytes.py sweeps-digest sweeps.jsonl > a.txt
    PYTHONPATH=<other checkout>/src python tests/same_bytes.py sweeps-digest sweeps.jsonl > b.txt
    cmp a.txt b.txt

``sweeps FILE`` writes one sweep a line, a base document and a sweep spec:
every numeric leaf of each scenario document in ``configs/`` swept alone
(the base with at most ``SWEEP_AGENTS`` agents) over a range around its
value wide enough that some rows fail, and the shipped sweep spec over each
base.  ``sweeps-digest FILE`` prints a line per sweep: the sha256 of its
sweep.csv at ``--parallel 1`` and at ``--parallel 2``, or the exit code and
message of a sweep that fails.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile
from dataclasses import replace

from hypothesis import HealthCheck, Phase, given, seed, settings

from adaptsim import cli, engine
from adaptsim.config import parse_scenario_document, scenario_to_document
from adaptsim.errors import ConfigurationError
from adaptsim.output import run_csv_text, traces_csv_text


def draw(count: int, path: str) -> None:
    from test_properties import scenarios  # only draw needs this tree's tests

    docs = []

    @seed(20)
    @settings(max_examples=count, database=None, deadline=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(scenarios())
    def collect(sc):
        docs.append(scenario_to_document(replace(sc, trace_agents=True)))

    collect()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(doc) + "\n" for doc in docs)
    churn = sum(doc["churn"]["eta"] > 0 and doc["churn"]["cap"] > 0 for doc in docs)
    both = sum(doc["churn"]["eta"] > 0 and doc["churn"]["cap"] > 0
               and any(iv["kind"] == "social_benchmark" for iv in doc["interventions"]) for doc in docs)
    print(f"wrote {len(docs)} documents: {churn} with live churn, {both} also with a social benchmark",
          file=sys.stderr)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(path: str) -> None:
    default = engine._BLOCK_ELEMENTS
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                sc = parse_scenario_document(json.loads(line))
            except ConfigurationError as exc:
                print(f"error: {exc}")
                continue
            shas = []
            for block in (default, 1):
                engine._BLOCK_ELEMENTS = block
                out = engine.run(sc)
                shas += [sha(run_csv_text(out)), sha(traces_csv_text(out))]
                shas.append(sha(run_csv_text(engine.run(replace(sc, trace_agents=False)))))
            engine._BLOCK_ELEMENTS = default
            print(" ".join(shas))


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SWEEP_AGENTS = 200
SWEEP_SAMPLES = 6


def numeric_leaves(node, path=()):
    """The path of every int or float leaf of a document, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_leaves(value, (*path, i))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def sweeps(path: str) -> None:
    from adaptsim.analysis import METRICS

    shipped = json.loads((CONFIGS / "sweep_gamma.json").read_text(encoding="utf-8"))
    lines = []
    for config in sorted(CONFIGS.glob("*.json")):
        base = json.loads(config.read_text(encoding="utf-8"))
        if "population" not in base:  # a sweep spec, not a scenario
            continue
        base["population"]["size"] = min(base["population"]["size"], SWEEP_AGENTS)
        for leaf, value in numeric_leaves(base):
            width = abs(value) + 1.0  # past the valid range of most fields on one side
            dimension = {"name": "x", "paths": [list(leaf)], "lo": value - width, "hi": value + width}
            spec = {"samples": SWEEP_SAMPLES, "seed": len(lines), "metrics": list(METRICS),
                    "dimensions": [dimension]}
            lines.append({"base": base, "sweep": spec})
        lines.append({"base": base, "sweep": shipped})
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)
    print(f"wrote {len(lines)} sweeps", file=sys.stderr)


def sweeps_digest(path: str) -> None:
    with open(path, encoding="utf-8") as fh, tempfile.TemporaryDirectory() as tmp:
        base, spec, out = (pathlib.Path(tmp, name) for name in ("base.json", "sweep.json", "sweep.csv"))
        for line in fh:
            sweep = json.loads(line)
            base.write_text(json.dumps(sweep["base"]), encoding="utf-8")
            spec.write_text(json.dumps(sweep["sweep"]), encoding="utf-8")
            shas = []
            for workers in ("1", "2"):
                argv = ["sweep", "--config", str(base), "--sweep", str(spec), "--parallel", workers,
                        "--out", str(out)]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                shas.append(hashlib.sha256(out.read_bytes()).hexdigest() if code == 0
                            else f"exit {code}: {err.getvalue().strip()}")
            print(" ".join(shas))


if __name__ == "__main__":
    if sys.argv[1:2] == ["draw"] and len(sys.argv) == 4:
        draw(int(sys.argv[2]), sys.argv[3])
    elif sys.argv[1:2] == ["digest"] and len(sys.argv) == 3:
        digest(sys.argv[2])
    elif sys.argv[1:2] == ["sweeps"] and len(sys.argv) == 3:
        sweeps(sys.argv[2])
    elif sys.argv[1:2] == ["sweeps-digest"] and len(sys.argv) == 3:
        sweeps_digest(sys.argv[2])
    else:
        sys.exit(__doc__)
