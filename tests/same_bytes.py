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
with one step a block (``engine._BLOCK_ELEMENTS = 1``), then the sha256 of
the traced run's satisfaction, segments and phases charts at the default
block size, so the line covers ``classify_phases`` through phases.svg,
then the sha256 of its traces.csv with seven rows a formatting block
(``output._BLOCK_ROWS = 7``), so most traces span several blocks, then the
sha256 of the repr of the winner and table of ``optimize_cadence`` over the
document as drawn (traced) with ``CADENCE_BUDGET`` and ``CADENCE_INTERVALS``,
or the text of the ConfigurationError or DomainError that the search
raises, then the scenario digest that ``validate`` prints, so the line
covers the document writer too; or the ConfigurationError text of a
document that does not parse.

Sweeps are compared the same way, through the CLI's sweep.csv:

    PYTHONPATH=src python tests/same_bytes.py sweeps sweeps.jsonl
    PYTHONPATH=src python tests/same_bytes.py sweeps-digest sweeps.jsonl > a.txt
    PYTHONPATH=<other checkout>/src python tests/same_bytes.py sweeps-digest sweeps.jsonl > b.txt
    cmp a.txt b.txt

``sweeps FILE`` writes one sweep a line, a base document and a sweep spec:
every numeric leaf of each scenario document in ``configs/`` but its
integers (``seed``, ``horizon``, a release's ``time`` and the like: each is
in an integer field, which no sweep may write) swept alone (the base with
at most ``SWEEP_AGENTS`` agents) over a range around its value wide enough
that some rows fail; each such leaf swept together with a leaf of the next
part of the same document (see ``part``), so that rows fail in two parts
and the digest covers which error a row reports; and the shipped sweep spec
over each base, over the base with ``horizon`` 0 and over the base without
``seed``, two bases that do not parse, so that the digest covers how a
sweep of a broken base fails.  ``sweeps-digest FILE`` prints a line per
sweep: the sha256 of its sweep.csv at ``--parallel 1`` and at ``--parallel
2``, or the exit code and message of a sweep that fails; then, on stderr,
the count of sweeps, of their rows and of the rows that failed.

``tests/corpus/`` holds a documents file and a sweeps file drawn once, and
the expected output of ``digest`` and ``sweeps-digest`` for each, which
``tests/test_corpus.py`` compares line by line.  It also holds
``validate.txt``, a line of ``validate_leaves`` for each leaf of each
shipped config set to each of ``LEAF_VALUES``, which
``tests/test_validation.py`` compares line by line, and ``phases.txt``, a
line of ``phases_lines`` for each case of ``PHASES_COLUMNS`` and
``PHASES_WINDOWS`` over each shipped config's run.csv, which
``tests/test_corpus.py`` compares line by line.  ``refresh`` rewrites the
four expected files from the package on ``PYTHONPATH``; only a change that
moves output bytes, ``validate`` output or ``phases`` output on purpose may
use it:

    PYTHONPATH=src python tests/same_bytes.py refresh
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import pathlib
import sys
import tempfile
from dataclasses import replace

from hypothesis import HealthCheck, Phase, given, seed, settings

from adaptsim import CadenceSearch, cli, engine, optimize_cadence, output
from adaptsim.config import load_scenario, parse_scenario_document, scenario_digest, scenario_to_document
from adaptsim.errors import ConfigurationError, DomainError
from adaptsim.output import phases_chart, run_csv_text, satisfaction_chart, segments_chart, traces_csv_text


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


# a cadence search small enough to fit most drawn horizons (1 to 30 steps)
CADENCE_BUDGET = 1.0
CADENCE_INTERVALS = (1, 2, 3)


def cadence(sc) -> str:
    """The sha256 of a small cadence search's winner and table, or its error text."""
    try:
        result = optimize_cadence(CadenceSearch(sc, CADENCE_BUDGET, CADENCE_INTERVALS))
    except (ConfigurationError, DomainError) as exc:
        return f"cadence error: {exc}"
    return sha(repr((result.best_interval, result.table)))


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
                if block == default:
                    charts = [sha(chart(out)) for chart in (satisfaction_chart, segments_chart, phases_chart)]
                    rows = output._BLOCK_ROWS
                    output._BLOCK_ROWS = 7
                    traces7 = sha(traces_csv_text(out))
                    output._BLOCK_ROWS = rows
            engine._BLOCK_ELEMENTS = default
            print(" ".join(shas + charts + [traces7, cadence(sc), scenario_digest(sc)]))


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SWEEP_AGENTS = 200
SWEEP_SAMPLES = 6


def leaves(node, path=()):
    """The path and value of every leaf of a document, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, (*path, i))
    else:
        yield path, node


def part(leaf: tuple) -> tuple:
    """The part of a scenario document that a leaf is in, as a parse reads them:
    ``population.size`` and ``population.segments`` apart, else the top-level key."""
    return leaf[:2] if leaf[0] == "population" else leaf[:1]


def sweeps(path: str) -> None:
    from adaptsim.analysis import METRICS

    def dimension(name, leaf, value):
        width = abs(value) + 1.0  # past the valid range of most fields on one side
        return {"name": name, "paths": [list(leaf)], "lo": value - width, "hi": value + width}

    shipped = json.loads((CONFIGS / "sweep_gamma.json").read_text(encoding="utf-8"))
    lines = []
    pairs = 0
    for config in sorted(CONFIGS.glob("*.json")):
        base = json.loads(config.read_text(encoding="utf-8"))
        if "population" not in base:  # a sweep spec, not a scenario
            continue
        base["population"]["size"] = min(base["population"]["size"], SWEEP_AGENTS)
        floats = [(leaf, value) for leaf, value in leaves(base) if type(value) is float]
        dimensions = [[dimension("x", leaf, value)] for leaf, value in floats]
        # each leaf with one of the next part's (the last part's with the
        # first's), so that rows fail in two parts, in either order
        parts = {}
        for leaf, value in floats:
            parts.setdefault(part(leaf), []).append((leaf, value))
        groups = list(parts.values())
        for k, group in enumerate(groups):
            other = groups[(k + 1) % len(groups)]
            for j, first in enumerate(group):
                pair = (first, other[j % len(other)])
                dimensions.append([dimension(name, *leaf) for name, leaf in zip("xy", pair)])
                pairs += 1
        for dims in dimensions:
            spec = {"samples": SWEEP_SAMPLES, "seed": len(lines), "metrics": list(METRICS), "dimensions": dims}
            lines.append({"base": base, "sweep": spec})
        lines.append({"base": base, "sweep": shipped})
        # two bases that do not parse: the digest pins the exit code and message
        without_seed = {key: value for key, value in base.items() if key != "seed"}
        lines += [{"base": {**base, "horizon": 0}, "sweep": shipped}, {"base": without_seed, "sweep": shipped}]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)
    print(f"wrote {len(lines)} sweeps, {pairs} of them over two leaves", file=sys.stderr)


def sweeps_digest(path: str) -> None:
    sweeps = rows = failed = 0
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
            sweeps += 1
            if code == 0:
                table = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))[1:]
                rows += len(table)
                failed += sum(1 for row in table if row[-1])
    print(f"{sweeps} sweeps: {rows} rows, {failed} of them failed", file=sys.stderr)


LEAF_VALUES = [-1, 0, 0.5, 1, 2, 1e308, math.nan, math.inf, -math.inf]
LEAF_VALUES += ["x", True, None, [], {}, [0.1], 5, [1, 2], 10**400]


def validate_leaves(name: str):
    """``validate`` of each document that sets one leaf of ``configs/<name>`` to one of
    LEAF_VALUES: a line of config, leaf path, value, exit code and output, tab-separated,
    then the exit code and what it printed on stdout and on stderr."""
    text = (CONFIGS / name).read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp, name)
        for path, _ in leaves(json.loads(text)):
            for value in LEAF_VALUES:
                doc = json.loads(text)
                node = doc
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                cfg.write_text(json.dumps(doc), encoding="utf-8")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["validate", "--config", str(cfg)])
                printed = (out.getvalue() + err.getvalue()).rstrip("\n").replace("\n", "\\n")
                fields = (name, ".".join(map(str, path)), json.dumps(value), str(code), printed)
                yield "\t".join(fields), code, out.getvalue(), err.getvalue()


PHASES_COLUMNS = ("mean_satisfaction", "mean_log_reference", "s_q25", "frac_active")
PHASES_WINDOWS = (1, 3, 5, 9, 15, 41, 101)


def phases_lines():
    """``phases`` of each of PHASES_COLUMNS at each of PHASES_WINDOWS over the run.csv
    of each shipped scenario config: a line of config, column, window, exit code
    and what it printed (the labels, or the error), tab-separated."""
    with tempfile.TemporaryDirectory() as tmp:
        run_csv = pathlib.Path(tmp, "run.csv")
        for config in sorted(CONFIGS.glob("*.json")):
            if "population" not in json.loads(config.read_text(encoding="utf-8")):  # a sweep spec
                continue
            run_csv.write_text(run_csv_text(engine.run(load_scenario(config))), encoding="utf-8")
            for column in PHASES_COLUMNS:
                for window in PHASES_WINDOWS:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                        code = cli.main(["phases", "--input", str(run_csv), "--column", column,
                                         "--window", str(window)])
                    printed = out.getvalue().rstrip("\n").replace("\n", "\\n")
                    yield "\t".join((config.name, column, str(window), str(code), printed))


CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
# each file of the corpus, the function that digests it, and its expected output
CORPUS_FILES = (("documents.jsonl", digest, "documents.digest"), ("sweeps.jsonl", sweeps_digest, "sweeps.digest"))
VALIDATE = CORPUS / "validate.txt"  # a line of validate_leaves for each shipped config's every leaf
PHASES = CORPUS / "phases.txt"  # the lines of phases_lines


def refresh() -> None:
    for name, digest_file, expected in CORPUS_FILES:
        with open(CORPUS / expected, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            digest_file(str(CORPUS / name))
    with open(VALIDATE, "w", encoding="utf-8") as fh:
        for config in sorted(CONFIGS.glob("*.json")):
            fh.writelines(line + "\n" for line, *_ in validate_leaves(config.name))
    with open(PHASES, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in phases_lines())


if __name__ == "__main__":
    if sys.argv[1:2] == ["draw"] and len(sys.argv) == 4:
        draw(int(sys.argv[2]), sys.argv[3])
    elif sys.argv[1:2] == ["digest"] and len(sys.argv) == 3:
        digest(sys.argv[2])
    elif sys.argv[1:2] == ["sweeps"] and len(sys.argv) == 3:
        sweeps(sys.argv[2])
    elif sys.argv[1:2] == ["sweeps-digest"] and len(sys.argv) == 3:
        sweeps_digest(sys.argv[2])
    elif sys.argv[1:] == ["refresh"]:
        refresh()
    else:
        sys.exit(__doc__)
