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
"""

import hashlib
import json
import sys
from dataclasses import replace

from hypothesis import HealthCheck, Phase, given, seed, settings

from adaptsim import engine
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


if __name__ == "__main__":
    if sys.argv[1:2] == ["draw"] and len(sys.argv) == 4:
        draw(int(sys.argv[2]), sys.argv[3])
    elif sys.argv[1:2] == ["digest"] and len(sys.argv) == 3:
        digest(sys.argv[2])
    else:
        sys.exit(__doc__)
