"""The committed byte corpus: drawn documents and sweeps with their digests,
and the ``phases`` labels of the shipped configs' runs.

``tests/corpus/`` holds a documents file and a sweeps file, drawn once by
``tests/same_bytes.py`` (see ``tests/corpus/README.md`` for the seed and
count), and the output that ``same_bytes.py digest`` and ``sweeps-digest``
printed for them when they were drawn.  Each test digests its file again and
compares the output line by line, so one changed cell of one drawn run, one
moved sweep row or one changed scenario digest fails it, naming the document
or sweep.  ``phases.txt`` holds what ``adaptsim phases`` printed for four
columns of each shipped config's run.csv at seven windows, one line a case,
and is compared the same way.  Only a change that moves output bytes on
purpose may rewrite the expected files, with ``same_bytes.py refresh``.

Like the goldens, the corpus holds the bytes of one numpy SIMD dispatch
level: on a machine that dispatches another, it fails until ROADMAP item 2
makes the bytes the same at every level.
"""

import contextlib
import io

import pytest
import same_bytes


@pytest.mark.parametrize("name, digest, expected", same_bytes.CORPUS_FILES, ids=["documents", "sweeps"])
def test_the_corpus_digests_as_recorded(name, digest, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        digest(str(same_bytes.CORPUS / name))
    got = out.getvalue().splitlines()
    want = (same_bytes.CORPUS / expected).read_text(encoding="utf-8").splitlines()
    for line, (a, b) in enumerate(zip(got, want), 1):
        assert a == b, f"{name} line {line} digests differently:\n  got  {a}\n  want {b}"
    assert len(got) == len(want), f"{name}: {len(got)} lines of output, {len(want)} expected"


def test_the_phases_of_each_shipped_run_are_as_recorded():
    got = list(same_bytes.phases_lines())
    want = same_bytes.PHASES.read_text(encoding="utf-8").splitlines()
    for line, (a, b) in enumerate(zip(got, want), 1):
        assert a == b, f"phases.txt line {line} labels differently:\n  got  {a}\n  want {b}"
    assert len(got) == len(want), f"{len(got)} phases cases, {len(want)} recorded"
