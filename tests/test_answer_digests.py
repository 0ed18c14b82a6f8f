"""Golden answer digests: every served answer is pinned in-tree.

``tests/data/answer_digests.txt`` holds the lines
:mod:`tests.answer_digests` prints: one digest of
``canonical_result_bytes`` per algorithm, circuit and delta-chain
step, and per circuit for EIG1 under each other net model and for the
4-way spectral blocks.  A change that moves any answer fails here, and the failure names
every line that moved.  A change that moves answers on purpose
regenerates the table with ``PYTHONPATH=src python
tests/answer_digests.py --write`` and says why.
"""

from itertools import zip_longest

from tests.answer_digests import TABLE, digest_lines


def test_answers_match_the_golden_table():
    expected = TABLE.read_text().splitlines()
    got = digest_lines()
    moved = [
        f"line {number}: table {want!r}, now {have!r}"
        for number, (want, have) in enumerate(
            zip_longest(expected, got, fillvalue="<none>"), start=1
        )
        if want != have
    ]
    assert not moved, f"{len(moved)} answer line(s) moved:\n" + "\n".join(
        moved
    )
