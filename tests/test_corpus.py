"""A fixed subset of the byte-identity corpus keeps its recorded reports.

``python3 tests/corpus.py`` checks every run of every group; here every
``STRIDE``-th run of each group is checked against its recorded digest.
"""

from __future__ import annotations

import json

import pytest

import corpus

STRIDE = 7


@pytest.mark.parametrize("make", corpus.GROUPS, ids=lambda make: make.__name__)
def test_corpus_subset_keeps_its_bytes(make):
    group = make()
    recorded = json.loads(corpus.DIGESTS.read_text())[group.name]
    assert corpus.argv_digest(group) == recorded["argvs"], "the command lines changed"
    indices = range(0, len(group.argvs), STRIDE)
    _, short = corpus.run_group(group, set(indices))
    for i, got in zip(indices, short):
        assert got == recorded["runs"][i], " ".join(group.argvs[i])
