"""The committed CLI corpus: every group's calls hash to their digest.

A failing group names the commands whose output changed.  See
tests/cli_corpus.py for the groups and how to regenerate the digests.
"""

import json

import pytest

import cli_corpus

DIGESTS = json.loads(cli_corpus.DIGESTS.read_text())


def test_every_group_has_a_committed_digest():
    assert list(DIGESTS) == list(cli_corpus.GROUPS)


@pytest.mark.parametrize("group", list(cli_corpus.GROUPS))
def test_cli_corpus_group(group):
    assert cli_corpus.digest(group) == DIGESTS[group], group
