"""The CLI's observable behaviour is pinned by a digest corpus (tests/cli_corpus.py):
every case's exit code, stdout, stderr and artifacts are byte-identical to the
committed ones, timestamp and output directory masked."""

import pytest

from cli_corpus import cases, load, run_in_temp

ENTRIES = load()


def test_corpus_holds_the_derived_cases():
    assert [tuple(entry["argv"]) for entry in ENTRIES] == cases()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(entry["argv"]) for entry in ENTRIES])
def test_case_is_unchanged(entry):
    assert run_in_temp(entry["argv"]) == entry
