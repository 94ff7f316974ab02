"""Byte identity of the CLI on the committed output corpus (`output_corpus.py`)."""

from output_corpus import argument_lists, digest, read_corpus


def test_corpus_lists_match_the_generator():
    assert [argv for _, argv in read_corpus()] == argument_lists()


def test_output_matches_the_committed_digests():
    pairs = read_corpus()
    assert len(pairs) >= 1000
    changed = [argv for expected, argv in pairs if digest(argv) != expected]
    assert not changed, f"{len(changed)} argument lists changed output, first {changed[0]}"
