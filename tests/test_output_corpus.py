"""Byte identity of the CLI on the committed output corpus (`output_corpus.py`)."""

import json

from output_corpus import argument_lists, digest, outcome, read_corpus


def test_corpus_lists_match_the_generator():
    assert [argv for _, argv in read_corpus()] == argument_lists()


def test_output_matches_the_committed_digests():
    pairs = read_corpus()
    assert len(pairs) >= 1000
    changed = [argv for expected, argv in pairs if digest(argv) != expected]
    assert not changed, f"{len(changed)} argument lists changed output, first {changed[0]}"


def test_every_json_report_is_canonical():
    # the hand-written JSON is byte for byte what json.dumps(..., indent=2)
    # writes for the same data, on every list that writes a report
    written = 0
    for _, argv in read_corpus():
        if "--json" not in argv:
            continue
        code, out, _ = outcome(argv)
        if code in (0, 3, 4):
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
            written += 1
    assert written >= 361
