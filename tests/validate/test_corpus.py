"""Schema checks for the fuzz-regression corpus loader.

A malformed appended entry must fail loudly (CorpusFormatError), never
silently replay nothing — these tests pin every rejection path, plus
the schema validity of the committed corpus file itself.
"""

import json
from pathlib import Path

import pytest

from repro.validate.corpus import (
    CORPUS_VERSION,
    CorpusEntry,
    CorpusFormatError,
    load_corpus,
)

COMMITTED_CORPUS = (Path(__file__).parent.parent
                    / "regressions" / "corpus.json")


def write_corpus(tmp_path, payload) -> Path:
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(payload))
    return path


def valid_entry(**overrides):
    entry = {
        "id": "some-bug",
        "seed": 75,
        "max_len": 5,
        "packet_count": 48,
        "batch_size": 16,
        "description": "a fuzz-found failure",
    }
    entry.update(overrides)
    return entry


def test_committed_corpus_is_schema_valid():
    entries = load_corpus(COMMITTED_CORPUS)
    assert entries
    assert all(isinstance(e, CorpusEntry) for e in entries)


def test_valid_corpus_loads(tmp_path):
    path = write_corpus(tmp_path, {
        "version": CORPUS_VERSION,
        "entries": [valid_entry()],
    })
    entries = load_corpus(path)
    assert len(entries) == 1
    assert entries[0].id == "some-bug"
    assert entries[0].seed == 75
    assert entries[0].description == "a fuzz-found failure"


def test_description_is_optional(tmp_path):
    entry = valid_entry()
    del entry["description"]
    path = write_corpus(tmp_path, {"version": 1, "entries": [entry]})
    assert load_corpus(path)[0].description == ""


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text("{not json")
    with pytest.raises(CorpusFormatError, match="not valid JSON"):
        load_corpus(path)


def test_non_object_top_level_rejected(tmp_path):
    path = write_corpus(tmp_path, [valid_entry()])
    with pytest.raises(CorpusFormatError, match="top level"):
        load_corpus(path)


def test_wrong_version_rejected(tmp_path):
    path = write_corpus(tmp_path, {"version": 99, "entries": []})
    with pytest.raises(CorpusFormatError, match="version"):
        load_corpus(path)


def test_missing_version_rejected(tmp_path):
    path = write_corpus(tmp_path, {"entries": []})
    with pytest.raises(CorpusFormatError, match="version"):
        load_corpus(path)


def test_unknown_top_level_field_rejected(tmp_path):
    path = write_corpus(tmp_path, {"version": 1, "entries": [],
                                   "extra": 1})
    with pytest.raises(CorpusFormatError, match="unknown top-level"):
        load_corpus(path)


def test_missing_required_field_rejected(tmp_path):
    entry = valid_entry()
    del entry["seed"]
    path = write_corpus(tmp_path, {"version": 1, "entries": [entry]})
    with pytest.raises(CorpusFormatError, match="missing required.*seed"):
        load_corpus(path)


def test_ill_typed_field_rejected(tmp_path):
    path = write_corpus(tmp_path, {
        "version": 1,
        "entries": [valid_entry(seed="75")],
    })
    with pytest.raises(CorpusFormatError, match="'seed' must be int"):
        load_corpus(path)


def test_bool_rejected_for_int_field(tmp_path):
    path = write_corpus(tmp_path, {
        "version": 1,
        "entries": [valid_entry(packet_count=True)],
    })
    with pytest.raises(CorpusFormatError, match="packet_count"):
        load_corpus(path)


def test_unknown_entry_field_rejected(tmp_path):
    path = write_corpus(tmp_path, {
        "version": 1,
        "entries": [valid_entry(algorithm="kl")],
    })
    with pytest.raises(CorpusFormatError, match="unknown field"):
        load_corpus(path)


def test_non_positive_knob_rejected(tmp_path):
    path = write_corpus(tmp_path, {
        "version": 1,
        "entries": [valid_entry(batch_size=0)],
    })
    with pytest.raises(CorpusFormatError, match="batch_size"):
        load_corpus(path)


@pytest.mark.parametrize("max_len", [1, 0])
def test_max_len_below_two_rejected(tmp_path, max_len):
    """A random chain has at least 2 NFs: such an entry would replay
    chains its ``max_len`` does not describe."""
    path = write_corpus(tmp_path, {
        "version": 1,
        "entries": [valid_entry(max_len=max_len)],
    })
    with pytest.raises(CorpusFormatError, match="max_len"):
        load_corpus(path)


def test_negative_seed_rejected(tmp_path):
    path = write_corpus(tmp_path, {
        "version": 1,
        "entries": [valid_entry(seed=-1)],
    })
    with pytest.raises(CorpusFormatError, match="seed"):
        load_corpus(path)


def test_duplicate_ids_rejected(tmp_path):
    path = write_corpus(tmp_path, {
        "version": 1,
        "entries": [valid_entry(), valid_entry(seed=76)],
    })
    with pytest.raises(CorpusFormatError, match="duplicate id"):
        load_corpus(path)


def test_non_dict_entry_rejected(tmp_path):
    path = write_corpus(tmp_path, {"version": 1, "entries": [42]})
    with pytest.raises(CorpusFormatError, match="expected an object"):
        load_corpus(path)


def test_replay_runs_the_canonical_recipe(tmp_path):
    """A freshly constructed entry replays through run_differential."""
    entry = CorpusEntry(id="tiny", seed=3, max_len=3,
                        packet_count=8, batch_size=4)
    report = entry.replay()
    assert report.packet_count == 8
