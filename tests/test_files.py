"""The format rules every reader shares: files are UTF-8, JSON-lines files
end lines with "\\n" or "\\r\\n" and may hold blank lines, each line decodes
as json.loads decodes it, and a bad line is reported by path and line
through the reader's error class: IngestionError for the corpus, ValueError
for every other input."""

from __future__ import annotations

import json
import random
import re

import pytest

from _support import decode_outcome, jsonl_mismatches, jsonl_text
from toolstream.corpus import IngestionError, load_corpus, read_blocks_json
from toolstream.files import _json_value, read_jsonl, write_jsonl_records
from toolstream.fixtures import reference_corpus_records
from toolstream.genclient import import_completions
from toolstream.scoring import FLAGS, ErrorCategory, read_scores_jsonl
from toolstream.transform import read_rendered_jsonl


# A score at stage 2: the reader takes T to be the largest block id, so
# the lines use blocks 1 and 2.
def _score_line(example_id: str, block: int, category: ErrorCategory) -> dict:
    return {"example_id": example_id, "stage": 2, "block": block,
            "flags": FLAGS[category]._asdict(), "category": category.value}


# input -> (lines of a valid file, reader, error class, whether errors name a line).
# The blocks file is one JSON value, so its errors name only the path.
INPUTS = {
    "corpus": (
        [json.dumps(r) for r in reference_corpus_records()[:3]],
        load_corpus, IngestionError, True,
    ),
    "prompts": (
        [json.dumps({"example_id": f"e:{i}", "condition": "B", "prompt": f"User: é {i}\nAPI-Request:",
                     "target": "[Ping()]"}) for i in range(3)],
        read_rendered_jsonl, ValueError, True,
    ),
    "completions": (
        [json.dumps({"example_id": f"e:{i}", "condition": "A", "stage": 4,
                     "prompt_hash": "0" * 64, "text": "[Ping()]"}) for i in range(3)],
        lambda path: import_completions([path]), ValueError, True,
    ),
    "scores": (
        [json.dumps(_score_line(f"e:{i}", 1 + i % 2, c)) for i, c in enumerate(ErrorCategory)],
        lambda path: read_scores_jsonl([path]), ValueError, True,
    ),
    "blocks": (
        json.dumps({"T": 2, "blocks": [
            {"block_id": 1, "api_names": ["A"], "example_ids": ["e:0", "e:1"]},
            {"block_id": 2, "api_names": ["B"], "example_ids": ["e:2"]},
        ]}, indent=2).split("\n"),
        read_blocks_json, ValueError, False,
    ),
}

# Each damages line 2 of a valid file.
DAMAGE = {
    "not_utf8": lambda line: line.replace(b'"', b'"\xff', 1),
    "bad_json": lambda line: line.replace(b'"', b"", 1),
}


def _fields(value):
    """A reader's result with each slotted record replaced by the values of
    its slots, so that two reads compare equal when their records do."""
    if isinstance(value, list):
        return [_fields(item) for item in value]
    slots = getattr(type(value), "__slots__", ())
    return tuple(getattr(value, name) for name in slots) if slots else value


@pytest.mark.parametrize("case", ["not_utf8", "bad_json", "crlf_and_blank_lines"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_reader_format_rules(name, case, tmp_path):
    lines, read, error, names_line = INPUTS[name]
    path = tmp_path / f"{name}.txt"
    data = [line.encode("utf-8") for line in lines]
    if case == "crlf_and_blank_lines":
        path.write_bytes(b"\n".join(data) + b"\n")
        expected = _fields(read(path))
        path.write_bytes(b"\r\n" + b"\r\n  \r\n".join(data) + b"\r\n\r\n")
        assert _fields(read(path)) == expected
        return
    data[1] = DAMAGE[case](data[1])
    assert data[1] != lines[1].encode("utf-8")
    path.write_bytes(b"\n".join(data) + b"\n")
    prefix = f"{path}: line 2: " if names_line else f"{path}: "
    with pytest.raises(error, match="^" + re.escape(prefix)):
        read(path)


def test_jsonl_write_then_read_roundtrip(tmp_path):
    values = [{"text": "é\r \n", "n": 1}, {"list": [1, None, True]}, {"s": "plain"},
              {"f": 2.5}, {}]
    path = tmp_path / "values.jsonl"
    write_jsonl_records(path, values)
    assert path.read_bytes().count(b"\n") == len(values)
    assert read_jsonl(path, lambda value: value, ValueError) == values
    # Every JSON line the harness reads holds an object; the error names
    # the value's type, not the value.
    for value, kind in (([1, None, True], "an array"), ("plain", "a string"), (2.5, "a number"),
                        (7, "a number"), (False, "a boolean"), (None, "null")):
        write_jsonl_records(path, values + [value])
        with pytest.raises(ValueError) as excinfo:
            read_jsonl(path, lambda value: value, ValueError)
        assert str(excinfo.value) == f"{path}: line 6: expected a JSON object, got {kind}"


# Lines the line reader must decode exactly as json.loads does, value or
# error: a byte-order mark, leading and trailing blanks, a Windows line
# end, extra data, a non-JSON blank (vertical tab, U+2028) after a value,
# a raw U+2028 inside a string, the non-finite constants and nested values.
JSONL_CASES = [
    "\ufeff{}\n", " {}\n", "\t[1]\n", "{}  \n", "{} \t\r\n", "{}\r\n", "{}", "1 2\n",
    '{"a": 1}x\n', "NaN\n", "-Infinity\n", "1\x0b\n", "{}\x0b\n", "{}\u2028\n",
    '"a\u2028b"\n', "{}\n", '{"a": [1, {"b": [true, null, -0.5e3]}], "c": {}}\n',
    '{"a":\n', "\n", "", "nul\n", '"\\ud800"\n', '"\\x"\n', "01\n", "[1,]\n",
]


@pytest.mark.parametrize("text", JSONL_CASES)
def test_line_decoder_equals_json_loads(text):
    assert decode_outcome(_json_value, text) == decode_outcome(json.loads, text)


def test_line_decoder_equals_json_loads_on_seeded_lines():
    assert jsonl_mismatches(20261020, 20_000) == []
    # The lines reach every path: values the scanner reads alone, values
    # that need json.loads (a leading blank), and errors of both.
    rng = random.Random(20261020)
    texts = [jsonl_text(rng) for _ in range(20_000)]
    outcomes = [decode_outcome(json.loads, text) for text in texts]
    values = [text for text, o in zip(texts, outcomes) if isinstance(o, str)]
    messages = {o[1].split(":")[0] for o in outcomes if not isinstance(o, str)}
    assert len(values) > 5_000
    assert sum(text[0] in " \t\r\n" for text in values) > 500
    assert {"Extra data", "Expecting value", "Unexpected UTF-8 BOM (decode using utf-8-sig)",
            "Invalid control character at"} <= messages


def test_jsonl_value_does_not_run_past_its_line(tmp_path):
    path = tmp_path / "split.jsonl"
    path.write_bytes(b'{"a":\n1}\n')
    with pytest.raises(ValueError) as excinfo:
        read_jsonl(path, lambda value: value, ValueError)
    assert str(excinfo.value).startswith(f"{path}: line 1: invalid JSON (Expecting value")


def test_json_nested_too_deeply_is_a_bad_file(tmp_path):
    path = tmp_path / "blocks.json"
    path.write_bytes(b"[" * 200_000 + b"]" * 200_000)
    with pytest.raises(ValueError, match="nested too deeply") as excinfo:
        read_blocks_json(path)
    assert str(excinfo.value) == f"{path}: invalid JSON (nested too deeply)"
