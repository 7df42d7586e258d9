"""The format rules every reader shares: files are UTF-8, JSON-lines files
end lines with "\\n" or "\\r\\n" and may hold blank lines, and a bad line is
reported by path and line through the reader's own error class."""

from __future__ import annotations

import json

import pytest

from toolstream.corpus import CorpusError, IngestionError, load_corpus, read_blocks_json
from toolstream.files import read_jsonl, write_jsonl_records
from toolstream.fixtures import reference_corpus_records
from toolstream.genclient import import_completions
from toolstream.scoring import FLAGS, AggregationError, ErrorCategory, read_scores_jsonl
from toolstream.transform import read_rendered_jsonl


def _score_line(example_id: str, category: ErrorCategory) -> dict:
    return {"example_id": example_id, "stage": 4, "block": 1,
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
        [json.dumps(_score_line(f"e:{i}", c)) for i, c in enumerate(ErrorCategory)],
        read_scores_jsonl, AggregationError, True,
    ),
    "blocks": (
        json.dumps({"T": 2, "blocks": [
            {"block_id": 1, "api_names": ["A"], "example_ids": ["e:0", "e:1"]},
            {"block_id": 2, "api_names": ["B"], "example_ids": ["e:2"]},
        ]}, indent=2).split("\n"),
        read_blocks_json, CorpusError, False,
    ),
}

# Each damages line 2 of a valid file.
DAMAGE = {
    "not_utf8": lambda line: line.replace(b'"', b'"\xff', 1),
    "bad_json": lambda line: line.replace(b'"', b"", 1),
}


@pytest.mark.parametrize("case", ["not_utf8", "bad_json", "crlf_and_blank_lines"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_reader_format_rules(name, case, tmp_path):
    lines, read, error, names_line = INPUTS[name]
    path = tmp_path / f"{name}.txt"
    data = [line.encode("utf-8") for line in lines]
    if case == "crlf_and_blank_lines":
        path.write_bytes(b"\n".join(data) + b"\n")
        expected = read(path)
        path.write_bytes(b"\r\n" + b"\r\n  \r\n".join(data) + b"\r\n\r\n")
        assert read(path) == expected
        return
    data[1] = DAMAGE[case](data[1])
    assert data[1] != lines[1].encode("utf-8")
    path.write_bytes(b"\n".join(data) + b"\n")
    with pytest.raises(error) as excinfo:
        read(path)
    assert str(excinfo.value).startswith(f"{path}: line 2: " if names_line else f"{path}: ")


def test_jsonl_write_then_read_roundtrip(tmp_path):
    values = [{"text": "é\r \n", "n": 1}, [1, None, True], "plain", 2.5, {}]
    path = tmp_path / "values.jsonl"
    write_jsonl_records(path, values)
    assert path.read_bytes().count(b"\n") == len(values)
    assert read_jsonl(path, lambda value: value, ValueError) == values
