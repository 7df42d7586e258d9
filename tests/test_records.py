"""The package's record types: calls compare and hash by value, records
build by position or keyword as perfbench builds them, and the records
that check their input reject what they always rejected, with the same
messages."""

from __future__ import annotations

import re

import pytest

from toolstream.calls import ApiCall, ParsedCall, parse_first_call
from toolstream.clmetrics import baseline_vector, eval_matrix
from toolstream.corpus import Episode, Role, ScoredExample, StreamSpec, Turn
from toolstream.genclient import CompletionRecord, EndpointConfig


def test_calls_compare_and_hash_by_value():
    call = ApiCall("GetWeather", (("city", "Paris"),))
    same = ApiCall("GetWeather", (("city", "Paris"),))
    assert call == same and hash(call) == hash(same)
    assert call != ApiCall("GetWeather", (("city", "Rome"),))
    assert call != ApiCall("GetTime", (("city", "Paris"),))
    assert ApiCall("Ping") == ApiCall("Ping", ())
    parsed = parse_first_call("say [GetWeather(city='Paris')]")
    assert parsed == ParsedCall(same, (4, 30))
    assert hash(parsed) == hash(ParsedCall(same, (4, 30)))
    assert len({parsed, ParsedCall(call, (4, 30)), ParsedCall(call, (0, 26))}) == 2


def test_completion_record_by_position_and_keyword():
    record = CompletionRecord("e:0", "B", 4, "0" * 64, "[Ping()]", source="imported")
    assert (record.example_id, record.condition, record.stage) == ("e:0", "B", 4)
    assert (record.prompt_hash, record.text, record.source) == ("0" * 64, "[Ping()]", "imported")
    assert CompletionRecord("e:0", "B", 4, "0" * 64, "[Ping()]").source == "http"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: StreamSpec(T=1), ValueError, "a stream needs at least 2 blocks"),
        (lambda: StreamSpec(T=3, block_order=(1, 2)), ValueError,
         "block_order must be a permutation of 1..3"),
        (lambda: StreamSpec(T=2, block_order=(1, 1)), ValueError,
         "block_order must be a permutation of 1..2"),
        (lambda: StreamSpec(T=2, sample_size=0), ValueError, "sample_size must be >= 1"),
        (lambda: eval_matrix(()), ValueError, "evaluation matrix must be square and nonempty"),
        (lambda: eval_matrix(((0.5, 0.5),)), ValueError,
         "evaluation matrix must be square and nonempty"),
        (lambda: eval_matrix(((1.5,),)), ValueError,
         "matrix entries must be fractions in [0, 1]"),
        (lambda: baseline_vector((0.5, -0.1)), ValueError,
         "baseline entries must be fractions in [0, 1]"),
        (lambda: EndpointConfig("ftp://host", "m"), ValueError,
         "base_url must be an http:// or https:// URL with a host: 'ftp://host'"),
        (lambda: EndpointConfig("http://host:99999", "m"), ValueError, "out of range"),
        (lambda: EndpointConfig("http://host", "m", retry_backoff=-0.01), ValueError,
         "retry_backoff must be at least 0, got -0.01"),
        (lambda: EndpointConfig("http://host", "m", retry_backoff=float("inf")), ValueError,
         "retry_backoff must be finite, got inf"),
        (lambda: EndpointConfig("http://host", "m", timeout=float("inf")), ValueError,
         "timeout must be finite, got inf"),
        (lambda: EndpointConfig("http://host", "m", max_new_tokens=12.5), ValueError,
         "max_new_tokens must be an integer, got 12.5"),
        (lambda: EndpointConfig("http://host", "m", max_parallel=2.5), ValueError,
         "max_parallel must be an integer, got 2.5"),
        (lambda: EndpointConfig("http://host", "m", retries=1.5), ValueError,
         "retries must be an integer, got 1.5"),
        (lambda: EndpointConfig("http://host", "m", max_parallel=True), ValueError,
         "max_parallel must be an integer, got true"),
    ],
    ids=["stream-one-block", "stream-short-order", "stream-repeated-order",
         "stream-sample-0", "matrix-empty", "matrix-not-square", "matrix-above-1",
         "baseline-below-0", "endpoint-scheme", "endpoint-port", "endpoint-backoff",
         "endpoint-backoff-infinite", "endpoint-timeout-infinite", "endpoint-max-tokens-fraction",
         "endpoint-max-parallel-fraction", "endpoint-retries-fraction",
         "endpoint-max-parallel-boolean"],
)
def test_checked_records_reject(build, error, message):
    # Bad values that EndpointConfig's CLI flags can give are also checked
    # through the CLI, in tests/test_cli.py::test_exit_code_table; the flags
    # for the counts parse integers, so their fractions are checked here.
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_checked_records_normalise():
    assert StreamSpec(T=3).block_order == (1, 2, 3)
    assert StreamSpec(T=2, block_order=[2, 1]).block_order == (2, 1)
    matrix = eval_matrix([[1, 0], [0, 1]])
    assert matrix == ((1.0, 0.0), (0.0, 1.0))
    assert all(type(v) is float for row in matrix for v in row)
    assert baseline_vector([0, 1]) == (0.0, 1.0)
    cfg = EndpointConfig("http://127.0.0.1:9/v1", "m", stop_sequences=["\n", "]"])
    assert cfg.stop_sequences == ("\n", "]")
    assert (cfg.max_new_tokens, cfg.timeout, cfg.max_parallel, cfg.retries) == (128, 60.0, 4, 2)
    assert EndpointConfig("http://127.0.0.1:9/v1", "m").stop_sequences == ("\n",)


def test_episode_renderings_stay_out_of_the_constructor():
    episode = Episode("e", [Turn(Role.USER, "hi")])
    assert episode.renderings == {}
    with pytest.raises(TypeError):
        Episode("e", [], renderings={})
    example = ScoredExample("e:1", episode, 1, ApiCall("Ping"))
    assert example.block_id is None and example.context == [Turn(Role.USER, "hi")]
    example.block_id = 3
    assert example.block_id == 3
