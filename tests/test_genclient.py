"""HTTP client behavior against a local mock endpoint, cache semantics,
and completion-file import."""

from __future__ import annotations

import json
import logging
import socket
import sys
import threading
import time
import warnings
from collections import Counter

import pytest

from _support import REQUEST_CONFIGS, MockEndpoint, RawEndpoint, request_form_mismatches
from toolstream import genclient
from toolstream.genclient import (
    CompletionCache,
    CompletionRecord,
    EndpointConfig,
    EndpointError,
    StaleCompletionError,
    TransportError,
    batch_generate,
    generate_completion,
    import_completions,
    write_completions_jsonl,
)
from toolstream.transform import Condition, RenderedPrompt


def _prompt(i: int, condition=Condition.A_STRIPPED) -> RenderedPrompt:
    text = f"User: request number {i}\nAPI-Request:"
    return RenderedPrompt(
        example_id=f"e:{i}",
        condition=condition,
        text=text,
    )


def _copies(n: int, i: int) -> list[RenderedPrompt]:
    """n prompts with request i's text, each under its own example id."""
    return [
        RenderedPrompt(f"copy{j}:{i}", Condition.A_STRIPPED, _prompt(i).text) for j in range(n)
    ]


class CountingCache(CompletionCache):
    def __init__(self, root):
        super().__init__(root)
        self.gets: Counter = Counter()

    def get(self, stage, condition, key):
        self.gets[stage, condition, key] += 1
        return super().get(stage, condition, key)


def _config(base_url: str, **overrides) -> EndpointConfig:
    defaults = dict(
        base_url=base_url,
        model_id="test-model",
        timeout=10.0,
        max_parallel=3,
        retries=2,
        retry_backoff=0.01,
    )
    defaults.update(overrides)
    return EndpointConfig(**defaults)


class TestGenerateCompletion:
    def test_echo_mock(self, tmp_path):
        with MockEndpoint() as mock:
            record = generate_completion(_prompt(0), _config(mock.base_url), stage=4)
            assert record.text == "[Ping()]"
            assert record.source == "http"
            assert record.example_id == "e:0"
            assert record.condition == "A"

    def test_cache_hit_skips_network(self, tmp_path):
        cache = CompletionCache(tmp_path / "cache")
        with MockEndpoint() as mock:
            cfg = _config(mock.base_url)
            first = generate_completion(_prompt(1), cfg, stage=2, cache=cache)
            assert mock.requests == 1
            second = generate_completion(_prompt(1), cfg, stage=2, cache=cache)
            assert mock.requests == 1
            assert second.text == first.text

    def test_cache_keyed_by_stage_and_condition(self, tmp_path):
        cache = CompletionCache(tmp_path / "cache")
        with MockEndpoint() as mock:
            cfg = _config(mock.base_url)
            generate_completion(_prompt(1), cfg, stage=1, cache=cache)
            generate_completion(_prompt(1), cfg, stage=2, cache=cache)
            generate_completion(_prompt(1, Condition.B_TRAJECTORY), cfg, stage=2, cache=cache)
            assert mock.requests == 3

    def test_unreachable_endpoint(self, tmp_path):
        cache = CompletionCache(tmp_path / "cache")
        cfg = _config("http://127.0.0.1:9", retries=0, timeout=0.5)
        with pytest.raises(TransportError):
            generate_completion(_prompt(2), cfg, stage=1, cache=cache)
        assert not list((tmp_path / "cache").rglob("*.json"))

    def test_non_retryable_status_raises_endpoint_error(self):
        with MockEndpoint() as mock:
            mock.fail_always.add("request number 3")
            with pytest.raises(EndpointError) as excinfo:
                generate_completion(_prompt(3), _config(mock.base_url), stage=1)
            assert excinfo.value.status == 400
            assert mock.requests == 1  # no retry on 4xx

    def test_retry_on_transient_failure(self):
        with MockEndpoint() as mock:
            mock.fail_once.add("request number 4")
            record = generate_completion(_prompt(4), _config(mock.base_url), stage=1)
            assert record.text == "[Ping()]"
            assert mock.requests == 2

    def test_cache_write_error_keeps_the_batch(self, tmp_path, caplog):
        # A file where the stage directory belongs makes every put fail; the
        # received completions are still returned and the failure is logged.
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "stage_1").write_text("", encoding="utf-8")
        cache = CompletionCache(tmp_path / "cache")
        prompts = [_prompt(i) for i in range(3)]
        with MockEndpoint() as mock:
            with caplog.at_level(logging.WARNING, logger="toolstream.genclient"):
                result = batch_generate(prompts, _config(mock.base_url), 1, cache)
            assert mock.requests == 3
        assert not result.failures
        assert [r.text for r in result.records] == ["[Ping()]"] * 3
        assert len(caplog.records) == 3
        assert str(tmp_path / "cache" / "stage_1" / "A") in caplog.text

    def test_temperature_pinned(self):
        with pytest.raises(TypeError):
            EndpointConfig(base_url="http://x", model_id="m", temperature=0.7)

    def test_greedy_payload_shape(self):
        with MockEndpoint() as mock:
            cfg = _config(mock.base_url, max_new_tokens=64, stop_sequences=("\n", "]"))
            generate_completion(_prompt(6), cfg, stage=1)
            payload = mock.last_payload
            assert payload["model"] == "test-model"
            assert payload["temperature"] == 0
            assert payload["max_tokens"] == 64
            assert payload["stop"] == ["\n", "]"]
            assert payload["messages"][0]["role"] == "user"

    def test_bearer_token_sent_when_configured(self, monkeypatch):
        with MockEndpoint() as mock:
            cfg = _config(mock.base_url)
            monkeypatch.delenv("TOOLSTREAM_API_KEY", raising=False)
            generate_completion(_prompt(7), cfg, stage=1)
            assert "Authorization" not in mock.last_headers
            monkeypatch.setenv("TOOLSTREAM_API_KEY", "sekrit")
            generate_completion(_prompt(8), cfg, stage=1)
            assert mock.last_headers.get("Authorization") == "Bearer sekrit"


# One request whose cache key and body are pinned as earlier versions
# computed them: sha256(json.dumps([base_url, body], sort_keys=True)) and
# json.dumps(body). A change to either would turn every existing cache
# entry into a miss.
GOLDEN_CONFIG = {
    "base_url": "https://models.example.org:8443/v1/openai",
    "model_id": 'org/mo"del\\v2',
    "max_new_tokens": 64,
    "stop_sequences": ("\n\n", "</call>"),
}
GOLDEN_TEXT = 'User: say "hi" \\ then\nAPI-Request: caf\xe9 \u2028 \U0001f600'
GOLDEN_KEY = "7fd6afd681b71304b0521c4ccfd961e27d3ae40cfab9b56a7b4cddc7c18cee77"
GOLDEN_BODY = (
    b'{"model": "org/mo\\"del\\\\v2", "messages": [{"role": "user", "content": '
    b'"User: say \\"hi\\" \\\\ then\\nAPI-Request: caf\\u00e9 \\u2028 \\ud83d\\ude00"}], '
    b'"temperature": 0, "max_tokens": 64, "stop": ["\\n\\n", "</call>"]}'
)


class TestRequestForms:
    @pytest.fixture
    def sent(self, monkeypatch) -> dict:
        """The (condition, key) -> body of each request batch_generate
        would send; each is answered "[Sent()]" without a connection."""
        sent: dict = {}

        def fetch(cfg, missing, stage, cache):
            sent.update(missing)
            return dict.fromkeys(missing, "[Sent()]")

        monkeypatch.setattr(genclient, "_fetch", fetch)
        return sent

    def test_golden_key_and_body(self, tmp_path, sent):
        cfg = EndpointConfig(**GOLDEN_CONFIG)
        prompt = RenderedPrompt("e:0", Condition.A_STRIPPED, GOLDEN_TEXT)
        batch_generate([prompt], cfg, 1)
        assert sent == {("A", GOLDEN_KEY): GOLDEN_BODY}
        # An entry written under that key is served without a request.
        entry = tmp_path / "stage_1" / "A" / f"{GOLDEN_KEY}.json"
        entry.parent.mkdir(parents=True)
        entry.write_text('{"text": "[Cached()]"}\n', encoding="utf-8")
        sent.clear()
        result = batch_generate([prompt], cfg, 1, CompletionCache(tmp_path))
        assert not sent
        assert [r.text for r in result.records] == ["[Cached()]"]

    def test_templated_forms_equal_json_dumps_on_seeded_texts(self):
        assert request_form_mismatches(20261021, 20_000) == []
        # The last two configs hold the first placeholder's JSON string, so
        # the placeholder has to grow.
        for settings in REQUEST_CONFIGS[1:]:
            cfg = EndpointConfig(**settings)
            key = json.dumps([cfg.base_url, genclient._payload(cfg, "\0")], sort_keys=True)
            assert key.count('"\\u0000"') > 1


class TestEndpointConfig:
    @pytest.mark.parametrize(
        "base_url", ["localhost:8000", "ftp://h/v1", "http:///v1", "http://h:port/v1", ""]
    )
    def test_invalid_base_url_rejected(self, base_url):
        with pytest.raises(ValueError):
            EndpointConfig(base_url=base_url, model_id="m")

    @pytest.mark.parametrize("base_url", ["http://h", "https://h:8443/v1/", "http://[::1]:8000/v1"])
    def test_valid_base_url_accepted(self, base_url):
        assert EndpointConfig(base_url=base_url, model_id="m").base_url == base_url


class TestTransport:
    OK_BODY = json.dumps({"choices": [{"message": {"content": "[Ping()]"}}]}).encode("utf-8")

    def test_truncated_body_is_a_retried_transport_error(self):
        with RawEndpoint(self.OK_BODY, declared_length=len(self.OK_BODY) + 10) as server:
            with pytest.raises(TransportError):
                generate_completion(_prompt(0), _config(server.base_url, retries=1), stage=1)
            assert server.requests == 2

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b'{"choices": []}',
            b'{"choices": [{"message": {"content": null}}]}',
            pytest.param(b"[" * 200_000 + b"]" * 200_000, id="nested-too-deeply"),
        ],
    )
    def test_malformed_body_is_an_endpoint_error_without_retry(self, body):
        with RawEndpoint(body) as server:
            with pytest.raises(EndpointError) as excinfo:
                generate_completion(_prompt(0), _config(server.base_url), stage=1)
            assert excinfo.value.status == 200
            assert server.requests == 1

    def test_retryable_status_keeps_a_body_snippet(self):
        with RawEndpoint(b"x" * 500, status=503) as server:
            with pytest.raises(EndpointError) as excinfo:
                generate_completion(_prompt(0), _config(server.base_url, retries=1), stage=1)
            assert excinfo.value.status == 503
            assert str(excinfo.value) == "endpoint returned status 503: " + "x" * 200
            assert server.requests == 2

    def test_tls_handshake_failure_is_a_transport_error(self):
        # The server speaks plain HTTP, so the client's TLS handshake fails.
        with RawEndpoint(self.OK_BODY) as server:
            cfg = _config(f"https://127.0.0.1:{server.port}/v1", retries=0)
            with pytest.raises(TransportError):
                generate_completion(_prompt(0), cfg, stage=1)
            assert server.requests == 0

    @pytest.mark.parametrize(
        "prefix, path",
        [
            ("/api/v1/", "/api/v1/chat/completions"),
            ("/my%20v1", "/my%20v1/chat/completions"),
            ("/my v1é", "/my%20v1%C3%A9/chat/completions"),
        ],
    )
    def test_path_prefix_and_port(self, prefix, path):
        with RawEndpoint(self.OK_BODY) as server:
            cfg = _config(f"http://127.0.0.1:{server.port}{prefix}")
            assert generate_completion(_prompt(0), cfg, stage=1).text == "[Ping()]"
            assert server.paths == [path]


def _all_closed(server, within: float = 2.0) -> bool:
    """Whether the server sees every connection closed within `within` s."""
    deadline = time.monotonic() + within
    while server.open_connections and time.monotonic() < deadline:
        time.sleep(0.01)
    return server.open_connections == 0


class TestKeptAliveConnections:
    def test_a_batch_reuses_its_connections_and_closes_them(self):
        with MockEndpoint(keep_alive=True) as mock:
            prompts = [_prompt(i) for i in range(20)]
            # A socket left for the garbage collector to close warns.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                result = batch_generate(prompts, _config(mock.base_url, max_parallel=2), stage=1)
            assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
            assert not result.failures and len(result.records) == 20
            assert mock.requests == 20
            assert mock.connections <= 2
            assert _all_closed(mock)

    def test_an_error_reply_keeps_its_connection(self):
        with MockEndpoint(keep_alive=True) as mock:
            mock.fail_once.add("request number 0")
            generate_completion(_prompt(0), _config(mock.base_url), stage=1)
            assert (mock.requests, mock.connections) == (2, 1)
            assert _all_closed(mock)

    def test_a_truncated_body_is_retried_on_a_new_connection(self):
        body = TestTransport.OK_BODY
        with RawEndpoint(body, declared_length=len(body) + 10, keep_alive=True) as server:
            with pytest.raises(TransportError):
                generate_completion(_prompt(0), _config(server.base_url, retries=1), stage=1)
            assert (server.requests, server.connections) == (2, 2)
            assert _all_closed(server)

    def test_a_stale_connection_costs_one_attempt(self):
        # The server drops each connection once it has answered, so every
        # request that reuses one fails; with a retry it goes out again on
        # a new connection, and without one it fails. Nothing is resent
        # silently.
        with MockEndpoint(keep_alive=True) as mock:
            mock.close_idle = True
            cfg = _config(mock.base_url, max_parallel=1, retries=1)
            result = batch_generate([_prompt(0), _prompt(1)], cfg, stage=1)
            assert not result.failures and len(result.records) == 2
            assert (mock.requests, mock.connections) == (2, 2)
            cfg = _config(mock.base_url, max_parallel=1, retries=0)
            result = batch_generate([_prompt(2), _prompt(3)], cfg, stage=1)
            assert [r.example_id for r in result.records] == ["e:2"]
            assert [f.example_id for f in result.failures] == ["e:3"]
            assert "request to" in str(result.failures[0].error)
            assert (mock.requests, mock.connections) == (3, 3)

    def test_an_interrupted_batch_closes_its_connections(self, tmp_path):
        class InterruptedCache(CompletionCache):
            def put(self, stage, condition, key, text):
                raise KeyboardInterrupt

        with MockEndpoint(keep_alive=True) as mock:
            with pytest.raises(KeyboardInterrupt):
                batch_generate(
                    [_prompt(i) for i in range(20)], _config(mock.base_url, max_parallel=2),
                    stage=1, cache=InterruptedCache(tmp_path / "cache"),
                )
            assert mock.connections <= 2
            assert _all_closed(mock)

    @pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK")
    def test_no_delayed_ack_stall(self):
        # The mock writes headers and body in two sends without TCP_NODELAY.
        # Were the client's ACK of the headers delayed (about 40 ms), each
        # of the 40 replies on the reused connection would wait for it.
        with MockEndpoint(keep_alive=True) as mock:
            cfg = _config(mock.base_url, max_parallel=1)
            start = time.monotonic()
            result = batch_generate([_prompt(i) for i in range(40)], cfg, stage=1)
            elapsed = time.monotonic() - start
            assert not result.failures and mock.connections == 1
        assert elapsed < 1.0


class TestCompletionCache:
    def test_put_ignores_a_squatted_temp_name(self, tmp_path):
        # A directory at <hash>.tmp (another writer's fixed temp name) must not
        # block the write, and the write leaves no temp file behind.
        cache = CompletionCache(tmp_path / "cache")
        h = _prompt(9).prompt_hash
        entry_dir = tmp_path / "cache" / "stage_1" / "A"
        (entry_dir / f"{h}.tmp").mkdir(parents=True)
        cache.put(1, "A", h, "[Ping()]")
        assert cache.get(1, "A", h) == "[Ping()]"
        assert sorted(p.name for p in entry_dir.iterdir()) == [f"{h}.json", f"{h}.tmp"]

    def test_entry_holds_only_the_text(self, tmp_path):
        # A new entry is {"text": ...}. An entry in the six-key shape written
        # before entries held only the text is still a hit, whatever its other
        # keys say.
        cache = CompletionCache(tmp_path / "cache")
        with MockEndpoint() as mock:
            cfg = _config(mock.base_url)
            batch_generate([_prompt(1)], cfg, 1, cache)
            (entry,) = (tmp_path / "cache").rglob("*.json")
            assert entry.read_text(encoding="utf-8") == '{"text": "[Ping()]"}\n'
            old = {"example_id": "e:0", "condition": "B", "stage": 3, "prompt_hash": "0" * 64,
                   "text": "[Old()]", "source": "imported"}
            entry.write_text(json.dumps(old) + "\n", encoding="utf-8")
            result = batch_generate([_prompt(1)], cfg, 1, cache)
            assert mock.requests == 1
            assert [(r.example_id, r.text) for r in result.records] == [("e:1", "[Old()]")]

    def test_keyed_by_model(self, tmp_path):
        cache = CompletionCache(tmp_path / "cache")
        with MockEndpoint() as mock:
            batch_generate([_prompt(1)], _config(mock.base_url, model_id="m1"), 1, cache)
            result = batch_generate(
                [_prompt(1)], _config(mock.base_url, model_id="other-model"), 1, cache
            )
            assert mock.requests == 2
            assert result.records[0].prompt_hash == _prompt(1).prompt_hash

    def test_missing_entry_is_a_silent_miss(self, tmp_path, caplog):
        # Absent stage or condition directories and absent entries are plain
        # misses; an entry that exists but cannot be read is still logged.
        cache = CompletionCache(tmp_path / "cache")
        h = _prompt(1).prompt_hash
        with caplog.at_level(logging.WARNING, logger="toolstream.genclient"):
            assert cache.get(1, "A", h) is None
            cache.put(1, "A", h, "[Ping()]")
            assert cache.get(1, "B", h) is None
            assert cache.get(1, "A", "0" * 64) is None
            assert cache.get(1, "A", h) == "[Ping()]"
        assert not caplog.records
        (entry,) = (tmp_path / "cache").rglob("*.json")
        entry.unlink()
        entry.mkdir()
        with caplog.at_level(logging.WARNING, logger="toolstream.genclient"):
            assert cache.get(1, "A", h) is None
        assert "unreadable cache entry" in caplog.text
        assert entry.name in caplog.text

    def test_corrupt_entry_is_a_miss(self, tmp_path, caplog):
        cache = CompletionCache(tmp_path / "cache")
        with MockEndpoint() as mock:
            cfg = _config(mock.base_url)
            batch_generate([_prompt(1)], cfg, 1, cache)
            (entry,) = (tmp_path / "cache").rglob("*.json")
            # An entry of the wrong shape (an array) is a logged miss too.
            for requests, (corrupt, reason) in enumerate([
                ("{trunc", "invalid JSON"), ('{"text": 5}', "text is int, not a string"),
                ('["[Ping()]"]', "expected a JSON object, got an array"),
            ], start=2):
                entry.write_text(corrupt, encoding="utf-8")
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="toolstream.genclient"):
                    result = batch_generate([_prompt(1)], cfg, 1, cache)
                assert mock.requests == requests
                assert not result.failures
                assert result.records[0].text == "[Ping()]"
                assert entry.name in caplog.text and reason in caplog.text
                assert json.loads(entry.read_text(encoding="utf-8"))["text"] == "[Ping()]"


class TestBatchGenerate:
    def test_order_preserved(self):
        with MockEndpoint(reply=lambda p: f"[Echo(n='{p.split()[3]}')]") as mock:
            prompts = [_prompt(i) for i in range(8)]
            result = batch_generate(prompts, _config(mock.base_url), stage=1)
            assert not result.failures
            for i, record in enumerate(result.records):
                assert record.example_id == f"e:{i}"
                assert record.text == f"[Echo(n='{i}')]"

    def test_inflight_limit_honored(self):
        with MockEndpoint(delay=0.05) as mock:
            prompts = [_prompt(i) for i in range(10)]
            result = batch_generate(prompts, _config(mock.base_url, max_parallel=3), stage=1)
            assert not result.failures
            assert mock.requests == 10
            assert mock.max_inflight <= 3

    def test_single_failure_enumerated(self):
        with MockEndpoint() as mock:
            mock.fail_always.add("request number 5")
            prompts = [_prompt(i) for i in range(10)]
            result = batch_generate(prompts, _config(mock.base_url), stage=1)
            assert [r.example_id for r in result.records] == [
                f"e:{i}" for i in range(10) if i != 5
            ]
            assert [f.example_id for f in result.failures] == ["e:5"]

    def test_all_cached_means_no_network(self, tmp_path):
        cache = CompletionCache(tmp_path / "cache")
        prompts = [_prompt(i) for i in range(6)]
        with MockEndpoint() as mock:
            cfg = _config(mock.base_url)
            batch_generate(prompts, cfg, stage=3, cache=cache)
            first_pass = mock.requests
            result = batch_generate(prompts, cfg, stage=3, cache=cache)
            assert mock.requests == first_pass
            assert len(result.records) == len(prompts)

    def test_interleaved_hits_send_only_the_misses_in_prompt_order(self, tmp_path):
        cache = CompletionCache(tmp_path / "cache")
        sent = []
        with MockEndpoint(reply=lambda p: sent.append(p) or f"[Echo(n='{p.split()[3]}')]") as mock:
            mock.fail_always.add("request number 3")
            cfg = _config(mock.base_url)
            batch_generate([_prompt(i) for i in (0, 2, 4)], cfg, stage=1, cache=cache)
            sent.clear()
            result = batch_generate([_prompt(i) for i in range(6)], cfg, stage=1, cache=cache)
            # The second batch sends 1, 3 and 5; 3 is refused, so only 1
            # and 5 reach the reply.
            assert mock.requests == 3 + 3
        assert sorted(sent) == [_prompt(i).text for i in (1, 5)]
        assert [(r.example_id, r.text) for r in result.records] == [
            (f"e:{i}", f"[Echo(n='{i}')]") for i in (0, 1, 2, 4, 5)
        ]
        assert [f.example_id for f in result.failures] == ["e:3"]

    def test_one_cache_lookup_per_distinct_request(self, tmp_path):
        cache = CountingCache(tmp_path / "cache")
        prompts = _copies(3, 0) + [_prompt(1)] + _copies(2, 1)
        with MockEndpoint() as mock:
            cfg = _config(mock.base_url)
            for _ in range(2):  # cold, then warm
                cache.gets.clear()
                result = batch_generate(prompts, cfg, stage=1, cache=cache)
                assert sorted(cache.gets.values()) == [1, 1]
                assert [r.example_id for r in result.records] == [p.example_id for p in prompts]
            assert mock.requests == 2

    def test_identical_prompts_send_one_request(self):
        prompts = _copies(8, 0)
        with MockEndpoint(delay=0.05) as mock:
            result = batch_generate(prompts, _config(mock.base_url, max_parallel=4), stage=1)
            assert mock.requests == 1
        assert [r.example_id for r in result.records] == [p.example_id for p in prompts]
        assert all(r.text is result.records[0].text for r in result.records)

    def test_a_retry_does_not_hold_a_slot(self):
        # Prompt 0's first attempt fails; while it waits out its backoff the
        # one worker sends 1, 2 and 3.
        replied = []
        with MockEndpoint(reply=lambda p: replied.append(int(p.split()[3])) or "[Ping()]") as mock:
            mock.fail_once.add("request number 0")
            cfg = _config(mock.base_url, max_parallel=1, retry_backoff=0.3)
            result = batch_generate([_prompt(i) for i in range(4)], cfg, stage=1)
            assert mock.requests == 5
        assert not result.failures
        assert replied == [1, 2, 3, 0]
        assert [r.example_id for r in result.records] == [f"e:{i}" for i in range(4)]

    def test_retries_interleaved_across_many_workers(self, tmp_path):
        # Four workers (within the mock server's listen backlog of 5) and a
        # short switch interval: every request is settled once, each failed
        # first attempt is retried once, and each completion is cached.
        prompts = [_prompt(i) for i in range(40)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MockEndpoint(reply=lambda p: f"[Echo(n='{p.split()[3]}')]") as mock:
                mock.fail_once.update(f"request number {i}\n" for i in range(0, 40, 4))
                cfg = _config(mock.base_url, max_parallel=4, retry_backoff=0.001)
                result = batch_generate(prompts, cfg, 1, CompletionCache(tmp_path / "cache"))
                assert mock.requests == 40 + 10
                assert mock.max_inflight <= 4
        finally:
            sys.setswitchinterval(switch)
        assert not result.failures
        assert [(r.example_id, r.text) for r in result.records] == [
            (f"e:{i}", f"[Echo(n='{i}')]") for i in range(40)
        ]
        assert len(list((tmp_path / "cache").rglob("*.json"))) == 40

    def test_an_interrupt_stops_new_sends(self, tmp_path):
        class InterruptedCache(CompletionCache):
            def put(self, stage, condition, key, text):
                raise KeyboardInterrupt

        with MockEndpoint() as mock:
            threads = threading.active_count()
            cfg = _config(mock.base_url, max_parallel=1)
            with pytest.raises(KeyboardInterrupt):
                batch_generate(
                    [_prompt(i) for i in range(20)], cfg, stage=1,
                    cache=InterruptedCache(tmp_path / "cache"),
                )
            # The first reply is being cached; at most the next is in flight.
            assert mock.requests <= 2
            # The mock's handler threads may still be closing their sockets.
            deadline = time.monotonic() + 5
            while threading.active_count() > threads and time.monotonic() < deadline:
                time.sleep(0.01)
            assert threading.active_count() == threads
            assert mock.requests <= 2

    def test_failed_shared_request_fails_each_prompt(self):
        prompts = [_prompt(1)] + _copies(3, 0) + [_prompt(2)]
        with MockEndpoint() as mock:
            mock.fail_always.add("request number 0")
            result = batch_generate(prompts, _config(mock.base_url), stage=1)
            assert mock.requests == 3
        assert [r.example_id for r in result.records] == ["e:1", "e:2"]
        assert [f.example_id for f in result.failures] == ["copy0:0", "copy1:0", "copy2:0"]
        assert len({str(f.error) for f in result.failures}) == 1
        assert "status 400" in str(result.failures[0].error)


class TestImportCompletions:
    def _records(self, prompts):
        return [
            CompletionRecord(
                example_id=p.example_id,
                condition=p.condition.value,
                stage=4,
                prompt_hash=p.prompt_hash,
                text="[Ping()]",
            )
            for p in prompts
        ]

    def test_roundtrip(self, tmp_path):
        prompts = [_prompt(i) for i in range(3)]
        path = tmp_path / "completions.jsonl"
        write_completions_jsonl(path, self._records(prompts))
        loaded = import_completions([path], prompts=prompts)
        assert len(loaded) == 3
        assert all(r.source == "imported" for r in loaded)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert import_completions([path]) == []

    def test_hash_mismatch_warns_by_default(self, tmp_path, caplog):
        """The default import does not downgrade a mismatch to a logged
        warning: it raises, and nothing is logged."""
        prompts = [_prompt(0)]
        records = self._records(prompts)
        records[0].prompt_hash = "0" * 64
        path = tmp_path / "stale.jsonl"
        write_completions_jsonl(path, records)
        with caplog.at_level(logging.WARNING):
            with pytest.raises(StaleCompletionError) as excinfo:
                import_completions([path], prompts=prompts)
        assert "e:0" in str(excinfo.value)
        assert not caplog.records

    def test_hash_mismatch_strict_raises(self, tmp_path):
        prompts = [_prompt(0), _prompt(1)]
        records = self._records(prompts)
        records[1].prompt_hash = "0" * 64
        path = tmp_path / "stale.jsonl"
        write_completions_jsonl(path, records)
        with pytest.raises(StaleCompletionError) as excinfo:
            import_completions([path], prompts=prompts)
        assert "e:1" in str(excinfo.value)

    def test_matching_records_share_their_prompt_strings(self, tmp_path):
        """A record whose hash matches keeps its prompt's example id and one
        hash string per prompt, not the strings JSON decoding made; a stale
        record is still refused with the same message."""
        prompts = [_prompt(0), _prompt(1)]
        records = [
            CompletionRecord(p.example_id, "A", stage, p.prompt_hash, "[Ping()]")
            for stage in (0, 1, 2) for p in prompts
        ]
        path = tmp_path / "completions.jsonl"
        write_completions_jsonl(path, records)
        loaded = import_completions([path], prompts=prompts)
        assert [(r.example_id, r.stage, r.prompt_hash) for r in loaded] == [
            (r.example_id, r.stage, r.prompt_hash) for r in records
        ]
        for prompt in prompts:
            mine = [r for r in loaded if r.example_id == prompt.example_id]
            assert all(r.example_id is prompt.example_id for r in mine)
            assert len({id(r.prompt_hash) for r in mine}) == 1

        records[4].prompt_hash = "0" * 64
        write_completions_jsonl(path, records)
        with pytest.raises(StaleCompletionError) as excinfo:
            import_completions([path], prompts=prompts)
        assert str(excinfo.value) == (
            f"{path}: line 5: stale completion for example 'e:0' (condition A): "
            "prompt hash mismatch"
        )

    def test_string_fields_tags_and_unrendered_records(self, tmp_path):
        prompts = [_prompt(0)]
        good = {"example_id": "e:0", "condition": "A", "stage": 4,
                "prompt_hash": prompts[0].prompt_hash, "text": "42"}
        # No rendered prompt has this (example_id, condition), so no hash is checked.
        unrendered = {"example_id": "7", "condition": "A", "stage": 4.0,
                      "prompt_hash": "0" * 64, "text": "[Ping()]"}
        path = tmp_path / "mixed.jsonl"
        path.write_text(f"{json.dumps(good)}\n{json.dumps(unrendered)}\n", encoding="utf-8")
        assert [
            (r.example_id, r.condition, r.stage, r.prompt_hash, r.text, r.source)
            for r in import_completions([path], prompts=prompts)
        ] == [
            ("e:0", "A", 4, prompts[0].prompt_hash, "42", "imported"),
            ("7", "A", 4, "0" * 64, "[Ping()]", "imported"),
        ]
        # A string field is not coerced: 42 would score as no call, and 7
        # would match the example "7".
        for field, value, shown in (
            ("text", 42, "42"), ("text", None, "null"), ("text", ["[Ping()]"], '["[Ping()]"]'),
            ("example_id", 7, "7"), ("prompt_hash", None, "null"),
        ):
            bad = tmp_path / "bad.jsonl"
            bad.write_text(f"{json.dumps(good)}\n{json.dumps({**unrendered, field: value})}\n",
                           encoding="utf-8")
            with pytest.raises(ValueError) as excinfo:
                import_completions([bad], prompts=prompts)
            assert str(excinfo.value) == f"{bad}: line 2: {field} must be a string, got {shown}"
        tagged = tmp_path / "tagged.jsonl"
        tagged.write_text(
            f"{json.dumps(good)}\n{json.dumps({**good, 'condition': 'C'})}\n", encoding="utf-8"
        )
        with pytest.raises(ValueError) as excinfo:
            import_completions([tagged], prompts=prompts)
        assert str(excinfo.value) == f"{tagged}: line 2: unknown condition tag 'C'"

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"example_id": "x"}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            import_completions([path])

    def test_reference_fixture_record_counts(self, reference_paths):
        for condition in ("A", "B"):
            records = import_completions([reference_paths[f"completions_{condition}"]])
            assert len(records) == 440
            assert {r.stage for r in records} == {4}
            assert {r.condition for r in records} == {condition}
