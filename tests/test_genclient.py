"""HTTP client behavior against a local mock endpoint, cache semantics,
and completion-file import."""

from __future__ import annotations

import json
import logging

import pytest

from _support import MockEndpoint, RawEndpoint
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
        "body", [b"not json", b'{"choices": []}', b'{"choices": [{"message": {"content": null}}]}']
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
            assert excinfo.value.body_snippet == "x" * 200
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
            for requests, corrupt in enumerate(["{trunc", '{"text": 5}'], start=2):
                entry.write_text(corrupt, encoding="utf-8")
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="toolstream.genclient"):
                    result = batch_generate([_prompt(1)], cfg, 1, cache)
                assert mock.requests == requests
                assert not result.failures
                assert result.records[0].text == "[Ping()]"
                assert entry.name in caplog.text
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

    def test_fields_coerced_tags_checked_and_unrendered_records_kept(self, tmp_path):
        prompts = [_prompt(0)]
        good = {"example_id": "e:0", "condition": "A", "stage": 4,
                "prompt_hash": prompts[0].prompt_hash, "text": 42}
        # No rendered prompt has this (example_id, condition), so no hash is checked.
        unrendered = {"example_id": 7, "condition": "A", "stage": 4,
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
