"""Model completions for rendered prompts, via an OpenAI-compatible endpoint
or recorded completion files, with a deterministic on-disk cache.

The wire shape is the widely served chat-completions POST; decoding is
pinned greedy (temperature 0). Completions are cached by the request they
answer (endpoint URL, model, prompt and decoding settings), so a change
to any of these misses the cache instead of serving a stale entry.

The HTTP, TLS, URL, thread-pool, temp-file and logging modules are
imported inside the functions that use them, so commands that never reach
an endpoint (every replay, `summary`, `parse`) start without loading them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from pathlib import Path
from typing import NamedTuple, Sequence

from .files import LineError, read_json, read_jsonl, write_jsonl_records
from .transform import Condition, RenderedPrompt

__all__ = [
    "EndpointConfig",
    "CompletionRecord",
    "CompletionCache",
    "BatchFailure",
    "BatchResult",
    "TransportError",
    "EndpointError",
    "StaleCompletionError",
    "generate_completion",
    "batch_generate",
    "import_completions",
    "write_completions_jsonl",
    "API_KEY_ENV",
]

API_KEY_ENV = "TOOLSTREAM_API_KEY"


class TransportError(Exception):
    pass


class EndpointError(Exception):
    def __init__(self, status: int, body_snippet: str):
        super().__init__(f"endpoint returned status {status}: {body_snippet}")
        self.status = status
        self.body_snippet = body_snippet


class StaleCompletionError(LineError):
    pass


class EndpointConfig:
    __slots__ = (
        "base_url", "model_id", "max_new_tokens", "stop_sequences", "timeout",
        "max_parallel", "retries", "retry_backoff",
    )

    def __init__(
        self,
        base_url: str,
        model_id: str,
        max_new_tokens: int = 128,
        stop_sequences: Sequence[str] = ("\n",),
        timeout: float = 60.0,
        max_parallel: int = 4,
        retries: int = 2,
        retry_backoff: float = 0.5,
    ):
        from urllib.parse import urlsplit

        self.base_url = base_url
        self.model_id = model_id
        self.max_new_tokens = max_new_tokens
        self.stop_sequences = tuple(stop_sequences)
        self.timeout = timeout
        self.max_parallel = max_parallel
        self.retries = retries
        self.retry_backoff = retry_backoff
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(
                f"base_url must be an http:// or https:// URL with a host: {self.base_url!r}"
            )
        url.port  # raises ValueError unless the port is a number in 0-65535
        for name, least in (("max_new_tokens", 1), ("max_parallel", 1), ("retries", 0)):
            value = getattr(self, name)
            if not value >= least:
                raise ValueError(f"{name} must be at least {least}, got {value!r}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout!r}")


class CompletionRecord:
    # Slots, not a NamedTuple: CPython 3.11+ specialises slot reads, which
    # scoring makes several of per completion.
    __slots__ = ("example_id", "condition", "stage", "prompt_hash", "text", "source")

    def __init__(
        self, example_id: str, condition: str, stage: int, prompt_hash: str, text: str,
        source: str = "http",
    ):
        self.example_id = example_id
        self.condition = condition
        self.stage = stage
        self.prompt_hash = prompt_hash
        self.text = text
        # Read by nothing in the package; perfbench's workloads still pass it.
        self.source = source


def _warn(message: str, *args: object) -> None:
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _entry_text(entry: object) -> str:
    text = entry["text"]
    if not isinstance(text, str):
        raise TypeError(f"text is {type(text).__name__}, not a string")
    return text


class CompletionCache:
    """One file per completion under stage_<s>/<condition>/, named by the
    sha256 of the endpoint URL and the exact request body, holding
    {"text": completion}.

    Each write goes to its own temp file beside the entry and is renamed
    into place, so concurrent writers, in this process or in others sharing
    the directory, never expose or clobber a partial record.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _path(self, stage: int, condition: str, key: str) -> Path:
        return self.root / f"stage_{stage}" / condition / f"{key}.json"

    def get(self, stage: int, condition: str, key: str) -> str | None:
        """The cached completion text, or None on a miss. Its example is
        the caller's: examples whose requests match share one entry. An
        absent entry is a miss. An unreadable one, or one whose text is not
        a string, is a miss that is logged; the next put replaces it."""
        try:
            return read_json(self._path(stage, condition, key), _entry_text, ValueError)
        except (FileNotFoundError, NotADirectoryError):
            return None
        except (OSError, ValueError) as exc:
            _warn("unreadable cache entry treated as a miss: %s", exc)
            return None

    def put(self, stage: int, condition: str, key: str, text: str) -> None:
        """Store a completion's text. A failed write is logged, and the
        caller keeps its completion."""
        import tempfile

        path = self._path(stage, condition, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps({"text": text}) + "\n")
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            _warn("could not write cache entry %s; keeping the completion: %s", path, exc)


def _payload(cfg: EndpointConfig, prompt_text: str) -> dict:
    """The exact chat-completions request body sent for one prompt."""
    return {
        "model": cfg.model_id,
        "messages": [{"role": "user", "content": prompt_text}],
        "temperature": 0,
        "max_tokens": cfg.max_new_tokens,
        "stop": list(cfg.stop_sequences),
    }


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """One verifying context (system CA store) per process: building it
    reads the CA bundle, which costs tens of milliseconds."""
    import ssl

    return ssl.create_default_context()


def _request_once(cfg: EndpointConfig, payload: dict) -> str:
    """POST one request over a fresh connection, closed once the body is read.

    Connections are deliberately not kept alive: against a server that
    writes headers and body in two sends, a reused socket waits on Nagle's
    algorithm for the client's delayed ACK on every response.
    """
    import http.client
    from urllib.parse import quote, urlsplit

    url = urlsplit(cfg.base_url)
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    if url.scheme == "https":
        conn = http.client.HTTPSConnection(
            url.hostname, url.port or 443, timeout=cfg.timeout, context=_tls_context()
        )
    else:
        conn = http.client.HTTPConnection(url.hostname, url.port or 80, timeout=cfg.timeout)
    try:
        conn.request(
            "POST",
            quote(url.path.rstrip("/") + "/chat/completions", safe="/%:@!$&'()*+,;="),
            body=json.dumps(payload).encode("utf-8"),
            headers=headers,
        )
        response = conn.getresponse()
        body = response.read()
    except (OSError, http.client.HTTPException) as exc:
        raise TransportError(f"request to {cfg.base_url} failed: {exc!r}") from exc
    finally:
        conn.close()
    if not 200 <= response.status < 300:
        raise EndpointError(response.status, body.decode("utf-8", "replace")[:200])
    try:
        text = json.loads(body)["choices"][0]["message"]["content"]
        if not isinstance(text, str):
            raise TypeError(f"content is {type(text).__name__}, not a string")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise EndpointError(response.status, f"malformed response body: {exc}")
    return text


def _request_with_retries(cfg: EndpointConfig, payload: dict) -> str:
    attempts = cfg.retries + 1
    last_error: Exception | None = None
    for attempt in range(attempts):
        try:
            return _request_once(cfg, payload)
        except TransportError as exc:
            last_error = exc
        except EndpointError as exc:
            # 4xx other than 429 will not improve on retry.
            if exc.status != 429 and exc.status < 500:
                raise
            last_error = exc
        if attempt < attempts - 1:
            time.sleep(cfg.retry_backoff * (attempt + 1))
    assert last_error is not None
    raise last_error


def generate_completion(
    prompt: RenderedPrompt,
    cfg: EndpointConfig,
    stage: int,
    cache: CompletionCache | None = None,
) -> CompletionRecord:
    """One greedy chat-completion request; cache hits skip the network."""
    condition = prompt.condition.value
    payload = _payload(cfg, prompt.text)
    key = hashlib.sha256(
        json.dumps([cfg.base_url, payload], sort_keys=True).encode("utf-8")
    ).hexdigest()
    text = cache.get(stage, condition, key) if cache is not None else None
    if text is None:
        text = _request_with_retries(cfg, payload)
        if cache is not None:
            cache.put(stage, condition, key, text)
    return CompletionRecord(prompt.example_id, condition, stage, prompt.prompt_hash, text)


class BatchFailure(NamedTuple):
    example_id: str
    error: str


class BatchResult(NamedTuple):
    """The completions, and the failures, each in prompt order."""

    records: list[CompletionRecord]
    failures: list[BatchFailure]


def batch_generate(
    prompts: Sequence[RenderedPrompt],
    cfg: EndpointConfig,
    stage: int,
    cache: CompletionCache | None = None,
) -> BatchResult:
    """Complete all prompts with at most max_parallel in flight. Items that
    fail after retries are enumerated rather than aborting the batch."""
    from concurrent.futures import ThreadPoolExecutor

    def run(prompt: RenderedPrompt) -> CompletionRecord | BatchFailure:
        try:
            return generate_completion(prompt, cfg, stage, cache)
        except (TransportError, EndpointError) as exc:
            return BatchFailure(prompt.example_id, str(exc))

    result = BatchResult([], [])
    with ThreadPoolExecutor(max_workers=cfg.max_parallel) as pool:
        for outcome in pool.map(run, prompts):
            if isinstance(outcome, BatchFailure):
                result.failures.append(outcome)
            else:
                result.records.append(outcome)
    return result


def import_completions(
    paths: Sequence[str | Path], prompts: Sequence[RenderedPrompt] | None = None
) -> list[CompletionRecord]:
    """Load recorded completions from JSONL files, in order (source
    becomes 'imported').

    A record whose condition is not a Condition tag is a ValueError. When
    rendered prompts are supplied, a record whose prompt_hash does not
    match its prompt's raises StaleCompletionError; both name the line.
    """
    hashes = {(p.example_id, p.condition.value): p.prompt_hash for p in prompts or ()}
    # A set lookup: calling Condition(...) per record is several times slower.
    tags = {c.value for c in Condition}

    def completion(raw) -> CompletionRecord:
        condition = raw["condition"]
        if condition not in tags:
            raise ValueError(f"unknown condition tag {condition!r}")
        # Positional fields, in CompletionRecord's order: keywords cost more.
        record = CompletionRecord(
            str(raw["example_id"]), condition, int(raw["stage"]), str(raw["prompt_hash"]),
            str(raw["text"]), "imported",
        )
        expected_hash = hashes.get((record.example_id, condition))
        if expected_hash is not None and expected_hash != record.prompt_hash:
            raise StaleCompletionError(
                f"stale completion for example {record.example_id!r} "
                f"(condition {condition}): prompt hash mismatch"
            )
        return record

    return [record for path in paths for record in read_jsonl(path, completion, ValueError)]


def write_completions_jsonl(path: str | Path, records: Sequence[CompletionRecord]) -> None:
    write_jsonl_records(path, (
        {"example_id": r.example_id, "condition": r.condition, "stage": r.stage,
         "prompt_hash": r.prompt_hash, "text": r.text}
        for r in records
    ))
