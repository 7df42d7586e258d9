"""Model completions for rendered prompts, via an OpenAI-compatible endpoint
or recorded completion files, with a deterministic on-disk cache.

The wire shape is the widely served chat-completions POST; decoding is
pinned greedy (temperature 0). Completions are cached by the request they
answer (endpoint URL, model, prompt and decoding settings), so a change
to any of these misses the cache instead of serving a stale entry. In
live generation, worker threads only send, over connections each batch
keeps alive and closes when it returns; the calling thread writes the
cache and waits out each retry's backoff.

The HTTP, TLS, URL, thread-pool, queue, temp-file and logging modules are
imported inside the functions that use them, so commands that never reach
an endpoint (every replay, `summary`, `parse`) start without loading them,
and a batch served wholly from the cache loads neither the HTTP nor the
thread-pool modules.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import time
from pathlib import Path
from typing import NamedTuple, Sequence

from .files import LineError, integer, read_json, read_jsonl, string, write_jsonl_records
from .transform import Condition, RenderedPrompt

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
            value = integer(getattr(self, name), name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            setattr(self, name, value)
        if not self.retry_backoff >= 0:
            raise ValueError(f"retry_backoff must be at least 0, got {self.retry_backoff!r}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout!r}")
        for name in ("timeout", "retry_backoff"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


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
        self.root = os.fspath(root)

    def _path(self, stage: int, condition: str, key: str) -> str:
        # One string join: a lookup is on the path of every warm request.
        return os.path.join(self.root, f"stage_{stage}", condition, key + ".json")

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
        directory, name = os.path.split(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".", suffix=".tmp")
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


def _connect(cfg: EndpointConfig) -> http.client.HTTPConnection:
    """A connection to cfg's host, opened by its first request; HTTPS is
    verified with _tls_context()."""
    import http.client
    from urllib.parse import urlsplit

    url = urlsplit(cfg.base_url)
    if url.scheme == "https":
        return http.client.HTTPSConnection(
            url.hostname, url.port or 443, timeout=cfg.timeout, context=_tls_context()
        )
    return http.client.HTTPConnection(url.hostname, url.port or 80, timeout=cfg.timeout)


def _request_once(
    cfg: EndpointConfig, idle: list, path: str, headers: dict, payload: dict
) -> str:
    """POST one request and read its whole reply, over a connection popped
    from `idle`, or a new one when none is idle.

    Once the body is read the connection goes back on `idle`, whatever the
    status. A connection that fails, a stale one the server closed
    included, is closed and dropped, and the failure is a TransportError.
    TCP_QUICKACK (Linux) is set for each reply: against a server that
    writes headers and body in two sends without TCP_NODELAY, Nagle's
    algorithm holds the body back until the headers are acknowledged, and
    a reused socket would delay that ACK by about 40 ms.
    """
    import http.client
    import socket

    try:
        conn = idle.pop()
    except IndexError:
        conn = _connect(cfg)
    try:
        conn.request("POST", path, body=json.dumps(payload).encode("utf-8"), headers=headers)
        if hasattr(socket, "TCP_QUICKACK"):
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        response = conn.getresponse()
        body = response.read()
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        raise TransportError(f"request to {cfg.base_url} failed: {exc!r}") from exc
    idle.append(conn)
    if not 200 <= response.status < 300:
        raise EndpointError(response.status, body.decode("utf-8", "replace")[:200])
    try:
        text = json.loads(body)["choices"][0]["message"]["content"]
        if not isinstance(text, str):
            raise TypeError(f"content is {type(text).__name__}, not a string")
    except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
        raise EndpointError(response.status, f"malformed response body: {exc}")
    return text


def _request_key(cfg: EndpointConfig, payload: dict) -> str:
    """A request's cache key: the sha256 of the endpoint URL and its body."""
    return hashlib.sha256(
        json.dumps([cfg.base_url, payload], sort_keys=True).encode("utf-8")
    ).hexdigest()


def _fetch(cfg: EndpointConfig, missing: dict, stage: int, cache: CompletionCache | None) -> dict:
    """Map each (condition, key) -> request body in `missing` to its
    completion text, or to the error of its last attempt. Workers send one
    attempt each; this thread caches each completion and holds each retry
    until its backoff has passed, so neither occupies a worker. An
    interrupt cancels the sends not yet started. The workers share at most
    max_parallel kept-alive connections, all closed before this returns."""
    import heapq
    import queue
    from concurrent.futures import ThreadPoolExecutor
    from urllib.parse import quote, urlsplit

    path = quote(
        urlsplit(cfg.base_url).path.rstrip("/") + "/chat/completions", safe="/%:@!$&'()*+,;="
    )
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    idle: list = []  # open connections between attempts
    done = queue.SimpleQueue()

    def attempt(request: tuple[str, str], n: int) -> None:
        try:
            done.put((request, n, _request_once(cfg, idle, path, headers, missing[request])))
        except Exception as exc:
            done.put((request, n, exc))

    outcomes: dict[tuple[str, str], str | Exception] = {}
    waiting: list[tuple[float, tuple[str, str], int]] = []  # (due, request, attempt)
    pool = ThreadPoolExecutor(max_workers=cfg.max_parallel)
    try:
        for request in missing:
            pool.submit(attempt, request, 0)
        while len(outcomes) < len(missing):
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                _, request, n = heapq.heappop(waiting)
                pool.submit(attempt, request, n)
            try:
                request, n, outcome = done.get(timeout=waiting[0][0] - now if waiting else None)
            except queue.Empty:
                continue
            if isinstance(outcome, str):
                if cache is not None:
                    cache.put(stage, *request, outcome)
            elif not isinstance(outcome, (TransportError, EndpointError)):
                raise outcome
            # A transport error has no status and is retried like a 5xx.
            elif n < cfg.retries and (getattr(outcome, "status", 500) >= 500
                                      or outcome.status == 429):
                due = time.monotonic() + cfg.retry_backoff * (n + 1)
                heapq.heappush(waiting, (due, request, n + 1))
                continue
            outcomes[request] = outcome
    finally:
        pool.shutdown(cancel_futures=True)
        for conn in idle:
            conn.close()
    return outcomes


def generate_completion(
    prompt: RenderedPrompt,
    cfg: EndpointConfig,
    stage: int,
    cache: CompletionCache | None = None,
) -> CompletionRecord:
    """batch_generate for one prompt. A request that fails after its
    retries raises its last TransportError or EndpointError. Nothing in
    the package calls it; perfbench's trace mode wraps the name."""
    result = batch_generate([prompt], cfg, stage, cache)
    if result.failures:
        raise result.failures[0].error
    return result.records[0]


class BatchFailure(NamedTuple):
    example_id: str
    error: TransportError | EndpointError


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
    """Complete all prompts. The calling thread looks each distinct request
    up in the cache once, so a fully cached batch starts no thread. The
    distinct misses are sent with at most max_parallel in flight, as _fetch
    schedules them. Prompts whose requests match share one completion, or
    one failure. Items that fail after retries are enumerated rather than
    aborting the batch."""
    # Per prompt, its (condition, key); per distinct request, the cached
    # text, or None until it is sent; and the body of each missing request.
    requests: list[tuple[str, str]] = []
    outcomes: dict[tuple[str, str], str | Exception | None] = {}
    missing: dict[tuple[str, str], dict] = {}
    for prompt in prompts:
        payload = _payload(cfg, prompt.text)
        request = (prompt.condition.value, _request_key(cfg, payload))
        requests.append(request)
        if request not in outcomes:
            text = cache.get(stage, *request) if cache is not None else None
            outcomes[request] = text
            if text is None:
                missing[request] = payload
    if missing:
        outcomes.update(_fetch(cfg, missing, stage, cache))

    result = BatchResult([], [])
    for prompt, request in zip(prompts, requests):
        outcome = outcomes[request]
        if isinstance(outcome, str):
            result.records.append(
                CompletionRecord(prompt.example_id, request[0], stage, prompt.prompt_hash, outcome)
            )
        else:
            result.failures.append(BatchFailure(prompt.example_id, outcome))
    return result


def import_completions(
    paths: Sequence[str | Path], prompts: Sequence[RenderedPrompt] | None = None
) -> list[CompletionRecord]:
    """Load recorded completions from JSONL files, in order (source
    becomes 'imported').

    A record whose condition is not a Condition tag, or whose stage is not
    an integer, is a ValueError. When rendered prompts are supplied, a
    record whose prompt_hash does not match its prompt's raises
    StaleCompletionError; both name the line. A record that matches keeps
    its prompt's example-id and hash strings rather than the copies JSON
    decoding made, so the records of one prompt share them.
    """
    # (example id, condition) -> that prompt's example id and hash, each
    # hash computed once.
    rendered = {
        (p.example_id, p.condition.value): (p.example_id, p.prompt_hash) for p in prompts or ()
    }
    # A set lookup: calling Condition(...) per record is several times slower.
    tags = {c.value for c in Condition}

    def completion(raw) -> CompletionRecord:
        condition = raw["condition"]
        if condition not in tags:
            raise ValueError(f"unknown condition tag {condition!r}")
        example_id = string(raw["example_id"], "example_id")
        stage = integer(raw["stage"], "stage")
        prompt_hash = string(raw["prompt_hash"], "prompt_hash")
        text = string(raw["text"], "text")
        shared = rendered.get((example_id, condition))
        if shared is not None:
            if shared[1] != prompt_hash:
                raise StaleCompletionError(
                    f"stale completion for example {example_id!r} "
                    f"(condition {condition}): prompt hash mismatch"
                )
            example_id, prompt_hash = shared
        # Positional fields, in CompletionRecord's order: keywords cost more.
        return CompletionRecord(example_id, condition, stage, prompt_hash, text, "imported")

    return [record for path in paths for record in read_jsonl(path, completion, ValueError)]


def write_completions_jsonl(path: str | Path, records: Sequence[CompletionRecord]) -> None:
    write_jsonl_records(path, (
        {"example_id": r.example_id, "condition": r.condition, "stage": r.stage,
         "prompt_hash": r.prompt_hash, "text": r.text}
        for r in records
    ))
