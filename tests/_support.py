"""Shared test helpers: independent metric oracles, random-call generation,
corpus loading from records, and a small mock chat-completions endpoint.

The metric oracles are written as naive loops on purpose: they are the
independent side of the dual-route checks and must not share code with
the library implementation.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import string
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import toolstream
from toolstream.calls import (
    ApiCall,
    FailureReason,
    ParsedCall,
    ParseFailure,
    _parse_candidate,
    normalize_params,
    parse_first_call,
    render_call,
    scoring_view,
)
from toolstream.corpus import Episode, load_corpus, partition_blocks
from toolstream.files import _json_value
from toolstream.fixtures import trace_heavy_corpus_records, write_jsonl_records
from toolstream.genclient import CompletionRecord, write_completions_jsonl
from toolstream.scoring import CATEGORY_ORDER, ScoreRecord
from toolstream.transform import Condition, RenderedPrompt, render_prompt

# Fixed malformed-completion corpus: each case's text, the reason it must
# produce, and the offset the failure must point at.
MALFORMED_CASES = [
    ("", FailureReason.EMPTY_OUTPUT, 0),
    ("   \n ", FailureReason.EMPTY_OUTPUT, 0),
    ("no call here", FailureReason.NO_BRACKET, 0),
    ("I will check the weather.", FailureReason.NO_BRACKET, 0),
    ("[]", FailureReason.BAD_NAME, 1),
    ("[123(x='1')]", FailureReason.BAD_NAME, 1),
    ("[ GetWeather(city='P')]", FailureReason.BAD_NAME, 1),
    ("[GetWeather]", FailureReason.BAD_NAME, 11),
    ("[GetWeather city='P']", FailureReason.BAD_NAME, 11),
    ("[", FailureReason.BAD_NAME, 1),
    ("x[", FailureReason.BAD_NAME, 2),
    ("[GetWeather(city]", FailureReason.BAD_PARAM_SYNTAX, 16),
    ("[GetWeather(city=']", FailureReason.UNTERMINATED_STRING, 17),
    ("[GetWeather(city='Paris']", FailureReason.BAD_PARAM_SYNTAX, 24),
    ("[GetWeather(city='Paris)]", FailureReason.UNTERMINATED_STRING, 17),
    ("[GetWeather(city='Paris'", FailureReason.BAD_PARAM_SYNTAX, 24),
    ("[GetWeather(city='Paris')", FailureReason.BAD_PARAM_SYNTAX, 25),
    ("[GetWeather(city='Paris') extra", FailureReason.BAD_PARAM_SYNTAX, 26),
    ("[GetWeather(='x')]", FailureReason.BAD_PARAM_SYNTAX, 12),
    ("[GetWeather(city='a', city='b')]", FailureReason.BAD_PARAM_SYNTAX, 22),
    ("[GetWeather(city=)]", FailureReason.BAD_PARAM_SYNTAX, 17),
    ("[GetWeather(city=,x='1')]", FailureReason.BAD_PARAM_SYNTAX, 17),
    ("[F(x='a'y='b')]", FailureReason.BAD_PARAM_SYNTAX, 8),
    ("[F(x='1'))]", FailureReason.BAD_PARAM_SYNTAX, 9),
    ("[F(x=  )]", FailureReason.BAD_PARAM_SYNTAX, 7),
]

# ---------------------------------------------------------------------------
# Brute-force continual-learning oracles (pure loops, no numpy). Each sum
# is an explicit left-to-right loop: sum() of floats is compensated from
# Python 3.12 on, which would make the oracles differ between interpreters.


def oracle_average_accuracy(R):
    T = len(R)
    total = 0.0
    for j in range(T):
        total += R[T - 1][j]
    return total / T


def oracle_bwt(R):
    T = len(R)
    total = 0.0
    for j in range(T - 1):
        total += R[T - 1][j] - R[j][j]
    return total / (T - 1)


def oracle_fwt(R, b):
    T = len(R)
    total = 0.0
    for j in range(1, T):
        total += R[j - 1][j] - b[j]
    return total / (T - 1)


def oracle_forgetting(R):
    T = len(R)
    total = 0.0
    for j in range(T - 1):
        peak = max(R[i][j] for i in range(j, T - 1))
        total += peak - R[T - 1][j]
    return total / (T - 1)


def oracle_aulc(R):
    T = len(R)
    total = 0.0
    for i in range(T):
        seen = 0.0
        for j in range(i + 1):
            seen += R[i][j]
        total += seen / (i + 1)
    return total / T


# ---------------------------------------------------------------------------
# Metric-flag oracle, straight from the README's flag definitions. It shares
# only the call parser with the library, not the scoring code.


def oracle_flags(completion: str, expected: ApiCall) -> tuple[bool, bool, bool, bool]:
    """(parsed, name_ok, name_any_ok, exact_ok) for one completion."""
    result = parse_first_call(completion)
    if not isinstance(result, ParsedCall):
        return (False, False, False, False)
    predicted = result.call
    if predicted.name != expected.name:
        return (True, False, False, False)
    # Values are compared with surrounding whitespace trimmed; key order
    # does not matter.
    predicted_map = {}
    for key, value in predicted.params:
        predicted_map[key] = value.strip()
    expected_map = {}
    for key, value in expected.params:
        expected_map[key] = value.strip()
    exact_ok = predicted_map == expected_map
    if expected_map:
        name_any_ok = False
        for key, value in expected_map.items():
            if key in predicted_map and predicted_map[key] == value:
                name_any_ok = True
    else:
        name_any_ok = not predicted_map
    return (True, True, name_any_ok, exact_ok)


def random_matrix(rng: random.Random, T: int = 4) -> list[list[float]]:
    return [[rng.random() for _ in range(T)] for _ in range(T)]


# ---------------------------------------------------------------------------
# Random API calls for parser round-trip testing

_IDENT_START = string.ascii_letters + "_"
_IDENT_CHARS = _IDENT_START + string.digits
_VALUE_ALPHABET = (
    string.ascii_letters + string.digits + " \t'\"\\,()[]{}=:;.!?-_/éß例"
)


def random_identifier(rng: random.Random, max_len: int = 10) -> str:
    length = rng.randrange(1, max_len + 1)
    return rng.choice(_IDENT_START) + "".join(
        rng.choice(_IDENT_CHARS) for _ in range(length - 1)
    )


def random_value(rng: random.Random, max_len: int = 14) -> str:
    return "".join(rng.choice(_VALUE_ALPHABET) for _ in range(rng.randrange(0, max_len)))


def random_call(rng: random.Random) -> ApiCall:
    n_params = rng.randrange(0, 5)
    keys: list[str] = []
    while len(keys) < n_params:
        key = random_identifier(rng)
        if key not in keys:
            keys.append(key)
    return ApiCall(
        random_identifier(rng),
        tuple((key, random_value(rng)) for key in keys),
    )


_FUZZ_ALPHABET = (
    "".join(chr(i) for i in range(32, 127)) + "[](),='\"\\\n\t" * 3 + "émoji漢字λ"
)


def random_text(rng: random.Random, max_len: int = 80) -> str:
    return "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randrange(0, max_len)))


# ---------------------------------------------------------------------------
# Differential parsing: parse_first_call and scoring_view against the scanner alone


def scanner_parse(text: str):
    """parse_first_call as the character scanner alone gives it: the
    _parse_candidate loop from the leftmost '['."""
    if not text or not text.strip():
        return ParseFailure(FailureReason.EMPTY_OUTPUT, 0)
    pos = text.find("[")
    if pos < 0:
        return ParseFailure(FailureReason.NO_BRACKET, 0)
    first_failure = None
    while pos >= 0:
        result = _parse_candidate(text, pos)
        if isinstance(result, ParsedCall):
            return result
        first_failure = first_failure or result
        pos = text.find("[", pos + 1)
    return first_failure


# Single characters, with a no-break space and a file separator (both blank
# to str.strip, neither a scanner blank), and the pieces of call-shaped
# strings: empty, blank, escaped and bare values, keys that repeat, and
# separators and endings both good and bad.
_DIFF_CHARS = "[]()=,'\"\\ \t\n\u00a0\x1cabxyzAB_09"
_DIFF_PARAMS = (
    "a=1", "b = 2 ", "a='x'", 'b="y"', "c=''", 'c=""', "d='it\\'s'", 'd="q\\"q"',
    "e=x\\n", "e= \t", "e=\u00a0", "e=\x1cz", "f=v w", "g=", "h= 'x,y)' ", "k=[1]",
)
_DIFF_JOINS = (", ", ",", " ,\t", "", ",,")
_DIFF_ENDS = (")]", ") ]", ")\t]x", ")", "]", "", ")] [k(a=1)]", ") [k()]")


def differential_text(rng: random.Random) -> str:
    """A random string for the differential parser check. Half are runs of
    _DIFF_CHARS; half are '[name(', some parameters, a separator between
    them and an ending, with one character of _DIFF_CHARS put in after the
    '(' in half of those."""
    if rng.random() < 0.5:
        return "".join(rng.choices(_DIFF_CHARS, k=rng.randrange(0, 40)))
    head = f"[{random_identifier(rng, 4)}("
    params = rng.choice(_DIFF_JOINS).join(rng.choices(_DIFF_PARAMS, k=rng.randrange(0, 4)))
    tail = params + rng.choice(_DIFF_ENDS)
    if rng.random() < 0.5:
        i = rng.randrange(len(tail) + 1)
        tail = tail[:i] + rng.choice(_DIFF_CHARS) + tail[i:]
    return head + tail


def agrees_with_scanner(text: str) -> bool:
    """Whether both views of text match scanner_parse: parse_first_call
    equals it, and scoring_view is either None or the name and normalized
    parameters of its ParsedCall (never a call where the scanner fails)."""
    want = scanner_parse(text)
    if parse_first_call(text) != want:
        return False
    view = scoring_view(text)
    return view is None or (
        isinstance(want, ParsedCall) and view == (want.call.name, normalize_params(want.call))
    )


def differential_mismatches(seed: int, n: int) -> list[str]:
    """The texts, of n seeded differential_text strings, on which either
    view disagrees with scanner_parse (agrees_with_scanner)."""
    rng = random.Random(seed)
    texts = (differential_text(rng) for _ in range(n))
    return [t for t in texts if not agrees_with_scanner(t)]


# ---------------------------------------------------------------------------
# Differential JSON-lines decoding: the line reader against json.loads

# Characters of JSON text, JSON whitespace and the blanks JSON does not
# allow (vertical tab, form feed, no-break space, U+2028, a byte-order
# mark, NUL).
_JSONL_ALPHABET = '{}[]",:\\ -+.eE0123456789aflnrstuINy\t\r\n\x0b\x0c\xa0\u2028\ufeff\x00\xe9'
_JSONL_PREFIXES = ("",) * 6 + (" ", "\t", "\r\n", "\ufeff", "\x0b")
_JSONL_SUFFIXES = ("\n",) * 6 + ("", "\r\n", " \t\n", "\x0b\n", "\u2028\n", "\r", " x\n", " 1\n")


def _random_json_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7 if depth < 3 else 4)
    if kind == 0:
        return rng.choice([None, True, False, float("nan"), float("inf"), float("-inf")])
    if kind == 1:
        return rng.choice([rng.randint(-10**20, 10**20), rng.uniform(-1e6, 1e6), rng.random()])
    if kind in (2, 3):
        return "".join(rng.choice(_JSONL_ALPHABET) for _ in range(rng.randrange(8)))
    if kind in (4, 5):
        return [_random_json_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {
        "".join(rng.choice(_JSONL_ALPHABET) for _ in range(rng.randrange(4))):
            _random_json_value(rng, depth + 1)
        for _ in range(rng.randrange(4))
    }


def jsonl_text(rng: random.Random) -> str:
    """One line as a JSON-lines reader gets it: a dumped value, sometimes
    cut short, with a character inserted or followed by a second value,
    between a random prefix and line end."""
    text = json.dumps(
        _random_json_value(rng), ensure_ascii=rng.random() < 0.5,
        separators=rng.choice([(",", ":"), (", ", ": ")]),
    )
    damage = rng.random()
    if damage < 0.15:
        text = text[: rng.randrange(len(text) + 1)]
    elif damage < 0.3:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_JSONL_ALPHABET) + text[at:]
    elif damage < 0.35:
        text += rng.choice(["", " "]) + json.dumps(_random_json_value(rng))
    return rng.choice(_JSONL_PREFIXES) + text + rng.choice(_JSONL_SUFFIXES)


def decode_outcome(decode, text: str):
    """repr of the decoded value, or the (class, message) of the error."""
    try:
        return repr(decode(text))
    except ValueError as exc:
        return type(exc), str(exc)


def jsonl_mismatches(seed: int, n: int) -> list[str]:
    """The texts, of n seeded jsonl_text lines, that the line reader's
    decoder (files._json_value) decodes otherwise than json.loads."""
    rng = random.Random(seed)
    texts = (jsonl_text(rng) for _ in range(n))
    return [
        t for t in texts if decode_outcome(_json_value, t) != decode_outcome(json.loads, t)
    ]


# ---------------------------------------------------------------------------
# Differential request forms: batch_generate's cache keys and request
# bodies against json.dumps of each request

# Endpoint settings whose strings hold what the key and body templates must
# survive: quotes, backslashes, non-ASCII, and the templates' placeholder
# ("\0", then "\0\0", ...) as a whole JSON string or at a string's end.
REQUEST_CONFIGS = (
    {"base_url": "http://127.0.0.1:8000", "model_id": "test-model"},
    {"base_url": 'https://models.example:8443/v1/a%20b?q="x"',
     "model_id": 'm"\\\0\xe9\u2028\U0001f600', "max_new_tokens": 7,
     "stop_sequences": ("\0", "\0\0", 'a"\0', "\\", "\n", "\u6f22", "")},
    {"base_url": "http://h", "model_id": "\0", "max_new_tokens": 1, "stop_sequences": ()},
)
# Prompt pieces: what JSON escapes, non-ASCII up to an astral emoji, and
# the placeholder's text and escaped form. A prompt holds no lone
# surrogate: it has no UTF-8 form to hash.
_PROMPT_PIECES = tuple('ab /"\\\n\t\r\x00\x1f\x7f\xe9\u2028\u2029\ufeff\U0001f600\u6f22') + (
    "\\u0000", '"\\u0000"', '"\0"', "\0\0", "User: ", "\nAPI-Request:",
)


def request_form_mismatches(seed: int, n: int) -> list[tuple[int, str]]:
    """The (config index, text) pairs, of n seeded prompt texts under each
    of REQUEST_CONFIGS, whose cache key or request body in batch_generate
    is not the sha256 of json.dumps([base_url, body], sort_keys=True) or
    json.dumps(body), body being _payload's request. The bodies are those
    batch_generate hands to genclient._fetch, which is replaced for the
    call, so nothing is sent."""
    from toolstream import genclient

    rng = random.Random(seed)
    texts = [
        "".join(rng.choice(_PROMPT_PIECES) for _ in range(rng.randrange(24))) for _ in range(n)
    ]
    prompts = [RenderedPrompt(f"e{i}", Condition.A_STRIPPED, t) for i, t in enumerate(texts)]
    sent: dict = {}

    def fetch(cfg, missing, stage, cache):
        sent.update(missing)
        return dict.fromkeys(missing, "")

    mismatches = []
    real_fetch, genclient._fetch = genclient._fetch, fetch
    try:
        for index, settings in enumerate(REQUEST_CONFIGS):
            cfg = genclient.EndpointConfig(**settings)
            sent.clear()
            genclient.batch_generate(prompts, cfg, 1)
            for text in texts:
                body = genclient._payload(cfg, text)
                key = hashlib.sha256(
                    json.dumps([cfg.base_url, body], sort_keys=True).encode("utf-8")
                ).hexdigest()
                if sent.get(("A", key)) != json.dumps(body).encode("utf-8"):
                    mismatches.append((index, text))
            if len(sent) != len(set(texts)):
                mismatches.append((index, "<distinct request count>"))
    finally:
        genclient._fetch = real_fetch
    return mismatches


def score_records(codes) -> list[ScoreRecord]:
    """The scores of a StageCodes as the records of its score file, in order."""
    block_of = [b for b, (lo, hi) in codes.blocks.items() for _ in range(lo, hi)]
    return [
        ScoreRecord(codes.ids[slot], stage, block_of[slot], CATEGORY_ORDER[code - 1])
        for stage in sorted(codes.rows)
        for slot, code in enumerate(codes.rows[stage])
        if code
    ]


def category_counts(records) -> list[int]:
    """The five category counts of score records, in CATEGORY_ORDER."""
    return [sum(r.category is c for r in records) for c in CATEGORY_ORDER]


def load_episodes_from_records(records: list[dict], tmp_path) -> list[Episode]:
    """Round-trip records through the JSONL loader (validates the schema)."""
    path = Path(tmp_path) / "synthetic_corpus.jsonl"
    write_jsonl_records(path, records)
    return load_corpus(path)


# ---------------------------------------------------------------------------
# What importing the CLI loads

# Modules that only some commands use, by name; a command that never uses
# one must not pay for loading it (or any of its submodules) at launch.
DEFERRED_IMPORTS = (
    "http", "email", "ssl", "socket", "concurrent.futures", "logging", "subprocess",
    "decimal", "random", "toolstream.fixtures", "requests", "urllib3",
)
# Modules the package never imports: `dataclasses` alone would bring
# `inspect`, `ast` and `dis` into every launch.
NEVER_IMPORTED = ("dataclasses", "inspect")


def cli_launch_imports(modules: tuple[str, ...]) -> list[str]:
    """The modules under `modules` that `import toolstream.cli` adds, in a
    fresh interpreter, to those it starts with (`site` may load some)."""
    code = (
        "import sys; before = set(sys.modules); import toolstream.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(toolstream.__file__).resolve().parents[1])}
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout.split()
    return [m for m in added if any(m == d or m.startswith(d + ".") for d in modules)]


# ---------------------------------------------------------------------------
# A seeded multi-stage replay input

MULTISTAGE_T = 4
MULTISTAGE_SEED = 42


def _planted_completion(rng: random.Random, expected: ApiCall, p_exact: float) -> str:
    """An exact call with probability p_exact, else one of the four other
    category shapes (the corpus calls all take two parameters)."""
    if rng.random() < p_exact:
        return render_call(expected)
    (k1, v1), (k2, v2) = expected.params
    shape = rng.randrange(4)
    if shape == 0:
        return render_call(ApiCall(expected.name, ((k1, v1), (k2, f"x_{v2}"))))
    if shape == 1:
        return render_call(ApiCall(expected.name, ((k1, f"x_{v1}"), (k2, f"x_{v2}"))))
    if shape == 2:
        return render_call(ApiCall("OtherTool", expected.params))
    return f"[{expected.name}({k1}='{v1}'"


def write_multistage_inputs(
    directory,
    seed: int = 11,
    n_episodes: int = 40,
    calls_per_episode: int = 3,
    stages: tuple[int, ...] = tuple(range(MULTISTAGE_T + 1)),
) -> tuple[Path, list[Path]]:
    """Write a trace-heavy corpus and completions at the given stages (by
    default 0-4) under both conditions for a StreamSpec(T=MULTISTAGE_T,
    seed=MULTISTAGE_SEED) report; returns the corpus path and the two
    completion files. A block scores better once its stage has trained it,
    and B a little better than A, so every matrix, summary and heatmap has
    distinct rows."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus.jsonl"
    write_jsonl_records(
        corpus, trace_heavy_corpus_records(n_episodes, calls_per_episode, n_apis=8)
    )
    blocks = partition_blocks(load_corpus(corpus), MULTISTAGE_T, MULTISTAGE_SEED)
    examples = sorted((ex for b in blocks for ex in b.examples), key=lambda ex: ex.id)
    rng = random.Random(seed)
    paths = []
    for condition, bonus in ((Condition.A_STRIPPED, 0.0), (Condition.B_TRAJECTORY, 0.15)):
        records = []
        for ex in examples:
            prompt_hash = render_prompt(ex, condition).prompt_hash
            for stage in stages:
                p_exact = (0.6 if ex.block_id <= stage else 0.2) + bonus
                text = _planted_completion(rng, ex.expected, p_exact)
                records.append(CompletionRecord(ex.id, condition.value, stage, prompt_hash, text))
        path = out / f"completions_{condition.value}.jsonl"
        write_completions_jsonl(path, records)
        paths.append(path)
    return corpus, paths


# ---------------------------------------------------------------------------
# Mock OpenAI-compatible endpoints


class _LocalServer:
    """A ThreadingHTTPServer on an ephemeral loopback port, served from a
    daemon thread for the length of a `with` block.

    It counts the connections it has accepted (`connections`) and those
    not yet closed (`open_connections`). With `keep_alive` it speaks
    HTTP/1.1 and keeps each connection open for the client's next request;
    otherwise it speaks HTTP/1.0 and closes it after one response. Either
    way each response goes out in two sends, headers then body, without
    TCP_NODELAY, as `http.server` writes it.
    """

    def _serve(self, handler, keep_alive: bool) -> None:
        self.connections = 0
        self.open_connections = 0
        lock = threading.Lock()
        server = self

        class Counted(handler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def log_message(self, *args):
                pass

            def setup(self):
                with lock:
                    server.connections += 1
                    server.open_connections += 1
                super().setup()

            def finish(self):
                try:
                    super().finish()
                finally:
                    with lock:
                        server.open_connections -= 1

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Counted)
        # A short poll interval lets shutdown() in __exit__ return at once
        # instead of waiting out serve_forever's default 0.5 s poll.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def port(self) -> int:
        return self._server.server_port

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()


class MockEndpoint(_LocalServer):
    """Threaded chat-completions stub with failure injection and an
    in-flight gauge for concurrency assertions."""

    def __init__(self, reply=None, delay: float = 0.0, keep_alive: bool = False):
        self.reply = reply or (lambda prompt: "[Ping()]")
        self.delay = delay
        self.requests = 0
        self.inflight = 0
        self.max_inflight = 0
        self.fail_once: set[str] = set()   # prompt substrings that 500 on first sight
        self.fail_always: set[str] = set() # prompt substrings that always 400
        # Close each connection after its response without saying so, as a
        # server does once a kept-alive connection has sat idle too long.
        self.close_idle = False
        self.last_headers: dict[str, str] = {}
        self.last_payload: dict = {}
        self._tripped: set[str] = set()
        self._lock = threading.Lock()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                prompt = body["messages"][0]["content"]
                with endpoint._lock:
                    endpoint.last_headers = dict(self.headers)
                    endpoint.last_payload = body
                    endpoint.requests += 1
                    endpoint.inflight += 1
                    endpoint.max_inflight = max(endpoint.max_inflight, endpoint.inflight)
                try:
                    if endpoint.delay:
                        time.sleep(endpoint.delay)
                    status, payload = endpoint._respond(prompt)
                finally:
                    with endpoint._lock:
                        endpoint.inflight -= 1
                raw = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)
                if endpoint.close_idle:
                    self.close_connection = True

        self._serve(Handler, keep_alive)

    def _respond(self, prompt: str):
        for marker in self.fail_always:
            if marker in prompt:
                return 400, {"error": "permanently rejected"}
        for marker in self.fail_once:
            if marker in prompt:
                with self._lock:
                    if marker not in self._tripped:
                        self._tripped.add(marker)
                        return 500, {"error": "transient failure"}
        return 200, {"choices": [{"message": {"content": self.reply(prompt)}}]}


class RawEndpoint(_LocalServer):
    """Answers every POST with the same raw bytes, for transport tests.

    `declared_length` overrides the Content-Length header, so a value
    longer than `body` sends a truncated response; the server then closes
    the connection, kept alive or not. Request paths are recorded in
    `paths`.
    """

    def __init__(
        self, body: bytes, status: int = 200, declared_length: int | None = None,
        keep_alive: bool = False,
    ):
        self.paths: list[str] = []
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                endpoint.paths.append(self.path)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                length = len(body) if declared_length is None else declared_length
                self.send_header("Content-Length", str(length))
                self.end_headers()
                self.wfile.write(body)
                if length != len(body):
                    self.close_connection = True

        self._serve(Handler, keep_alive)

    @property
    def requests(self) -> int:
        return len(self.paths)
