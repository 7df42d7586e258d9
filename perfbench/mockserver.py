"""Out-of-process mock chat-completions endpoint (stdlib only).

It runs in its own interpreter so that the client's measured overhead does
not include a server competing for the same interpreter lock. It speaks
HTTP/1.1, sleeps a fixed 2 ms per request, and answers each prompt with
the reply planted for its sha256 in a JSON file written at set-up. One
prompt in 16 (by hash) gets a single 503 per epoch; the retry then
succeeds.

    python3 perfbench/mockserver.py --replies replies.json

The first line on stdout is `PORT <n>`. Besides POST /v1/chat/completions
it serves POST /reset (new epoch: counters, one-shot failures and service
times cleared) and GET /stats (JSON counters since the last reset, and the
process's CPU time so far).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.002
FAIL_EVERY = 16


class State:
    def __init__(self, replies: dict[str, str]):
        self.replies = replies
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.retries = 0
        self.inflight = 0
        self.inflight_max = 0
        self.service_ms: list[float] = []
        self._failed: set[str] = set()  # hashes whose one-shot 503 has fired
        self._awaiting_retry: set[str] = set()

    def stats(self) -> dict:
        with self.lock:
            service = list(self.service_ms)
            return {
                "requests": self.requests,
                "retries": self.retries,
                "inflight_max": self.inflight_max,
                "service_ms_p50": statistics.median(service) if service else 0.0,
                "cpu_s": time.process_time(),
            }

    def complete(self, prompt: str) -> tuple[int, dict]:
        start = time.perf_counter()
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        with self.lock:
            self.requests += 1
            if digest in self._awaiting_retry:
                self._awaiting_retry.discard(digest)
                self.retries += 1
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
            fail = int(digest[:8], 16) % FAIL_EVERY == 0 and digest not in self._failed
            if fail:
                self._failed.add(digest)
                self._awaiting_retry.add(digest)
        try:
            time.sleep(DELAY_S)
            if fail:
                return 503, {"error": "injected one-shot failure"}
            reply = self.replies.get(digest)
            if reply is None:
                return 400, {"error": "no reply planted for this prompt"}
            return 200, {"choices": [{"message": {"role": "assistant", "content": reply}}]}
        finally:
            with self.lock:
                self.inflight -= 1
                self.service_ms.append((time.perf_counter() - start) * 1000.0)


def make_handler(state: State):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def _send(self, status: int, payload: dict) -> None:
            raw = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, state.stats())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                with state.lock:
                    state.reset()
                self._send(200, {})
            elif self.path.endswith("/chat/completions"):
                try:
                    prompt = json.loads(body)["messages"][0]["content"]
                except (ValueError, KeyError, IndexError, TypeError):
                    self._send(400, {"error": "malformed request"})
                    return
                self._send(*state.complete(prompt))
            else:
                self._send(404, {"error": "not found"})

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replies", required=True)
    args = parser.parse_args()
    with open(args.replies, encoding="utf-8") as fh:
        replies = json.load(fh)
    state = State(replies)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
