"""A chat-completions endpoint for tests, served on 127.0.0.1.

Each answer depends on the packet in the request's prompt alone, so a run
through it replays byte for byte, whatever order concurrent sessions'
requests arrive in.  Standard library only.

    python tests/chat_stub.py [--port N] [--key KEY]

prints the port it serves on as its first line.  With --key, a request
without `Authorization: Bearer KEY` gets HTTP 401.  A request it cannot
read (a body that is not a chat-completion request with a prompt in the
platform's layout) gets HTTP 500.

The policy proposes three experiments per turn until six are on record,
tests the product of the inputs once, and then sends an empty turn, which
ends the session.  At three experiments it first replies with chatter
that holds no turn, so every session takes the retry path once.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

CHATTER = "Let me think about {this} before the next step."


def packet_of(prompt: str) -> tuple[dict, bool]:
    """The packet in a platform prompt, and whether a notice follows it."""
    tail = prompt.rpartition("\n# Current Input\n")[2]
    document, _, rest = tail.split("```json\n", 1)[1].partition("\n```")
    return json.loads(document), "\n# Notice\n" in rest


def reply(packet: dict, notice: bool) -> str:
    names = list(packet["controllable_variables"])
    done = len(packet["historical_experiments"])
    if "last_oracle_result" in packet:
        turn = {"next_experiments": [], "test_hypothesis_flag": False,
                "current_hypothesis_formula": ""}
    elif done >= 6:
        turn = {"next_experiments": [], "test_hypothesis_flag": True,
                "current_hypothesis_formula": " * ".join(names)}
    elif done == 3 and not notice:
        return CHATTER
    else:
        count = min(3, packet["quota"]["experiments_quota"])
        turn = {"next_experiments": [
                    {name: 0.5 * (done + i + 1) + j for j, name in enumerate(names)}
                    for i in range(count)],
                "test_hypothesis_flag": False,
                "current_hypothesis_formula": ""}
    return "Here is my next step.\n```json\n" + json.dumps(turn) + "\n```\n"


class ChatStub(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, port: int = 0, key: str | None = None):
        super().__init__(("127.0.0.1", port), _Handler)
        self.key = key
        self.requests: list[tuple[Message, bytes]] = []  # (headers, body)
        self._lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"


class _Handler(BaseHTTPRequestHandler):
    server: ChatStub

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.server._lock:
            self.server.requests.append((self.headers, body))
        key = self.server.key
        if key is not None and self.headers.get("Authorization") != f"Bearer {key}":
            self._send(401, b"")
            return
        try:
            prompt = json.loads(body)["messages"][0]["content"]
            content = reply(*packet_of(prompt))
        except Exception:
            self._send(500, b"")
            return
        answer = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        self._send(200, json.dumps(answer).encode("utf-8"))

    def _send(self, code: int, payload: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args) -> None:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--key", default=None)
    args = parser.parse_args(argv)
    with ChatStub(args.port, args.key) as server:
        print(server.server_address[1], flush=True)
        server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
