"""Loopback stand-in for a completion-style LM API and an NLI service.

Run as its own process:

    python3 benchmarks/service.py --lm LM.json --nli NLI.json --delay-ms 5

It prints ``PORT <n>`` on stdout once it listens on 127.0.0.1 and
serves until its standard input closes. Every connection is served by
one asyncio event loop in one thread, so requests in flight cost no
extra thread. Each request is held for a fixed service delay and then
answered with the status line, headers and body in a single write: a
response split over several sends makes a client that reuses its
connection wait for a delayed ACK.

Answers come from fixture tables written by ``FixtureBuilder``: the
response table plus its ``.prompts.json`` sidecar, which holds the
rendered request behind each digest. The service keys its own tables
by what arrives on the wire, so it needs nothing from the program.
NLI pairs missing from the NLI table are judged neutral.

``GET /_log`` returns and clears the per-request log
``[connection, kind, arrival_s, reply_s, request_bytes]`` with times
from ``time.monotonic`` (one clock for every process on the host).
"""
from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
import time
from itertools import count
from pathlib import Path

NEUTRAL = {"label": "neutral", "probs": [0.0, 0.0, 1.0]}


class Tables:
    """Wire-keyed answers built from one LM fixture table and one NLI list."""

    def __init__(self, lm_path: Path | None, nli_path: Path | None):
        self.truth: dict[str, tuple[float, float]] = {}
        self.completion: dict[tuple[str, int], list[str]] = {}
        self.logprob: dict[str, tuple[int, float]] = {}
        self.nli: dict[tuple[str, str], dict] = {}
        if lm_path is not None:
            responses = json.loads(lm_path.read_text(encoding="utf-8"))
            sidecar_path = lm_path.with_suffix(lm_path.suffix + ".prompts.json")
            requests = json.loads(sidecar_path.read_text(encoding="utf-8"))
            for digest, request in requests.items():
                self.add(request, responses[digest])
        if nli_path is not None:
            for record in json.loads(nli_path.read_text(encoding="utf-8")):
                self.nli[(record["premise"], record["hypothesis"])] = {
                    "label": record["label"],
                    "probs": record.get("probs") or one_hot(record["label"])}

    def add(self, request: dict, response: dict) -> None:
        kind, prompt = request["kind"], request["prompt"]
        if kind == "truth":
            self.truth[prompt] = (response["true_prob"], response["false_prob"])
        elif kind == "completion":
            samples = request["decoding"]["sample_count"]
            self.completion[(prompt, samples)] = list(response["completions"])
        elif kind == "logprob":
            full = f"{prompt} {request['completion']}"
            self.logprob[full] = (len(prompt), response["logprob"])
        else:
            raise ValueError(f"unknown request kind {kind!r}")

    def answer(self, path: str, body: dict) -> tuple[str, int, dict]:
        """(request kind, HTTP status, JSON payload) for one POST."""
        if path.endswith("/nli"):
            key = (body.get("premise"), body.get("hypothesis"))
            return "nli", 200, self.nli.get(key, NEUTRAL)
        prompt = body.get("prompt", "")
        if body.get("echo"):
            found = self.logprob.get(prompt)
            if found is None:
                return "logprob", 404, {"error": "unknown echo prompt"}
            boundary, value = found
            return "logprob", 200, {"choices": [{"text": prompt, "logprobs": {
                "tokens": [prompt[:boundary], prompt[boundary:]],
                "text_offset": [0, boundary],
                "token_logprobs": [None, value]}}]}
        if body.get("max_tokens") == 1 and body.get("logprobs"):
            found = self.truth.get(prompt)
            if found is None:
                return "truth", 404, {"error": "unknown truth prompt"}
            top = {token: math.log(prob) for token, prob in
                   ((" True", found[0]), (" False", found[1])) if prob > 0}
            best = max(top, key=top.get)
            return "truth", 200, {"choices": [{"text": best, "logprobs": {
                "tokens": [best], "top_logprobs": [top]}}]}
        found = self.completion.get((prompt, int(body.get("n", 1))))
        if found is None:
            return "completion", 404, {"error": "unknown completion prompt"}
        return "completion", 200, {"choices": [{"text": text, "index": index}
                                               for index, text in enumerate(found)]}


def one_hot(label: str) -> list[float]:
    return [1.0 if name == label else 0.0 for name in ("entail", "contradict", "neutral")]


def _response(status: int, payload, keep_alive: bool) -> bytes:
    blob = json.dumps(payload).encode("utf-8")
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(status, "Error")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n")
    return head.encode("ascii") + blob


class Service:
    def __init__(self, tables: Tables, delay_s: float):
        self.tables = tables
        self.delay_s = delay_s
        self.log: list[list] = []
        self._connections = count(1)
        self.handlers: dict = {}  # task -> writer of every open connection

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        connection = next(self._connections)
        self.handlers[asyncio.current_task()] = writer
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                lines = head.decode("latin-1").split("\r\n")
                method, path, _ = lines[0].split(" ", 2)
                headers = {}
                for line in lines[1:]:
                    if ":" in line:
                        name, value = line.split(":", 1)
                        headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0"))
                raw = await reader.readexactly(length) if length else b""
                arrival = time.monotonic()
                keep_alive = headers.get("connection", "").lower() != "close"
                if method == "GET" and path == "/_log":
                    log, self.log = self.log, []
                    writer.write(_response(200, log, keep_alive))
                    await writer.drain()
                else:
                    try:
                        kind, status, payload = self.tables.answer(path, json.loads(raw))
                    except (ValueError, TypeError, AttributeError) as exc:
                        kind, status, payload = "invalid", 400, {"error": str(exc)}
                    await asyncio.sleep(self.delay_s)
                    writer.write(_response(status, payload, keep_alive))
                    await writer.drain()
                    self.log.append([connection, kind, arrival, time.monotonic(),
                                     len(head) + length])
                if not keep_alive:
                    return
        except ConnectionError:
            return
        finally:
            del self.handlers[asyncio.current_task()]
            writer.close()

    async def close_connections(self) -> None:
        """End kept-alive connections so their handlers return on their own."""
        for writer in self.handlers.values():
            writer.close()
        await asyncio.gather(*self.handlers, return_exceptions=True)


async def serve(tables: Tables, delay_s: float) -> None:
    service = Service(tables, delay_s)
    server = await asyncio.start_server(service.handle, "127.0.0.1", 0, backlog=128)
    port = server.sockets[0].getsockname()[1]
    print(f"PORT {port}", flush=True)
    loop = asyncio.get_running_loop()
    stdin_closed = loop.create_future()

    def on_stdin() -> None:
        if not sys.stdin.buffer.read1(4096) and not stdin_closed.done():
            stdin_closed.set_result(None)

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    try:
        await stdin_closed
    finally:
        loop.remove_reader(sys.stdin.fileno())
        server.close()
        await service.close_connections()
        await server.wait_closed()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lm", type=Path, help="FixtureBuilder response table")
    parser.add_argument("--nli", type=Path, help="NLI records (premise, hypothesis, label)")
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args(argv)
    asyncio.run(serve(Tables(args.lm, args.nli), args.delay_ms / 1000.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
