"""A single-threaded HTTP/1.1 client with one closed loop per connection.

Each :class:`Connection` is a keep-alive socket pinned to one worker.
:func:`drive` multiplexes the connections with a selector: whenever one
connection's response is complete, that connection sends the next
request of the shared list. A connection never waits for another one,
so a slow answer on one worker does not hold the others back.
"""

from __future__ import annotations

import json
import selectors
import socket
from typing import Callable, Sequence
from urllib.parse import quote

from spans import CLOCK

_HEAD_END = b"\r\n\r\n"
_LENGTH = b"\r\ncontent-length:"
_RESULTS = b', "results": '
#: Seconds a blocking send or receive may take before the run fails.
_TIMEOUT_S = 60.0


def encode_search(query: str, seq: int | None = None) -> bytes:
    """A pre-encoded ``GET /search`` request (optionally sequence-tagged)."""
    lines = [f"GET /search?q={quote(query)} HTTP/1.1", "Host: bench"]
    if seq is not None:
        lines.append(f"X-Bench-Seq: {seq}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def encode_get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


def results_of(body: bytes) -> bytes | None:
    """The raw bytes of a search response's ``results`` array (the last
    key of the payload), or ``None`` if the body has none."""
    at = body.rfind(_RESULTS)
    if at < 0 or not body.endswith(b"}"):
        return None
    return body[at + len(_RESULTS) : -1]


class Connection:
    """One keep-alive connection and its receive buffer."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.pid: int | None = None

    def take_response(self) -> tuple[int, bytes] | None:
        """Pop one complete ``(status, body)`` off the buffer, if any."""
        end = self.buffer.find(_HEAD_END)
        if end < 0:
            return None
        head = bytes(self.buffer[:end]).lower()
        at = head.find(_LENGTH)
        if at < 0:
            raise ConnectionError("response without Content-Length")
        stop = head.find(b"\r\n", at + len(_LENGTH))
        length = int(head[at + len(_LENGTH) : stop if stop >= 0 else len(head)])
        total = end + len(_HEAD_END) + length
        if len(self.buffer) < total:
            return None
        status = int(head[9:12])
        body = bytes(self.buffer[end + len(_HEAD_END) : total])
        del self.buffer[:total]
        return status, body

    def roundtrip(self, request: bytes) -> tuple[int, bytes]:
        """Send *request* and block for its response."""
        self.sock.sendall(request)
        while True:
            response = self.take_response()
            if response is not None:
                return response
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk

    def get_json(self, path: str) -> dict:
        status, body = self.roundtrip(encode_get(path))
        if status != 200:
            raise ConnectionError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


#: ``on_response(index, connection, status, body, sent_at, done_at)``.
OnResponse = Callable[[int, Connection, int, bytes, float, float], None]


def drive(
    connections: Sequence[Connection],
    requests: Sequence[bytes],
    on_response: OnResponse,
) -> float:
    """Send every request once, over whichever connection is free first.

    Returns the wall time from the first send to the last response.
    """
    selector = selectors.DefaultSelector()
    in_flight: dict[Connection, tuple[int, float]] = {}
    next_index = 0

    def send(connection: Connection) -> None:
        nonlocal next_index
        index = next_index
        next_index += 1
        sent_at = CLOCK()
        connection.sock.sendall(requests[index])
        in_flight[connection] = (index, sent_at)

    begin = CLOCK()
    for connection in connections:
        connection.sock.setblocking(False)
        selector.register(connection.sock, selectors.EVENT_READ, connection)
        if next_index < len(requests):
            send(connection)
    try:
        while in_flight:
            for key, _ in selector.select():
                connection = key.data
                chunk = connection.sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                connection.buffer += chunk
                response = connection.take_response()
                if response is None:
                    continue
                done_at = CLOCK()
                index, sent_at = in_flight.pop(connection)
                if next_index < len(requests):
                    send(connection)
                on_response(index, connection, *response, sent_at, done_at)
    finally:
        selector.close()
        for connection in connections:
            connection.sock.settimeout(_TIMEOUT_S)
    return CLOCK() - begin
