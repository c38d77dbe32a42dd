"""Byte mutations of valid HTTP requests against the service's request reader.

``read_request`` parses untrusted bytes, so every input must end in one of
three ways, within a time bound: a parsed ``Request``, ``None`` (a clean or
truncated end of stream), or an ``HttpError`` carrying a 4xx/5xx status the
server answers with.  Anything else escapes ``TrackingService._handle_client``
and drops the connection without a reply.

Each example takes one of three valid requests (``GET /healthz``, ``POST
/sessions`` with a JSON body, a WebSocket upgrade), applies a few byte flips,
insertions and deletions, maybe truncates it, and maybe inserts one run of a
single byte, at any offset, long enough to pass the 32 KiB header cap or the
64 KiB stream limit.  The reader reads from an in-memory
``asyncio.StreamReader`` with the limit ``asyncio.start_server`` gives the
service's connections.
"""

import asyncio
import json
import time

from hypothesis import given
from hypothesis import strategies as st

from repro.service.http import HttpError, Request, read_request

#: the stream limit of a connection ``asyncio.start_server`` accepts
LIMIT = 2**16
#: seconds one example may take
BOUND_S = 5.0

_BODY = json.dumps({"config": {"seed": 7}, "session_id": "s", "autorun": True}).encode()
SEEDS = [
    b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
    b"POST /sessions HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n"
    b"Content-Length: " + str(len(_BODY)).encode() + b"\r\n\r\n" + _BODY,
    b"GET /sessions/s/stream HTTP/1.1\r\nHost: localhost\r\nUpgrade: websocket\r\n"
    b"Connection: Upgrade\r\nSec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
    b"Sec-WebSocket-Version: 13\r\n\r\n",
]


@st.composite
def mutated_requests(draw):
    data = bytearray(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["flip", "insert", "delete"]))
        if op == "insert":
            data.insert(draw(st.integers(0, len(data))), draw(st.integers(0, 255)))
        elif data:
            i = draw(st.integers(0, len(data) - 1))
            if op == "flip":
                data[i] ^= 1 << draw(st.integers(0, 7))
            else:
                del data[i]
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    if draw(st.booleans()):
        byte = draw(st.one_of(st.sampled_from(b"a0 :\r\n"), st.integers(0, 255)))
        n = draw(st.sampled_from([32 * 1024 + 1, 64 * 1024 + 1, 70_000]))
        at = draw(st.integers(0, len(data)))
        data[at:at] = bytes([byte]) * n
    return bytes(data)


def _read(data: bytes):
    async def read():
        reader = asyncio.StreamReader(limit=LIMIT)
        reader.feed_data(data)
        reader.feed_eof()
        return await asyncio.wait_for(read_request(reader), BOUND_S)

    return asyncio.run(read())


@given(mutated_requests())
def test_mutated_request_fails_closed(data):
    start = time.monotonic()
    try:
        got = _read(data)
    except HttpError as exc:
        assert 400 <= exc.status < 600, exc.status
    else:
        assert got is None or isinstance(got, Request)
    assert time.monotonic() - start < BOUND_S


def test_seeds_parse():
    for seed in SEEDS:
        assert isinstance(_read(seed), Request)
