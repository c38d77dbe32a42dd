"""Byte mutations of valid WebSocket client frames against ``ws_recv``.

``ws_recv`` reads untrusted frames off a session stream, so every input
must end in one of two ways, within a time bound: a text payload or
``None`` (the connection closed, cleanly or failed), and nothing raised.
What it writes back must be pong frames and at most one close frame, last,
with code 1000, 1002, 1007 or 1009.  RFC 6455 §5.2 and §5.4 require failing
the connection on a set RSV bit (no extension is negotiated), a reserved
opcode and a data frame out of sequence, so an input whose frames, read
header by header up to the end of the first message, show one of those
must not yield text.

Each example takes one of four valid masked frame sequences (one text
frame; a text message in two fragments with a ping between them; a close
frame; a text frame header declaring 2^40 payload bytes), applies a few
byte flips, insertions and deletions, and maybe truncates it.  The reader
reads from an in-memory ``asyncio.StreamReader`` at end of stream and
answers into a sink, as the ``ws_recv`` tests in
``tests/service/test_http.py`` do.  A deterministic sweep adds every
single-bit flip of every byte of the seeds.
"""

import asyncio
import struct
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service.http import ws_recv

#: seconds one example may take
BOUND_S = 5.0
_MASK = b"\x11\x22\x33\x44"
_CLOSE_CODES = {1000, 1002, 1007, 1009}
_DATA_OPCODES = {0x0, 0x1, 0x2}
_CONTROL_OPCODES = {0x8, 0x9, 0xA}


def _frame(first_byte: int, payload: bytes) -> bytes:
    masked = bytes(b ^ _MASK[i % 4] for i, b in enumerate(payload))
    return bytes([first_byte, 0x80 | len(payload)]) + _MASK + masked


SEEDS = [
    _frame(0x81, b"hello"),
    _frame(0x01, b"hel") + _frame(0x89, b"ping") + _frame(0x80, b"lo"),
    _frame(0x88, struct.pack(">H", 1000)),
    bytes([0x81, 0x80 | 127]) + struct.pack(">Q", 1 << 40) + _MASK,
]


@st.composite
def mutated_frames(draw):
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
    return bytes(data)


class _Sink:
    """The writer half ``ws_recv`` answers on."""

    def __init__(self):
        self.data = b""

    def write(self, data):
        self.data += data

    async def drain(self):
        pass


def _recv(data: bytes):
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        sink = _Sink()
        got = await asyncio.wait_for(ws_recv(reader, sink), BOUND_S)
        return got, sink.data

    return asyncio.run(read())


def _server_frames(data: bytes) -> list[tuple[int, bytes]]:
    """(opcode, payload) of the unmasked FIN frames the server wrote."""
    frames = []
    i = 0
    while i < len(data):
        head = data[i : i + 2]
        assert len(head) == 2 and head[0] & 0xF0 == 0x80 and not head[1] & 0x80, data
        n = head[1]
        assert n < 126, data  # pongs echo at most 125 bytes, a close is 2
        frames.append((head[0] & 0x0F, data[i + 2 : i + 2 + n]))
        assert len(frames[-1][1]) == n, data
        i += 2 + n
    return frames


def _framing_error(data: bytes) -> bool:
    """Whether the frames, read header by header until the first message
    ends (or the reader would stop), show a set RSV bit, a reserved
    opcode or a data frame out of sequence."""
    started = False
    i = 0
    while i + 2 <= len(data):
        first, second = data[i], data[i + 1]
        opcode = first & 0x0F
        if first & 0x70 or opcode not in _DATA_OPCODES | _CONTROL_OPCODES:
            return True
        if opcode in _DATA_OPCODES and (opcode == 0x0) != started:
            return True
        if not second & 0x80:
            return False  # unmasked: the reader closes here
        n = second & 0x7F
        i += 2
        if n == 126:
            if i + 2 > len(data):
                return False
            n = struct.unpack(">H", data[i : i + 2])[0]
            i += 2
        elif n == 127:
            if i + 8 > len(data):
                return False
            n = struct.unpack(">Q", data[i : i + 8])[0]
            i += 8
        i += 4 + n
        if opcode in _DATA_OPCODES:
            if first & 0x80:
                return False  # the first message ends here
            started = True
        elif opcode == 0x8:
            return False  # the reader echoes the close and stops
    return False


def _check(data: bytes) -> None:
    start = time.monotonic()
    got, sent = _recv(data)  # raises on anything but a str or None
    assert time.monotonic() - start < BOUND_S
    assert got is None or isinstance(got, str)
    frames = _server_frames(sent)
    for opcode, _payload in frames[:-1]:
        assert opcode == 0xA, sent
    if frames and frames[-1][0] != 0xA:
        opcode, payload = frames[-1]
        assert opcode == 0x8 and len(payload) == 2, sent
        assert struct.unpack(">H", payload)[0] in _CLOSE_CODES, sent
    if _framing_error(data):
        assert got is None, (data, got)


@given(mutated_frames())
def test_mutated_frames_fail_closed(data):
    _check(data)


@pytest.mark.parametrize("seed", range(len(SEEDS)))
def test_every_single_bit_flip_fails_closed(seed):
    data = SEEDS[seed]
    for i in range(len(data)):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[i] ^= 1 << bit
            _check(bytes(flipped))


def test_seeds_read_as_sent():
    assert _recv(SEEDS[0]) == ("hello", b"")
    assert _recv(SEEDS[1]) == ("hello", bytes([0x8A, 4]) + b"ping")
    assert _recv(SEEDS[2]) == (None, bytes([0x88, 2]) + struct.pack(">H", 1000))
    assert _recv(SEEDS[3]) == (None, bytes([0x88, 2]) + struct.pack(">H", 1009))
