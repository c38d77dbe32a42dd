"""End-to-end over real sockets: HTTP routes and the WebSocket stream.

The client half is hand-rolled too (no third-party HTTP/WS libraries in the
container), which doubles as an independent check of the wire format: the
server must interoperate with a from-scratch RFC 6455 client, not just with
its own code.
"""

import asyncio
import base64
import json
import os
import struct
import tomllib
from pathlib import Path

import pytest

from repro.config import run_config, run_fingerprint
from repro.service import ServiceConfig, TrackingService
from repro.service.http import websocket_accept, ws_recv

from .conftest import small_config


# -- a minimal test client -------------------------------------------------


async def request(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


async def ws_connect(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    key = base64.b64encode(os.urandom(16)).decode()
    writer.write(
        (
            f"GET {path} HTTP/1.1\r\nHost: test\r\nUpgrade: websocket\r\n"
            f"Connection: Upgrade\r\nSec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n"
        ).encode()
    )
    await writer.drain()
    status_line = await reader.readline()
    assert b"101" in status_line, status_line
    accept = None
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "sec-websocket-accept":
            accept = value.strip()
    assert accept == websocket_accept(key)  # RFC 6455 handshake check
    return reader, writer


async def ws_read_text(reader):
    while True:
        head = await reader.readexactly(2)
        opcode = head[0] & 0x0F
        n = head[1] & 0x7F
        if n == 126:
            n = struct.unpack(">H", await reader.readexactly(2))[0]
        elif n == 127:
            n = struct.unpack(">Q", await reader.readexactly(8))[0]
        payload = await reader.readexactly(n) if n else b""
        if opcode == 0x8:
            return None
        if opcode in (0x9, 0xA):
            continue
        return payload.decode()


async def with_service(config, body):
    service = TrackingService(config)
    await service.start(port=0)
    try:
        return await body(service)
    finally:
        await service.stop()


def run(coro):
    return asyncio.run(coro)


# -- the tests -------------------------------------------------------------


class TestRoutes:
    def test_full_session_lifecycle_over_http(self, config_toml):
        async def body(service):
            h, p = service.host, service.port
            status, health = await request(h, p, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"

            status, created = await request(
                h, p, "POST", "/sessions",
                {"config_toml": config_toml, "session_id": "s1"},
            )
            assert status == 200 and created["id"] == "s1"

            status, listing = await request(h, p, "GET", "/sessions")
            assert [s["id"] for s in listing["sessions"]] == ["s1"]

            status, stepped = await request(
                h, p, "POST", "/sessions/s1/step", {"n": 99}
            )
            assert status == 200 and stepped["stepped"] == 5
            assert stepped["session"]["state"] == "finished"

            status, result = await request(h, p, "GET", "/sessions/s1/result")
            assert status == 200
            status, metrics = await request(h, p, "GET", "/metrics")
            assert metrics["steps_total"] == 5

            status, gone = await request(h, p, "DELETE", "/sessions/s1")
            assert status == 200
            return result

        result = run(with_service(ServiceConfig(n_workers=1), body))
        assert result["fingerprint"] == run_fingerprint(
            run_config(small_config())
        )

    def test_config_dict_body_equals_toml_body(self, config_toml):
        async def body(service):
            h, p = service.host, service.port
            status, a = await request(
                h, p, "POST", "/sessions",
                {"config_toml": config_toml, "session_id": "a"},
            )
            status, b = await request(
                h, p, "POST", "/sessions",
                {"config": small_config().to_dict(), "session_id": "b"},
            )
            return a, b

        a, b = run(with_service(ServiceConfig(n_workers=1), body))
        assert a["fingerprint"] == b["fingerprint"]

    def test_error_statuses(self, config_toml, stale_config_toml):
        malformed_creates = [
            {"config_toml": config_toml.replace("seed = 5", "seed = -1")},
            {"config_toml": "warp_factor = 9\n" + config_toml},
            {"config_toml": stale_config_toml},
            {"config": {"seed": -1}},
            {"config": {"radio": {"comm_radius": "far"}}},
            {"config_toml": config_toml, "step_budget": "lots"},
        ]

        async def body(service):
            h, p = service.host, service.port
            checks = []
            checks.append(await request(h, p, "GET", "/sessions/nope"))
            checks.append(await request(h, p, "POST", "/sessions", {}))
            checks.append(await request(h, p, "GET", "/no/such/route"))
            checks.append(await request(h, p, "PUT", "/sessions"))
            await request(
                h, p, "POST", "/sessions",
                {"config_toml": config_toml, "session_id": "s"},
            )
            checks.append(
                await request(h, p, "POST", "/sessions/s/step", {"n": 0})
            )
            checks.append(await request(h, p, "GET", "/sessions/s/result"))
            for create in malformed_creates:
                checks.append(await request(h, p, "POST", "/sessions", create))
            checks.append(
                await request(h, p, "POST", "/sessions/s/step", {"n": "abc"})
            )
            checks.append(
                await request(h, p, "POST", "/sessions/s/resume", {"step_budget": 2.5})
            )
            # the session survived every bad call
            checks.append(await request(h, p, "POST", "/sessions/s/step", {"n": 1}))
            return checks

        checks = run(with_service(ServiceConfig(n_workers=1), body))
        n_malformed = len(malformed_creates) + 2
        assert [status for status, _ in checks] == (
            [404, 400, 404, 405, 400, 409] + [400] * n_malformed + [200]
        )
        # malformed input is the client's fault, never a 500 from a worker
        assert all(reply["code"] == "bad_request" for _, reply in checks[6:-1])
        assert "kernel_backend" in checks[8][1]["error"]  # names the stale key

    def test_capacity_error_is_503(self, config_toml):
        async def body(service):
            h, p = service.host, service.port
            await request(
                h, p, "POST", "/sessions",
                {"config_toml": config_toml, "session_id": "a"},
            )
            status, payload = await request(
                h, p, "POST", "/sessions", {"config_toml": config_toml}
            )
            return status, payload

        status, payload = run(
            with_service(
                ServiceConfig(n_workers=1, max_sessions=4, high_water=1), body
            )
        )
        assert status == 503
        assert payload["code"] == "over_capacity"


class TestWebSocketStream:
    def test_stream_delivers_estimates_live(self, config_toml):
        async def body(service):
            h, p = service.host, service.port
            await request(
                h, p, "POST", "/sessions",
                {"config_toml": config_toml, "session_id": "s"},
            )
            reader, writer = await ws_connect(h, p, "/sessions/s/stream")
            await request(h, p, "POST", "/sessions/s/step", {"n": 99})
            frames = []
            while True:
                text = await asyncio.wait_for(ws_read_text(reader), 10)
                assert text is not None
                frames.append(json.loads(text))
                if frames[-1]["type"] == "finished":
                    break
            writer.close()
            return frames

        frames = run(
            with_service(
                ServiceConfig(n_workers=1, queue_size=1024), body
            )
        )
        types = [f["type"] for f in frames]
        assert "iteration" in types and "phase" in types and "step" in types
        estimates = [
            f["estimate"]
            for f in frames
            if f["type"] == "step" and f["estimate"] is not None
        ]
        assert estimates, "expected streamed position estimates"
        assert all(len(e) == 2 for e in estimates)
        assert [f["seq"] for f in frames] == sorted(f["seq"] for f in frames)

    def test_stream_for_missing_session_is_404(self):
        async def body(service):
            h, p = service.host, service.port
            reader, writer = await asyncio.open_connection(h, p)
            writer.write(
                b"GET /sessions/nope/stream HTTP/1.1\r\nHost: t\r\n"
                b"Upgrade: websocket\r\nConnection: Upgrade\r\n"
                b"Sec-WebSocket-Key: AAAAAAAAAAAAAAAAAAAAAA==\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

        raw = run(with_service(ServiceConfig(n_workers=1), body))
        assert b"404" in raw.split(b"\r\n", 1)[0]


class TestMalformedInput:
    """Untrusted bytes get a structured answer, never a dropped or hung
    connection."""

    def test_bad_content_length_is_400(self):
        async def body(service):
            h, p = service.host, service.port
            replies = []
            # a negative length, then an underscore and a sign (int() takes both)
            for length in ("-5", "1_0", "+5"):
                reader, writer = await asyncio.open_connection(h, p)
                writer.write(
                    f"POST /sessions HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {length}\r\n\r\n".encode()
                )
                await writer.drain()
                replies.append(await asyncio.wait_for(reader.read(), 10))
                writer.close()
            return replies, await request(h, p, "GET", "/healthz")

        replies, (status, health) = run(with_service(ServiceConfig(n_workers=1), body))
        for raw in replies:
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert head.split()[1] == b"400", raw
            assert "Content-Length" in json.loads(payload)["error"]
        assert status == 200 and health["status"] == "ok"

    @staticmethod
    def _raw_reply(head: bytes):
        """Send ``head`` on its own connection; the raw reply, then what
        ``/healthz`` answers afterwards."""

        async def body(service):
            reader, writer = await asyncio.open_connection(service.host, service.port)
            writer.write(head)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            return raw, await request(service.host, service.port, "GET", "/healthz")

        raw, (status, health) = run(with_service(ServiceConfig(n_workers=1), body))
        assert status == 200 and health["status"] == "ok"
        return raw

    @pytest.mark.parametrize(
        "head, status",
        [
            # lines past asyncio's 64 KiB stream limit, which readline
            # raises as ValueError
            (b"GET /" + b"a" * 69_984 + b" HTTP/1.1\r\nHost: t\r\n\r\n", 414),
            (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 69_990 + b"\r\n\r\n", 431),
            # past int()'s 4300-digit limit, and far under the header cap
            (b"POST /sessions HTTP/1.1\r\nContent-Length: " + b"7" * 5000 + b"\r\n\r\n", 413),
        ],
        ids=["request-line", "header-line", "content-length-digits"],
    )
    def test_over_long_input_fails_closed(self, head, status):
        raw = self._raw_reply(head)
        assert raw.partition(b"\r\n\r\n")[0].split()[1] == str(status).encode(), raw[:200]

    def test_energy_config_with_a_huge_radius_is_400(self):
        # source_power / sensing_radius**2 overflowed past a radius of ~1.3e154
        corpus = Path(__file__).resolve().parents[1] / "fuzz" / "corpus"
        config = tomllib.loads((corpus / "dpf-quantized-energy-delaying.toml").read_text())
        config["sensing"]["sensing_radius"] = 1e200

        async def body(service):
            return await request(service.host, service.port, "POST", "/sessions",
                                 {"config": config})

        status, reply = run(with_service(ServiceConfig(n_workers=1), body))
        assert (status, reply["code"]) == (400, "bad_request")
        assert "sensing.sensing_radius" in reply["error"]

    class _Sink:
        """The writer half ws_recv answers on."""

        def __init__(self):
            self.data = b""

        def write(self, data):
            self.data += data

        async def drain(self):
            pass

    def _recv(self, frame):
        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            sink = self._Sink()
            return await ws_recv(reader, sink), sink.data

        return run(body())

    @staticmethod
    def _masked_text(payload):
        mask = b"\x11\x22\x33\x44"
        masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        return bytes([0x81, 0x80 | len(payload)]) + mask + masked

    def test_masked_text_frame_decodes(self):
        assert self._recv(self._masked_text("héllo".encode())) == ("héllo", b"")

    def test_invalid_utf8_closes_1007(self):
        got, sent = self._recv(self._masked_text(b"ok\xff\xfe"))
        assert got is None
        assert sent == bytes([0x88, 2]) + struct.pack(">H", 1007)

    def test_unmasked_frame_closes_1002(self):
        got, sent = self._recv(bytes([0x81, 5]) + b"hello")
        assert got is None
        assert sent == bytes([0x88, 2]) + struct.pack(">H", 1002)

    @staticmethod
    def _close(code):
        return bytes([0x88, 2]) + struct.pack(">H", code)

    def _recv_open(self, data):
        """ws_recv on a stream that stays open after ``data``: it must
        answer from what it has read, not wait for more bytes."""

        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            sink = self._Sink()
            return await asyncio.wait_for(ws_recv(reader, sink), 5), sink.data

        return run(body())

    # a masked text frame header declaring 2^40 payload bytes
    HUGE = bytes([0x81, 0x80 | 127]) + struct.pack(">Q", 1 << 40)

    def test_oversized_frame_closes_1009_before_its_payload(self):
        assert self._recv_open(self.HUGE) == (None, self._close(1009))

    def test_fragments_past_the_cap_close_1009(self, monkeypatch):
        from repro.service import http

        monkeypatch.setattr(http, "_MAX_BODY_BYTES", 64)
        mask = b"\x11\x22\x33\x44"
        first = bytes([0x01, 0x80 | 40]) + mask + bytes(40)  # text, FIN clear
        more = bytes([0x00, 0x80 | 40]) + mask  # continuation: 80 bytes in all
        assert self._recv_open(first + more) == (None, self._close(1009))
        # up to the cap the message still reassembles
        last = bytes([0x80, 0x80 | 24]) + mask + bytes(24)
        got, sent = self._recv(first + last)
        assert sent == b"" and len(got) == 64

    @pytest.mark.parametrize(
        "head",
        [bytes([0x89, 0x80 | 126]) + struct.pack(">H", 126), bytes([0x09, 0x80 | 4])],
        ids=["ping-over-125-bytes", "fragmented-ping"],
    )
    def test_malformed_control_frame_closes_1002(self, head):
        assert self._recv_open(head) == (None, self._close(1002))

    @staticmethod
    def _frame(first_byte, payload=b"hi"):
        """A masked client frame with the given FIN/RSV/opcode byte."""
        mask = b"\x11\x22\x33\x44"
        masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        return bytes([first_byte, 0x80 | len(payload)]) + mask + masked

    @pytest.mark.parametrize("opcode", [0x3, 0xB], ids=["data-0x3", "control-0xB"])
    def test_reserved_opcode_closes_1002(self, opcode):
        assert self._recv_open(self._frame(0x80 | opcode)) == (None, self._close(1002))

    def test_rsv1_frame_closes_1002(self):
        # no extension is negotiated, so no RSV bit may be set
        assert self._recv_open(self._frame(0x80 | 0x40 | 0x1)) == (None, self._close(1002))

    def test_text_frame_inside_a_fragmented_message_closes_1002(self):
        first = self._frame(0x01, b"par")  # text, FIN clear
        assert self._recv_open(first + self._frame(0x81, b"new")) == (None, self._close(1002))

    def test_continuation_with_no_message_started_closes_1002(self):
        assert self._recv_open(self._frame(0x80, b"tail")) == (None, self._close(1002))

    def test_ping_between_fragments_is_answered_and_the_message_completes(self):
        data = self._frame(0x01, b"he") + self._frame(0x89, b"p") + self._frame(0x80, b"llo")
        got, sent = self._recv(data)
        assert got == "hello"
        assert sent == bytes([0x8A, 1]) + b"p"

    def test_service_answers_after_an_oversized_frame(self, config_toml):
        async def body(service):
            h, p = service.host, service.port
            await request(
                h, p, "POST", "/sessions", {"config_toml": config_toml, "session_id": "s"}
            )
            reader, writer = await ws_connect(h, p, "/sessions/s/stream")
            writer.write(self.HUGE)
            await writer.drain()
            while True:  # skip any stream frame queued before the close
                head = await asyncio.wait_for(reader.readexactly(2), 10)
                n = head[1] & 0x7F
                if n >= 126:
                    size = 2 if n == 126 else 8
                    n = int.from_bytes(await reader.readexactly(size), "big")
                payload = await reader.readexactly(n)
                if head[0] & 0x0F == 0x8:
                    break
            writer.close()
            return payload, await request(h, p, "GET", "/healthz")

        payload, (status, health) = run(with_service(ServiceConfig(n_workers=1), body))
        assert payload == struct.pack(">H", 1009)
        assert status == 200 and health["status"] == "ok"
