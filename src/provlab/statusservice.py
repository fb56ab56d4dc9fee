"""Online certificate-status service: wire protocol, server, and client.

Frames are length-prefixed (u16 big-endian) over a stream socket, one
request per connection.

Request payload::

    "PSTA"  u8 version=1  u64 serial (big-endian)

Response payload::

    "PSTR"  u8 version  u8 status  u64 revoked_at  u64 produced_at
    u16 sig-length  signature

Status codes: 0 GOOD, 1 REVOKED, 2 UNKNOWN; ``revoked_at`` is zero and
read as absent unless the status is REVOKED.  The responder signs over the
queried serial as well (see :func:`.trust.verify_status_response`) even
though the frame omits it, so responses cannot be replayed across serials.
A malformed request gets an error payload (``"PSTE"  u8 version  u8 code``)
and the connection closes; the service itself stays up.

One thread runs one selector loop over the listener, a wake socket and
every open non-blocking connection, so half a frame holds up no other
client; a bad length or an early EOF closes a connection unanswered.  Each
distinct status is signed once, as RFC 5019 responders pre-produce their
responses (see :meth:`.trust.Authority.status_for`).

The client never surfaces an unverifiable response: any transport problem,
framing problem, or signature failure collapses to
:class:`~provlab.errors.ServiceUnreachable`, leaving the fail-open/ fail-closed
decision to the validation policy.

The server keeps a query log of every serial asked about.  That log is the
privacy cost of online status checking: the responder learns which
credentials a validator is looking at, and when.
"""

from __future__ import annotations

import contextlib
import selectors
import socket
import struct
import threading

from .crypto import SIGNATURE_SIZE
from .errors import BindFailure, ServiceUnreachable
from .trust import Authority, Certificate, CertStatus, StatusResponse, verify_status_response

REQUEST_MAGIC = b"PSTA"
RESPONSE_MAGIC = b"PSTR"
ERROR_MAGIC = b"PSTE"
PROTOCOL_VERSION = 1

ERR_MALFORMED = 1
ERR_VERSION = 2

_REQUEST_SIZE = 13
_MAX_FRAME = 4096


def encode_request(serial: int) -> bytes:
    return REQUEST_MAGIC + struct.pack(">BQ", PROTOCOL_VERSION, serial)


def encode_response(response: StatusResponse) -> bytes:
    return (
        RESPONSE_MAGIC
        + struct.pack(
            ">BBQQH",
            PROTOCOL_VERSION,
            response.status.value,
            response.revoked_at or 0,
            response.produced_at,
            len(response.responder_signature),
        )
        + response.responder_signature
    )


def decode_response(payload: bytes, serial: int) -> StatusResponse:
    """Parse a response payload for the serial we asked about."""
    if len(payload) < 24 or payload[:4] != RESPONSE_MAGIC:
        raise ServiceUnreachable("malformed status response frame")
    version, status_code, revoked_at, produced_at, sig_len = struct.unpack(
        ">BBQQH", payload[4:24]
    )
    if version != PROTOCOL_VERSION:
        raise ServiceUnreachable(f"unsupported status protocol version {version}")
    if len(payload) != 24 + sig_len or sig_len != SIGNATURE_SIZE:
        raise ServiceUnreachable("bad status response signature length")
    try:
        status = CertStatus(status_code)
    except ValueError:
        raise ServiceUnreachable(f"unknown status code {status_code}") from None
    return StatusResponse(
        serial=serial,
        status=status,
        revoked_at=revoked_at if status is CertStatus.REVOKED else None,
        produced_at=produced_at,
        responder_signature=payload[24:],
    )


def _frame(payload: bytes) -> bytes:
    return struct.pack(">H", len(payload)) + payload


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ServiceUnreachable("connection closed mid-frame")
        data += chunk
    return data


def _recv_frame(sock: socket.socket) -> bytes:
    length = int.from_bytes(_recv_exact(sock, 2), "big")
    if not 0 < length <= _MAX_FRAME:
        raise ServiceUnreachable(f"invalid frame length {length}")
    return _recv_exact(sock, length)


class StatusService:
    """A running status responder bound to a local TCP port."""

    def __init__(self, authority: Authority, host: str = "127.0.0.1", port: int = 0):
        self.authority = authority
        self.query_log: list[int] = []
        self.refused = 0
        try:
            # a burst of clients must fit the backlog: each dropped SYN costs
            # the client a 1 s then 3 s retransmit
            self._listener = socket.create_server((host, port), backlog=128)
        except OSError as exc:
            raise BindFailure(f"cannot bind {host}:{port}: {exc}") from exc
        self._listener.setblocking(False)
        self.endpoint: tuple[str, int] = self._listener.getsockname()[:2]
        # stop() closes the send end, and the EOF wakes the loop at once
        self._wake_recv, self._wake_send = socket.socketpair()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake_recv, selectors.EVENT_READ)
            try:
                while True:
                    for key, _ in selector.select():
                        if key.fileobj is self._wake_recv:
                            return
                        if key.fileobj is self._listener:
                            try:
                                connection, _ = self._listener.accept()
                            except OSError:  # the client went away before the accept
                                continue
                            connection.setblocking(False)
                            selector.register(connection, selectors.EVENT_READ, bytearray())
                        elif self._receive(key.fileobj, key.data):
                            selector.unregister(key.fileobj)
                            key.fileobj.close()
            finally:  # stop() closes the connections still mid-frame, unanswered
                for key in list(selector.get_map().values()):
                    if key.data is not None:
                        self.refused += 1
                        key.fileobj.close()

    def _receive(self, connection: socket.socket, buffer: bytearray) -> bool:
        """Read into ``buffer``; True once ``connection`` is answered or refused."""
        try:
            chunk = connection.recv(2 + _MAX_FRAME - len(buffer))
        except BlockingIOError:
            return False
        except OSError:
            chunk = b""
        buffer += chunk
        length = int.from_bytes(buffer[:2], "big")
        complete = len(buffer) >= 2 + length
        if (len(buffer) >= 2 and not 0 < length <= _MAX_FRAME) or not (chunk or complete):
            self.refused += 1  # a bad length or an EOF mid-frame: no reply
            return True
        if complete:
            with contextlib.suppress(OSError):
                connection.send(_frame(self._reply(bytes(buffer[2 : 2 + length]))))
        return complete

    def _reply(self, payload: bytes) -> bytes:
        if (
            len(payload) != _REQUEST_SIZE
            or payload[:4] != REQUEST_MAGIC
            or payload[4] != PROTOCOL_VERSION
        ):
            self.refused += 1
            code = ERR_VERSION if payload[:4] == REQUEST_MAGIC else ERR_MALFORMED
            return ERROR_MAGIC + struct.pack(">BB", PROTOCOL_VERSION, code)
        return encode_response(self.answer(struct.unpack(">Q", payload[5:13])[0]))

    def answer(self, serial: int) -> StatusResponse:
        self.query_log.append(serial)
        return self.authority.status_for(serial)

    def stop(self) -> None:
        self._wake_send.close()
        self._thread.join(timeout=5)
        self._listener.close()
        self._wake_recv.close()

    def __enter__(self) -> "StatusService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def run_status_service(
    authority: Authority, host: str = "127.0.0.1", port: int = 0
) -> StatusService:
    """Start a status responder; raises :class:`BindFailure` if binding fails."""
    return StatusService(authority, host, port)


def query_status(
    endpoint: tuple[str, int],
    serial: int,
    responder_cert: Certificate,
    timeout: float = 5.0,
) -> StatusResponse:
    """Query one serial and verify the responder's signature.

    Raises :class:`ServiceUnreachable` for every failure mode: connection
    errors, malformed frames, error frames, and signature mismatches alike.
    """
    try:
        with socket.create_connection(endpoint, timeout=timeout) as sock:
            sock.sendall(_frame(encode_request(serial)))
            payload = _recv_frame(sock)
    except OSError as exc:
        raise ServiceUnreachable(f"status service unreachable: {exc}") from exc
    response = decode_response(payload, serial)
    if not verify_status_response(response, responder_cert):
        raise ServiceUnreachable("status response signature does not verify")
    return response
