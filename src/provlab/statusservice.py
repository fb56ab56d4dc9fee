"""Online certificate-status service: wire protocol, server, and client.

The protocol is two records of the canonical codec, each in a frame with a
u16 big-endian length prefix, over a stream socket, one request per
connection:

- request payload: ``encode_value(serial)``, one integer in ``0 … 2**64-1``;
- response payload: ``encode_record(response)``, the whole signed
  :class:`~.trust.StatusResponse`, serial included.

The responder signs the record minus its signature (see
:func:`.trust.verify_status_response`), so a response names the serial it
answers and cannot be replayed for another.  Any other request payload, a
bad length or an early EOF closes the connection unanswered and counts it
in ``refused``; the service itself stays up.

One thread runs one selector loop over the listener, a wake socket and
every open non-blocking connection, so half a frame holds up no other
client.  Each distinct status is signed and encoded once, as RFC 5019
responders pre-produce their responses (see
:meth:`.trust.Authority.status_for`): a stored response keeps its bytes, so
``encode_record`` returns them on every query.

The client never surfaces an unverifiable response: any transport problem,
a payload that is not a :class:`~.trust.StatusResponse`, a response for
another serial, or a signature failure collapses to
:class:`~provlab.errors.ServiceUnreachable`, leaving the fail-open/
fail-closed decision to the validation policy.

The server keeps a query log of every serial asked about.  That log is the
privacy cost of online status checking: the responder learns which
credentials a validator is looking at, and when.
"""

from __future__ import annotations

import contextlib
import selectors
import socket
import threading

from .encoding import decode_value, encode_value
from .errors import DecodeError, ProvenanceError, ServiceUnreachable
from .records import decode_record, encode_record
from .trust import Authority, Certificate, StatusResponse, verify_status_response

_MAX_FRAME = 4096


def decode_request(payload: bytes) -> int | None:
    """The serial a request payload asks about; None for any other payload."""
    try:
        serial = decode_value(payload)
    except DecodeError:
        return None
    return serial if type(serial) is int and 0 <= serial < 2**64 else None


def decode_response(payload: bytes, serial: int) -> StatusResponse:
    """Decode a response payload, which must answer ``serial``."""
    try:
        response = decode_record(StatusResponse, payload)
    except DecodeError as exc:
        raise ServiceUnreachable(f"malformed status response: {exc}") from None
    if response.serial != serial:
        raise ServiceUnreachable(f"status response is for serial {response.serial}, not {serial}")
    return response


def _frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(2, "big") + payload


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

    def __init__(self, authority: Authority, host: str, port: int):
        self.authority = authority
        self.query_log: list[int] = []
        self.refused = 0
        if not 0 <= port <= 65535:
            raise ProvenanceError(f"cannot bind {host}:{port}: port must be 0-65535")
        try:
            # a burst of clients must fit the backlog: each dropped SYN costs
            # the client a 1 s then 3 s retransmit
            self._listener = socket.create_server((host, port), backlog=128)
        except OSError as exc:
            raise ProvenanceError(f"cannot bind {host}:{port}: {exc}") from exc
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
            serial = decode_request(bytes(buffer[2 : 2 + length]))
            if serial is None:
                self.refused += 1  # not one serial: no reply
            else:
                with contextlib.suppress(OSError):
                    connection.send(_frame(encode_record(self.answer(serial))))
        return complete

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
    """Start a status responder; raises :class:`ProvenanceError` if binding fails."""
    return StatusService(authority, host, port)


def query_status(
    endpoint: tuple[str, int],
    serial: int,
    responder_cert: Certificate,
    timeout: float = 5.0,
) -> StatusResponse:
    """Query one serial and verify the responder's signature.

    Raises :class:`ServiceUnreachable` for every failure mode: connection
    errors, malformed frames, a refused request, a response for another
    serial, and signature mismatches alike.
    """
    try:
        with socket.create_connection(endpoint, timeout=timeout) as sock:
            sock.sendall(_frame(encode_value(serial)))
            payload = _recv_frame(sock)
    except OSError as exc:
        raise ServiceUnreachable(f"status service unreachable: {exc}") from exc
    response = decode_response(payload, serial)
    if not verify_status_response(response, responder_cert):
        raise ServiceUnreachable("status response signature does not verify")
    return response
