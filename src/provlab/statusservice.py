"""Online certificate-status service: wire protocol, server, and client.

The protocol is two records of the canonical codec, each in a frame with a
u16 big-endian length prefix, over a stream socket that carries any number
of request/response exchanges:

- request payload: ``encode_value(serial)``, one integer in ``0 … 2**64-1``;
- response payload: ``encode_record(response)``, the whole signed
  :class:`~.trust.StatusResponse`, serial included.

The responder signs the record minus its signature (see
:func:`.records.verify_record`), so a response names the serial it
answers and cannot be replayed for another.  The server answers every whole
frame a connection sends, in order.  Any other request payload, a bad
length or an EOF mid-frame counts in ``refused`` and closes the connection
at once, with any reply not yet sent; an EOF between frames is a clean
close.  The service itself stays up.

One thread runs one selector loop over the listener, a wake socket and
every open non-blocking connection, so half a frame or a slow reader holds
up no other client: a connection's replies wait in its own buffer until the
socket takes them whole, and it is not read from again before they have
gone.  Each distinct status is signed and encoded once, as RFC 5019
responders pre-produce their responses (see
:meth:`.trust.Authority.status_for`): a stored response keeps its bytes, so
``encode_record`` returns them on every query.

The client keeps at most one idle connection, to the endpoint it queried
last, and keeps a connection only after a whole, decoded, signature-checked
exchange over it.  A kept connection that fails before any reply byte arrives
(its service stopped, or the port was bound again) is closed and the query is
tried once more on a fresh connection.  One ``timeout`` bounds the whole
query, connect, send and receive together.  The client never surfaces an
unverifiable response: any transport problem, a payload that is not a
:class:`~.trust.StatusResponse`, a response for another serial, or a
signature failure closes the connection and collapses to
:class:`~provlab.errors.ServiceUnreachable`, leaving the fail-open/
fail-closed decision to the validation policy.  Every query is sent and
answered; no answer is kept.

The server keeps a query log of every serial asked about.  That log is the
privacy cost of online status checking: the responder learns which
credentials a validator is looking at, and when.
"""

from __future__ import annotations

import contextlib
import selectors
import socket
import threading
import time

from .encoding import decode_value, encode_value
from .errors import DecodeError, ProvenanceError, ServiceUnreachable
from .records import decode_record, encode_record, verify_record
from .trust import Authority, Certificate, StatusResponse

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
                            # bytes not yet answered, replies not yet sent
                            buffers = (bytearray(), bytearray())
                            selector.register(connection, selectors.EVENT_READ, buffers)
                        elif not self._receive(key.fileobj, *key.data):
                            selector.unregister(key.fileobj)
                            key.fileobj.close()
                        else:  # wait to write while replies are pending, else to read
                            events = selectors.EVENT_WRITE if key.data[1] else selectors.EVENT_READ
                            if events != key.events:
                                selector.modify(key.fileobj, events, key.data)
            finally:  # stop() closes every connection; one holding half a frame is refused
                for key in list(selector.get_map().values()):
                    if key.data is not None:
                        self.refused += bool(key.data[0])
                        key.fileobj.close()

    def _receive(self, connection: socket.socket, inbound: bytearray, outbound: bytearray) -> bool:
        """Answer every whole frame read, then send what the socket takes;
        False once ``connection`` is to be closed."""
        if not outbound:
            try:
                chunk = connection.recv(2 + _MAX_FRAME - len(inbound))
            except BlockingIOError:
                return True
            except OSError:
                chunk = b""
            if not chunk:  # EOF: a clean close between frames, refused mid-frame
                self.refused += bool(inbound)
                return False
            inbound += chunk
            while len(inbound) >= 2:
                end = 2 + int.from_bytes(inbound[:2], "big")
                if not 2 < end <= 2 + _MAX_FRAME:
                    self.refused += 1  # a bad length: no reply
                    return False
                if len(inbound) < end:
                    break
                serial = decode_request(bytes(inbound[2:end]))
                if serial is None:
                    self.refused += 1  # not one serial: no reply
                    return False
                outbound += _frame(encode_record(self.answer(serial)))
                del inbound[:end]
            if not outbound:
                return True
        try:
            del outbound[: connection.send(outbound)]
        except BlockingIOError:
            pass
        except OSError:
            return False
        return True

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


_idle_lock = threading.Lock()
# the connection kept between queries, with its endpoint: at most one
_idle: tuple[tuple[str, int], socket.socket] | None = None


def _swap_idle(
    kept: tuple[tuple[str, int], socket.socket] | None,
) -> tuple[tuple[str, int], socket.socket] | None:
    """Put ``kept`` in the idle slot and return what the slot held."""
    global _idle
    with _idle_lock:
        held, _idle = _idle, kept
    return held


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


def _recv_exact(sock: socket.socket, count: int, deadline: float) -> bytes:
    data = b""
    while len(data) < count:
        sock.settimeout(_time_left(deadline))
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ServiceUnreachable("connection closed mid-frame")
        data += chunk
    return data


def _reply_head(sock: socket.socket, request: bytes, deadline: float) -> bytes:
    """Send ``request`` and read the first one or two bytes of the reply frame."""
    sock.settimeout(_time_left(deadline))
    sock.sendall(request)
    sock.settimeout(_time_left(deadline))
    head = sock.recv(2)
    if not head:
        raise ServiceUnreachable("connection closed mid-frame")
    return head


def query_status(
    endpoint: tuple[str, int],
    serial: int,
    responder_cert: Certificate,
    timeout: float = 5.0,
) -> StatusResponse:
    """Query one serial and verify the responder's signature, all within ``timeout``.

    Raises :class:`ServiceUnreachable` for every failure mode: connection
    errors, malformed frames, a refused request, a response for another
    serial, and signature mismatches alike.
    """
    deadline = time.monotonic() + timeout
    request = _frame(encode_value(serial))
    held = _swap_idle(None)
    sock = held and held[1]
    try:
        try:
            head = b""
            if held and held[0] == endpoint:  # a kept connection may have outlived its service
                with contextlib.suppress(OSError, ServiceUnreachable):
                    head = _reply_head(sock, request, deadline)
            if not head:  # nothing kept for ``endpoint``, or it failed before any reply byte
                if sock is not None:
                    sock.close()
                sock = socket.create_connection(endpoint, timeout=_time_left(deadline))
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                head = _reply_head(sock, request, deadline)
            length = int.from_bytes(head + _recv_exact(sock, 2 - len(head), deadline), "big")
            if not 0 < length <= _MAX_FRAME:
                raise ServiceUnreachable(f"invalid frame length {length}")
            payload = _recv_exact(sock, length, deadline)
        except OSError as exc:
            raise ServiceUnreachable(f"status service unreachable: {exc}") from exc
        response = decode_response(payload, serial)
        if not verify_record(response, responder_cert.public_key):
            raise ServiceUnreachable("status response signature does not verify")
    except BaseException:
        if sock is not None:
            sock.close()
        raise
    held = _swap_idle((endpoint, sock))
    if held is not None:
        held[1].close()
    return response
