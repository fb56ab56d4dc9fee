"""Certificates, chains, revocation, and the online status service."""

import threading
from dataclasses import replace

import pytest

from provlab import records
from provlab.crypto import derive_signing_key
from provlab.encoding import decode_value, encode_value
from provlab.errors import DecodeError, ProvenanceError, ServiceUnreachable
from provlab.records import decode_record, encode_record, signed_bytes, verify_record
from provlab.statusservice import (
    StatusService,
    _frame,
    decode_response,
    query_status,
    run_status_service,
)
from provlab.trust import (
    Authority,
    Certificate,
    CertStatus,
    ChainStatus,
    StatusResponse,
    TrustList,
    Usage,
    decode_revocation_list,
    issue_certificate,
    verify_chain,
    verify_crl,
)

T0 = 1_735_689_600
YEAR = 365 * 86_400


def make_root(name="root", serial=1, span=10):
    key = derive_signing_key(999, name)
    cert = issue_certificate(
        key,
        Certificate(
            serial=serial,
            subject=name,
            issuer=name,
            public_key=key.public_bytes,
            not_before=T0 - span * YEAR,
            not_after=T0 + span * YEAR,
            usage=Usage.ROOT,
            issuer_signature=b"",
        ),
    )
    return key, cert


def make_leaf(root_key, root_cert, name="leaf", serial=100, usage=Usage.LEAF_SIGNING, span=1):
    key = derive_signing_key(999, name)
    cert = issue_certificate(
        root_key,
        Certificate(
            serial=serial,
            subject=name,
            issuer=root_cert.subject,
            public_key=key.public_bytes,
            not_before=T0 - 86_400,
            not_after=T0 + span * YEAR,
            usage=usage,
            issuer_signature=b"",
        ),
        root_cert,
    )
    return key, cert


@pytest.fixture()
def pki():
    root_key, root_cert = make_root()
    leaf_key, leaf_cert = make_leaf(root_key, root_cert)
    trust = TrustList((root_cert,))
    return root_key, root_cert, leaf_key, leaf_cert, trust


def test_certificate_wire_roundtrip(pki):
    _, root_cert, _, leaf_cert, _ = pki
    for cert in (root_cert, leaf_cert):
        assert decode_record(Certificate, encode_record(cert)) == cert


def test_certificate_decode_rejects_bool_serial(pki):
    _, _, _, leaf_cert, _ = pki
    record = decode_value(encode_record(leaf_cert))
    with pytest.raises(DecodeError):
        decode_record(Certificate, encode_value({**record, "serial": True}))


def test_chain_valid(pki):
    _, root_cert, _, leaf_cert, trust = pki
    verdict = verify_chain((leaf_cert, root_cert), trust, T0)
    assert verdict.valid
    assert verdict.status == ChainStatus.VALID


def test_chain_untrusted_root(pki):
    _, root_cert, _, leaf_cert, _ = pki
    _, other_root = make_root("other-root", serial=2)
    verdict = verify_chain((leaf_cert, root_cert), TrustList((other_root,)), T0)
    assert verdict.status == ChainStatus.UNTRUSTED_ROOT


def test_chain_expired_leaf(pki):
    _, root_cert, _, leaf_cert, trust = pki
    verdict = verify_chain((leaf_cert, root_cert), trust, T0 + 2 * YEAR)
    assert verdict.status == ChainStatus.EXPIRED
    assert not verdict.valid


def test_chain_bad_link_signature(pki):
    root_key, root_cert, _, leaf_cert, trust = pki
    # re-parent the leaf under a different key but keep the old signature
    forged = decode_record(Certificate, encode_record(leaf_cert))
    impostor_key = derive_signing_key(999, "impostor")
    from dataclasses import replace

    forged = replace(forged, public_key=impostor_key.public_bytes)
    verdict = verify_chain((forged, root_cert), trust, T0)
    assert verdict.status == ChainStatus.BAD_LINK_SIGNATURE


def test_chain_check_order_is_stable(pki):
    """Signature problems outrank trust problems outrank windows."""
    root_key, root_cert, _, leaf_cert, _ = pki
    from dataclasses import replace

    forged = replace(leaf_cert, public_key=derive_signing_key(999, "x").public_bytes)
    _, other_root = make_root("other-root", serial=2)
    # bad signature AND untrusted root AND expired: signature wins
    verdict = verify_chain((forged, root_cert), TrustList((other_root,)), T0 + 5 * YEAR)
    assert verdict.status == ChainStatus.BAD_LINK_SIGNATURE


def test_leaf_cannot_issue(pki):
    _, _, leaf_key, leaf_cert, _ = pki
    with pytest.raises(ProvenanceError, match="certificates cannot issue"):
        issue_certificate(
            leaf_key,
            Certificate(
                serial=5,
                subject="grandchild",
                issuer=leaf_cert.subject,
                public_key=leaf_key.public_bytes,
                not_before=T0,
                not_after=T0 + YEAR // 2,
                usage=Usage.LEAF_SIGNING,
                issuer_signature=b"",
            ),
            leaf_cert,
        )


def test_a_tsa_leaf_cannot_issue_in_a_chain(pki):
    root_key, root_cert, _, leaf_cert, trust = pki
    _, tsa_cert = make_leaf(root_key, root_cert, name="tsa", serial=101, usage=Usage.LEAF_TSA)
    verdict = verify_chain((leaf_cert, tsa_cert), trust, T0)
    assert (verdict.status, verdict.detail) == (
        ChainStatus.BAD_LINK_SIGNATURE,
        "issuer usage LEAF_TSA cannot issue",
    )


def _edge_certificate(**fields):
    template = Certificate(
        serial=1,
        subject="edge",
        issuer="edge",
        public_key=bytes(32),
        not_before=T0,
        not_after=T0 + YEAR,
        usage=Usage.ROOT,
        issuer_signature=b"",
    )
    return replace(template, **fields)


def test_a_serial_is_any_64_bit_unsigned_integer():
    assert _edge_certificate(serial=0).serial == 0
    assert _edge_certificate(serial=2**64 - 1).serial == 2**64 - 1
    for serial in (-1, 2**64):
        with pytest.raises(ValueError, match="serial must fit in 64 bits"):
            _edge_certificate(serial=serial)


def test_a_validity_window_may_be_a_single_second():
    assert _edge_certificate(not_before=T0, not_after=T0).in_window(T0)
    with pytest.raises(ValueError, match="validity window is inverted"):
        _edge_certificate(not_before=T0 + 1, not_after=T0)


def test_a_chain_is_valid_at_both_ends_of_the_leaf_window(pki):
    _, root_cert, _, leaf_cert, trust = pki
    start, end = leaf_cert.not_before, leaf_cert.not_after
    for at, status in (
        (start - 1, ChainStatus.EXPIRED),
        (start, ChainStatus.VALID),
        (end, ChainStatus.VALID),
        (end + 1, ChainStatus.EXPIRED),
    ):
        assert verify_chain((leaf_cert, root_cert), trust, at).status == status, at


@pytest.mark.parametrize(
    "message",
    [
        "self-signed certificates must be roots",
        "root must be signed by its own key",
        "template issuer does not name the issuing certificate",
        "issuer key does not match the issuing certificate",
    ],
    ids=["leaf-without-issuer", "root-under-another-key", "issuer-not-named", "issuer-key"],
)
def test_issue_certificate_refusals(pki, message):
    root_key, root_cert, leaf_key, leaf_cert, _ = pki
    template = replace(leaf_cert, serial=9, issuer_signature=b"")
    arguments = {
        "self-signed certificates must be roots": (leaf_key, template),
        "root must be signed by its own key": (leaf_key, replace(root_cert, issuer_signature=b"")),
        "template issuer does not name the issuing certificate": (
            root_key, replace(template, issuer="elsewhere"), root_cert,
        ),
        "issuer key does not match the issuing certificate": (leaf_key, template, root_cert),
    }[message]
    with pytest.raises(ProvenanceError) as refused:
        issue_certificate(*arguments)
    assert str(refused.value) == message


def test_validity_windows_must_nest(pki):
    root_key, root_cert, *_ = pki
    with pytest.raises(ProvenanceError, match="validity window escapes the issuer's window"):
        make_leaf(root_key, root_cert, "outlives-root", serial=7, span=20)


# ---------------------------------------------------------------------------
# revocation list
# ---------------------------------------------------------------------------

def test_crl_roundtrip_and_verification(pki):
    root_key, root_cert, _, leaf_cert, _ = pki
    authority = Authority(root_key, root_cert, T0)
    authority.issued[leaf_cert.serial] = leaf_cert.subject
    authority.revoke(leaf_cert.serial, T0 + 1000)
    crl = authority.generate_crl()
    assert crl.entries == ((leaf_cert.serial, T0 + 1000),)
    assert verify_crl(crl, root_cert)
    again = decode_revocation_list(encode_record(crl))
    assert again == crl
    # tampered entry breaks the signature
    from dataclasses import replace

    forged = replace(crl, entries=((leaf_cert.serial + 1, T0 + 1000),))
    assert not verify_crl(forged, root_cert)


def test_crl_from_another_issuer_fails(pki):
    root_key, root_cert, _, leaf_cert, _ = pki
    crl = Authority(root_key, root_cert, T0).generate_crl()
    assert verify_crl(crl, root_cert)
    # the leaf is not the CRL's issuer, whatever its key
    assert not verify_crl(crl, replace(leaf_cert, public_key=root_cert.public_key))


def test_revocation_list_decode_rejects_extra_key(pki):
    root_key, root_cert, *_ = pki
    crl = Authority(root_key, root_cert, T0).generate_crl()
    record = decode_value(encode_record(crl))
    with pytest.raises(DecodeError):
        decode_revocation_list(encode_value({**record, "extra": b"\x00"}))


def test_revoking_unknown_serial_fails(pki):
    root_key, root_cert, *_ = pki
    authority = Authority(root_key, root_cert, T0)
    with pytest.raises(ProvenanceError, match="serial 31337 was never issued"):
        authority.revoke(31337, T0)


def test_a_serial_is_issued_to_one_subject(pki):
    root_key, root_cert, _, leaf_cert, _ = pki
    authority = Authority(root_key, root_cert, T0)
    template = replace(leaf_cert, issuer_signature=b"")
    assert authority.issue(template) == authority.issue(template) == leaf_cert
    with pytest.raises(ValueError) as refused:
        authority.issue(replace(template, subject="another"))
    assert str(refused.value) == "serial 100 already issued to 'leaf'"


def test_status_response_signature(pki):
    root_key, root_cert, _, leaf_cert, _ = pki
    authority = Authority(root_key, root_cert, T0)
    authority.issued[leaf_cert.serial] = leaf_cert.subject
    response = authority.status_for(leaf_cert.serial)
    assert response.status == CertStatus.GOOD
    assert verify_record(response, root_cert.public_key)
    authority.revoke(leaf_cert.serial, T0 + 5)
    revoked = authority.status_for(leaf_cert.serial)
    assert revoked.status == CertStatus.REVOKED
    assert revoked.revoked_at == T0 + 5
    assert verify_record(revoked, root_cert.public_key)
    unknown = authority.status_for(424242)
    assert unknown.status == CertStatus.UNKNOWN
    assert verify_record(unknown, root_cert.public_key)
    # every field but the signature is signed, the serial included
    for changed in (
        replace(response, serial=424242),
        replace(response, status=CertStatus.REVOKED),
        replace(response, revoked_at=0),
        replace(response, produced_at=T0 + 1),
        replace(revoked, serial=424242),
        replace(revoked, status=CertStatus.GOOD),
        replace(revoked, revoked_at=T0 + 6),
        replace(revoked, revoked_at=None),
        replace(revoked, produced_at=T0 - 1),
    ):
        assert not verify_record(changed, root_cert.public_key), changed


@pytest.fixture()
def counted(pki, monkeypatch):
    """An authority for the pki leaf whose key counts its signatures."""
    root_key, root_cert, _, leaf_cert, _ = pki
    authority = Authority(root_key, root_cert, T0)
    authority.issued[leaf_cert.serial] = leaf_cert.subject
    signatures = []
    sign = root_key.sign

    def counting_sign(message):
        signatures.append(message)
        return sign(message)

    monkeypatch.setattr(root_key, "sign", counting_sign)
    return authority, signatures, sign, leaf_cert


def test_status_is_signed_once_per_distinct_status(counted):
    authority, signatures, _, leaf_cert = counted
    responses = {authority.status_for(leaf_cert.serial) for _ in range(10)}
    assert len(responses) == 1 and len(signatures) == 1
    authority.revoke(leaf_cert.serial, T0 + 5)
    for _ in range(10):
        revoked = authority.status_for(leaf_cert.serial)
    assert len(signatures) == 2
    assert (revoked.status, revoked.revoked_at) == (CertStatus.REVOKED, T0 + 5)
    # a re-revocation and a clock change each alter the payload once
    authority.revoke(leaf_cert.serial, T0 + 6)
    assert authority.status_for(leaf_cert.serial).revoked_at == T0 + 6
    authority.clock = T0 + 1
    assert authority.status_for(leaf_cert.serial).produced_at == T0 + 1
    authority.status_for(leaf_cert.serial)
    assert len(signatures) == 4


def test_served_signature_equals_a_fresh_one(counted):
    authority, _, sign, leaf_cert = counted
    served = []
    for serial in (leaf_cert.serial, leaf_cert.serial, 424242):
        served.append(authority.status_for(serial))
    authority.revoke(leaf_cert.serial, T0 + 3)
    served += [authority.status_for(leaf_cert.serial) for _ in range(2)]
    for response in served:
        unsigned = replace(response, responder_signature=b"")
        assert response.responder_signature == sign(signed_bytes(unsigned))


def test_unknown_serials_do_not_grow_the_store(counted):
    authority, signatures, _, leaf_cert = counted
    authority.status_for(leaf_cert.serial)
    size = len(authority._signed)
    for serial in range(10_000, 11_000):
        assert authority.status_for(serial).status == CertStatus.UNKNOWN
    assert len(authority._signed) == size == 1
    assert len(signatures) == 1001


def test_a_stored_status_is_encoded_once(counted, monkeypatch):
    """A stored status is served as the bytes it was read back from, so a
    query runs no record writer; an UNKNOWN status, signed afresh on each
    query, is written each time."""
    authority, _, _, leaf_cert = counted
    stored = authority.status_for(leaf_cert.serial)
    wire = encode_record(stored)
    assert wire == encode_record(replace(stored)) and decode_record(StatusResponse, wire) == stored
    writer = records._record_writer
    omits = []

    def counting_writer(cls, omit):
        omits.append(omit)
        return writer(cls, omit)

    monkeypatch.setattr(records, "_record_writer", counting_writer)
    assert [encode_record(authority.status_for(leaf_cert.serial)) for _ in range(3)] == [wire] * 3
    assert omits == []
    encode_record(authority.status_for(424242))
    assert omits == [("responder_signature",), ()]


# ---------------------------------------------------------------------------
# status service over a real socket
# ---------------------------------------------------------------------------

@pytest.fixture()
def service(pki):
    root_key, root_cert, _, leaf_cert, _ = pki
    authority = Authority(root_key, root_cert, T0)
    authority.issued[leaf_cert.serial] = leaf_cert.subject
    svc = run_status_service(authority)
    yield svc, authority, root_cert, leaf_cert
    svc.stop()


def test_query_roundtrip(service):
    svc, authority, root_cert, leaf_cert = service
    response = query_status(svc.endpoint, leaf_cert.serial, root_cert)
    assert response.status == CertStatus.GOOD
    authority.revoke(leaf_cert.serial, T0 + 9)
    response = query_status(svc.endpoint, leaf_cert.serial, root_cert)
    assert response.status == CertStatus.REVOKED
    assert response.revoked_at == T0 + 9
    # a revocation dated 0 is told apart from "not revoked" (None)
    authority.revoke(leaf_cert.serial, 0)
    response = query_status(svc.endpoint, leaf_cert.serial, root_cert)
    assert (response.status, response.revoked_at) == (CertStatus.REVOKED, 0)


def test_concurrent_queries(service):
    svc, _, root_cert, leaf_cert = service
    results, errors = [], []

    def worker():
        try:
            results.append(query_status(svc.endpoint, leaf_cert.serial, root_cert))
        except Exception as exc:  # noqa: BLE001 - collecting for assertion
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(100)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(results) == 100
    assert all(r.status == CertStatus.GOOD for r in results)
    assert len(svc.query_log) == 100


def test_malformed_frames_do_not_kill_service(service):
    import socket

    svc, _, root_cert, leaf_cert = service
    host, port = svc.endpoint
    for payload in (b"", b"junk", b"\x00" * 64, encode_value(leaf_cert.serial)[:-1]):
        with socket.create_connection((host, port), timeout=2) as sock:
            sock.sendall(len(payload).to_bytes(2, "big") + payload)
            sock.recv(4096)  # error frame or close; either way the server lives
    # service still answers proper queries afterwards
    response = query_status(svc.endpoint, leaf_cert.serial, root_cert)
    assert response.status == CertStatus.GOOD
    assert svc.refused == 4


def _exchange(svc, payload):
    """Send one framed request payload; return every byte the server sends back."""
    import socket

    with socket.create_connection(svc.endpoint, timeout=2) as sock:
        sock.sendall(_frame(payload))
        sock.shutdown(socket.SHUT_WR)  # a connection carries many frames; EOF ends it
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


def test_served_reply_is_the_status_record(service):
    svc, authority, _, leaf_cert = service
    for serial in (leaf_cert.serial, 2**64 - 1):
        reply = _exchange(svc, encode_value(serial))
        assert reply == _frame(encode_record(authority.status_for(serial)))
    assert (svc.query_log, svc.refused) == ([leaf_cert.serial, 2**64 - 1], 0)


def test_response_for_another_serial_is_unreachable(service):
    svc, authority, root_cert, leaf_cert = service
    other = authority.status_for(leaf_cert.serial + 1)
    assert verify_record(other, root_cert.public_key)
    with pytest.raises(ServiceUnreachable, match="serial"):
        decode_response(encode_record(other), leaf_cert.serial)
    with pytest.raises(ServiceUnreachable, match="malformed"):
        decode_response(encode_record(other)[:-1], other.serial)
    # a responder replaying a validly signed status for another serial
    svc.answer = lambda serial: authority.status_for(serial + 1)
    with pytest.raises(ServiceUnreachable, match="serial"):
        query_status(svc.endpoint, leaf_cert.serial, root_cert)


@pytest.mark.parametrize(
    "payload",
    [
        b"PSTA\x01" + (101).to_bytes(8, "big"),  # the retired fixed-layout request
        encode_value(-1),
        encode_value(True),
        encode_value(101.0),
        encode_value("101"),
        encode_value(101) + b"\x00",
    ],
    ids=["psta-v1", "negative", "bool", "float", "text", "trailing-byte"],
)
def test_non_serial_requests_are_closed_unanswered(service, payload):
    svc, _, root_cert, leaf_cert = service
    assert _exchange(svc, payload) == b""
    assert (svc.query_log, svc.refused) == ([], 1)
    assert query_status(svc.endpoint, leaf_cert.serial, root_cert).status == CertStatus.GOOD
    assert (svc.query_log, svc.refused) == ([leaf_cert.serial], 1)


def _half_sent(svc):
    """A connection holding the first byte of a request frame, nothing more."""
    import socket

    sock = socket.create_connection(svc.endpoint, timeout=2)
    sock.sendall(b"\x00")
    return sock


def test_half_sent_frame_holds_up_no_other_client(service):
    svc, _, root_cert, leaf_cert = service
    with _half_sent(svc):
        response = query_status(svc.endpoint, leaf_cert.serial, root_cert, timeout=1.0)
        assert response.status == CertStatus.GOOD
        assert svc.query_log == [leaf_cert.serial]


def test_request_sent_one_byte_at_a_time(service):
    import socket
    import time

    svc, _, root_cert, leaf_cert = service
    frame = len(encode_value(leaf_cert.serial)).to_bytes(2, "big") + encode_value(
        leaf_cert.serial
    )
    with socket.create_connection(svc.endpoint, timeout=2) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for index in range(len(frame)):
            sock.sendall(frame[index : index + 1])
            time.sleep(0.002)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    response = decode_response(reply[2:], leaf_cert.serial)
    assert int.from_bytes(reply[:2], "big") == len(reply) - 2
    assert response.status == CertStatus.GOOD
    assert verify_record(response, root_cert.public_key)
    assert (svc.query_log, svc.refused) == ([leaf_cert.serial], 0)


def test_stop_closes_a_half_sent_connection(service):
    svc, _, root_cert, leaf_cert = service
    with _half_sent(svc) as sock:
        # answered only after the loop has read the held byte, since the
        # loop is one thread and the held connection was accepted first
        query_status(svc.endpoint, leaf_cert.serial, root_cert)
        svc.stop()
        assert sock.recv(16) == b""
    assert svc.refused == 1


def test_server_runs_one_thread(pki):
    root_key, root_cert, _, leaf_cert, _ = pki
    authority = Authority(root_key, root_cert, T0)
    authority.issued[leaf_cert.serial] = leaf_cert.subject
    before = set(threading.enumerate())
    with run_status_service(authority) as svc:
        for _ in range(20):
            query_status(svc.endpoint, leaf_cert.serial, root_cert)
        assert set(threading.enumerate()) - before == {svc._thread}


def _listener_replying(reply):
    """A listener that reads one request frame, sends ``reply`` and closes."""
    import socket

    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)

    def serve():
        with listener, listener.accept()[0] as connection:
            connection.settimeout(5)
            request = b""
            while len(request) < 2 + int.from_bytes(request[:2], "big"):
                chunk = connection.recv(64)
                if not chunk:
                    break
                request += chunk
            connection.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[:2], thread


@pytest.mark.parametrize(
    "reply, message",
    [(b"\x00\x00", "invalid frame length 0"), (b"\x00", "connection closed mid-frame")],
    ids=["zero-length-frame", "closed-after-one-byte"],
)
def test_a_broken_reply_frame_is_unreachable(pki, reply, message):
    _, root_cert, _, leaf_cert, _ = pki
    endpoint, thread = _listener_replying(reply)
    with pytest.raises(ServiceUnreachable) as refused:
        query_status(endpoint, leaf_cert.serial, root_cert, timeout=5.0)
    thread.join(timeout=5)
    assert (type(refused.value), str(refused.value)) == (ServiceUnreachable, message)


def _listener_answering(*connections):
    """A listener that accepts one connection per argument, a list of replies:
    it reads one request frame per reply and sends that reply, then closes
    the connection."""
    import socket

    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)

    def serve():
        with listener:
            for replies in connections:
                with listener.accept()[0] as connection:
                    connection.settimeout(5)
                    for reply in replies:
                        assert _read_frame(connection)
                        connection.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[:2], thread


def _counting_connects(monkeypatch):
    import socket

    connects = []
    connect = socket.create_connection
    monkeypatch.setattr(
        socket, "create_connection", lambda endpoint, **kw: connects.append(endpoint) or connect(endpoint, **kw)
    )
    return connects


def _good_answer(pki):
    """The reply frame a status service sends for the leaf of ``pki``."""
    root_key, root_cert, _, leaf_cert, _ = pki
    authority = Authority(root_key, root_cert, T0)
    authority.issued[leaf_cert.serial] = leaf_cert.subject
    return _frame(encode_record(authority.status_for(leaf_cert.serial)))


def test_a_fresh_connection_closed_before_a_reply_is_not_retried(pki, monkeypatch):
    """Only a kept connection is tried again; a fresh one that closes before
    any reply byte fails the query and is not kept."""
    from provlab import statusservice

    _, root_cert, _, leaf_cert, _ = pki
    answer = _good_answer(pki)
    endpoint, thread = _listener_answering([b""], [answer])
    connects = _counting_connects(monkeypatch)
    with pytest.raises(ServiceUnreachable) as refused:
        query_status(endpoint, leaf_cert.serial, root_cert)
    assert (type(refused.value), str(refused.value)) == (ServiceUnreachable, "connection closed mid-frame")
    assert (connects, statusservice._idle) == ([endpoint], None)
    assert query_status(endpoint, leaf_cert.serial, root_cert).status == CertStatus.GOOD
    thread.join(timeout=5)
    assert connects == [endpoint] * 2


def test_a_kept_connection_broken_after_a_reply_byte_is_not_retried(pki, monkeypatch):
    _, root_cert, _, leaf_cert, _ = pki
    answer = _good_answer(pki)
    endpoint, thread = _listener_answering([answer, answer[:1]])
    connects = _counting_connects(monkeypatch)
    assert query_status(endpoint, leaf_cert.serial, root_cert).status == CertStatus.GOOD
    with pytest.raises(ServiceUnreachable) as refused:
        query_status(endpoint, leaf_cert.serial, root_cert)
    thread.join(timeout=5)
    assert (type(refused.value), str(refused.value)) == (ServiceUnreachable, "connection closed mid-frame")
    assert connects == [endpoint]


def _read_frame(sock):
    """One whole frame off ``sock``, read a byte at a time; b"" at EOF."""
    data = b""
    while len(data) < 2 or len(data) < 2 + int.from_bytes(data[:2], "big"):
        chunk = sock.recv(1)
        if not chunk:
            return b""
        data += chunk
    return data


def test_queries_share_one_connection(pki):
    """A listener that counts its connections answers five queries over one."""
    import socket

    root_key, root_cert, _, leaf_cert, _ = pki
    authority = Authority(root_key, root_cert, T0)
    authority.issued[leaf_cert.serial] = leaf_cert.subject
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    accepted, answered = [], []

    def serve():
        with listener:
            while len(answered) < 5:
                with listener.accept()[0] as connection:
                    accepted.append(connection.getpeername())
                    connection.settimeout(5)
                    while len(answered) < 5 and (frame := _read_frame(connection)):
                        answered.append(decode_value(frame[2:]))
                        connection.sendall(_frame(encode_record(authority.status_for(answered[-1]))))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    for _ in range(5):
        response = query_status(listener.getsockname()[:2], leaf_cert.serial, root_cert)
        assert response.status == CertStatus.GOOD
    thread.join(timeout=5)
    assert (len(accepted), answered) == (1, [leaf_cert.serial] * 5)


def _pipelined(svc, serials):
    """Send one request frame per serial in one send; return every byte sent back."""
    import socket

    with socket.create_connection(svc.endpoint, timeout=5) as sock:
        sock.sendall(b"".join(_frame(encode_value(serial)) for serial in serials))
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def test_pipelined_frames_are_answered_in_order(service):
    svc, authority, _, leaf_cert = service
    serials = [leaf_cert.serial, 2**64 - 1]
    reply = _pipelined(svc, serials)
    assert reply == b"".join(_frame(encode_record(authority.status_for(s))) for s in serials)
    assert (svc.query_log, svc.refused) == (serials, 0)


@pytest.mark.parametrize("sent_per_call", [None, 7], ids=["whole-sends", "seven-byte-sends"])
def test_every_reply_frame_goes_out_whole(service, monkeypatch, sent_per_call):
    """200 pipelined requests get 200 whole replies in order, also when each
    send takes only a few bytes, as it does for a client slow to read."""
    import socket

    svc, authority, _, _ = service
    if sent_per_call:
        send = socket.socket.send
        monkeypatch.setattr(
            socket.socket, "send", lambda sock, data, *flags: send(sock, data[:sent_per_call], *flags)
        )
    serials = list(range(1000, 1200))
    reply = _pipelined(svc, serials)
    assert reply == b"".join(_frame(encode_record(authority.status_for(s))) for s in serials)
    assert (svc.query_log, svc.refused) == (serials, 0)


def test_a_new_service_on_the_same_port_answers_the_next_query(pki):
    root_key, root_cert, _, leaf_cert, _ = pki
    authority = Authority(root_key, root_cert, T0)
    authority.issued[leaf_cert.serial] = leaf_cert.subject
    with run_status_service(authority) as first:
        query_status(first.endpoint, leaf_cert.serial, root_cert)
    # the kept connection went with the first service: one retry reaches the second
    with run_status_service(authority, *first.endpoint) as second:
        assert query_status(second.endpoint, leaf_cert.serial, root_cert).status == CertStatus.GOOD
        assert (second.query_log, second.refused) == ([leaf_cert.serial], 0)
    assert (first.query_log, first.refused) == ([leaf_cert.serial], 0)
    # with no service left, the retry fails too
    with pytest.raises(ServiceUnreachable, match="unreachable"):
        query_status(second.endpoint, leaf_cert.serial, root_cert)


def test_a_bad_reply_closes_the_kept_connection(service, monkeypatch):
    import socket

    svc, authority, root_cert, leaf_cert = service
    _, other_root = make_root("other-root", serial=2)
    connects = []
    connect = socket.create_connection
    monkeypatch.setattr(
        socket, "create_connection", lambda endpoint, **kw: connects.append(endpoint) or connect(endpoint, **kw)
    )
    assert query_status(svc.endpoint, leaf_cert.serial, root_cert).serial == leaf_cert.serial
    svc.answer = lambda serial: authority.status_for(serial + 1)
    with pytest.raises(ServiceUnreachable, match="serial"):
        query_status(svc.endpoint, leaf_cert.serial, root_cert)
    del svc.answer
    assert query_status(svc.endpoint, leaf_cert.serial, root_cert).serial == leaf_cert.serial
    with pytest.raises(ServiceUnreachable, match="signature"):
        query_status(svc.endpoint, leaf_cert.serial, other_root)
    assert query_status(svc.endpoint, leaf_cert.serial, root_cert).serial == leaf_cert.serial
    assert connects == [svc.endpoint] * 3


def test_threads_never_share_a_kept_connection(service):
    """Eight threads each query their own serial 25 times, switching often:
    a connection handed to two threads at once would cross their replies."""
    import sys

    svc, _, root_cert, _ = service
    results, errors = [], []

    def worker(serial):
        try:
            for _ in range(25):
                results.append(query_status(svc.endpoint, serial, root_cert).serial == serial)
        except Exception as exc:  # noqa: BLE001 - collecting for assertion
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(5000 + n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert (errors, results) == ([], [True] * 200)
    assert len(svc.query_log) == 200


def test_stop_refuses_no_idle_connection(service):
    import socket

    svc, _, root_cert, leaf_cert = service
    query_status(svc.endpoint, leaf_cert.serial, root_cert)
    with socket.create_connection(svc.endpoint, timeout=2) as sock:
        sock.sendall(_frame(encode_value(leaf_cert.serial)))
        assert _read_frame(sock)
        svc.stop()
        assert sock.recv(16) == b""
    assert (svc.query_log, svc.refused) == ([leaf_cert.serial] * 2, 0)


def test_timeout_bounds_the_whole_exchange(pki):
    """A reply trickled a byte at a time cannot hold a query past its timeout."""
    import socket
    import time

    _, root_cert, _, leaf_cert, _ = pki
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    done = threading.Event()

    def serve():
        with listener, listener.accept()[0] as connection:
            connection.sendall((64).to_bytes(2, "big"))
            while not done.wait(0.3):
                try:
                    connection.sendall(b"\x00")
                except OSError:
                    break

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    start = time.monotonic()
    with pytest.raises(ServiceUnreachable, match="timed out"):
        query_status(listener.getsockname()[:2], leaf_cert.serial, root_cert, timeout=0.5)
    elapsed = time.monotonic() - start
    done.set()
    thread.join(timeout=5)
    assert elapsed < 0.5 + 0.25


def test_forged_responder_is_unreachable(service):
    svc, _, _, leaf_cert = service
    _, other_root = make_root("other-root", serial=2)
    with pytest.raises(ServiceUnreachable):
        query_status(svc.endpoint, leaf_cert.serial, other_root)


def test_unreachable_endpoint(pki):
    _, root_cert, _, leaf_cert, _ = pki
    with pytest.raises(ServiceUnreachable):
        query_status(("127.0.0.1", 1), leaf_cert.serial, root_cert, timeout=0.5)


def test_bind_failure(service):
    svc, authority, *_ = service
    host, port = svc.endpoint
    with pytest.raises(ProvenanceError, match="cannot bind"):
        run_status_service(authority, host=host, port=port)


def test_channel_agreement(service):
    """The CRL and the online channel answer from the same state."""
    svc, authority, root_cert, leaf_cert = service
    authority.revoke(leaf_cert.serial, T0 + 77)
    crl = authority.generate_crl()
    online = query_status(svc.endpoint, leaf_cert.serial, root_cert)
    assert (leaf_cert.serial, online.revoked_at) in crl.entries
    assert online.status == CertStatus.REVOKED


def test_stop_returns_promptly_and_logs_no_wakeup(pki):
    import statistics
    import time

    root_key, root_cert, _, leaf_cert, _ = pki
    authority = Authority(root_key, root_cert, T0)
    authority.issued[leaf_cert.serial] = leaf_cert.subject
    times = []
    for _ in range(5):
        svc = run_status_service(authority)
        query_status(svc.endpoint, leaf_cert.serial, root_cert)
        start = time.perf_counter()
        svc.stop()
        times.append(time.perf_counter() - start)
        assert not svc._thread.is_alive()
        assert svc.query_log == [leaf_cert.serial]
        svc.stop()  # a second stop is a no-op
    # serve_forever's 0.5 s shutdown poll made each stop take ~500 ms
    assert statistics.median(times) <= 0.010
