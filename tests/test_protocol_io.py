import socket
import struct
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kishnn import data_eval, he_sim, protocol_io
from kishnn.classifier import (LabeledDatabase, classify_with_majority,
                               make_protocol_params)
from kishnn.protocol_io import (DecodeError, ErrorMessage, ProtocolError,
                                QueryMessage, ResponseMessage, answer_query,
                                decode_message, encode_message, loopback_pair,
                                make_query, run_client, run_server, serve_tcp,
                                tcp_connect)
from kishnn.ring import ParameterError, select_ring_params

from conftest import two_cluster_db


@pytest.fixture(scope="module")
def setup():
    ring = select_ring_params(20, dim=2, n=20)
    pts, labels = two_cluster_db(10, 20, gap=1, seed=0)
    db = LabeledDatabase(pts, labels)
    pp = make_protocol_params(ring, k=3, n=20, repetitions=3, rng_seed=5)
    return ring, db, pp


def test_query_round_trip(setup):
    _, _, pp = setup
    _, msg = make_query([5, 6], pp)
    assert decode_message(encode_message(msg)) == msg


def test_response_round_trip(setup):
    _, db, pp = setup
    _, msg = make_query([5, 6], pp)
    resp = answer_query(msg, db, pp)
    assert decode_message(encode_message(resp)) == resp


def test_error_message_round_trip():
    msg = ErrorMessage("nope")
    assert decode_message(encode_message(msg)) == msg


def test_flipped_magic_fails_at_offset_zero(setup):
    _, _, pp = setup
    _, msg = make_query([5, 6], pp)
    raw = bytearray(encode_message(msg))
    raw[0] ^= 1
    with pytest.raises(DecodeError) as err:
        decode_message(bytes(raw))
    assert err.value.offset == 0


def test_truncated_field_fails_at_payload_length(setup):
    _, _, pp = setup
    raw = encode_message(make_query([5, 6], pp)[1])[:-3]
    with pytest.raises(DecodeError) as err:
        decode_message(raw)
    assert err.value.offset == len(raw)


def test_bad_version_and_trailing_bytes(setup):
    _, _, pp = setup
    raw = bytearray(encode_message(make_query([5, 6], pp)[1]))
    for version in (1, 9):  # 1 carried the ring's dist_bound
        raw[4] = version
        with pytest.raises(DecodeError) as err:
            decode_message(bytes(raw))
        assert err.value.offset == 4
    good = encode_message(make_query([5, 6], pp)[1])
    with pytest.raises(DecodeError):
        decode_message(good + b"x")


def test_an_unreduced_cipher_is_refused_on_the_wire(setup):
    # a cipher whose slot is not yet reduced mod P (here 2P - 2) would
    # send a non-residue, so neither the encoder nor a comparison reads it
    ring, _, pp = setup
    keys, query = make_query([5, 6], pp)
    c = he_sim.encrypt(keys.pk, ring.modulus - 1)
    lazy = he_sim.add(c, c, ring)
    with pytest.raises(ParameterError):
        encode_message(ResponseMessage((lazy,)))
    with pytest.raises(ParameterError):
        encode_message(QueryMessage(ring, query.pk, (c, lazy)))
    with pytest.raises(ParameterError):
        ResponseMessage((lazy,)) == ResponseMessage((c,))


def test_every_response_cipher_decodes_to_a_residue(setup):
    ring, db, pp = setup
    for point in ([0, 0], [19, 19], [5, 6], [10, 3], [19, 0]):
        _, msg = make_query(point, pp)
        reply = decode_message(encode_message(answer_query(msg, db, pp)))
        assert len(reply.enc_class) == pp.repetitions
        assert all(0 <= c._values[0] < ring.modulus for c in reply.enc_class)

@given(st.integers(0, 2**64 - 1), st.integers(0, 2**16 - 1),
       st.integers(0, 2**64 - 1), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_response_codec_property(value, depth, key_id, half_reps):
    ciphers = tuple(
        he_sim.Cipher(np.array([value], dtype=np.int64) if value < 2**63
                      else np.array([value % 2**63], dtype=np.int64),
                      depth=depth, key_id=key_id)
        for _ in range(2 * half_reps - 1))
    msg = ResponseMessage(ciphers)
    assert decode_message(encode_message(msg)) == msg


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_decoding_any_bytes_gives_a_message_or_a_decode_error(setup, data):
    # a valid query or response with some bytes overwritten, or raw bytes
    _, db, pp = setup
    _, msg = make_query([5, 6], pp)
    valid = [encode_message(msg), encode_message(answer_query(msg, db, pp))]
    raw = bytearray(data.draw(st.sampled_from(valid)))
    for _ in range(data.draw(st.integers(1, 6))):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(
            st.integers(0, 255))
    for blob in (bytes(raw), data.draw(st.binary(max_size=64))):
        try:
            decode_message(blob)
        except DecodeError:
            pass


def _outcome(read):
    """What one reader made of some bytes: a message, the offset and
    reason of a DecodeError, or a TransportError."""
    try:
        return read()
    except DecodeError as exc:
        return exc.offset, str(exc)
    except protocol_io.TransportError:
        return protocol_io.TransportError


def _read_through_a_stream(blob):
    client_end, server_end = loopback_pair()
    client_end.wfile.write(blob)
    client_end.close()
    with server_end:
        return _outcome(lambda: protocol_io.read_message(server_end))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_both_readers_agree(setup, data):
    # decode_message on bytes and read_message on a stream that ends after
    # them frame a message by the same loop, so they fail alike; only a
    # truncation or trailing bytes tell them apart
    _, db, pp = setup
    _, msg = make_query([5, 6], pp)
    valid = [encode_message(m) for m in
             (msg, answer_query(msg, db, pp), ErrorMessage("nope"))]
    raw = bytearray(data.draw(st.sampled_from(valid)))
    edit = data.draw(st.sampled_from(("truncate", "flip", "append")))
    if edit == "truncate":
        del raw[data.draw(st.integers(10, len(raw) - 1)):]
    elif edit == "flip":
        for _ in range(data.draw(st.integers(1, 6))):
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(
                st.integers(1, 255))
    else:
        raw += data.draw(st.binary(min_size=1, max_size=32))
    blob = bytes(raw)
    decoded = _outcome(lambda: decode_message(blob))
    streamed = _read_through_a_stream(blob)
    if isinstance(decoded, tuple) and "truncated" in decoded[1]:
        assert decoded[0] == len(blob)
        assert streamed is protocol_io.TransportError
    elif isinstance(decoded, tuple) and "trailing" in decoded[1]:
        prefix = blob[:decoded[0]]
        assert streamed == _outcome(lambda: decode_message(prefix))
    else:
        assert streamed == decoded


@pytest.mark.parametrize("dim,size", [(1, 80), (2, 102), (3, 124)])
def test_query_wire_layout(dim, size):
    # header, then one length prefix per field: the ring (modulus,
    # coord_bound, dim, n), the 8-byte key and one ciphertext (value,
    # depth, key id) per coordinate
    ring = select_ring_params(20, dim=dim, n=20)
    pp = make_protocol_params(ring, k=3, n=20, repetitions=3)
    raw = encode_message(make_query(list(range(dim)), pp)[1])
    assert len(raw) == 10 + 4 * (2 + dim) + 32 + 8 + 18 * dim == size
    assert raw[4] == protocol_io.PROTOCOL_VERSION == 2


@pytest.mark.parametrize("reps", [1, 3, 5])
def test_response_wire_layout(reps):
    cipher = he_sim.Cipher(np.array([1], dtype=np.int64), depth=3, key_id=7)
    raw = encode_message(ResponseMessage((cipher,) * reps))
    assert len(raw) == 10 + 22 * reps


@pytest.mark.parametrize("point", [(-1, 5), (20, 5), (1, 2, 3)])
def test_client_refuses_a_point_off_the_grid(setup, point):
    # make_query used to reduce -1 mod P and send the point (P - 1, 5)
    _, db, pp = setup
    with pytest.raises(ParameterError, match="not a grid point"):
        make_query(point, pp)
    client_end, server_end = loopback_pair()
    t = threading.Thread(target=run_server, args=(server_end, db, pp))
    t.start()
    with pytest.raises(ParameterError, match="not a grid point"):
        run_client(client_end, point, pp)
    client_end.close()
    t.join(timeout=10)
    assert not t.is_alive()


def test_message_sizes_independent_of_database_size():
    sizes = {}
    for n in (50, 569):
        ring = select_ring_params(100, dim=2, n=n)
        pp = make_protocol_params(ring, k=13, n=n, repetitions=5, rng_seed=0)
        _, msg = make_query([5, 6], pp)
        sizes[n] = len(encode_message(msg))
    assert sizes[50] == sizes[569]


def test_loopback_end_to_end(setup):
    _, db, pp = setup
    client_end, server_end = loopback_pair()
    t = threading.Thread(target=run_server, args=(server_end, db, pp))
    t.start()
    bit = run_client(client_end, [2, 3], pp)
    client_end.close()
    t.join(timeout=10)
    assert bit in (0, 1)


@pytest.mark.parametrize("forged", [2, 80, 5000])
def test_client_refuses_a_response_value_that_is_not_a_bit(setup, forged):
    # at P = 79 a slot of 5000 decodes and decrypts raw; as a vote it would
    # outweigh the two honest zeros beside it
    _, _, pp = setup
    client_end, server_end = loopback_pair()

    def forger():
        query = protocol_io.read_message(server_end)
        key_id = int.from_bytes(query.pk, "little")
        slots = (0, 0, forged)
        protocol_io.write_message(server_end, ResponseMessage(tuple(
            he_sim.Cipher(np.array([v]), 1, key_id) for v in slots)))

    t = threading.Thread(target=forger)
    t.start()
    with pytest.raises(ProtocolError, match="not a bit"):
        run_client(client_end, [2, 3], pp)
    t.join(timeout=10)
    assert not t.is_alive()
    client_end.close()
    server_end.close()


def test_two_sequential_queries_one_connection(setup):
    _, db, pp = setup
    client_end, server_end = loopback_pair()
    results = {}

    def serve():
        results["answered"] = run_server(server_end, db, pp)

    t = threading.Thread(target=serve)
    t.start()
    b1 = run_client(client_end, [2, 3], pp)
    b2 = run_client(client_end, [18, 18], pp)
    client_end.close()
    t.join(timeout=10)
    assert results["answered"] == 2
    assert b1 in (0, 1) and b2 in (0, 1)


def test_dimension_mismatch_gets_error_response(setup):
    ring, db, pp = setup
    client_end, server_end = loopback_pair()
    t = threading.Thread(target=run_server, args=(server_end, db, pp))
    t.start()
    keys, msg = make_query([2, 3], pp)
    # well-formed query, but its ring disagrees with the server's view
    other_ring = select_ring_params(20, dim=2, n=21)
    bad = QueryMessage(other_ring, msg.pk, msg.enc_q)
    protocol_io.write_message(client_end, bad)
    reply = protocol_io.read_message(client_end)
    client_end.close()
    t.join(timeout=10)
    assert isinstance(reply, ErrorMessage)
    assert "ring" in reply.reason


def test_client_raises_on_error_response(setup):
    _, db, pp = setup
    other_ring = select_ring_params(20, dim=2, n=21)
    other_pp = make_protocol_params(other_ring, k=3, n=21, repetitions=3)
    client_end, server_end = loopback_pair()
    t = threading.Thread(target=run_server, args=(server_end, db, pp))
    t.start()
    with pytest.raises(ProtocolError, match="rejected"):
        run_client(client_end, [2, 3], other_pp)
    client_end.close()
    t.join(timeout=10)


def test_server_closes_on_malformed_bytes(setup):
    _, db, pp = setup
    client_end, server_end = loopback_pair()
    t = threading.Thread(target=run_server, args=(server_end, db, pp))
    t.start()
    client_end.wfile.write(b"JUNKJUNKJUNKJUNK")
    client_end.wfile.flush()
    reply = protocol_io.read_message(client_end)
    client_end.close()
    t.join(timeout=10)
    assert isinstance(reply, ErrorMessage)
    assert not t.is_alive()


def test_server_never_decrypts_in_protocol(setup):
    _, db, pp = setup
    _, msg = make_query([4, 4], pp)
    with he_sim.metering() as m:
        answer_query(msg, db, pp)
    assert m.decrypt_calls == 0


def test_tcp_round_trip(setup):
    _, db, pp = setup
    addr = {}
    done = threading.Event()

    def serve():
        serve_tcp("127.0.0.1", 0, db, pp, max_connections=1,
                  ready=lambda a: (addr.update(port=a[1]), done.set()))

    t = threading.Thread(target=serve)
    t.start()
    assert done.wait(timeout=10)
    with tcp_connect("127.0.0.1", addr["port"]) as transport:
        bit = run_client(transport, [2, 3], pp)
    t.join(timeout=10)
    assert bit in (0, 1)


def test_responses_are_deterministic_for_a_seed(setup):
    _, db, pp = setup
    _, msg = make_query([4, 4], pp)
    r1 = answer_query(msg, db, pp)
    r2 = answer_query(msg, db, pp)
    assert r1 == r2


def _query_bytes(ring, values, key_ids=None, pk=(7).to_bytes(8, "little"),
                 depth=0):
    """A query message with raw 64-bit ciphertext values, built field by
    field as the wire carries it; every ciphertext carries key id 7 unless
    key_ids says otherwise."""
    key_ids = key_ids or [7] * len(values)
    fields = [struct.pack("<QQQQ", ring.modulus, ring.coord_bound, ring.dim,
                          ring.n),
              pk]
    fields += [struct.pack("<QHQ", v, depth, k)
               for v, k in zip(values, key_ids)]
    out = protocol_io.MAGIC + bytes([protocol_io.PROTOCOL_VERSION, 1])
    out += struct.pack("<I", len(fields))
    for f in fields:
        out += struct.pack("<I", len(f)) + f
    return out


def _frame(kind, fields):
    """A message of this kind holding these raw fields, as the wire
    carries it."""
    out = protocol_io.MAGIC + bytes([protocol_io.PROTOCOL_VERSION, kind])
    out += struct.pack("<I", len(fields))
    for f in fields:
        out += struct.pack("<I", len(f)) + f
    return out


_RING100 = select_ring_params(100, dim=2, n=50)
_CIPHER = struct.pack("<QHQ", 1, 0, 7)
# a 2-D query at grid 100: ring at byte 14, key at 50, ciphers at 62, 84
_QUERY = [struct.pack("<QQQQ", _RING100.modulus, 100, 2, 50),
          (7).to_bytes(8, "little"), _CIPHER, _CIPHER]


@pytest.mark.parametrize("raw,offset,reason", [
    pytest.param(_frame(1, _QUERY[:2] + [_CIPHER[:17], _CIPHER]), 62,
                 "ciphertext field has wrong length", id="17-byte cipher"),
    pytest.param(_frame(1, [_QUERY[0][:24]] + _QUERY[1:]), 14,
                 "ring parameter field has wrong length", id="24-byte ring"),
    pytest.param(_frame(1, _QUERY)[:7], 7, "truncated header",
                 id="7-byte header"),
    pytest.param(_frame(1, _QUERY[:2]), 58, "query needs ring",
                 id="query of two fields"),
    pytest.param(_frame(1, _QUERY + [_CIPHER]), 14,
                 "query dimension does not match ring",
                 id="three ciphers on a 2-D ring"),
    pytest.param(_frame(2, []), 10, "empty response",
                 id="response of no fields"),
    pytest.param(_frame(2, [_CIPHER] * 2), 14, "repetition count must be odd",
                 id="response of two ciphers"),
    pytest.param(_frame(3, []), 10, "error message needs one field",
                 id="error of no fields"),
])
def test_a_malformed_message_is_refused_at_its_defect(raw, offset, reason):
    assert decode_message(_frame(1, _QUERY)).enc_q[0].key_id == 7
    with pytest.raises(DecodeError, match=reason) as err:
        decode_message(raw)
    assert err.value.offset == offset


def test_each_role_refuses_a_message_of_the_other_role(setup):
    _, db, pp = setup
    _, query = make_query([2, 3], pp)
    # a server sent a response answers that it expected a query, and closes
    client_end, server_end = loopback_pair()
    protocol_io.write_message(client_end, answer_query(query, db, pp))
    assert run_server(server_end, db, pp) == 0
    assert protocol_io.read_message(client_end) == ErrorMessage(
        "expected a query message")
    assert protocol_io.read_message(client_end, allow_eof=True) is None
    client_end.close()
    # a client answered with a query refuses it
    client_end, server_end = loopback_pair()
    protocol_io.write_message(server_end, query)
    with pytest.raises(ProtocolError, match="unexpected message kind"):
        run_client(client_end, [2, 3], pp)
    client_end.close()
    server_end.close()


@pytest.mark.parametrize("value", [2**63, 2**64 - 1])
def test_ciphertext_beyond_int64_is_a_decode_error(setup, value):
    ring, _, _ = setup
    with pytest.raises(DecodeError):
        decode_message(_query_bytes(ring, [value, 1]))
    cipher = struct.pack("<QHQ", value, 0, 7)
    response = (protocol_io.MAGIC + bytes([protocol_io.PROTOCOL_VERSION, 2])
                + struct.pack("<II", 1, len(cipher)) + cipher)
    with pytest.raises(DecodeError):
        decode_message(response)


def test_a_wire_ring_with_a_composite_modulus_is_refused(setup):
    ring, _, _ = setup
    composite = types.SimpleNamespace(modulus=999, coord_bound=ring.coord_bound,
                                      dim=ring.dim, n=ring.n)
    for _ in range(2):  # also once the primality test has memoised 999
        with pytest.raises(DecodeError):
            decode_message(_query_bytes(composite, [2, 3]))

def test_query_value_at_or_above_the_modulus_is_a_decode_error(setup):
    ring, _, _ = setup
    decode_message(_query_bytes(ring, [ring.modulus - 1, 0]))
    for value in (ring.modulus, 5000):
        with pytest.raises(DecodeError):
            decode_message(_query_bytes(ring, [0, value]))


def test_server_survives_a_hostile_ciphertext(setup):
    _, db, pp = setup
    addr = {}
    done = threading.Event()

    def serve():
        serve_tcp("127.0.0.1", 0, db, pp, max_connections=2,
                  ready=lambda a: (addr.update(port=a[1]), done.set()))

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    assert done.wait(timeout=10)
    with tcp_connect("127.0.0.1", addr["port"]) as transport:
        transport.wfile.write(_query_bytes(pp.ring, [2**63, 3]))
        transport.wfile.flush()
        reply = protocol_io.read_message(transport)
    assert isinstance(reply, ErrorMessage)
    with tcp_connect("127.0.0.1", addr["port"]) as transport:
        bit = run_client(transport, [2, 3], pp)
    t.join(timeout=10)
    assert bit == classify_with_majority([2, 3], db, pp)


def _serve_in_background(db, pp, connections):
    """serve_tcp on an ephemeral port in a daemon thread: (thread, port)."""
    addr = {}
    done = threading.Event()

    def serve():
        serve_tcp("127.0.0.1", 0, db, pp, max_connections=connections,
                  ready=lambda a: (addr.update(port=a[1]), done.set()))

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    assert done.wait(timeout=10)
    return t, addr["port"]


def _timed(sock):
    """A transport over sock whose reads fail after 5 s instead of
    blocking."""
    sock.settimeout(5)
    return protocol_io.Transport(sock)


def _raw_connection(port):
    return _timed(socket.create_connection(("127.0.0.1", port)))


def _timed_pair():
    return tuple(_timed(sock) for sock in socket.socketpair())


def test_query_with_mixed_key_ids_is_a_decode_error(setup):
    ring, _, _ = setup
    decode_message(_query_bytes(ring, [2, 3], key_ids=[7, 7]))
    with pytest.raises(DecodeError, match="another key"):
        decode_message(_query_bytes(ring, [2, 3], key_ids=[7, 8]))
    with pytest.raises(DecodeError, match="another key"):
        decode_message(_query_bytes(ring, [2, 3], key_ids=[8, 8]))
    for pk in (b"", (7).to_bytes(4, "little"), (7).to_bytes(9, "little")):
        with pytest.raises(DecodeError, match="key field"):
            decode_message(_query_bytes(ring, [2, 3], pk=pk))


def test_query_ciphertext_must_be_fresh(setup):
    ring, _, _ = setup
    for depth in (1, 2 ** 16 - 1):
        with pytest.raises(DecodeError, match="not fresh"):
            decode_message(_query_bytes(ring, [2, 3], depth=depth))


@pytest.mark.parametrize("hostile", [{"key_ids": [7, 8]},
                                     {"depth": 2 ** 16 - 1}])
def test_server_survives_a_hostile_key_or_depth(setup, hostile):
    # mixed key ids used to raise inside the circuit, and a deep query
    # used to overflow the response's depth field; either ended the server
    _, db, pp = setup
    t, port = _serve_in_background(db, pp, connections=2)
    with _raw_connection(port) as transport:
        transport.wfile.write(_query_bytes(pp.ring, [2, 3], **hostile))
        transport.wfile.flush()
        reply = protocol_io.read_message(transport)
    assert isinstance(reply, ErrorMessage)
    with tcp_connect("127.0.0.1", port) as transport:
        bit = run_client(transport, [2, 3], pp)
    t.join(timeout=10)
    assert bit == classify_with_majority([2, 3], db, pp)


def test_oversized_field_is_refused_before_it_is_read(setup):
    _, db, pp = setup
    header = (protocol_io.MAGIC + bytes([protocol_io.PROTOCOL_VERSION, 1])
              + struct.pack("<II", 3, 2 ** 32 - 1))
    client_end, server_end = _timed_pair()
    client_end.wfile.write(header)
    client_end.wfile.flush()
    with pytest.raises(DecodeError, match="cap") as err:
        protocol_io.read_message(server_end)
    assert err.value.offset == 10
    client_end.close()
    server_end.close()
    t, port = _serve_in_background(db, pp, connections=2)
    with _raw_connection(port) as transport:
        transport.wfile.write(header)
        transport.wfile.flush()
        reply = protocol_io.read_message(transport)
    assert isinstance(reply, ErrorMessage) and "cap" in reply.reason
    with tcp_connect("127.0.0.1", port) as transport:
        bit = run_client(transport, [2, 3], pp)
    t.join(timeout=10)
    assert bit == classify_with_majority([2, 3], db, pp)


@pytest.mark.parametrize("kind,nfields", [(1, 2 + 2 ** 16 + 1),
                                          (2, 2 ** 16 + 1), (3, 2), (9, 1)])
def test_header_beyond_the_caps_is_a_decode_error(kind, nfields):
    header = (protocol_io.MAGIC + bytes([protocol_io.PROTOCOL_VERSION, kind])
              + struct.pack("<I", nfields))
    client_end, server_end = _timed_pair()
    client_end.wfile.write(header)
    client_end.wfile.flush()
    with pytest.raises(DecodeError):
        protocol_io.read_message(server_end)
    with pytest.raises(DecodeError):
        decode_message(header)
    client_end.close()
    server_end.close()


def test_an_off_grid_query_gets_an_error_and_the_connection_goes_on(
        wdbc_path, capfd):
    # the wire checks a coordinate only against P = 997; (499, 499) lies
    # off grid 250, which the packed query's span [0, 250) refuses
    gd = data_eval.grid_dataset(data_eval.load_wdbc(wdbc_path), 250)
    db = gd.database()
    pp = make_protocol_params(select_ring_params(250, dim=2, n=db.n), k=13,
                              n=db.n, repetitions=1)
    client_end, server_end = loopback_pair()
    results = {}

    def serve():
        results["answered"] = run_server(server_end, db, pp)

    t = threading.Thread(target=serve)
    t.start()
    client_end.wfile.write(_query_bytes(pp.ring, [499, 499]))
    client_end.wfile.flush()
    reply = protocol_io.read_message(client_end)
    bit = run_client(client_end, [40, 60], pp)
    client_end.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert isinstance(reply, ErrorMessage)
    assert reply.reason.startswith("query is off the grid")
    assert bit == classify_with_majority([40, 60], db, pp)
    assert results["answered"] == 1
    assert "Traceback" not in capfd.readouterr().err


def test_an_off_grid_query_is_refused_whatever_the_database_holds():
    # one hand-built query for (300, 0) at grid 250 against 20 points near
    # (225, 25), every distance in [0, dist_bound], and against the same
    # points with one moved to (0, 249), 549 away: both refuse it alike,
    # so the reply tells a client nothing about where the points lie
    ring = select_ring_params(250, dim=2, n=20)
    pp = make_protocol_params(ring, k=3, n=20, repetitions=1)
    rng = np.random.default_rng(13)
    near = rng.integers(-10, 11, size=(20, 2)) + [225, 25]
    moved = near.copy()
    moved[7] = (0, 249)
    replies = []
    for points in (near, moved):
        db = LabeledDatabase(points, np.arange(20) % 2)
        client_end, server_end = loopback_pair()
        t = threading.Thread(target=run_server, args=(server_end, db, pp))
        t.start()
        client_end.wfile.write(_query_bytes(ring, [300, 0]))
        client_end.wfile.flush()
        replies.append(protocol_io.read_message(client_end))
        client_end.close()
        t.join(timeout=10)
        assert not t.is_alive()
    assert replies[0] == replies[1]
    assert isinstance(replies[0], ErrorMessage)
    assert replies[0].reason.startswith("query is off the grid")


def test_server_survives_a_peer_that_hangs_up_mid_message(setup):
    _, db, pp = setup
    t, port = _serve_in_background(db, pp, connections=2)
    with _raw_connection(port) as transport:
        transport.wfile.write(protocol_io.MAGIC[:3])
        transport.wfile.flush()
    with tcp_connect("127.0.0.1", port) as transport:
        bit = run_client(transport, [2, 3], pp)
    t.join(timeout=10)
    assert bit == classify_with_majority([2, 3], db, pp)


def test_an_idle_connection_times_out_alone(setup, monkeypatch, capsys):
    # a client that connects and sends nothing used to hold the serial
    # accept loop, so the next client's query was never answered
    _, db, pp = setup
    monkeypatch.setattr(protocol_io, "READ_TIMEOUT_S", 0.5)
    t, port = _serve_in_background(db, pp, connections=2)
    with _raw_connection(port) as idle:
        with _raw_connection(port) as transport:
            bit = run_client(transport, [2, 3], pp)
        assert protocol_io.read_message(idle, allow_eof=True) is None
    t.join(timeout=10)
    assert not t.is_alive()
    assert bit == classify_with_majority([2, 3], db, pp)
    assert capsys.readouterr().err.count("timed out after 0.5 s") == 1


def test_a_failing_connection_ends_alone(setup, monkeypatch):
    _, db, pp = setup
    serve_one = protocol_io.run_server
    calls = []

    def fails_once(transport, db_, pp_):
        calls.append(transport)
        if len(calls) == 1:
            raise RuntimeError("connection handler failed")
        return serve_one(transport, db_, pp_)

    monkeypatch.setattr(protocol_io, "run_server", fails_once)
    t, port = _serve_in_background(db, pp, connections=2)
    with _raw_connection(port) as transport:
        assert protocol_io.read_message(transport, allow_eof=True) is None
    with tcp_connect("127.0.0.1", port) as transport:
        bit = run_client(transport, [2, 3], pp)
    t.join(timeout=10)
    assert not t.is_alive()
    assert bit == classify_with_majority([2, 3], db, pp)


def test_a_failing_query_gets_an_error_and_the_connection_goes_on(
        setup, monkeypatch):
    _, db, pp = setup
    calls = []
    answer = protocol_io.answer_query

    def fails_once(msg, db_, pp_):
        calls.append(msg)
        if len(calls) == 1:
            raise he_sim.KeyMismatchError("operands bound to different keys")
        return answer(msg, db_, pp_)

    monkeypatch.setattr(protocol_io, "answer_query", fails_once)
    client_end, server_end = loopback_pair()
    results = {}

    def serve():
        results["answered"] = run_server(server_end, db, pp)

    t = threading.Thread(target=serve)
    t.start()
    with pytest.raises(ProtocolError, match="different keys"):
        run_client(client_end, [2, 3], pp)
    bit = run_client(client_end, [2, 3], pp)
    client_end.close()
    t.join(timeout=10)
    assert results["answered"] == 1
    assert bit == classify_with_majority([2, 3], db, pp)
