"""Single-round client/server wire protocol, version 3.

One query message carries the ring parameters, the public key and the
encrypted query coordinates; one response carries the encrypted class bit
of every repetition.  Every message is a 10-byte header (magic, version,
kind, item count), its kind's fixed part and `count` equal items, all
little-endian: a 2-D query is 86 bytes and a response 10 + 18 R.  Sizes
are independent of the database size.
"""

from __future__ import annotations

import functools
import socket
import struct
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from . import he_sim
from .classifier import (LabeledDatabase, ProtocolParams, client_keys,
                         encrypt_query, server_classify)
from .he_sim import Cipher
from .ring import ParameterError, RingParams

MAGIC = b"KISH"
PROTOCOL_VERSION = 3

_KIND_QUERY = 1
_KIND_RESPONSE = 2
_KIND_ERROR = 3

_HEADER_STRUCT = struct.Struct("<4sBBI")  # magic, version, kind, item count
_QUERY_STRUCT = struct.Struct("<QQQQ8s")  # modulus, coord_bound, dim, n, key
_CIPHER_STRUCT = struct.Struct("<QHQ")  # value blob, depth, key id

# Connections are served one after another, so a peer that sends nothing
# would hold every other client off; each read or write on a served
# connection gives up after this many seconds.
READ_TIMEOUT_S = 10.0

# The layout of each kind, whose header count is checked against its cap
# before any body byte is read: (fixed bytes, item bytes, most items).  A
# query holds the ring and the key, then one ciphertext per coordinate; a
# response one ciphertext per repetition; an error its reason's bytes.
_CAPS = {
    _KIND_QUERY: (_QUERY_STRUCT.size, _CIPHER_STRUCT.size, 2 ** 16),
    _KIND_RESPONSE: (0, _CIPHER_STRUCT.size, 2 ** 16),
    _KIND_ERROR: (0, 1, 2 ** 16),
}


class TransportError(ConnectionError):
    """The underlying byte stream failed or ended mid-message."""


class ProtocolError(RuntimeError):
    """The peer sent a well-formed but unacceptable message."""


class DecodeError(ValueError):
    """Malformed message bytes; `offset` points at the defect."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"at byte {offset}: {reason}")
        self.offset = offset


@dataclass(frozen=True)
class QueryMessage:
    ring: RingParams
    pk: bytes  # opaque 8-byte key identifier
    enc_q: tuple  # one scalar ciphertext per coordinate

    def __post_init__(self):
        if len(self.pk) != 8:
            raise ParameterError("key identifier must be 8 bytes")
        if len(self.enc_q) != self.ring.dim:
            raise ParameterError("query dimension does not match ring")

    def __eq__(self, other):
        return (isinstance(other, QueryMessage)
                and self.ring == other.ring
                and self.pk == other.pk
                and _cipher_states(self.enc_q) == _cipher_states(other.enc_q))


@dataclass(frozen=True)
class ResponseMessage:
    enc_class: tuple  # one scalar ciphertext per repetition

    def __post_init__(self):
        if len(self.enc_class) % 2 != 1:
            raise ParameterError("repetition count must be odd")

    def __eq__(self, other):
        return (isinstance(other, ResponseMessage)
                and _cipher_states(self.enc_class) == _cipher_states(other.enc_class))


@dataclass(frozen=True)
class ErrorMessage:
    reason: str


def _wire_value(c: Cipher) -> int:
    """The one slot of c, which must already be a residue in [0, P)."""
    if c._bound is not None:
        raise ParameterError("an unreduced ciphertext cannot travel on the "
                             "wire")
    return int(c._values[0])


def _cipher_states(ciphers) -> tuple:
    return tuple((_wire_value(c), c.depth, c.key_id) for c in ciphers)


def _encode_cipher(c: Cipher) -> bytes:
    if c.size != 1:
        raise ParameterError("only scalar ciphertexts travel on the wire")
    return _CIPHER_STRUCT.pack(_wire_value(c), c.depth, c.key_id)


def _decode_cipher(data: bytes, offset: int, bound: int = 2 ** 63,
                   key_id=None) -> Cipher:
    """The scalar ciphertext at offset; its value must lie below bound
    (the ring modulus in a query) and below 2^63.  A query's, for which
    key_id is given, must also be fresh and bound to that key."""
    value, depth, cipher_key = _CIPHER_STRUCT.unpack_from(data, offset)
    if value >= min(bound, 2 ** 63):
        raise DecodeError(offset, "ciphertext value out of range")
    if key_id is not None and cipher_key != key_id:
        raise DecodeError(offset, "ciphertext bound to another key than the "
                                  "query's")
    if key_id is not None and depth != 0:
        # a fresh encryption; deeper tags would overflow the response's
        # 16-bit depth field
        raise DecodeError(offset, "query ciphertext is not fresh")
    return Cipher(np.array([value], dtype=np.int64), depth=depth,
                  key_id=cipher_key)


def encode_message(msg) -> bytes:
    """Serialize a message: the header, then its kind's fixed part and
    items."""
    if isinstance(msg, QueryMessage):
        r = msg.ring
        kind = _KIND_QUERY
        body = (_QUERY_STRUCT.pack(r.modulus, r.coord_bound, r.dim, r.n,
                                   msg.pk)
                + b"".join(map(_encode_cipher, msg.enc_q)))
    elif isinstance(msg, ResponseMessage):
        kind, body = _KIND_RESPONSE, b"".join(map(_encode_cipher,
                                                   msg.enc_class))
    elif isinstance(msg, ErrorMessage):
        kind, body = _KIND_ERROR, msg.reason.encode("utf-8")
    else:
        raise ParameterError(f"cannot encode {type(msg).__name__}")
    fixed, item, _ = _CAPS[kind]
    count = (len(body) - fixed) // item
    return _HEADER_STRUCT.pack(MAGIC, PROTOCOL_VERSION, kind, count) + body


def _check_header(head: bytes) -> tuple:
    """(kind, body length) of a 10-byte header whose count is within its
    kind's cap; a shorter one is refused at its first missing or wrong
    byte."""
    if head[:4] != MAGIC:
        raise DecodeError(0, "bad magic")
    if len(head) < 5 or head[4] != PROTOCOL_VERSION:
        raise DecodeError(min(4, len(head)), "unsupported version")
    if len(head) < _HEADER_STRUCT.size:
        raise DecodeError(len(head), "truncated header")
    _, _, kind, count = _HEADER_STRUCT.unpack(head)
    if kind not in _CAPS:
        raise DecodeError(5, f"unknown message kind {kind}")
    fixed, item, most = _CAPS[kind]
    if count > most:
        raise DecodeError(6, f"{count} items exceed the cap for this kind")
    return kind, fixed + item * count


def decode_message(data: bytes):
    """Parse one message; raises DecodeError with the offending byte offset."""
    head = _HEADER_STRUCT.size
    kind, body = _check_header(data[:head])
    end = head + body
    if len(data) < end:
        raise DecodeError(len(data), "truncated message")
    if len(data) > end:
        raise DecodeError(end, "trailing bytes after message")
    if kind == _KIND_ERROR:
        return ErrorMessage(data[head:].decode("utf-8", errors="replace"))
    if kind == _KIND_QUERY:
        *ring_fields, pk = _QUERY_STRUCT.unpack_from(data, head)
        try:
            ring = RingParams(*ring_fields)
        except ParameterError as exc:
            raise DecodeError(head, f"invalid ring parameters: {exc}") from exc
        key_id = int.from_bytes(pk, "little")
        enc = tuple(_decode_cipher(data, o, ring.modulus, key_id) for o in
                    range(head + _QUERY_STRUCT.size, end, _CIPHER_STRUCT.size))
        make = functools.partial(QueryMessage, ring, pk)
    else:
        enc = tuple(_decode_cipher(data, o)
                    for o in range(head, end, _CIPHER_STRUCT.size))
        make = ResponseMessage
    try:
        return make(enc)
    except ParameterError as exc:  # a count that the kind does not allow
        raise DecodeError(6, str(exc)) from exc


# ---------------------------------------------------------------------------
# Transports: a connected socket, exposed as a buffered binary file pair.


class Transport:
    """A connected socket with buffered binary file endpoints."""

    def __init__(self, sock: socket.socket):
        self.rfile = sock.makefile("rb")
        self.wfile = sock.makefile("wb")
        self._sock = sock

    def close(self) -> None:
        for f in (self.rfile, self.wfile):
            try:
                f.close()
            except OSError:
                pass
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def loopback_pair() -> tuple:
    """In-process transport pair (client_end, server_end)."""
    a, b = socket.socketpair()
    return Transport(a), Transport(b)


def tcp_connect(host: str, port: int) -> Transport:
    try:
        sock = socket.create_connection((host, port))
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    return Transport(sock)


def _read_exact(rfile, count: int, *, allow_eof_at_start=False):
    try:
        data = rfile.read(count)
    except OSError as exc:
        raise TransportError(f"read failed: {exc}") from exc
    if data is None:
        data = b""
    if not data and count and allow_eof_at_start:
        return None
    if len(data) != count:
        raise TransportError("stream ended mid-message")
    return data


def read_message(transport: Transport, *, allow_eof=False):
    """Read one self-delimiting message from the stream.

    The header's count is checked against its kind's cap before any body
    byte is read; exactly the body it announces is then read, and the
    whole message decoded.  Returns None on clean end-of-stream when
    allow_eof is set.
    """
    head = _read_exact(transport.rfile, _HEADER_STRUCT.size,
                       allow_eof_at_start=allow_eof)
    if head is None:
        return None
    _, body = _check_header(head)
    return decode_message(head + _read_exact(transport.rfile, body))


def write_message(transport: Transport, msg) -> None:
    try:
        transport.wfile.write(encode_message(msg))
        transport.wfile.flush()
    except OSError as exc:
        raise TransportError(f"write failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Roles.


def make_query(query, pp: ProtocolParams):
    """Client-side key generation and query encryption."""
    keys = client_keys(pp)
    enc_q = tuple(encrypt_query(keys.pk, query, pp.ring))
    msg = QueryMessage(pp.ring, keys.pk.key_id.to_bytes(8, "little"), enc_q)
    return keys, msg


def answer_query(msg: QueryMessage, db: LabeledDatabase, pp: ProtocolParams):
    """Server side: one circuit evaluates every repetition; its packed bits
    travel as one scalar ciphertext per repetition.

    Raises ProtocolError on parameter mismatch and ParameterError on a
    query off the grid; never decrypts anything.
    """
    if msg.ring != pp.ring:
        raise ProtocolError("ring parameters do not match the served database")
    bits = server_classify(list(msg.enc_q), db, pp)
    return ResponseMessage(tuple(he_sim.split(bits, bits.size)))


def run_server(transport: Transport, db: LabeledDatabase,
               pp: ProtocolParams) -> int:
    """Serve queries on one connection until the peer closes it.

    A query that cannot be answered (a parameter mismatch, a query off
    the grid, or any other failure) gets an error response; malformed
    bytes get one and close the connection.  A peer silent for
    READ_TIMEOUT_S seconds, between messages or inside one, ends the
    connection with a TransportError.  The connection is closed
    before returning.  Returns the number of queries answered.
    """
    answered = 0
    try:
        transport._sock.settimeout(READ_TIMEOUT_S)
        while True:
            try:
                msg = read_message(transport, allow_eof=True)
            except DecodeError as exc:
                write_message(transport,
                              ErrorMessage(f"malformed message: {exc}"))
                return answered
            if msg is None:
                return answered
            if not isinstance(msg, QueryMessage):
                write_message(transport,
                              ErrorMessage("expected a query message"))
                return answered
            try:
                reply = answer_query(msg, db, pp)
            except (ProtocolError, ParameterError) as exc:  # off the grid
                write_message(transport, ErrorMessage(str(exc)))
                continue
            except Exception as exc:  # one bad query must not end the loop
                traceback.print_exc()
                write_message(transport, ErrorMessage(
                    f"query failed: {type(exc).__name__}: {exc}"))
                continue
            write_message(transport, reply)
            answered += 1
    finally:
        transport.close()


def run_client(transport: Transport, query, pp: ProtocolParams) -> int:
    """Send one query, decrypt the response bits, return the majority.
    A response value that is not a bit raises ProtocolError."""
    keys, msg = make_query(query, pp)
    write_message(transport, msg)
    reply = read_message(transport)
    if isinstance(reply, ErrorMessage):
        raise ProtocolError(f"server rejected the query: {reply.reason}")
    if not isinstance(reply, ResponseMessage):
        raise ProtocolError("unexpected message kind in response")
    bits = [he_sim.decrypt(keys.sk, c) for c in reply.enc_class]
    if any(b not in (0, 1) for b in bits):
        raise ProtocolError("response holds a value that is not a bit")
    return 1 if 2 * sum(bits) > len(bits) else 0


def serve_tcp(host: str, port: int, db: LabeledDatabase, pp: ProtocolParams,
              *, max_connections=None, ready=None) -> None:
    """Accept TCP connections and serve each one serially.  A connection
    that fails, such as one whose peer hangs up mid-message or sends
    nothing for READ_TIMEOUT_S seconds, ends alone."""
    with socket.create_server((host, port)) as listener:
        if ready is not None:
            ready(listener.getsockname())
        served = 0
        while max_connections is None or served < max_connections:
            conn, addr = listener.accept()
            try:
                with Transport(conn) as transport:
                    run_server(transport, db, pp)
            except TransportError as exc:
                # the peer went away or went silent; nothing to answer
                if isinstance(exc.__cause__, TimeoutError):
                    print(f"kishnn: closed {addr[0]}:{addr[1]}: timed out "
                          f"after {READ_TIMEOUT_S:g} s", file=sys.stderr)
            except Exception:  # one connection must not end the loop
                traceback.print_exc()
            served += 1
