"""Single-round client/server wire protocol.

One query message carries the ring parameters, the public key and the
encrypted query coordinates; one response carries the encrypted class bit
of every repetition.  Messages are self-delimiting, little-endian, and
their sizes are independent of the database size.
"""

from __future__ import annotations

import io
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
PROTOCOL_VERSION = 2

_KIND_QUERY = 1
_KIND_RESPONSE = 2
_KIND_ERROR = 3

_CIPHER_STRUCT = struct.Struct("<QHQ")  # value blob, depth, key id
_RING_STRUCT = struct.Struct("<QQQQ")  # modulus, coord_bound, dim, n
_KEY_BYTES = 8

# Connections are served one after another, so a peer that sends nothing
# would hold every other client off; each read or write on a served
# connection gives up after this many seconds.
READ_TIMEOUT_S = 10.0

# What a header of each kind may announce, checked before any payload is
# read: (most fields, longest field).  A query holds the ring, the key and
# one ciphertext per coordinate; a response one ciphertext per repetition.
_CAPS = {
    _KIND_QUERY: (2 + 2 ** 16, _RING_STRUCT.size),
    _KIND_RESPONSE: (2 ** 16, _CIPHER_STRUCT.size),
    _KIND_ERROR: (1, 2 ** 16),
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


def _decode_cipher(blob: bytes, offset: int, bound: int = 2 ** 63) -> Cipher:
    """One scalar ciphertext; its value must lie below bound (the ring
    modulus in a query) and below 2^63."""
    if len(blob) != _CIPHER_STRUCT.size:
        raise DecodeError(offset, "ciphertext field has wrong length")
    value, depth, key_id = _CIPHER_STRUCT.unpack(blob)
    if value >= min(bound, 2 ** 63):
        raise DecodeError(offset, "ciphertext value out of range")
    return Cipher(np.array([value], dtype=np.int64), depth=depth, key_id=key_id)


def _encode_ring(ring: RingParams) -> bytes:
    return _RING_STRUCT.pack(ring.modulus, ring.coord_bound, ring.dim, ring.n)


def _decode_ring(blob: bytes, offset: int) -> RingParams:
    if len(blob) != _RING_STRUCT.size:
        raise DecodeError(offset, "ring parameter field has wrong length")
    try:
        return RingParams(*_RING_STRUCT.unpack(blob))
    except ParameterError as exc:
        raise DecodeError(offset, f"invalid ring parameters: {exc}") from exc


def encode_message(msg) -> bytes:
    """Serialize a message: magic, version, kind, then length-prefixed fields."""
    if isinstance(msg, QueryMessage):
        kind = _KIND_QUERY
        fields = [_encode_ring(msg.ring), bytes(msg.pk)]
        fields += [_encode_cipher(c) for c in msg.enc_q]
    elif isinstance(msg, ResponseMessage):
        kind = _KIND_RESPONSE
        fields = [_encode_cipher(c) for c in msg.enc_class]
    elif isinstance(msg, ErrorMessage):
        kind = _KIND_ERROR
        fields = [msg.reason.encode("utf-8")]
    else:
        raise ParameterError(f"cannot encode {type(msg).__name__}")
    out = bytearray()
    out += MAGIC
    out.append(PROTOCOL_VERSION)
    out.append(kind)
    out += struct.pack("<I", len(fields))
    for field in fields:
        out += struct.pack("<I", len(field))
        out += field
    return bytes(out)


def _check_header(head: bytes) -> tuple:
    """(kind, field count) of a 10-byte header, within the caps; a shorter
    one is refused at its first missing or wrong byte."""
    if head[:4] != MAGIC:
        raise DecodeError(0, "bad magic")
    if len(head) < 5 or head[4] != PROTOCOL_VERSION:
        raise DecodeError(min(4, len(head)), "unsupported version")
    if len(head) < 10:
        raise DecodeError(len(head), "truncated header")
    kind = head[5]
    if kind not in _CAPS:
        raise DecodeError(5, f"unknown message kind {kind}")
    (nfields,) = struct.unpack_from("<I", head, 6)
    if nfields > _CAPS[kind][0]:
        raise DecodeError(6, f"{nfields} fields exceed the cap for this kind")
    return kind, nfields


def _split(head: bytes, read) -> tuple:
    """Frame one message from its header and read(count), which returns
    the next count bytes or raises: (kind, fields, their offsets, end).
    Each field length is checked against the cap of the message's kind
    before the payload it announces is read."""
    kind, nfields = _check_header(head)
    pos = len(head)
    fields = []
    offsets = []
    for _ in range(nfields):
        (flen,) = struct.unpack("<I", read(4))
        if flen > _CAPS[kind][1]:
            raise DecodeError(pos, f"field of {flen} bytes exceeds the cap "
                                   "for this kind")
        pos += 4
        offsets.append(pos)
        fields.append(read(flen))
        pos += flen
    return kind, fields, offsets, pos


def decode_message(data: bytes):
    """Parse one message; raises DecodeError with the offending byte offset."""
    stream = io.BytesIO(data)

    def read(count):
        chunk = stream.read(count)
        if len(chunk) != count:
            raise DecodeError(len(data), "truncated message")
        return chunk

    kind, fields, offsets, end = _split(stream.read(10), read)
    if end != len(data):
        raise DecodeError(end, "trailing bytes after message")
    if kind == _KIND_QUERY:
        if len(fields) < 3:
            raise DecodeError(len(data), "query needs ring, key and coordinates")
        ring = _decode_ring(fields[0], offsets[0])
        if len(fields[1]) != _KEY_BYTES:
            raise DecodeError(offsets[1], "public key field has wrong length")
        key_id = int.from_bytes(fields[1], "little")
        enc_q = tuple(_decode_cipher(f, o, ring.modulus)
                      for f, o in zip(fields[2:], offsets[2:]))
        for c, o in zip(enc_q, offsets[2:]):
            if c.key_id != key_id:
                raise DecodeError(o, "ciphertext bound to another key than "
                                     "the query's")
            if c.depth != 0:
                # a fresh encryption; deeper tags would overflow the
                # response's 16-bit depth field
                raise DecodeError(o, "query ciphertext is not fresh")
        try:
            return QueryMessage(ring, bytes(fields[1]), enc_q)
        except ParameterError as exc:
            raise DecodeError(offsets[0], str(exc)) from exc
    if kind == _KIND_RESPONSE:
        if not fields:
            raise DecodeError(len(data), "empty response")
        enc = tuple(_decode_cipher(f, o) for f, o in zip(fields, offsets))
        try:
            return ResponseMessage(enc)
        except ParameterError as exc:
            raise DecodeError(offsets[0], str(exc)) from exc
    if kind == _KIND_ERROR:
        if len(fields) != 1:
            raise DecodeError(len(data), "error message needs one field")
        return ErrorMessage(fields[0].decode("utf-8", errors="replace"))


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

    The header and every field length are checked against the caps of
    the message's kind before the bytes they announce are read; the
    framed bytes are then decoded.  Returns None on clean end-of-stream
    when allow_eof is set.
    """
    head = _read_exact(transport.rfile, 10, allow_eof_at_start=allow_eof)
    if head is None:
        return None
    buf = bytearray(head)

    def read(count):
        chunk = _read_exact(transport.rfile, count)
        buf.extend(chunk)
        return chunk

    _split(head, read)
    return decode_message(bytes(buf))


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

    Raises ProtocolError on parameter mismatch; never decrypts anything.
    """
    if msg.ring != pp.ring:
        raise ProtocolError("ring parameters do not match the served database")
    bits = server_classify(list(msg.enc_q), db, pp)
    return ResponseMessage(tuple(he_sim.split(bits, bits.size)))


def run_server(transport: Transport, db: LabeledDatabase,
               pp: ProtocolParams) -> int:
    """Serve queries on one connection until the peer closes it.

    A query that cannot be answered (a parameter mismatch or any other
    failure) gets an error response; malformed bytes get one and close the
    connection.  The connection is closed before returning.  Returns the
    number of queries answered.
    """
    answered = 0
    try:
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
            except ProtocolError as exc:
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
            conn.settimeout(READ_TIMEOUT_S)
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
