"""Instrumented mock homomorphic backend.

Ciphertexts carry a hidden ring value (one or more slots, mirroring a
SIMD-packed ciphertext), a multiplicative-depth tag and a key binding.
The evaluation interface never reveals values; only decrypt with the
matching secret key does.  Every cipher-by-cipher multiplication is
metered per slot, plaintext-scalar operations are free, and a table
lookup is metered as the circuit that evaluates the table.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .ring import RingParams


class KeyMismatchError(ValueError):
    pass


class BackendError(ValueError):
    pass


@dataclass(frozen=True)
class PublicKey:
    key_id: int
    modulus: int


@dataclass(frozen=True)
class SecretKey:
    key_id: int
    modulus: int


@dataclass(frozen=True)
class KeyPair:
    pk: PublicKey
    sk: SecretKey
    ring: RingParams


class Cipher:
    """Simulated ciphertext: hidden slot values + depth tag + key binding.

    The slot values are deliberately private; evaluator-side code must go
    through add/mul/slot ops and can only learn values via decrypt.
    """

    __slots__ = ("_values", "depth", "key_id")

    def __init__(self, values: np.ndarray, depth: int, key_id: int):
        self._values = values
        self.depth = depth
        self.key_id = key_id

    @property
    def size(self) -> int:
        return int(self._values.size)

    def __repr__(self):
        return f"Cipher(slots={self.size}, depth={self.depth})"


@dataclass
class EvalMetrics:
    """Gate counters for one metered evaluation scope."""

    mult_gates: int = 0
    add_gates: int = 0
    max_depth: int = 0
    decrypt_calls: int = 0
    wall_time: float = 0.0


class _Scopes(threading.local):
    """This thread's stack of open metering scopes, innermost last."""

    def __init__(self):
        self.stack = []


_scopes = _Scopes()


def _note(depth: int, mults: int = 0, adds: int = 0) -> None:
    """Charge gates reaching depth to this thread's innermost open scope."""
    stack = _scopes.stack
    if stack:
        m = stack[-1]
        m.mult_gates += mults
        m.add_gates += adds
        if depth > m.max_depth:
            m.max_depth = depth


@contextmanager
def metering():
    """Context manager collecting gate metrics.

    Scopes are thread-local.  An operation notes its gates into the
    innermost open scope only; a scope adds its totals (gates, decrypts,
    max depth) into the enclosing one when it closes, so nested scopes
    roll up, also when the body raises.  wall_time is each scope's own.
    """
    m = EvalMetrics()
    stack = _scopes.stack
    stack.append(m)
    t0 = time.perf_counter()
    try:
        yield m
    finally:
        m.wall_time += time.perf_counter() - t0
        stack.pop()
        if stack:
            stack[-1].decrypt_calls += m.decrypt_calls
            _note(m.max_depth, m.mult_gates, m.add_gates)


def keygen(ring: RingParams, seed: int) -> KeyPair:
    """Deterministic mock key generation; distinct seeds, distinct keys."""
    h = hashlib.blake2b(f"kishnn-key:{seed}:{ring.modulus}".encode(),
                        digest_size=8)
    key_id = int.from_bytes(h.digest(), "little")
    return KeyPair(pk=PublicKey(key_id, ring.modulus),
                   sk=SecretKey(key_id, ring.modulus),
                   ring=ring)


def _as_slots(values) -> np.ndarray:
    a = np.atleast_1d(np.asarray(values, dtype=np.int64))
    if a.ndim != 1:
        raise BackendError("cipher slots must be one-dimensional")
    return a


def encrypt(pk: PublicKey, m) -> Cipher:
    """Encrypt one reduced ring element (or a packed vector of them)."""
    a = _as_slots(m)
    if ((a < 0) | (a >= pk.modulus)).any():
        raise BackendError("plaintext must be reduced mod the ring modulus")
    return Cipher(a.copy(), depth=0, key_id=pk.key_id)


def decrypt(sk: SecretKey, c: Cipher):
    """Reveal the plaintext; requires the matching secret key."""
    if c.key_id != sk.key_id:
        raise KeyMismatchError("ciphertext bound to a different key")
    if _scopes.stack:
        _scopes.stack[-1].decrypt_calls += 1
    if c.size == 1:
        return int(c._values[0])
    return [int(v) for v in c._values]


def embed_like(c: Cipher, values) -> Cipher:
    """Plaintext constant carried as a depth-0 ciphertext (free)."""
    a = _as_slots(values)
    out = Cipher(a.copy(), depth=0, key_id=c.key_id)
    _note(0)
    return out


def _plain(b, modulus: int):
    """A plaintext operand reduced into the ring; a Python int stays one."""
    return b % modulus if isinstance(b, int) else _as_slots(b) % modulus


def _coerce(a: Cipher, b, modulus: int):
    """Return (b_values, b_depth, is_cipher) with key checking."""
    if isinstance(b, Cipher):
        if b.key_id != a.key_id:
            raise KeyMismatchError("operands bound to different keys")
        return b._values, b.depth, True
    return _plain(b, modulus), 0, False


def add(a: Cipher, b, ring: RingParams) -> Cipher:
    """a + b mod the ring; b may be a Cipher or plaintext scalar/vector."""
    bv, bd, bc = _coerce(a, b, ring.modulus)
    depth = max(a.depth, bd)
    out = Cipher((a._values + bv) % ring.modulus, depth, a.key_id)
    _note(depth, adds=out.size if bc else 0)
    return out


def sub(a: Cipher, b, ring: RingParams) -> Cipher:
    bv, bd, bc = _coerce(a, b, ring.modulus)
    depth = max(a.depth, bd)
    out = Cipher((a._values - bv) % ring.modulus, depth, a.key_id)
    _note(depth, adds=out.size if bc else 0)
    return out


def rsub(b, a: Cipher, ring: RingParams) -> Cipher:
    """Plaintext-minus-cipher, free (scalar mult by -1 plus add)."""
    bv = _plain(b, ring.modulus)
    out = Cipher((bv - a._values) % ring.modulus, a.depth, a.key_id)
    _note(a.depth)
    return out


def mul(a: Cipher, b, ring: RingParams) -> Cipher:
    """a * b mod the ring.

    Cipher-by-cipher products cost one mult gate per slot and one depth
    level; plaintext-scalar products are free.
    """
    bv, bd, bc = _coerce(a, b, ring.modulus)
    vals = (a._values * bv) % ring.modulus
    if bc:
        depth = max(a.depth, bd) + 1
        out = Cipher(vals, depth, a.key_id)
        _note(depth, mults=out.size)
    else:
        out = Cipher(vals, a.depth, a.key_id)
        _note(a.depth)
    return out


def slot_sum(c: Cipher, ring: RingParams, segments: int = 1) -> Cipher:
    """Sum each of `segments` equal runs of slots into one slot, giving a
    segments-slot cipher (rotations, masks and adds, free)."""
    if c.size % segments:
        raise BackendError("slots do not split into equal segments")
    vals = c._values.reshape(segments, -1).sum(axis=1) % ring.modulus
    out = Cipher(vals, c.depth, c.key_id)
    _note(c.depth)
    return out


def broadcast(c: Cipher, nslots: int, ring: RingParams) -> Cipher:
    """Replicate each slot of c over a run of nslots / c.size consecutive
    slots (free); a single-slot cipher fills all nslots."""
    if c.size == nslots:
        return c
    if nslots % c.size:
        raise BackendError("can only broadcast into a multiple of the slots")
    out = Cipher(np.repeat(c._values, nslots // c.size), c.depth, c.key_id)
    _note(c.depth)
    return out


def pack(ciphers: list, ring: RingParams) -> Cipher:
    """Concatenate the slots of ciphers into one packed cipher (free);
    [c] * r tiles c r times."""
    if len(ciphers) == 1:
        return ciphers[0]
    key_id = ciphers[0].key_id
    if any(c.key_id != key_id for c in ciphers):
        raise KeyMismatchError("cannot pack ciphers under different keys")
    vals = np.concatenate([c._values for c in ciphers])
    depth = max(c.depth for c in ciphers)
    out = Cipher(vals, depth, key_id)
    _note(depth)
    return out


def unpack(c: Cipher) -> list:
    """One single-slot cipher per slot of c (free), the inverse of pack."""
    _note(c.depth)
    return [Cipher(c._values[i:i + 1], c.depth, c.key_id)
            for i in range(c.size)]


def table_lookup(c: Cipher, values: np.ndarray, mults: int, adds: int,
                 depth: int) -> Cipher:
    """Slot-wise values[c], charged as the circuit that evaluates it.

    values holds a function over all of Z_P (a table's values); mults and
    adds are that circuit's gates per slot and depth its output depth,
    which is also the deepest level it reaches.
    """
    out = Cipher(values[c._values], depth, c.key_id)
    _note(depth, mults * out.size, adds * out.size)
    return out


def linear_combine(ciphers: list, weights: np.ndarray, ring: RingParams) -> list:
    """Plaintext linear combinations sum_j weights[i, j] * ciphers[j].

    All scalar multiplications and additions, hence free of mult gates and
    depth.  Every input must share slot count and key.
    """
    key_id = ciphers[0].key_id
    if any(c.key_id != key_id for c in ciphers):
        raise KeyMismatchError("operands bound to different keys")
    depth = max(c.depth for c in ciphers)
    stack = np.stack([c._values for c in ciphers])  # (j, slots)
    w = np.asarray(weights, dtype=np.int64) % ring.modulus
    vals = (w @ stack) % ring.modulus  # (i, slots)
    _note(depth)
    return [Cipher(row.copy(), depth, key_id) for row in vals]
