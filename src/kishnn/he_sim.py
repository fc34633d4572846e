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
import operator
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .ring import ParameterError, RingParams

# Every slot bound must stay below this for the int64 slots to be exact.
_INT64 = 2 ** 63


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


class Cipher:
    """Simulated ciphertext: hidden slot values + depth tag + key binding.

    The slot values are deliberately private; evaluator-side code must go
    through add/mul/slot ops and can only learn values via decrypt.  They
    are reduced lazily: a _bound of None means every slot lies in [0, P),
    otherwise every slot v has |v| <= _bound and is read mod P.  _powers
    is the record of the cipher this one is an image of (share_powers).
    """

    __slots__ = ("_values", "depth", "key_id", "_bound", "_powers")

    def __init__(self, values: np.ndarray, depth: int, key_id: int,
                 bound: int | None = None, powers=None):
        self._values = values
        self.depth = depth
        self.key_id = key_id
        self._bound = bound
        self._powers = powers

    @property
    def size(self) -> int:
        return int(self._values.size)

    def __repr__(self):
        return f"Cipher(slots={self.size}, depth={self.depth})"


@dataclass
class EvalMetrics:
    """Gate counters for one metered evaluation scope.

    mult_gates and add_gates count non-scalar products and cipher-by-cipher
    additions once per slot.  cipher_mults counts ciphertext
    multiplications as packed HE pays them: one per non-scalar mul,
    whatever its slot count, plus each table evaluation's products,
    plus its baby- and giant-step powers when it pays for them (not when
    it reads powers that another table paid, SharedPowers).
    slot_moves counts one per broadcast, slot_sum, pack or split that
    moves slots: a broadcast into more slots, a sum of runs longer than
    one slot, a pack of two or more ciphers, a split into two or more
    parts.  How many rotations a move takes is left to the backend.
    """

    mult_gates: int = 0
    add_gates: int = 0
    max_depth: int = 0
    decrypt_calls: int = 0
    wall_time: float = 0.0
    cipher_mults: int = 0
    slot_moves: int = 0


class _Scopes(threading.local):
    """This thread's stack of open metering scopes, innermost last."""

    def __init__(self):
        self.stack = []


_scopes = _Scopes()


def _note(depth: int, mults: int = 0, adds: int = 0, ciphers: int = 0,
          moves: int = 0) -> None:
    """Charge gates reaching depth, ciphertext mults and slot moves to
    this thread's innermost open scope; a bool counts as 0 or 1."""
    stack = _scopes.stack
    if stack:
        m = stack[-1]
        m.mult_gates += mults
        m.add_gates += adds
        m.cipher_mults += ciphers
        m.slot_moves += moves
        if depth > m.max_depth:
            m.max_depth = depth


@contextmanager
def metering():
    """Context manager collecting gate metrics.

    Scopes are thread-local.  An operation notes its gates into the
    innermost open scope only; a scope adds its totals (gates, ciphertext
    mults, slot moves, decrypts, max depth) into the enclosing one when
    it closes, so nested scopes roll up, also when the body raises.
    wall_time is each scope's own.
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
            _note(m.max_depth, m.mult_gates, m.add_gates, m.cipher_mults,
                  m.slot_moves)


def keygen(ring: RingParams, seed: int) -> KeyPair:
    """Deterministic mock key generation; distinct seeds, distinct keys."""
    if (ring.modulus - 1) ** 2 >= 2 ** 63:
        raise BackendError(f"modulus {ring.modulus}: products of residues "
                           "would wrap in the int64 slots")
    h = hashlib.blake2b(f"kishnn-key:{seed}:{ring.modulus}".encode(),
                        digest_size=8)
    key_id = int.from_bytes(h.digest(), "little")
    return KeyPair(pk=PublicKey(key_id, ring.modulus),
                   sk=SecretKey(key_id, ring.modulus))


def _mod(v: np.ndarray, modulus: int) -> np.ndarray:
    """v mod modulus into a fresh array in [0, modulus): the one reduction
    of vector slots."""
    return v % modulus


def _mag(bound, modulus: int) -> int:
    """The largest |v| of slots with this _bound: modulus - 1 if reduced."""
    return modulus - 1 if bound is None else bound


def _canonical(v, bound, modulus: int):
    """v with unreduced vector slots brought into [0, modulus); a Python int
    operand is a signed residue and stays as it is."""
    return v if bound is None or isinstance(v, int) else _mod(v, modulus)


def _as_slots(values) -> np.ndarray:
    a = np.atleast_1d(np.asarray(values, dtype=np.int64))
    if a.ndim != 1:
        raise BackendError("slots must be one-dimensional")
    return a


def encrypt(pk: PublicKey, m) -> Cipher:
    """Encrypt one reduced ring element (or a packed vector of them)."""
    if isinstance(m, int) and 0 <= m < pk.modulus:  # a query coordinate
        return Cipher(np.array([m], dtype=np.int64), 0, pk.key_id)
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
    v = _canonical(c._values, c._bound, sk.modulus)
    if v.size == 1:
        return int(v[0])
    return [int(x) for x in v]


def _magnitude(v: np.ndarray) -> int:
    return max(-int(v.min()), int(v.max())) if v.size else 0


def embed_like(c: Cipher, values) -> Cipher:
    """Plaintext constant carried as a depth-0 ciphertext (free)."""
    a = _as_slots(values)
    out = Cipher(a.copy(), 0, c.key_id, _magnitude(a))
    _note(0)
    return out


class Plain:
    """A plaintext vector operand whose magnitude is found once.

    It holds a private read-only int64 copy of its slots, so writes to the
    source change neither its values nor its bound, and an op reads the
    bound instead of scanning the slots again.
    """

    __slots__ = ("values", "bound")

    def __init__(self, values):
        a = _as_slots(values).copy()
        a.flags.writeable = False
        self.values, self.bound = a, _magnitude(a)

    @classmethod
    def _bounded(cls, values: np.ndarray, bound: int) -> "Plain":
        """A Plain of a fresh int64 array, made read-only here, whose
        bound its construction proves, so it is not scanned."""
        out = cls.__new__(cls)
        values.flags.writeable = False
        out.values, out.bound = values, bound
        return out

    @property
    def size(self) -> int:
        return int(self.values.size)

    def tile(self, reps: int) -> "Plain":
        """The slots repeated reps times end to end, with the same bound."""
        if reps == 1:
            return self
        return Plain._bounded(np.tile(self.values, reps), self.bound)


def _operands(a: Cipher, b, modulus: int, product: bool) -> tuple:
    """(a values, b values, result bound, b depth, b is a cipher) of a
    binary op whose result is bounded by |a| * |b| if product, else by
    |a| + |b|.  A plaintext b is a Python int, read as its signed residue,
    or a vector (a Plain, or anything else wrapped in one), read as it is
    while its magnitude stays below the modulus and reduced into
    [0, modulus) otherwise.  The operands are reduced first only when the
    result bound would not fit in int64."""
    if isinstance(b, Cipher):
        if b.key_id != a.key_id:
            raise KeyMismatchError("operands bound to different keys")
        bv, bb, bd, bc = b._values, b._bound, b.depth, True
    else:
        bd, bc = 0, False
        if isinstance(b, int):
            bv = b % modulus
            if bv > modulus // 2:
                bv -= modulus
            bb = abs(bv)
        else:
            if not isinstance(b, Plain):
                b = Plain(b)
            bv, bb = b.values, b.bound
            if bb >= modulus:
                bv, bb = _mod(bv, modulus), None
    av, ab = a._values, a._bound
    am = modulus - 1 if ab is None else ab
    bm = modulus - 1 if bb is None else bb
    bound = am * bm if product else am + bm
    if bound >= _INT64:  # below 2^63 again, as keygen checked (P - 1)^2
        av, bv = _canonical(av, ab, modulus), _canonical(bv, bb, modulus)
        bound = (modulus - 1) ** 2 if product else 2 * (modulus - 1)
    return av, bv, bound, bd, bc


def add(a: Cipher, b, ring: RingParams) -> Cipher:
    """a + b mod the ring; b may be a Cipher or plaintext scalar/vector."""
    av, bv, bound, bd, bc = _operands(a, b, ring.modulus, False)
    depth = max(a.depth, bd)
    v = av + bv
    _note(depth, 0, v.size if bc else 0)
    return Cipher(v, depth, a.key_id, bound, None if bc else a._powers)


def sub(a: Cipher, b, ring: RingParams) -> Cipher:
    av, bv, bound, bd, bc = _operands(a, b, ring.modulus, False)
    depth = max(a.depth, bd)
    v = av - bv
    _note(depth, 0, v.size if bc else 0)
    return Cipher(v, depth, a.key_id, bound, None if bc else a._powers)


def rsub(b, a: Cipher, ring: RingParams) -> Cipher:
    """Plaintext-minus-cipher, free (scalar mult by -1 plus add)."""
    if isinstance(b, Cipher):
        raise BackendError("rsub takes a plaintext minuend")
    av, bv, bound, _, _ = _operands(a, b, ring.modulus, False)
    _note(a.depth)
    return Cipher(bv - av, a.depth, a.key_id, bound, a._powers)


def mul(a: Cipher, b, ring: RingParams) -> Cipher:
    """a * b mod the ring.

    Cipher-by-cipher products cost one mult gate per slot, one ciphertext
    mult and one depth level; plaintext-scalar products are free.
    """
    av, bv, bound, bd, bc = _operands(a, b, ring.modulus, True)
    depth = max(a.depth, bd) + 1 if bc else a.depth
    v = av * bv
    _note(depth, v.size if bc else 0, 0, bc)
    return Cipher(v, depth, a.key_id, bound)


def slot_sum(c: Cipher, ring: RingParams, segments: int = 1) -> Cipher:
    """Sum each of `segments` equal runs of slots into one slot, giving a
    segments-slot cipher (rotations, masks and adds, free)."""
    v, bound = c._values, c._bound
    if v.size % segments:
        raise BackendError("slots do not split into equal segments")
    p, run = ring.modulus, v.size // segments
    mag = p - 1 if bound is None else bound
    if run * mag >= _INT64:
        v, mag = _canonical(v, bound, p), p - 1
    vals = np.add.reduce(v.reshape(segments, -1), axis=1)
    _note(c.depth, 0, 0, 0, run > 1)
    return Cipher(vals, c.depth, c.key_id, run * mag)


def broadcast(c: Cipher, nslots: int) -> Cipher:
    """Replicate each slot of c over a run of nslots / c.size consecutive
    slots (free); a single-slot cipher fills all nslots."""
    size = c._values.size
    if size == nslots:
        return c
    if nslots % size:
        raise BackendError("can only broadcast into a multiple of the slots")
    out = Cipher(c._values.repeat(nslots // size), c.depth, c.key_id,
                 c._bound, c._powers)
    _note(c.depth, 0, 0, 0, 1)
    return out


def pack(ciphers: list, ring: RingParams) -> Cipher:
    """Concatenate the slots of ciphers into one packed cipher (free);
    [c] * r tiles c r times.  The result carries the parts' powers record
    if they all carry the same one."""
    if len(ciphers) == 1:
        return ciphers[0]
    key_id, depth, bound, reduced = ciphers[0].key_id, 0, 0, True
    powers = ciphers[0]._powers
    for c in ciphers:
        if c.key_id != key_id:
            raise KeyMismatchError("cannot pack ciphers under different keys")
        depth = max(depth, c.depth)
        bound = max(bound, _mag(c._bound, ring.modulus))
        reduced = reduced and c._bound is None
        powers = powers if c._powers is powers else None
    vals = np.concatenate([c._values for c in ciphers])
    out = Cipher(vals, depth, key_id, None if reduced else bound, powers)
    _note(depth, 0, 0, 0, 1)
    return out


def split(c: Cipher, parts: int) -> list:
    """c cut into `parts` equal runs of consecutive slots, one cipher each
    (free), the inverse of packing `parts` ciphers of one size;
    split(c, c.size) gives one single-slot cipher per slot."""
    v = c._values
    if v.size % parts:
        raise BackendError("slots do not split into equal runs")
    _note(c.depth, 0, 0, 0, parts > 1)
    return [Cipher(run, c.depth, c.key_id, c._bound)
            for run in v.reshape(parts, -1)]


@dataclass(slots=True, eq=False)
class SharedPowers:
    """The cost of the baby- and giant-step powers of one cipher u, paid
    once for every table evaluated on a plaintext shift or layout of u:
    u's slot count, its span (every slot lies in [0, span)) if known, the
    number of tables that read it, for which interp picks their split,
    and the split of the table that claimed them."""

    slots: int
    span: int | None = None
    tables: int = 1
    split: tuple | None = None

    def charge(self, split, mults: int, size: int) -> int:
        """Mult gates of the powers that a table of this split, needing
        mults of them per slot, reads on an image of u of size slots: the
        powers on u's slots if it is the first table, none if it shares
        the claimed split, and its own on the image's slots otherwise."""
        if self.split is None:
            self.split = split
            return mults * self.slots
        return 0 if split == self.split else mults * size


def share_powers(c: Cipher, span: int | None = None,
                 tables: int = 1) -> Cipher:
    """c, the same slots, depth, key and bound, with a fresh record of its
    powers, which its plaintext shifts and layouts carry: add, sub and
    rsub of a plaintext, broadcast, and pack of images of one record.
    With a span, every slot as held (read as unsigned, so a negative one
    is huge) must lie in [0, span), else ParameterError; tables on the
    record's images are then charged at degree <= span - 1 (interp).
    tables, an integer >= 1 (else ParameterError), is how many tables
    the caller evaluates on the record's images: interp charges them the
    split that is cheapest for them all."""
    try:  # numpy's ints too; 2.5 or "3" is refused, not truncated
        tables = operator.index(tables)
    except TypeError:
        raise ParameterError("tables must be an integer") from None
    if tables < 1:
        raise ParameterError("tables must be at least 1")
    if span is not None and c._values.view(np.uint64).max() >= span:
        raise ParameterError(f"a slot lies outside [0, {span})")
    return Cipher(c._values, c.depth, c.key_id, c._bound,
                  SharedPowers(c.size, span, tables))


def table_lookup(c: Cipher, values: np.ndarray, split, powers: int,
                 mults: int, adds: int, depth: int) -> Cipher:
    """Slot-wise values[c], charged as the baby-step/giant-step circuit
    that evaluates it (interp.ps_cost).

    values holds a function over all of Z_P (each in [0, P)); split,
    powers, mults, adds and depth are the schedule's split, power gates,
    products and cipher adds per slot, and output depth, its deepest
    level.  The powers are paid on c's slots, or as the record c
    carries charges them; in ciphertext mults a table pays its products,
    and its powers when it pays their gates.  numpy reads every index v
    in [-P, P) as v mod P, so slots are reduced only when one lies
    outside, which numpy's own index check reports.
    """
    try:
        looked_up = values[c._values]
    except IndexError:
        looked_up = values[_mod(c._values, values.size)]
    size, shared = looked_up.size, c._powers
    once = (powers * size if shared is None
            else shared.charge(split, powers, size))
    _note(depth, mults * size + once, adds * size,
          mults + (powers if once else 0))
    return Cipher(looked_up, depth, c.key_id)


def linear_combine(ciphers: list, weights: np.ndarray, ring: RingParams) -> list:
    """Plaintext linear combinations sum_j weights[i, j] * ciphers[j].

    All scalar multiplications and additions, hence free of mult gates and
    depth.  Every input must share slot count and key.
    """
    key_id = ciphers[0].key_id
    if any(c.key_id != key_id for c in ciphers):
        raise KeyMismatchError("operands bound to different keys")
    depth = max(c.depth for c in ciphers)
    w = np.asarray(weights, dtype=np.int64) % ring.modulus
    vals = np.zeros((len(w), ciphers[0].size), dtype=np.int64)  # (i, slots)
    for wj, c in zip(w.T, ciphers):
        # reduced after every term, so each sum stays below P^2 < 2^63
        vals += np.outer(wj, _canonical(c._values, c._bound, ring.modulus))
        vals %= ring.modulus
    _note(depth)
    return [Cipher(row.copy(), depth, key_id) for row in vals]
