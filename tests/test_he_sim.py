import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kishnn import he_sim, interp
from kishnn.he_sim import BackendError, KeyMismatchError
from kishnn.ring import (ParameterError, RingParams, is_prime,
                         select_ring_params)


def _largest_keyed_prime() -> int:
    edge = 3_037_000_500  # (P - 1)^2 < 2^63 exactly when P <= this
    while not is_prime(edge):
        edge -= 1
    return edge


_KEYED_EDGE = _largest_keyed_prime()


@pytest.fixture(scope="module")
def ring():
    return select_ring_params(6, dim=2, n=20)  # modulus 23


@pytest.fixture()
def keys(ring):
    return he_sim.keygen(ring, seed=1)


def test_encrypt_decrypt_round_trip(ring, keys):
    for v in (0, 1, 11, 22):
        assert he_sim.decrypt(keys.sk, he_sim.encrypt(keys.pk, v)) == v


def test_encrypt_rejects_unreduced(ring, keys):
    with pytest.raises(BackendError):
        he_sim.encrypt(keys.pk, 23)
    with pytest.raises(BackendError):
        he_sim.encrypt(keys.pk, -1)


def test_packed_round_trip(ring, keys):
    vec = [3, 0, 22, 7]
    assert he_sim.decrypt(keys.sk, he_sim.encrypt(keys.pk, vec)) == vec


def test_decrypt_needs_matching_key(ring, keys):
    other = he_sim.keygen(ring, seed=2)
    c = he_sim.encrypt(keys.pk, 5)
    with pytest.raises(KeyMismatchError):
        he_sim.decrypt(other.sk, c)


def test_keygen_deterministic_and_distinct(ring):
    assert he_sim.keygen(ring, 7).pk.key_id == he_sim.keygen(ring, 7).pk.key_id
    assert he_sim.keygen(ring, 7).pk.key_id != he_sim.keygen(ring, 8).pk.key_id


def test_cipher_hides_its_payload(ring, keys):
    c = he_sim.encrypt(keys.pk, 13)
    assert "13" not in repr(c)
    # the public surface carries only metadata
    public = [a for a in dir(c) if not a.startswith("_")]
    assert set(public) <= {"depth", "key_id", "size"}


def test_evaluator_api_never_returns_plaintext(ring):
    # every operation that consumes ciphertexts yields ciphertexts; the
    # only exit to plaintext is decrypt, which demands the secret key.
    keys = he_sim.keygen(ring, 3)
    c = he_sim.encrypt(keys.pk, 9)
    results = [
        he_sim.add(c, c, ring), he_sim.sub(c, 4, ring),
        he_sim.rsub(4, c, ring), he_sim.mul(c, c, ring),
        he_sim.mul(c, 3, ring), he_sim.slot_sum(c, ring),
        he_sim.broadcast(c, 5), he_sim.embed_like(c, 1),
        he_sim.pack([c, c], ring),
    ]
    results += he_sim.split(he_sim.pack([c, c], ring), 2)
    results += he_sim.linear_combine([c, c], np.array([[1, 2]]), ring)
    assert all(isinstance(r, he_sim.Cipher) for r in results)


def test_rsub_refuses_a_cipher_minuend(ring, keys):
    c = he_sim.encrypt(keys.pk, 3)
    with pytest.raises(BackendError):
        he_sim.rsub(c, c, ring)


def test_mixed_key_operands_rejected(ring, keys):
    other = he_sim.keygen(ring, 9)
    a = he_sim.encrypt(keys.pk, 1)
    b = he_sim.encrypt(other.pk, 2)
    with pytest.raises(KeyMismatchError):
        he_sim.add(a, b, ring)
    with pytest.raises(KeyMismatchError):
        he_sim.mul(a, b, ring)


@given(st.integers(0, 22), st.integers(0, 22))
@settings(max_examples=60, deadline=None)
def test_ring_arithmetic_matches_modular_oracle(a, b):
    ring = select_ring_params(6, dim=2, n=20)
    keys = he_sim.keygen(ring, 5)
    ca, cb = he_sim.encrypt(keys.pk, a), he_sim.encrypt(keys.pk, b)
    assert he_sim.decrypt(keys.sk, he_sim.add(ca, cb, ring)) == (a + b) % 23
    assert he_sim.decrypt(keys.sk, he_sim.sub(ca, cb, ring)) == (a - b) % 23
    assert he_sim.decrypt(keys.sk, he_sim.mul(ca, cb, ring)) == (a * b) % 23
    assert he_sim.decrypt(keys.sk, he_sim.rsub(b, ca, ring)) == (b - a) % 23


_INT64_EDGES = (-2**63, 2**63 - 1)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_slot_ops_match_a_mod_oracle_at_every_width(data):
    # narrow and wide ciphers must give Python's residues for every
    # operand kind, int64 plaintexts at the edges included, and leave
    # every operand as it was
    ring = select_ring_params(250, dim=2, n=569)
    p = ring.modulus
    keys = he_sim.keygen(ring, 5)
    n = data.draw(st.sampled_from([1, 568, 1537]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, p, size=n)
    b = rng.integers(0, p, size=n)
    vec = rng.integers(-2**63, 2**63 - 1, size=n, endpoint=True)
    small = rng.random(n) < 0.5
    vec[small] = rng.integers(-3 * p, 3 * p, size=int(small.sum()))
    vec[:3] = (*_INT64_EDGES, -p)[:n]
    scalar = data.draw(st.sampled_from((*_INT64_EDGES, -p, p, 0))
                       | st.integers(-2**70, 2**70))
    vec_before = vec.copy()
    ca, cb = he_sim.encrypt(keys.pk, a), he_sim.encrypt(keys.pk, b)
    a_vals, b_vals = ca._values, cb._values

    def check(out, ys, oracle):
        want = [oracle(int(x), int(y)) % p for x, y in zip(a, ys)]
        assert he_sim.decrypt(keys.sk, out) == (want if n > 1 else want[0])
        assert not np.shares_memory(out._values, vec)

    for other, ys in ((cb, b), (vec, vec), (scalar, [scalar] * n)):
        check(he_sim.add(ca, other, ring), ys, lambda x, y: x + y)
        check(he_sim.sub(ca, other, ring), ys, lambda x, y: x - y)
        check(he_sim.mul(ca, other, ring), ys, lambda x, y: x * y)
        if other is not cb:  # rsub takes a plaintext minuend
            check(he_sim.rsub(other, ca, ring), ys, lambda x, y: y - x)
    pair_sums = he_sim.slot_sum(he_sim.pack([ca, cb], ring), ring, n)
    expect = [int(s) % p for s in np.concatenate([a, b]).reshape(n, 2).sum(1)]
    assert he_sim.decrypt(keys.sk, pair_sums) == (expect if n > 1
                                                  else expect[0])
    assert ca._values is a_vals and cb._values is b_vals
    assert (a_vals == a).all() and (b_vals == b).all()
    assert (vec == vec_before).all()


def test_keygen_refuses_a_ring_whose_products_wrap_int64():
    # at modulus 2^63 - 25, mul(P - 2, 3) wrapped in the int64 slots and
    # decrypted to a wrong residue; the largest prime with (P - 1)^2 below
    # 2^63 still gets keys, and its products are exact
    def ring_of(m):
        return RingParams(modulus=m, coord_bound=2, dim=1, n=1)

    with pytest.raises(BackendError):
        he_sim.keygen(ring_of(2**63 - 25), 0)
    edge = _KEYED_EDGE
    above = 3_037_000_501
    while not is_prime(above):
        above += 1
    with pytest.raises(BackendError):
        he_sim.keygen(ring_of(above), 0)
    ring = ring_of(edge)
    keys = he_sim.keygen(ring, 0)
    c = he_sim.encrypt(keys.pk, [edge - 1, edge - 2])
    assert he_sim.decrypt(keys.sk, he_sim.mul(c, c, ring)) == [1, 4]
    assert he_sim.decrypt(keys.sk, he_sim.add(c, c, ring)) == [edge - 2,
                                                               edge - 4]


def test_depth_bookkeeping(ring, keys):
    c = he_sim.encrypt(keys.pk, 2)
    assert c.depth == 0
    assert he_sim.add(c, c, ring).depth == 0
    assert he_sim.mul(c, 5, ring).depth == 0  # plaintext mults are free
    d1 = he_sim.mul(c, c, ring)
    assert d1.depth == 1
    assert he_sim.mul(d1, c, ring).depth == 2
    assert he_sim.mul(d1, d1, ring).depth == 2
    assert he_sim.add(d1, c, ring).depth == 1


def test_metering_counts_nonscalar_mults_per_slot(ring, keys):
    vec = he_sim.encrypt(keys.pk, [1, 2, 3, 4])
    with he_sim.metering() as m:
        he_sim.mul(vec, vec, ring)      # 4 slots -> 4 gates
        he_sim.mul(vec, 7, ring)        # free
        he_sim.add(vec, vec, ring)      # free addition, counted separately
    assert m.mult_gates == 4
    assert m.add_gates == 4
    assert m.max_depth == 1
    assert m.decrypt_calls == 0


def test_metering_counts_cipher_mults_and_slot_moves(ring, keys):
    one, vec = he_sim.encrypt(keys.pk, 2), he_sim.encrypt(keys.pk, [1, 2])
    with he_sim.metering() as outer:
        with he_sim.metering() as m:
            he_sim.mul(vec, vec, ring)             # 1 cipher mult, 2 gates
            he_sim.mul(one, one, ring)             # 1 cipher mult, 1 gate
            he_sim.mul(vec, 3, ring)               # scalar: none
            wide = he_sim.broadcast(vec, 6)        # moves
            he_sim.broadcast(wide, 6)              # already 6 slots: none
            he_sim.pack([vec, vec], ring)          # moves
            he_sim.pack([vec], ring)               # one cipher: none
            he_sim.slot_sum(wide, ring, 2)         # runs of 3: moves
            he_sim.slot_sum(wide, ring, 6)         # runs of 1: none
            he_sim.split(wide, 3)                  # moves
            he_sim.split(wide, 1)                  # one part: none
            # a table of 5 block products, with and without its 7 powers
            shared = he_sim.share_powers(vec)
            he_sim.table_lookup(shared, np.zeros(23, np.int64), (4, 6), 7,
                                5, 5, 4)
            he_sim.table_lookup(shared, np.zeros(23, np.int64), (4, 6), 7,
                                5, 5, 4)
    assert (m.mult_gates, m.cipher_mults, m.slot_moves) == (37, 19, 4)
    assert (outer.cipher_mults, outer.slot_moves) == (19, 4)


TABLE, SPLIT, POWERS, BLOCKS = np.zeros(23, np.int64), (4, 6), 7, 5


def _lookup(x, split=SPLIT):
    """(mult gates, cipher mults) of a table of 7 powers and 5 block
    products per slot on x."""
    with he_sim.metering() as m:
        he_sim.table_lookup(x, TABLE, split, POWERS, BLOCKS, BLOCKS, 4)
    return m.mult_gates, m.cipher_mults


# Each op on u, which carries a powers record, and o, which does not, and
# whether its result keeps u's record: a plaintext shift or layout of u
# does, and nothing else.
RECORD_OPS = {
    "add a plaintext": (True, lambda u, o, r: he_sim.add(u, [4, 9], r)),
    "sub a plaintext": (True, lambda u, o, r: he_sim.sub(u, 3, r)),
    "rsub from a plaintext": (True, lambda u, o, r: he_sim.rsub(2, u, r)),
    "broadcast": (True, lambda u, o, r: he_sim.broadcast(u, 6)),
    "pack images of u": (True, lambda u, o, r: he_sim.pack(
        [u, he_sim.add(u, 5, r), he_sim.broadcast(u, 4)], r)),
    "add a cipher": (False, lambda u, o, r: he_sim.add(u, o, r)),
    "sub a cipher": (False, lambda u, o, r: he_sim.sub(u, o, r)),
    "mul a cipher": (False, lambda u, o, r: he_sim.mul(u, o, r)),
    "mul a plaintext": (False, lambda u, o, r: he_sim.mul(u, 3, r)),
    "slot_sum": (False, lambda u, o, r: he_sim.slot_sum(u, r)),
    "split": (False, lambda u, o, r: he_sim.split(u, 2)[0]),
    "table_lookup": (False, lambda u, o, r: he_sim.table_lookup(
        u, TABLE, SPLIT, POWERS, BLOCKS, BLOCKS, 4)),
    "pack with a cipher": (False, lambda u, o, r: he_sim.pack([u, o], r)),
    "pack with another record": (False, lambda u, o, r: he_sim.pack(
        [u, he_sim.share_powers(o)], r)),
}


@pytest.mark.parametrize("op", list(RECORD_OPS))
def test_a_powers_record_travels_with_plaintext_shifts_and_layouts(ring, keys,
                                                                    op):
    # once u's powers are claimed, a table of the same split on an image
    # of u pays only its block products; on anything else, its powers too
    keeps, make = RECORD_OPS[op]
    u = he_sim.share_powers(he_sim.encrypt(keys.pk, [3, 5]))
    _lookup(u)
    x = make(u, he_sim.encrypt(keys.pk, [7, 11]), ring)
    blocks = BLOCKS * x.size
    assert _lookup(x) == ((blocks, BLOCKS) if keeps else
                          (blocks + POWERS * x.size, BLOCKS + POWERS))


def test_a_record_charges_its_powers_on_u_once_per_split(ring, keys):
    # the first table pays the powers on u's 2 slots, a later one of the
    # same split none, and one of another split its own on all 6 slots
    wide = he_sim.broadcast(
        he_sim.share_powers(he_sim.encrypt(keys.pk, [3, 5])), 6)
    assert [_lookup(wide, split) for split in (SPLIT, SPLIT, (3, 3))] == [
        (7 * 2 + 5 * 6, 12), (5 * 6, 5), (7 * 6 + 5 * 6, 12)]


def test_share_powers_attaches_a_fresh_record_for_free(ring, keys):
    c = he_sim.add(he_sim.encrypt(keys.pk, [3, 22]), [20, 1], ring)
    c.depth = 3
    with he_sim.metering() as m:
        u = he_sim.share_powers(c)
    assert (m.mult_gates, m.add_gates, m.cipher_mults, m.slot_moves,
            m.max_depth) == (0, 0, 0, 0, 0)
    assert (u.size, u.depth, u.key_id, u._bound) == (2, 3, c.key_id,
                                                     c._bound)
    assert he_sim.decrypt(keys.sk, u) == he_sim.decrypt(keys.sk, c) == [0, 0]
    assert _lookup(c) == _lookup(c) == (24, 12)  # c itself carries none
    assert _lookup(u) == (24, 12) and _lookup(u) == (10, 5)
    assert _lookup(he_sim.share_powers(u)) == (24, 12)


def test_share_powers_refuses_a_slot_outside_its_span(ring, keys):
    # every slot must lie in [0, span): the record then carries the span;
    # a slot at the span, at -1 (P - 1 read mod P, held unreduced) or at
    # P - 1 is refused, and so is an unreduced slot held at P + 1 although
    # it reads as 1: the check reads the slots as they are held
    c = he_sim.encrypt(keys.pk, [0, 6, 3])
    with he_sim.metering() as m:
        u = he_sim.share_powers(c, 7)
    assert (m.mult_gates, m.cipher_mults, m.max_depth) == (0, 0, 0)
    assert (u._powers.span, u._powers.slots) == (7, 3)
    assert he_sim.share_powers(c)._powers.span is None
    minus_one = he_sim.sub(he_sim.encrypt(keys.pk, [0, 2]), 1, ring)
    above = he_sim.add(he_sim.encrypt(keys.pk, [22, 0]), 2, ring)
    assert he_sim.decrypt(keys.sk, minus_one) == [22, 1]
    assert he_sim.decrypt(keys.sk, above) == [1, 2]
    for bad in (he_sim.encrypt(keys.pk, [0, 7]), minus_one,
                he_sim.encrypt(keys.pk, [22, 0]), above):
        with pytest.raises(ParameterError, match=r"outside \[0, 7\)"):
            he_sim.share_powers(bad, 7)


def test_share_powers_takes_a_positive_integer_count_of_tables(keys):
    # numpy's ints and bools are read as Python ints; 2.5, 3.0, "3", None
    # and counts below 1 are refused, not truncated or parsed
    c = he_sim.encrypt(keys.pk, [0, 6, 3])
    assert he_sim.share_powers(c)._powers.tables == 1
    for count, tables in ((3, 3), (np.int64(2), 2), (True, 1)):
        record = he_sim.share_powers(c, 7, count)._powers
        assert (record.tables, type(record.tables), record.span) == (
            tables, int, 7)
    for bad in (2.5, 3.0, "3", None, np.float64(2.0)):
        with pytest.raises(ParameterError, match="must be an integer"):
            he_sim.share_powers(c, tables=bad)
    for bad in (0, -1, np.int64(0)):
        with pytest.raises(ParameterError, match="at least 1"):
            he_sim.share_powers(c, tables=bad)


def test_metering_notes_decrypts_and_nests(ring, keys):
    c = he_sim.encrypt(keys.pk, 3)
    with he_sim.metering() as outer:
        he_sim.mul(c, c, ring)
        with he_sim.metering() as inner:
            he_sim.mul(c, c, ring)
            he_sim.decrypt(keys.sk, c)
    assert inner.mult_gates == 1 and inner.decrypt_calls == 1
    assert outer.mult_gates == 2 and outer.decrypt_calls == 1
    assert outer.wall_time >= inner.wall_time >= 0


def test_metering_rolls_three_nested_scopes_up_on_exit(ring, keys):
    c = he_sim.encrypt(keys.pk, 3)
    d2 = he_sim.mul(he_sim.mul(c, c, ring), c, ring)  # depth 2, unmetered
    with he_sim.metering() as outer:
        he_sim.mul(c, c, ring)                       # 1 gate at depth 1
        with he_sim.metering() as middle:
            he_sim.add(c, c, ring)                   # 1 add gate
            with he_sim.metering() as inner:
                he_sim.mul(d2, c, ring)              # 1 gate at depth 3
                he_sim.decrypt(keys.sk, c)
            he_sim.mul(c, c, ring)
        assert (middle.mult_gates, middle.add_gates) == (2, 1)
    assert (inner.mult_gates, inner.add_gates, inner.max_depth,
            inner.decrypt_calls) == (1, 0, 3, 1)
    assert (middle.mult_gates, middle.add_gates, middle.max_depth,
            middle.decrypt_calls) == (2, 1, 3, 1)
    assert (outer.mult_gates, outer.add_gates, outer.max_depth,
            outer.decrypt_calls) == (3, 1, 3, 1)


def test_metering_rolls_up_a_scope_that_raised(ring, keys):
    c = he_sim.encrypt(keys.pk, 3)
    with he_sim.metering() as outer:
        with pytest.raises(KeyMismatchError):
            with he_sim.metering() as inner:
                d = he_sim.mul(c, c, ring)
                he_sim.mul(d, d, ring)
                he_sim.decrypt(he_sim.keygen(ring, seed=2).sk, c)
    assert inner.mult_gates == 2 and inner.max_depth == 2
    assert outer.mult_gates == 2 and outer.max_depth == 2
    with he_sim.metering() as after:  # the failed scope left the stack
        he_sim.mul(c, c, ring)
    assert after.mult_gates == 1 and outer.mult_gates == 2


def test_metering_is_thread_local(ring, keys):
    c = he_sim.encrypt(keys.pk, 3)
    seen = {}
    started, release = threading.Event(), threading.Event()

    def other_thread():
        with he_sim.metering() as m:
            started.set()
            release.wait(timeout=10)
            he_sim.mul(c, c, ring)
            he_sim.mul(c, c, ring)
        seen["gates"] = m.mult_gates

    t = threading.Thread(target=other_thread)
    with he_sim.metering() as mine:
        t.start()
        assert started.wait(timeout=10)  # both threads have a scope open
        he_sim.mul(c, c, ring)
        release.set()
        t.join(timeout=10)
    assert not t.is_alive()
    assert mine.mult_gates == 1
    assert seen["gates"] == 2


def test_slot_sum_broadcast_pack(ring, keys):
    vec = he_sim.encrypt(keys.pk, [5, 6, 7])
    assert he_sim.decrypt(keys.sk, he_sim.slot_sum(vec, ring)) == 18 % 23
    wide = he_sim.broadcast(he_sim.encrypt(keys.pk, 4), 3)
    assert he_sim.decrypt(keys.sk, wide) == [4, 4, 4]
    packed = he_sim.pack([he_sim.encrypt(keys.pk, 1),
                          he_sim.encrypt(keys.pk, 2)], ring)
    assert he_sim.decrypt(keys.sk, packed) == [1, 2]


def test_segmented_slot_ops(ring, keys):
    # the layout of r repetitions side by side: tile, per-segment sums,
    # per-segment broadcast, split into single slots; all free, depth kept
    vec = he_sim.mul(he_sim.encrypt(keys.pk, [5, 6, 7]),
                     he_sim.encrypt(keys.pk, 1), ring)
    with he_sim.metering() as m:
        tiled = he_sim.pack([vec] * 2, ring)
        sums = he_sim.slot_sum(he_sim.add(tiled, [0, 0, 0, 1, 1, 1], ring),
                               ring, 2)
        spread = he_sim.broadcast(sums, 6)
        parts = he_sim.split(spread, 6)
    assert he_sim.decrypt(keys.sk, tiled) == [5, 6, 7, 5, 6, 7]
    assert he_sim.decrypt(keys.sk, sums) == [18, 21]
    assert he_sim.decrypt(keys.sk, spread) == [18, 18, 18, 21, 21, 21]
    assert [he_sim.decrypt(keys.sk, p) for p in parts] == [18] * 3 + [21] * 3
    assert {p.depth for p in parts + [tiled, sums, spread]} == {1}
    assert m.mult_gates == 0
    with pytest.raises(he_sim.BackendError):
        he_sim.slot_sum(vec, ring, 2)
    with pytest.raises(he_sim.BackendError):
        he_sim.broadcast(sums, 5)


def test_split_cuts_equal_runs_for_free(ring, keys):
    # the runs of a product keep its depth, key and unreduced slots; split
    # is the inverse of pack, also into single slots
    x = he_sim.encrypt(keys.pk, [5, 6, 7, 8, 9, 10])
    prod = he_sim.mul(x, he_sim.encrypt(keys.pk, [22] * 6), ring)
    with he_sim.metering() as m:
        runs = he_sim.split(prod, 3)
    assert [he_sim.decrypt(keys.sk, r) for r in runs] == [
        [5 * 22 % 23, 6 * 22 % 23], [7 * 22 % 23, 8 * 22 % 23],
        [9 * 22 % 23, 10 * 22 % 23]]
    assert {(r.size, r.depth, r.key_id) for r in runs} == {
        (2, 1, keys.pk.key_id)}
    assert (m.mult_gates, m.add_gates, m.max_depth) == (0, 0, 1)
    assert he_sim.decrypt(keys.sk, he_sim.pack(runs, ring)) == \
        he_sim.decrypt(keys.sk, prod)
    assert [he_sim.decrypt(keys.sk, r) for r in he_sim.split(x, 6)] == [
        5, 6, 7, 8, 9, 10]
    assert he_sim.split(x, 1)[0].size == 6
    with pytest.raises(BackendError):
        he_sim.split(x, 4)


def test_linear_combine_matches_matmul_oracle(ring, keys):
    rng = np.random.default_rng(0)
    rows = [rng.integers(0, 23, size=6) for _ in range(3)]
    ciphers = [he_sim.encrypt(keys.pk, r) for r in rows]
    weights = rng.integers(0, 23, size=(2, 3))
    with he_sim.metering() as m:
        out = he_sim.linear_combine(ciphers, weights, ring)
    expect = (weights @ np.stack(rows)) % 23
    got = np.array([he_sim.decrypt(keys.sk, c) for c in out])
    assert (got == expect).all()
    assert m.mult_gates == 0  # plaintext combination is free


def test_linear_combine_is_exact_at_the_largest_prime():
    # (P - 1)^2 fits int64 at P = 3,037,000,493, but a sum of two does not
    ring = RingParams(modulus=3_037_000_493, coord_bound=2, dim=1, n=1)
    keys = he_sim.keygen(ring, seed=0)
    top = ring.modulus - 1
    ciphers = [he_sim.encrypt(keys.pk, [top, 1])] * 2
    out = he_sim.linear_combine(ciphers, np.array([[top, top]]), ring)
    assert he_sim.decrypt(keys.sk, out[0]) == [2, ring.modulus - 2]


def test_embed_like_is_free_constant(ring, keys):
    c = he_sim.mul(he_sim.encrypt(keys.pk, 2), he_sim.encrypt(keys.pk, 2),
                   ring)
    e = he_sim.embed_like(c, 7)
    assert e.depth == 0 and he_sim.decrypt(keys.sk, e) == 7


@pytest.mark.parametrize("value,residue", [(23 + 3, 3), (-1, 22), (23, 0)])
def test_embed_like_reads_its_constant_mod_p(ring, keys, value, residue):
    # an embedded constant off [0, P) decrypts and looks up as its residue
    c = he_sim.encrypt(keys.pk, [1, 2])
    e = he_sim.embed_like(c, np.full(2, value))
    assert he_sim.decrypt(keys.sk, e) == [residue] * 2
    is_zero = interp.build_named_tables(ring).is_zero
    bits = interp.eval_poly_ps(is_zero, e, ring)
    assert he_sim.decrypt(keys.sk, bits) == [int(residue == 0)] * 2
    assert he_sim.decrypt(keys.sk, he_sim.add(e, c, ring)) == [
        (residue + 1) % 23, (residue + 2) % 23]


def test_plain_is_a_private_copy_bounded_once(ring, keys):
    src = np.array([3, -5, 7])
    p = he_sim.Plain(src)
    src[:] = 1000  # a later write to the source reaches neither
    assert p.values.tolist() == [3, -5, 7] and p.bound == 7
    with pytest.raises(ValueError):
        p.values[0] = 0
    c = he_sim.encrypt(keys.pk, [1, 1, 1])
    assert he_sim.decrypt(keys.sk, he_sim.add(c, p, ring)) == [4, 19, 8]


def test_plain_tile_keeps_its_bound_without_a_scan(monkeypatch):
    p = he_sim.Plain([1, -9, 4])

    def scan(v):
        raise AssertionError("tile rescanned its slots")

    monkeypatch.setattr(he_sim, "_magnitude", scan)
    t = p.tile(3)
    assert t.values.tolist() == [1, -9, 4] * 3 and t.bound == 9
    assert p.tile(1) is p
    with pytest.raises(ValueError):
        t.values[0] = 0


def test_plain_off_the_ring_is_reduced_first(ring, keys):
    # a bound of P or more must not pass into a cipher's slots as if its
    # entries were residues
    vals = [23, -24, 2 * 23 + 3, 5]
    p = he_sim.Plain(vals)
    assert p.bound >= ring.modulus
    c = he_sim.encrypt(keys.pk, [1, 2, 3, 4])
    for op, f in ((he_sim.add, lambda x, y: x + y),
                  (he_sim.sub, lambda x, y: x - y),
                  (he_sim.mul, lambda x, y: x * y)):
        assert he_sim.decrypt(keys.sk, op(c, p, ring)) == [
            f(x, y) % 23 for x, y in zip([1, 2, 3, 4], vals)]
    assert he_sim.decrypt(keys.sk, he_sim.rsub(p, c, ring)) == [
        (y - x) % 23 for x, y in zip([1, 2, 3, 4], vals)]


_CHAIN_RINGS = {
    997: select_ring_params(250, dim=2, n=569),
    _KEYED_EDGE: RingParams(modulus=_KEYED_EDGE, coord_bound=2, dim=1, n=1),
}
_CHAIN_STEPS = ("add", "sub", "rsub", "mul", "slot_sum", "pack", "broadcast",
                "split")
_CHAIN_MAX_SLOTS = 2 * 5690
_ARITH = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
          "mul": lambda x, y: x * y, "rsub": lambda x, y: y - x}


def test_ops_reduce_unreduced_slots_before_they_overflow():
    # squares of residues near the largest prime keygen accepts are just
    # below 2^63: one more product, a doubling or a slot sum would wrap,
    # so each op must reduce its operands first; at P = 997 a square
    # leaves [-P, P), so a lookup must reduce it first
    p = _KEYED_EDGE
    ring = _CHAIN_RINGS[p]
    keys = he_sim.keygen(ring, 0)
    vals = [p - 1, p - 2, p - 3, 2]
    c = he_sim.encrypt(keys.pk, vals)
    sq = he_sim.mul(c, c, ring)
    sq_want = [v * v % p for v in vals]
    neg = he_sim.rsub(0, sq, ring)
    for out, want in (
            (he_sim.mul(sq, sq, ring), [w * w % p for w in sq_want]),
            (he_sim.mul(sq, p // 2, ring), [w * (p // 2) % p for w in sq_want]),
            (he_sim.add(sq, sq, ring), [2 * w % p for w in sq_want]),
            (he_sim.sub(sq, neg, ring), [2 * w % p for w in sq_want]),
            (he_sim.slot_sum(sq, ring), sum(sq_want) % p),
            (he_sim.slot_sum(sq, ring, 2), [sum(sq_want[:2]) % p,
                                            sum(sq_want[2:]) % p])):
        assert he_sim.decrypt(keys.sk, out) == want
    ring = _CHAIN_RINGS[997]
    keys = he_sim.keygen(ring, 0)
    c = he_sim.encrypt(keys.pk, [996, 995, 3, 0])
    table = interp.build_named_tables(ring).dist_map
    got = interp.eval_poly_ps(table, he_sim.mul(c, c, ring), ring)
    assert he_sim.decrypt(keys.sk, got) == [
        int(table.values[v * v % 997]) for v in (996, 995, 3, 0)]

@given(st.data())
@settings(max_examples=200, deadline=None)
def test_op_chains_match_python_mod_p(data):
    # random chains of lazily reduced ops against Python's mod-P results.
    # At the largest prime keygen accepts, products and sums of unreduced
    # slots pass 2^63, so the int64 guards of mul, add/sub/rsub and
    # slot_sum must fire; at P = 997 unreduced slots leave [-P, P) and
    # table lookups must reduce them (a table over Z_P exists only there)
    p = data.draw(st.sampled_from(sorted(_CHAIN_RINGS)), label="P")
    ring = _CHAIN_RINGS[p]
    keys = he_sim.keygen(ring, 5)
    n = data.draw(st.sampled_from([1, 568, 5690]), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    steps = _CHAIN_STEPS + (("lookup",) if p == 997 else ())
    if p == 997:
        tables = interp.build_named_tables(ring)
        tables = (tables.is_neg, tables.is_zero, tables.dist_map)

    def fresh(size):
        vals = rng.integers(0, p, size=size)
        return he_sim.encrypt(keys.pk, vals), [int(v) for v in vals]

    def plain_vector(size):
        if data.draw(st.booleans(), label="int64 edges"):
            vec = rng.integers(-2**63, 2**63 - 1, size=size, endpoint=True)
            vec[:2] = _INT64_EDGES[:size]
            return vec
        return rng.integers(-(p - 1), p, size=size)  # used unreduced

    (x, xs), (y, ys) = fresh(n), fresh(n)
    pool = [(x, xs), (y, ys)]
    c, want = x, xs
    if data.draw(st.booleans(), label="start from a product"):
        c, want = he_sim.mul(x, y, ring), [u * v % p for u, v in zip(xs, ys)]
        pool.append((c, want))
    kept = [(x, x._values, x._values.copy()) for x, _ in pool]
    for _ in range(data.draw(st.integers(2, 12), label="length")):
        step = data.draw(st.sampled_from(steps), label="step")
        plain = plain_before = None
        if step in _ARITH:
            kinds = ("vector", "plain", "int") if step == "rsub" else (
                "cipher", "vector", "plain", "int")
            kind = data.draw(st.sampled_from(kinds), label="operand")
            if kind == "cipher":
                same = [x for x in pool if x[0].size == c.size]
                other, ys = same[data.draw(st.integers(0, len(same) - 1))]
            elif kind == "vector":
                other = plain = plain_vector(c.size)
                plain_before = plain.copy()
                ys = [int(v) for v in plain]
            elif kind == "plain":  # bounded once, reduced if |v| >= P
                other = he_sim.Plain(plain_vector(c.size))
                plain = other.values
                plain_before = plain.copy()
                ys = [int(v) for v in plain]
            else:
                other = data.draw(st.sampled_from((*_INT64_EDGES, -p, p, 0))
                                  | st.integers(-2**70, 2**70))
                ys = [other] * c.size
            if step == "rsub":
                out = he_sim.rsub(other, c, ring)
            else:
                out = getattr(he_sim, step)(c, other, ring)
            want = [_ARITH[step](x, y) % p for x, y in zip(want, ys)]
        elif step == "lookup":
            table = tables[data.draw(st.integers(0, len(tables) - 1))]
            out = interp.eval_poly_ps(table, c, ring)
            want = [int(table.values[x]) for x in want]
        elif step == "slot_sum":
            segments = data.draw(st.sampled_from(
                [d for d in (1, 2, 8, c.size) if c.size % d == 0]))
            run = c.size // segments
            out = he_sim.slot_sum(c, ring, segments)
            want = [sum(want[i * run:(i + 1) * run]) % p
                    for i in range(segments)]
        elif step == "pack":
            fits = [x for x in pool if x[0].size + c.size <= _CHAIN_MAX_SLOTS]
            if not fits:
                continue
            other, ys = fits[data.draw(st.integers(0, len(fits) - 1))]
            out = he_sim.pack([c, other], ring)
            want = want + ys
        elif step == "broadcast":
            times = data.draw(st.sampled_from([1, 2]))
            target = n * times if c.size == 1 else c.size * times
            if target > _CHAIN_MAX_SLOTS:
                continue
            out = he_sim.broadcast(c, target)
            want = [w for w in want for _ in range(target // c.size)]
        else:  # split, then go on with every part repacked or with one
            parts = he_sim.split(c, data.draw(st.sampled_from(
                [d for d in (1, 2, 8, c.size) if c.size % d == 0])))
            run = c.size // len(parts)
            wants = [want[i:i + run] for i in range(0, c.size, run)]
            assert [he_sim.decrypt(keys.sk, x) for x in parts] == [
                w if run > 1 else w[0] for w in wants]
            i = data.draw(st.integers(-1, len(parts) - 1))
            out = he_sim.pack(parts, ring) if i < 0 else parts[i]
            want = want if i < 0 else wants[i]
        assert he_sim.decrypt(keys.sk, out) == (want if out.size > 1
                                                 else want[0])
        assert all(x._values is v and (v == copy).all()
                   for x, v, copy in kept)
        if plain is not None:
            assert (plain == plain_before).all()
            assert not np.shares_memory(out._values, plain)
        c = out
        pool.append((c, want))
        kept.append((c, c._values, c._values.copy()))
