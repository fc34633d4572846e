"""Whole queries run literally: every table of server_classify evaluated by
its polynomial's schedule, with real he_sim products and adds, against the
metered run.

interp.eval_poly_ps charges each table what ps_cost says its schedule
costs, and tests/test_interp.py checks that charge table by table.  Here
the composition is checked: which table claims a powers record, the depths
carried from stage to stage, and the split each record's tables read.  The
literal evaluator interpolates each table, per slot on an image of a
powers record (on the record's span, if it has one), computes a record's
powers once on its source cipher's slots, evaluates an odd table on a
cipher of no record on its odd powers only, and combines the leaves with
real calls.  A record's split is chosen for the number of tables that
actually read it in the metered run, not for the number declared.
"""

import numpy as np
import pytest

from kishnn import classifier, he_sim, interp
from kishnn.classifier import LabeledDatabase, make_protocol_params
from kishnn.ring import select_ring_params

from conftest import mu_star_of_run
from test_interp import (_slot_coeffs, poly_coeffs, schedule_combine,
                         schedule_powers)

PATCHED = ("add", "sub", "rsub", "broadcast", "pack", "share_powers")
REAL = {name: getattr(he_sim, name) for name in PATCHED}
REAL_EVAL = interp.eval_poly_ps


def _coeff_rows(table, shift, sign, span, P):
    """One row per slot: the coefficients, in v, of table[shift + sign * v]
    over v in Z_P, or over v in [0, span) when the record has a span
    (test_interp._slot_coeffs, once per distinct shift)."""
    form = "c+u" if sign > 0 else "c-u"
    shifts, slot = np.unique(shift % P, return_inverse=True)
    return np.array([_slot_coeffs(table, int(c), form, P, span)
                     for c in shifts])[slot]


def _laid(c, index, P):
    """Slot i of c laid out as c's slot index[i], reduced, for free."""
    return he_sim.Cipher(c._values[index] % P, c.depth, c.key_id)


class Literal:
    """The images of every powers record, and eval_poly_ps replayed.

    An image of a record's source cipher u is kept as (sign, shift,
    index): slot i holds shift[i] + sign * u[index[i]] (mod P).  readers
    gives, by creation order, how many tables read each record, and the
    tables are evaluated literally at the split for that many; without
    it, they are evaluated by interp.eval_poly_ps, and each record's
    readers are counted into counted."""

    def __init__(self, readers=None):
        self.readers, self.counted = readers, []
        self.images, self.sources, self.claimed = {}, {}, {}

    def _keep(self, out, sign, shift, index):
        if out._powers is not None:
            self.images[id(out)] = (out, sign, shift, index)
        return out

    def _image(self, c):
        """(sign, shift, index) of an image of a record, else None."""
        kept = self.images.get(id(c))
        return kept[1:] if kept is not None and kept[0] is c else None

    def share_powers(self, c, span=None, tables=1):
        out = REAL["share_powers"](c, span, tables)
        record = out._powers
        self.sources[id(record)] = (out, len(self.counted))
        self.counted.append(0)
        return self._keep(out, 1, np.zeros(out.size, dtype=np.int64),
                          np.arange(out.size))

    def _shifted(self, out, c, plain, s, t):
        """out = s * c + t * plain, kept as an image when c is one and
        plain is a plaintext."""
        image = self._image(c)
        if image is None or isinstance(plain, he_sim.Cipher):
            return out
        sign, shift, index = image
        if isinstance(plain, he_sim.Plain):
            plain = plain.values
        return self._keep(out, s * sign, s * shift + t * np.asarray(plain),
                          index)

    def add(self, a, b, ring):
        return self._shifted(REAL["add"](a, b, ring), a, b, 1, 1)

    def sub(self, a, b, ring):
        return self._shifted(REAL["sub"](a, b, ring), a, b, 1, -1)

    def rsub(self, b, a, ring):
        return self._shifted(REAL["rsub"](b, a, ring), a, b, -1, 1)

    def broadcast(self, c, nslots):
        out, image = REAL["broadcast"](c, nslots), self._image(c)
        if image is not None and out is not c:
            sign, shift, index = image
            reps = nslots // c.size
            self._keep(out, sign, shift.repeat(reps), index.repeat(reps))
        return out

    def pack(self, ciphers, ring):
        out = REAL["pack"](ciphers, ring)
        parts = [self._image(c) for c in ciphers]
        if len(ciphers) > 1 and None not in parts and \
                len({sign for sign, _, _ in parts}) == 1:
            self._keep(out, parts[0][0],
                       np.concatenate([shift for _, shift, _ in parts]),
                       np.concatenate([index for _, _, index in parts]))
        return out

    def eval_poly_ps(self, table, x, params):
        """The table at x, evaluated by its schedule: on x's own powers, or
        on the powers of the source of the record x is an image of."""
        P, record = params.modulus, x._powers
        if self.readers is None:
            if record is not None:
                self.counted[self.sources[id(record)][1]] += 1
            return REAL_EVAL(table, x, params)
        expected = table.values[x._values % P]
        if record is None:
            deg, tables, odd = table.degree, 1, table.odd
            coeffs = np.tile(poly_coeffs(table), (x.size, 1))
        else:
            u, order = self.sources[id(record)]
            sign, shift, index = self._image(x)
            assert ((shift + sign * u._values[index]) % P
                    == x._values % P).all()
            span = record.span
            deg = table.degree if span is None else min(table.degree,
                                                        span - 1)
            coeffs = _coeff_rows(table, shift, sign, span, P)
            tables, odd = self.readers[order], False
        assert not coeffs[:, deg + 1:].any()
        if deg == 0:
            out = he_sim.embed_like(x, coeffs[:, 0])
            assert (out._values == expected).all()
            return out
        split = interp.ps_cost(deg, x.depth, tables, odd)[0]

        def mul(a, b):
            return he_sim.mul(a, b, params)

        if record is None:
            xp = schedule_powers(x, split, mul, deg if odd else None)
        else:
            claimed = self.claimed.setdefault(id(record), {})
            if not claimed:  # the first table pays the powers on u's slots
                claimed[split] = schedule_powers(u, split, mul)
            if split in claimed:
                xp = {j: _laid(p, index, P) for j, p in claimed[split].items()}
            else:  # another split: its own powers of u laid out
                laid = _laid(u, index, P)
                xp = schedule_powers(laid, split, mul)
        out = schedule_combine(coeffs, split, deg, xp, params, odd)
        assert (out._values % P == expected).all()
        # reduced, as a lookup's result is: share_powers reads slots as held
        return he_sim.Cipher(out._values % P, out.depth, out.key_id)


def _database(grid, n, seed):
    rng = np.random.default_rng(seed)
    return (LabeledDatabase(rng.integers(0, grid, (n, 2)),
                            rng.integers(0, 2, n)),
            rng.integers(0, grid, 2))


def _query(query, db, pp, literal):
    """(bits, mult gates, add gates, ciphertext mults, depth) of
    server_classify with every he_sim op and table the literal one's."""
    keys = classifier.client_keys(pp)
    enc_q = classifier.encrypt_query(keys.pk, query, pp.ring)
    with pytest.MonkeyPatch.context() as mp:
        for name in PATCHED:
            mp.setattr(he_sim, name, getattr(literal, name))
        mp.setattr(interp, "eval_poly_ps", literal.eval_poly_ps)
        with he_sim.metering() as m:
            bits = classifier.server_classify(enc_q, db, pp)
    return (he_sim.decrypt(keys.sk, bits), m.mult_gates, m.add_gates,
            m.cipher_mults, m.max_depth)


# Grids 4, 5, 6, 12 and 24 (moduli 13, 17, 23, 47 and 97), n from 3 to
# about 2P, one and three repetitions.
CASES = [(4, 3, 1), (4, 25, 3), (5, 34, 1), (6, 3, 3), (6, 46, 1),
         (12, 94, 3), (24, 150, 1), (24, 190, 3)]


def _protocol(grid, n, reps):
    return make_protocol_params(select_ring_params(grid, dim=2, n=n),
                                k=1 + n // 5, n=n, repetitions=reps,
                                rng_seed=n)


def _check_literal(query, db, pp):
    """The metered query, and the same query with every table literal."""
    metered = Literal()
    expected = _query(query, db, pp, metered)
    assert metered.counted and all(metered.counted)
    assert _query(query, db, pp, Literal(metered.counted)) == expected


@pytest.mark.parametrize("grid, n, reps", CASES)
def test_a_whole_query_costs_what_its_literal_run_costs(grid, n, reps):
    db, query = _database(grid, n, seed=grid * n)
    _check_literal(query, db, _protocol(grid, n, reps))


@pytest.mark.parametrize("reps", [1, 3])
def test_mu_star_reaches_the_edge_of_its_span(reps):
    # grid 6, n = 20: B = 10 and R = t(B) = 10.  Every point at (5, 5) and
    # the query at (0, 0), so every distance is B, t(B) = R, and every
    # coin whose numerator is at most R hits: mu* = R = B, the largest
    # value mu*'s span [0, B] allows, in every repetition
    n = 20
    db = LabeledDatabase(np.full((n, 2), 5), np.arange(n) % 2)
    pp = _protocol(6, n, reps)
    assert interp.dist_map(pp.ring).tolist()[-1] == pp.ring.dist_bound == 10
    for seed in classifier.repetition_seeds(pp):
        assert mu_star_of_run(db, (0, 0), pp, seed) == 10
    _check_literal((0, 0), db, pp)
