"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Lines are written to the real stdout so they appear even under pytest's
capture.  Every criterion asserts, so a FAIL line comes with a failing
test.
"""

import math
import sys
import time

import numpy as np
import pytest

from kishnn import data_eval, he_sim, protocol_io
from kishnn.classifier import (LabeledDatabase, make_protocol_params,
                               server_classify)
from kishnn.he_sim import encrypt, keygen
from kishnn.interp import build_named_tables, eval_poly_ps, is_smaller
from kishnn.primitives import CoinSpec, derive_seed, prob_avg
from kishnn.ring import select_ring_params

from conftest import (WDBC_PATH, base_p_decompose, kappa_of_run,
                      sqrt_of_digit_diff)
from test_primitives import apply, coin_batch


import conftest


def report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def wdbc_grids():
    raw = data_eval.load_wdbc(WDBC_PATH)
    return {g: data_eval.grid_dataset(raw, g) for g in (100, 150, 200, 250)}


def test_criterion_01_plain_baseline(wdbc_grids):
    start = time.perf_counter()
    scores = {g: data_eval.leave_one_out_f1(gd, 13, "plain").f1
              for g, gd in wdbc_grids.items()}
    elapsed = time.perf_counter() - start
    ok = all(abs(f1 - 0.98) <= 0.015 for f1 in scores.values()) \
        and elapsed <= 60
    report(1, ok, "plain-mode leave-one-out F1 "
           + ", ".join(f"grid {g}: {f1:.4f}" for g, f1 in scores.items())
           + f" (target 0.98±0.015, {elapsed:.1f}s)")
    assert ok


def test_criterion_02_secure_accuracy(wdbc_grids):
    gd = wdbc_grids[250]
    start = time.perf_counter()
    secure = data_eval.leave_one_out_f1(
        gd, 13, "secure", repetitions=5, seed=0)
    elapsed = time.perf_counter() - start
    plain = data_eval.leave_one_out_f1(gd, 13, "plain")
    ok = (secure.f1 >= 0.93 and secure.f1 >= 0.97 * plain.f1
          and elapsed <= 1800)
    report(2, ok, f"secure F1={secure.f1:.4f} vs plain {plain.f1:.4f} "
           f"(need >=0.93 and >=0.97*plain; {elapsed:.0f}s)")
    assert ok


def _metered_run(grid: int, n: int, seed: int = 0):
    ring = select_ring_params(grid, dim=2, n=n)
    rng = np.random.default_rng(seed)
    db = LabeledDatabase(rng.integers(0, grid, size=(n, 2)),
                         rng.integers(0, 2, size=n))
    pp = make_protocol_params(ring, k=5, n=n, repetitions=1, rng_seed=seed)
    keys = keygen(ring, 1)
    enc_q = [encrypt(keys.pk, 10), encrypt(keys.pk, 20)]
    with he_sim.metering() as m:
        server_classify(enc_q, db, pp)
    return m


def test_criterion_03_depth_constancy():
    depths = {n: _metered_run(100, n).max_depth for n in (50, 100, 569)}
    ok = len(set(depths.values())) == 1
    report(3, ok, f"server circuit depth by n: {depths} (exact equality)")
    assert ok


def test_criterion_04_gate_linearity():
    ns = np.array([50, 100, 200, 400, 569])
    gates = np.array([_metered_run(100, int(n)).mult_gates for n in ns])
    a, b = np.polyfit(ns, gates, 1)
    fit = a * ns + b
    resid = float(np.max(np.abs(fit - gates) / gates))
    ok = resid <= 0.05
    report(4, ok, f"mult_gates over n={[int(v) for v in ns]}: "
           f"{[int(v) for v in gates]}, "
           f"max relative residual {resid:.4f} (<=0.05)")
    assert ok


def test_criterion_05_interpolation_bounds():
    results = {}
    for grid, modulus in ((24, 97), (100, 397), (301, 1201)):
        ring = select_ring_params(grid, dim=2, n=20)
        assert ring.modulus == modulus
        keys = keygen(ring, 1)
        table = build_named_tables(ring).is_neg
        with he_sim.metering() as m:
            eval_poly_ps(table, encrypt(keys.pk, 1), ring)
        results[modulus] = (m.mult_gates, m.max_depth)
    ok = all(g <= 3 * math.ceil(math.sqrt(P))
             and d <= math.ceil(math.log2(P)) + 4
             for P, (g, d) in results.items())
    report(5, ok, "(gates, depth) by modulus: "
           + ", ".join(f"{P}: {gd} (<= {3 * math.ceil(math.sqrt(P))}, "
                       f"{math.ceil(math.log2(P)) + 4})"
                       for P, gd in results.items()))
    assert ok


def test_criterion_06_coin_unbiasedness():
    ring = select_ring_params(100, dim=2, n=569)
    keys = keygen(ring, 2)
    tosses = 100_000
    combos = [(x, "identity", m) for x, m in
              ((0, 50), (1, 50), (7, 50), (25, 50), (50, 50), (3, 11),
               (60, 198), (100, 198), (150, 198), (198, 198))]
    combos += [(x, "square", m) for x, m in
               ((0, 100), (1, 100), (3, 100), (7, 50), (10, 100), (5, 29),
                (9, 81), (12, 150), (2, 5), (14, 198))]
    assert len(combos) == 20
    worst = 0.0
    for i, (x, f, m) in enumerate(combos):
        spec = CoinSpec(f, m, derive_seed(i, "acceptance-coin"))
        xs = encrypt(keys.pk, [x] * tosses)
        rng = np.random.default_rng(spec.rng_seed)
        rs = rng.integers(1, m + 1, size=tosses)
        bits = he_sim.decrypt(keys.sk, coin_batch(xs, rs, spec, ring))
        freq = sum(bits) / tosses
        expect = min(apply(spec, x), m) / m
        se = math.sqrt(max(expect * (1 - expect), 1e-12) / tosses)
        dev = abs(freq - expect) / se if se else abs(freq - expect)
        worst = max(worst, dev if expect not in (0.0, 1.0)
                    else abs(freq - expect))
        assert abs(freq - expect) <= 3 * se + 1e-12, (x, f, m, freq, expect)
    report(6, True, f"20 coin combos, 100k tosses each, all within 3 "
           f"standard errors (worst {worst:.2f} SE)")


def test_criterion_07_prob_avg_concentration():
    ring = select_ring_params(100, dim=2, n=200)
    keys = keygen(ring, 3)
    rng = np.random.default_rng(4)
    xs_plain = np.clip(np.rint(rng.normal(40, 12, size=200)), 0, 198)
    xs_plain = xs_plain.astype(int)
    chi = float(xs_plain.sum()) / 200  # denominator m = n
    assert chi >= 30
    xs = encrypt(keys.pk, list(xs_plain))
    bad = 0
    runs = 1000
    for i in range(runs):
        spec = CoinSpec("identity", 200, derive_seed(i, "acceptance-pa"))
        est = ring.signed(he_sim.decrypt(keys.sk, prob_avg(xs, spec, ring)))
        if abs(est - chi) > 0.5 * chi:
            bad += 1
    bound = 2 * math.exp(-chi / 12) + 0.01
    ok = bad / runs <= bound
    report(7, ok, f"ProbAvg: {bad}/{runs} runs off by >50% of chi={chi:.1f} "
           f"(bound {bound:.4f})")
    assert ok


def test_criterion_08_sigma_sandwich():
    ring = select_ring_params(100, dim=2, n=40)
    pp = make_protocol_params(ring, k=5, n=40, repetitions=1)
    keys = keygen(ring, 4)
    rng = np.random.default_rng(8)
    violations = 0
    for _ in range(500):
        a = int(rng.integers(0, 100 * 100))
        b = int(rng.integers(0, a + 1))
        da, db_ = base_p_decompose(a, ring), base_p_decompose(b, ring)
        enc = [encrypt(keys.pk, v) for v in (da.high, da.low,
                                             db_.high, db_.low)]
        got = sqrt_of_digit_diff(enc[0], enc[1], enc[2], enc[3], pp)
        sigma_star = ring.signed(he_sim.decrypt(keys.sk, got))
        exact = math.sqrt(a - b)
        if not (exact / math.sqrt(2) - 1e-9 <= sigma_star
                <= 3 * exact / math.sqrt(2) + 1e-9):
            violations += 1
    ok = violations == 0
    report(8, ok, f"spread-estimate sandwich: {violations}/500 violations "
           "(need 0)")
    assert ok


def test_criterion_09_kappa_concentration():
    n, k, grid = 569, 13, 100
    mu, sigma = 60, 20  # the most favorable Gaussian found for this grid
    ring = select_ring_params(grid, dim=2, n=n)
    pp = make_protocol_params(ring, k=k, n=n, repetitions=1)
    rng = np.random.default_rng(derive_seed(0, "acceptance-kappa"))
    x = np.clip(np.rint(rng.normal(mu, sigma, size=n)), 0,
                ring.dist_bound).astype(int)
    # embed each distance exactly as a point at L1 distance x from (0, 0)
    pts = np.column_stack([np.minimum(x, grid - 1),
                           x - np.minimum(x, grid - 1)])
    db = LabeledDatabase(pts, rng.integers(0, 2, size=n))
    hits = 0
    runs = 200
    for seed in range(runs):
        kappa = kappa_of_run(db, (0, 0), pp, seed=seed)
        if k / 2 < kappa < 3 * k / 2:
            hits += 1
    ok = hits / runs >= 0.85
    report(9, ok, f"kappa in (6, 20) in {hits}/{runs} runs on discretized "
           f"N({mu},{sigma}) distances (need >=85%)")
    assert ok


def test_criterion_10_comparator_exhaustive():
    ring = select_ring_params(6, dim=2, n=20)  # modulus 23
    keys = keygen(ring, 5)
    mismatches = 0
    for x in range(ring.dist_bound + 1):
        for y in range(ring.dist_bound + 1):
            bit = he_sim.decrypt(
                keys.sk, is_smaller(encrypt(keys.pk, x),
                                    encrypt(keys.pk, y), ring))
            mismatches += bit != (1 if x < y else 0)
    ok = mismatches == 0
    report(10, ok, f"comparator vs plaintext < on all "
           f"{(ring.dist_bound + 1) ** 2} in-range pairs, modulus 23: "
           f"{mismatches} mismatches")
    assert ok


def test_criterion_11_protocol_round_trip():
    sizes = {}
    for n in (50, 569):
        ring = select_ring_params(100, dim=2, n=n)
        pp = make_protocol_params(ring, k=13, n=n, repetitions=5)
        _, msg = protocol_io.make_query([5, 6], pp)
        rng = np.random.default_rng(n)
        db = LabeledDatabase(rng.integers(0, 100, size=(n, 2)),
                             rng.integers(0, 2, size=n))
        resp = protocol_io.answer_query(msg, db, pp)
        sizes[n] = (len(protocol_io.encode_message(msg)),
                    len(protocol_io.encode_message(resp)))
    size_ok = sizes[50] == sizes[569]

    rng = np.random.default_rng(99)
    codec_ok = True
    for _ in range(1000):
        ciphers = tuple(
            he_sim.Cipher(np.array([int(rng.integers(0, 2**62))]),
                          depth=int(rng.integers(0, 60)),
                          key_id=int(rng.integers(0, 2**63)))
            for _ in range(int(rng.integers(0, 3)) * 2 + 1))
        msg = protocol_io.ResponseMessage(ciphers)
        codec_ok &= protocol_io.decode_message(
            protocol_io.encode_message(msg)) == msg
    ok = size_ok and codec_ok
    report(11, ok, f"one round trip; (query, response) bytes at n=50 vs "
           f"n=569: {sizes[50]} vs {sizes[569]}; 1000 codec round-trips "
           f"{'ok' if codec_ok else 'FAILED'}")
    assert ok
