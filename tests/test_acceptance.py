"""Acceptance gate.

One test per numbered acceptance criterion; ``pytest -v`` therefore prints
one pass/fail line per criterion.  Each test also prints a measurement
summary so a failing run shows the observed numbers next to the pinned
tolerance.

Shared campaign fixtures run at the desk scale (200 trials, SNR 0..30 dB
step 5, 64-QAM, seed 0) with wall-clock reporting disabled so every
asserted quantity is bit-reproducible.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from dmasim.benchmarks import (
    oracle_weights,
    pilot_aided_h,
    pilot_aided_m,
    semi_unitary_h,
    semi_unitary_x,
)
from dmasim.campaign import render_csv, run_campaign, summary_dict
from dmasim.channels import (
    gen_dft_training,
    gen_inner_random_phase,
    gen_lorentzian_training,
    gen_pilots,
    gen_qam,
    gen_wireless,
)
from dmasim.config import ExperimentConfig
from dmasim.metrics import diagonal_fit, nmse, ser
from dmasim.receiver import BalsConfig, two_stage_estimate
from dmasim.signals import (
    add_noise,
    build_noiseless,
    build_rank_one,
    identifiability_preflight,
)
from dmasim.tensor_ops import khatri_rao, parafac_build, pinv, unfold_mode1, unfold_mode2
from helpers import rand_cn, relerr, tensor_oracle


def _desk_cfg(receiver, training):
    return dataclasses.replace(
        ExperimentConfig(),
        trials=200,
        seed=0,
        snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        receiver=receiver,
        training=training,
        timing=False,
    )


@pytest.fixture(scope="module")
def desk_campaigns():
    """The Fig.-2-style desk-scale campaigns, run once per session."""
    t0 = time.perf_counter()
    proposed = run_campaign(_desk_cfg("proposed", "lorentzian"))
    bench = run_campaign(_desk_cfg("bench-data-aided", "semi-unitary-dft"))
    elapsed = time.perf_counter() - t0
    return proposed, bench, elapsed


def _monotone_with_tolerance(values_db, slack_db=0.5, allowed_inversions=1):
    """Nonincreasing, allowing ``allowed_inversions`` steps that rise by at
    most ``slack_db``."""
    inversions = 0
    for prev, cur in zip(values_db, values_db[1:]):
        if cur > prev:
            if cur - prev > slack_db:
                return False
            inversions += 1
    return inversions <= allowed_inversions


def test_criterion_1_algebraic_identity_suite():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        k, t, p = (int(rng.integers(1, 13)) for _ in range(3))
        h = rand_cn(rng, k, n)
        x = rand_cn(rng, t, n)
        f = rand_cn(rng, p, n)
        y = parafac_build(h, x, f)
        worst = max(
            worst,
            relerr(unfold_mode1(y), h @ khatri_rao(f, x).T),
            relerr(unfold_mode2(y), x @ khatri_rao(f, h).T),
        )
        kr = khatri_rao(h, x)
        worst = max(
            worst,
            relerr(kr.conj().T @ kr, (h.conj().T @ h) * (x.conj().T @ x)),
        )
        if n <= 4:
            worst = max(worst, relerr(y, tensor_oracle(h, x, f)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    print(
        f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} — worst relative error "
        f"{worst:.2e} (limit 1e-12), runtime {elapsed:.2f}s (limit 5s)"
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_noiseless_exact_recovery():
    k, n, p, t = 8, 16, 32, 10
    rng = np.random.default_rng(2002)
    h = gen_wireless(k, n, rng)
    m = gen_inner_random_phase(n, rng)
    s = gen_qam(t, 64, rng)
    f = gen_lorentzian_training(p, n, rng)
    y = build_noiseless(h, build_rank_one(s, m), f).y

    t0 = time.perf_counter()
    successes = 0
    all_monotone = True
    worst_h_db = worst_m_db = -math.inf
    for i in range(100):
        rep = two_stage_estimate(
            y, f, s1_ref=s[0], rng=np.random.default_rng([2002, i])
        )
        delta = diagonal_fit(rep.h_hat, h)
        h_db = 10 * math.log10(nmse(rep.h_hat * delta, h))
        m_db = 10 * math.log10(nmse(rep.m_hat / delta, m))
        sym_errors = ser(rep.s_hat, s, 64)
        trace = np.asarray(rep.residual_trace)
        monotone = bool(np.all(np.diff(trace) <= 1e-14))
        all_monotone &= monotone
        worst_h_db = max(worst_h_db, h_db)
        worst_m_db = max(worst_m_db, m_db)
        if h_db <= -80.0 and m_db <= -80.0 and sym_errors == 0.0:
            successes += 1
    elapsed = time.perf_counter() - t0
    ok = successes >= 99 and all_monotone and elapsed < 30.0
    print(
        f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} — {successes}/100 runs at "
        f"NMSE <= -80 dB with SER 0 (worst H {worst_h_db:.1f} dB, worst m "
        f"{worst_m_db:.1f} dB), residual monotone in all runs: "
        f"{all_monotone}, runtime {elapsed:.1f}s (limit 30s)"
    )
    assert successes >= 99
    assert all_monotone
    assert elapsed < 30.0


def test_criterion_3_closed_form_equivalence():
    rng = np.random.default_rng(3003)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(n, 13))
        k = int(rng.integers(2, 9))
        t = int(rng.integers(2, 9))
        h = gen_wireless(k, n, rng)
        m = gen_inner_random_phase(n, rng)
        s = gen_qam(t, 16, rng)
        f = gen_dft_training(p, n)
        x = build_rank_one(s, m)
        snr_db = float(rng.uniform(0.0, 30.0))
        rt = add_noise(build_noiseless(h, x, f), snr_db, rng)
        m_tilde, h_tilde = oracle_weights(h, m)
        y1, y2 = unfold_mode1(rt.y), unfold_mode2(rt.y)
        worst = max(
            worst,
            relerr(semi_unitary_h(y1, f, x, m_tilde), y1 @ pinv(khatri_rao(f, x).T)),
            relerr(semi_unitary_x(y2, f, h, h_tilde), y2 @ pinv(khatri_rao(f, h).T)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    print(
        f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} — worst relative "
        f"difference {worst:.2e} (limit 1e-10) over 100 noisy instances, "
        f"runtime {elapsed:.2f}s (limit 10s)"
    )
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_4_pilot_benchmark_exactness():
    rng = np.random.default_rng(4004)
    worst_recovery = 0.0
    worst_identity = 0.0
    for i in range(20):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(n, 13))
        k = int(rng.integers(2, 9))
        t = int(rng.integers(2, 11))
        h = gen_wireless(k, n, rng)
        m = gen_inner_random_phase(n, rng)
        pilots = gen_pilots(t)
        f = gen_dft_training(p, n)
        y = build_noiseless(h, build_rank_one(pilots, m), f).y
        m_tilde, h_tilde = oracle_weights(h, m)
        y1, y2 = unfold_mode1(y), unfold_mode2(y)
        h_hat = pilot_aided_h(y1, f, pilots, m, m_tilde)
        m_hat = pilot_aided_m(y2, f, h, h_tilde, pilots)
        worst_recovery = max(worst_recovery, relerr(h_hat, h), relerr(m_hat, m))
        # Matched-filter identity: the closed form equals
        # X_hat.T @ conj(pilots) / T applied to the symbol-block estimate.
        x_hat = semi_unitary_x(y2, f, h, h_tilde)
        worst_identity = max(
            worst_identity, relerr(m_hat, x_hat.T @ pilots.conj() / t)
        )
    ok = worst_recovery <= 1e-10 and worst_identity <= 1e-10
    print(
        f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} — worst noiseless "
        f"recovery error {worst_recovery:.2e}, worst matched-filter "
        f"identity error {worst_identity:.2e} (limits 1e-10)"
    )
    assert worst_recovery <= 1e-10
    assert worst_identity <= 1e-10


def test_criterion_5_fig2_qualitative_reproduction(desk_campaigns):
    proposed, bench, elapsed = desk_campaigns

    # (a) The two component curves of each campaign stay within 2 dB.
    gaps_proposed = [abs(r.nmse_h_db - r.nmse_m_db) for r in proposed]
    gaps_bench = [abs(r.nmse_h_db - r.nmse_m_db) for r in bench]
    a_ok = max(gaps_proposed) <= 2.0 and max(gaps_bench) <= 2.0

    # (b) Benchmark advantage of 5 +/- 2 dB at mid-SNR (10-20 dB points).
    mid = [2, 3, 4]
    mid_gap = float(
        np.mean([proposed[i].nmse_h_db - bench[i].nmse_h_db for i in mid])
    )
    b_ok = 3.0 <= mid_gap <= 7.0

    # (c) Monotone NMSE and SER, one inversion of <= 0.5 dB allowed.
    c_ok = all(
        _monotone_with_tolerance([r.nmse_h_db for r in rows])
        and _monotone_with_tolerance([r.nmse_m_db for r in rows])
        for rows in (proposed, bench)
    )
    for rows in (proposed, bench):
        sers = [r.ser for r in rows]
        c_ok &= all(b <= a + 1e-12 for a, b in zip(sers, sers[1:]))

    t_ok = elapsed < 600.0
    ok = a_ok and b_ok and c_ok and t_ok
    print(
        f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} — "
        f"(a) max component gap: proposed {max(gaps_proposed):.2f} dB, "
        f"benchmark {max(gaps_bench):.2f} dB (limit 2 dB) -> "
        f"{'ok' if a_ok else 'VIOLATED'}; "
        f"(b) mid-SNR benchmark advantage {mid_gap:.2f} dB "
        f"(window [3, 7]) -> {'ok' if b_ok else 'VIOLATED'}; "
        f"(c) monotone curves -> {'ok' if c_ok else 'VIOLATED'}; "
        f"campaign runtime {elapsed:.0f}s (limit 600s)"
    )
    print(
        "  proposed per-SNR (H_db, m_db, gap): "
        + "; ".join(
            f"{r.snr_db:g}: ({r.nmse_h_db:.2f}, {r.nmse_m_db:.2f}, "
            f"{r.nmse_h_db - r.nmse_m_db:+.2f})"
            for r in proposed
        )
    )
    assert b_ok, f"mid-SNR gap {mid_gap:.2f} dB outside [3, 7]"
    assert c_ok, "curves are not monotone within the harness tolerance"
    assert t_ok, f"campaign took {elapsed:.0f}s"
    assert a_ok, (
        f"component curves differ by up to {max(gaps_proposed):.2f} dB for "
        f"the iterative receiver (limit 2 dB); see the decision ledger for "
        f"the measured systematic separation"
    )


def test_criterion_6_convergence_cost_reproduction(desk_campaigns):
    proposed, _, _ = desk_campaigns
    base = proposed[0].mean_iters
    high_snr = [r.mean_iters for r in proposed if r.snr_db >= 15.0]
    ratio = float(np.mean(high_snr)) / base
    emitted = summary_dict(proposed, _desk_cfg("proposed", "lorentzian"))
    iters_emitted = all(
        math.isfinite(row["mean_iters"]) and row["mean_iters"] >= 1.0
        for row in emitted["rows"]
    )
    runtimes_emitted = all(
        math.isfinite(row["mean_runtime_s"]) and row["mean_runtime_s"] > 0.0
        for row in emitted["rows"]
    )
    ok = ratio <= 0.25 and iters_emitted and runtimes_emitted
    print(
        f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} — mean iterations "
        f"{base:.1f} at 0 dB vs {np.mean(high_snr):.1f} at >= 15 dB "
        f"(ratio {ratio:.3f}, limit 0.25); per-SNR iteration counts and "
        f"runtimes present in the summary: {iters_emitted and runtimes_emitted}"
    )
    assert ratio <= 0.25
    assert iters_emitted and runtimes_emitted


def test_criterion_7_thread_count_determinism(tmp_path):
    base = dataclasses.replace(
        ExperimentConfig(),
        trials=30,
        seed=123,
        snr_grid_db=(0.0, 15.0, 30.0),
        timing=False,
    )
    rows1 = run_campaign(dataclasses.replace(base, threads=1))
    rows4 = run_campaign(dataclasses.replace(base, threads=4))
    csv1 = render_csv(rows1, base).encode("utf-8")
    csv4 = render_csv(rows4, base).encode("utf-8")
    byte_identical = csv1 == csv4

    # With wall-clock reporting enabled the scientific columns must still
    # agree across thread counts; only the runtime column may differ.
    timed = dataclasses.replace(base, timing=True)
    rt1 = run_campaign(dataclasses.replace(timed, threads=1))
    rt4 = run_campaign(dataclasses.replace(timed, threads=4))
    strip = lambda rows: [
        (r.snr_db, r.nmse_h_db, r.nmse_m_db, r.ser, r.mean_iters, r.trials, r.failed)
        for r in rows
    ]
    science_identical = strip(rt1) == strip(rt4)

    ok = byte_identical and science_identical
    print(
        f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} — CSV byte-identical "
        f"across threads 1 vs 4: {byte_identical}; scientific columns "
        f"identical with timing enabled: {science_identical}"
    )
    assert byte_identical
    assert science_identical


def test_criterion_8_identifiability_preflight():
    rep = identifiability_preflight(8, 10, 32, 16)
    ok = (
        rep.kruskal_ok is False
        and rep.relaxed_ok is True
        and rep.kruskal_lhs == 25
        and rep.kruskal_rhs == 34
        and rep.relaxed_lhs == 1260
        and rep.relaxed_rhs == 120
    )
    print(
        f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} — strict bound "
        f"{rep.kruskal_lhs} >= {rep.kruskal_rhs} is {rep.kruskal_ok}, "
        f"relaxed bound {rep.relaxed_lhs} >= {rep.relaxed_rhs} is "
        f"{rep.relaxed_ok}"
    )
    assert rep.kruskal_ok is False
    assert rep.relaxed_ok is True
    assert (rep.kruskal_lhs, rep.kruskal_rhs) == (25, 34)
    assert (rep.relaxed_lhs, rep.relaxed_rhs) == (1260, 120)


def test_harness_invariant_benchmark_dominance(desk_campaigns):
    # Not a numbered criterion: the harness-level invariant that the
    # data-aided closed forms beat the blind receiver at every SNR point.
    proposed, bench, _ = desk_campaigns
    assert all(b.nmse_h_db <= p.nmse_h_db for p, b in zip(proposed, bench))
    assert all(b.nmse_m_db <= p.nmse_m_db for p, b in zip(proposed, bench))
