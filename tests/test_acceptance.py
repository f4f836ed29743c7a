"""End-to-end acceptance checks with one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
The Monte Carlo checks use fixed seeds, so outcomes are reproducible.
"""

import numpy as np
import pytest

from chirplink.chanest import ls_flat, ls_selective
from chirplink.channel import FLAT_PROFILE, apply_awgn, ebn0_to_sigma2, tvfs_realization
from chirplink.chirp import raw_upchirp
from chirplink.framing import FrameConfig, build_frame, extract_regions
from chirplink.harness import (
    SimConfig,
    _popcount,
    records_to_csv,
    run_ber,
    run_throughput,
    shannon_capacity_bps,
    symbol_rate_bps,
)
from chirplink.modem import SCHEMES

from oracles import (
    binomial_ci_halfwidth,
    circular_convolve,
    noncoherent_mary_ser,
)

ALL_SF = range(6, 13)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def interp_crossing(points: list[tuple[float, float]], target: float) -> float:
    """x where a decreasing (x, ratio) curve crosses ``target``, log-interpolated."""
    pts = sorted((x, y) for x, y in points if y > 0)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if y0 >= target >= y1:
            t = (np.log10(target) - np.log10(y0)) / (np.log10(y1) - np.log10(y0))
            return x0 + t * (x1 - x0)
    raise AssertionError(f"curve does not bracket {target}: {pts}")


# --- criterion 1: noiseless loopback identity -------------------------------


def test_criterion_1_exact_loopback():
    lora, coherent, iq = SCHEMES["lora-noncoherent"], SCHEMES["lora-coherent"], SCHEMES["iqcss"]
    failures = []
    rng = np.random.default_rng(1)
    for sf in ALL_SF:
        n = 2**sf
        ks = np.arange(n) if sf <= 8 else rng.integers(0, n, size=1000)
        for k in ks:
            k = int(k)
            x = lora.modulate(sf, [k])
            if lora.detect(x, sf)[0] != k or coherent.detect(x, sf)[0] != k:
                failures.append((sf, k))
        n_pairs = 10_000 if sf <= 8 else 1000
        pairs = rng.integers(0, n, size=(n_pairs, 2))
        for k_i, k_q in pairs:
            pair = (int(k_i), int(k_q))
            if tuple(iq.detect(iq.modulate(sf, pair), sf)) != pair:
                failures.append((sf, pair))
    report(1, not failures, f"noiseless loopback identity, sf 6..12 ({failures[:3]})"
           if failures else "noiseless loopback identity holds for sf 6..12, all detectors")


# --- criterion 2: Monte Carlo SER against the closed-form reference ---------


def test_criterion_2_noncoherent_ser_matches_analytic():
    sf = 7
    points = [2.0, 3.0, 4.0]
    details = []
    ok = True
    for ebn0_db in points:
        cfg = SimConfig(
            scheme="lora-noncoherent",
            sf_list=(sf,),
            channel="awgn",
            axis="ebn0",
            axis_start=ebn0_db,
            axis_stop=ebn0_db,
            max_frames=60_000,
            min_bit_errors=5000,
            seed=202,
        )
        (rec,) = run_ber(cfg)
        n_symbols = rec.bits_sent // sf
        gamma = 10.0 ** (ebn0_db / 10.0) * sf
        want = noncoherent_mary_ser(gamma, 2**sf)
        half = binomial_ci_halfwidth(rec.ser, n_symbols)
        point_ok = rec.symbol_errors >= 300 and abs(rec.ser - want) <= half
        ok = ok and point_ok
        details.append(
            f"{ebn0_db:g}dB: ser={rec.ser:.4g} ref={want:.4g} "
            f"ci=+-{half:.2g} errs={rec.symbol_errors}"
        )
    report(2, ok, "; ".join(details))


# --- criteria 3 and 4: energy-efficiency and SNR-axis gaps ------------------


@pytest.fixture(scope="module")
def awgn_curves():
    """BER-vs-Eb/N0 curves for the three schemes at sf 7 under AWGN."""
    grids = {
        "lora-noncoherent": np.arange(4.0, 5.01, 0.25),
        "lora-coherent": np.arange(3.25, 4.26, 0.25),
        "iqcss": np.arange(3.25, 4.26, 0.25),
    }
    curves = {}
    for scheme, grid in grids.items():
        cfg = SimConfig(
            scheme=scheme,
            sf_list=(7,),
            channel="awgn",
            axis="ebn0",
            axis_start=float(grid[0]),
            axis_step=0.25,
            axis_stop=float(grid[-1]),
            max_frames=30_000,
            min_bit_errors=400,
            seed=303,
        )
        curves[scheme] = [(rec.axis_db, rec.ber) for rec in run_ber(cfg)]
    return curves


def test_criterion_3_energy_gain_about_1db(awgn_curves):
    target = 1e-3
    cross_nc = interp_crossing(awgn_curves["lora-noncoherent"], target)
    cross_iq = interp_crossing(awgn_curves["iqcss"], target)
    gap = cross_nc - cross_iq
    ok = 0.5 <= gap <= 1.5
    report(
        3,
        ok,
        f"Eb/N0 advantage of the I/Q scheme over magnitude detection at BER 1e-3: "
        f"{gap:.2f} dB (window 0.5..1.5; crossings {cross_nc:.2f} / {cross_iq:.2f} dB)",
    )


def test_criterion_4_snr_axis_power_split_gap(awgn_curves):
    # moving energy-per-bit crossings onto the per-sample SNR axis adds
    # 10*log10(bits/N) per scheme; splitting power over two quadrature
    # streams must cost the I/Q scheme 3 dB against the same (coherent)
    # detector with all power in one stream
    target = 1e-3
    n = 128.0
    snr_iq = interp_crossing(awgn_curves["iqcss"], target) + 10 * np.log10(14 / n)
    snr_coh = interp_crossing(awgn_curves["lora-coherent"], target) + 10 * np.log10(7 / n)
    snr_nc = interp_crossing(awgn_curves["lora-noncoherent"], target) + 10 * np.log10(7 / n)
    gap = snr_iq - snr_coh
    ok = 2.5 <= gap <= 3.5
    report(
        4,
        ok,
        f"SNR-axis shift of the I/Q scheme at BER 1e-3: {gap:.2f} dB vs coherent "
        f"single-stream (window 2.5..3.5); vs non-coherent: {snr_iq - snr_nc:.2f} dB",
    )


# --- criterion 5: throughput plateaus, ordering, capacity bound -------------


def test_criterion_5_throughput():
    bw = 250e3
    grid = dict(axis="snr", axis_start=-16.0, axis_step=2.0, axis_stop=0.0,
                sf_list=(7,), channel="awgn", max_frames=2000, min_bit_errors=300,
                seed=404, bandwidth_hz=bw)
    recs_l = run_throughput(SimConfig(scheme="lora-noncoherent", **grid))
    recs_iq = run_throughput(SimConfig(scheme="iqcss", **grid))

    plateau_l = recs_l[-1]
    plateau_iq = recs_iq[-1]
    r_l = symbol_rate_bps(7, "lora-noncoherent", bw)
    r_iq = symbol_rate_bps(7, "iqcss", bw)
    ok_plateau = (
        abs(plateau_l.throughput_bps - r_l) / r_l < 1e-3
        and abs(plateau_iq.throughput_bps - r_iq) / r_iq < 1e-3
        and abs(r_l - 13671.875) < 1e-6
        and abs(r_iq - 27343.75) < 1e-6
    )
    ok_order = all(
        b.throughput_bps >= a.throughput_bps for a, b in zip(recs_l, recs_iq)
    )
    ok_capacity = all(
        r.throughput_bps <= shannon_capacity_bps(r.axis_db, bw)
        for r in recs_l + recs_iq
    )
    report(
        5,
        ok_plateau and ok_order and ok_capacity,
        f"plateaus {plateau_l.throughput_bps:.1f}/{plateau_iq.throughput_bps:.1f} bps "
        f"(refs {r_l:.1f}/{r_iq:.1f}), I/Q >= single-stream at all "
        f"{len(recs_l)} points: {ok_order}, capacity bound: {ok_capacity}",
    )


# --- criterion 6: least-squares estimation statistics -----------------------


def test_criterion_6_ls_estimation():
    rng = np.random.default_rng(606)
    ref = np.tile(raw_upchirp(7), 8)

    # noiseless estimates are exact
    flat_err = abs(ls_flat((0.3 - 1.2j) * ref, ref) - (0.3 - 1.2j))
    taps = np.array([0.7, 0.0, 0.2j, -0.1])
    y = circular_convolve(raw_upchirp(7), taps)
    est = ls_selective(y, 7)
    want = np.zeros(128, dtype=complex)
    want[:4] = taps
    sel_err = np.max(np.abs(est - want))
    ok_exact = flat_err < 1e-9 and sel_err < 1e-9

    # noisy flat-estimate error variance is sigma2 over the preamble energy
    sigma2, h = 1.3, 0.9 + 0.4j
    errors = np.empty(10_000, dtype=complex)
    for i in range(errors.size):
        errors[i] = ls_flat(apply_awgn(h * ref, sigma2, rng), ref) - h
    var = float(np.mean(np.abs(errors) ** 2))
    want_var = sigma2 / (8 * 128)
    ok_var = abs(var - want_var) / want_var < 0.10

    # correlation fast path equals the explicit normal-equation solve
    n = 128
    c = raw_upchirp(7)
    cmat = c[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
    y_rand = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    full = np.linalg.solve(cmat.conj().T @ cmat, cmat.conj().T @ y_rand)
    fast = ls_selective(y_rand, 7)
    ok_fast = np.max(np.abs(fast - full)) < 1e-9

    report(
        6,
        ok_exact and ok_var and ok_fast,
        f"noiseless errors {flat_err:.1e}/{sel_err:.1e}, variance {var:.3e} vs "
        f"{want_var:.3e}, fast-vs-solve {np.max(np.abs(fast - full)):.1e}",
    )


# --- criterion 7: estimated CSI tracks genie CSI under block fading ---------


def _paired_rayleigh_ber(ebn0_db: float, n_frames: int, seed: int) -> tuple[float, float]:
    """BER with genie and estimated gain on identical block-fading frames."""
    sf = 7
    n = 1 << sf
    fcfg = FrameConfig(sf=sf)
    ref = np.tile(raw_upchirp(7), 8)
    sigma2 = ebn0_to_sigma2(ebn0_db, 7, "iqcss")
    bits = 0
    errs_genie = errs_est = 0
    for i in range(n_frames):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        tx = rng.integers(0, n, size=(fcfg.payload_symbols, 2))
        frame = build_frame(fcfg, tx, "iqcss")
        h = tvfs_realization(frame.size, FLAT_PROFILE.lag_groups(250e3), 0.0, rng).gains[0, 0]
        y = apply_awgn(h * frame, sigma2, rng)
        sync_up, data = extract_regions(y, fcfg)
        data_mat = np.asarray(data)
        h_est = ls_flat(np.concatenate(sync_up), ref)
        for h_used, which in ((h, "genie"), (h_est, "est")):
            eq = data_mat * (np.conj(h_used) / abs(h_used) ** 2)
            rx_i, rx_q = SCHEMES["iqcss"].detect(eq, sf).T
            wrong = int(
                _popcount(np.bitwise_xor(tx[:, 0], rx_i)).sum()
                + _popcount(np.bitwise_xor(tx[:, 1], rx_q)).sum()
            )
            if which == "genie":
                errs_genie += wrong
            else:
                errs_est += wrong
        bits += 2 * 7 * fcfg.payload_symbols
    return errs_genie / bits, errs_est / bits


def test_criterion_7_estimated_csi_close_to_genie():
    grid = np.arange(14.0, 26.1, 2.0)
    genie_curve, est_curve = [], []
    for ebn0 in grid:
        ber_g, ber_e = _paired_rayleigh_ber(ebn0, n_frames=3000, seed=707)
        genie_curve.append((ebn0, ber_g))
        est_curve.append((ebn0, ber_e))
    cross_g = interp_crossing(genie_curve, 1e-2)
    cross_e = interp_crossing(est_curve, 1e-2)
    penalty = cross_e - cross_g
    ok = penalty < 0.5
    report(
        7,
        ok,
        f"block-fading Eb/N0 penalty of estimated vs genie gain at BER 1e-2: "
        f"{penalty:.3f} dB (< 0.5 dB; crossings {cross_e:.2f} / {cross_g:.2f})",
    )


# --- criterion 8: noiseless multipath with prefix and genie response --------


def test_criterion_8_multipath_noiseless_exact():
    cfg = SimConfig(
        scheme="iqcss",
        sf_list=(7,),
        channel="tvfs-perfect",
        axis="ebn0",
        axis_start=3000.0,
        axis_stop=3000.0,
        max_frames=250,
        min_bit_errors=1,
        speed_kmh=0.0,
        cp_len=16,
        seed=808,
    )
    (rec,) = run_ber(cfg)
    n_symbols = rec.bits_sent // 7
    ok = rec.bit_errors == 0 and n_symbols >= 10_000
    report(
        8,
        ok,
        f"12-tap urban channel, prefix 16, zero Doppler, genie response: "
        f"{rec.bit_errors} bit errors over {n_symbols} symbols",
    )


# --- criterion 9: single-stream frames decode on the I/Q receiver -----------


def test_criterion_9_backwards_compatible_receiver():
    rng = np.random.default_rng(909)
    bad = 0
    total = 0
    for sf in ALL_SF:
        n = 2**sf
        ks = np.arange(n) if sf <= 8 else rng.integers(0, n, size=1000)
        for k in ks:
            total += 1
            x = SCHEMES["lora-noncoherent"].modulate(sf, [int(k)])
            if SCHEMES["iqcss"].detect(x, sf)[0] != int(k):
                bad += 1
    report(9, bad == 0, f"I/Q receiver recovered {total - bad}/{total} single-stream symbols")


# --- criterion 10: byte-identical CSV across runs and worker counts ---------


def test_criterion_10_determinism():
    base = dict(
        scheme="iqcss",
        sf_list=(7,),
        channel="rayleigh-static-est",
        axis="ebn0",
        axis_start=6.0,
        axis_step=3.0,
        axis_stop=12.0,
        max_frames=48,
        min_bit_errors=10,
        seed=1010,
    )
    first = records_to_csv(run_ber(SimConfig(**base)))
    second = records_to_csv(run_ber(SimConfig(**base)))
    parallel = records_to_csv(run_ber(SimConfig(**base, workers=2)))
    ok = first == second == parallel
    report(10, ok, f"identical CSV bytes across repeats and worker counts: {ok}")
