"""Stream-layout golden test: fixed-seed ``run_ber`` CSVs must keep their bytes.

Every (channel, scheme) pair runs two Eb/N0 points of at most two frames, once
at sf7 and once at sf9, so a change to the per-frame random draw order, to the frame layout or to a
detector shows up as a new SHA-256.  The table was recorded under stream
version ``GOLDEN_STREAM_VERSION``; a deliberate stream change must bump
``chirplink.STREAM_VERSION`` and re-record the hashes it moves, together.

Stream version 1 hashes were recorded before the scheme and channel tables
replaced the name-based dispatch.  Version 2 re-recorded only the 9 frozen
channels (``awgn``, ``rayleigh-perfect``, ``rayleigh-static-est``), which now
draw tx symbols, fade phases, the estimate error and the data noise bins.
The sf9 table was added later under version 2.  Version 3 re-recorded only
the 6 ``rayleigh-mobile-est`` hashes (sf7 and sf9): that channel now draws tx
symbols, fade phases, the estimate error and the data noise bins like the
frozen channels, and builds each data chirp's despread spectrum from a
per-point Doppler table instead of the waveform.  Version 4 re-recorded only
the 18 frozen-channel hashes (sf7 and sf9): after tx symbols, fade phases and
the estimate error, each frozen data chirp draws its decision from the order
statistic of its noise bins (``chirplink.orderstat``) instead of the N noise
bins themselves.
"""

import hashlib

import pytest

import chirplink
from chirplink.harness import SimConfig, records_to_csv, run_ber

GOLDEN_STREAM_VERSION = 4

GOLDEN_SHA256 = {
    ("awgn", "lora-noncoherent"): "187918bd4255b8e9faeeea9445975f7d58844d941f12f00a64cca1cf3e5f51cb",
    ("awgn", "lora-coherent"): "c21de0a61ccac3b98e310e071195d8b3fc647e428684d41cf45573e0faeb7223",
    ("awgn", "iqcss"): "37234c8134db88746feb1c13bbfb452d364c3849a9f7cd240a7e6b61f09e157f",
    ("rayleigh-perfect", "lora-noncoherent"): "ad91cb673566ffa17a2583c50d8302eecd0bad055a09dd13ac9ef37a14496719",
    ("rayleigh-perfect", "lora-coherent"): "241293174e3c4c93dfe1829d428dc881365e51efd7de48b211ab4281444fe99b",
    ("rayleigh-perfect", "iqcss"): "222e3130ac1543e60d5ac0430d87dc46a1b5bb40647ef13d5ecf7b8e82e02dd0",
    ("rayleigh-static-est", "lora-noncoherent"): "ad91cb673566ffa17a2583c50d8302eecd0bad055a09dd13ac9ef37a14496719",
    ("rayleigh-static-est", "lora-coherent"): "8d26c73ff4e96a267fd4b0e78b544f04d2293c0fa8783c49cd34e16eeadb06da",
    ("rayleigh-static-est", "iqcss"): "ed78046b5b9153f63e62607f7c1e739a57c068e3d71dde8cd88763b12208f8ad",
    ("rayleigh-mobile-est", "lora-noncoherent"): "a4929283f76bb76d171e628a4e2fd93f2cdc0d669ce2fd652643480414025261",
    ("rayleigh-mobile-est", "lora-coherent"): "0e59074e108657c3d7ccc4f17cdda0484e69fff8c52bdfd6877caafca0ec3b52",
    ("rayleigh-mobile-est", "iqcss"): "ca8f0fc755fb86aec0b78b4fe4eba59f5bf9cd739a50aad6d5a17e1acabda560",
    ("tvfs-perfect", "lora-noncoherent"): "e0132ede4ebfd55008edb5e4d15c8877c916d039cd5bd62110eb77b5840bd66c",
    ("tvfs-perfect", "lora-coherent"): "74c857039eb787132a36aeacf443f52352966f26ebcd881f9be307add8d7eb7c",
    ("tvfs-perfect", "iqcss"): "aed101ddc45d51f350a1fcddbdded87d00304e9009935e8d77e9607bda20c6af",
    ("tvfs-est", "lora-noncoherent"): "e0132ede4ebfd55008edb5e4d15c8877c916d039cd5bd62110eb77b5840bd66c",
    ("tvfs-est", "lora-coherent"): "fdea6d7d5d41cc8ca2826ad234074b58774dcd6523e0e4d9ce39470b0fe5cd97",
    ("tvfs-est", "iqcss"): "80491e88f62bbddd597dce428f6a03688ba2341069743331ab1ff7911a78dbee",
}

GOLDEN_SF9_SHA256 = {
    ("awgn", "lora-noncoherent"): "112f5dbb26e0556b7ba45b9cfda97880610780d0911273179689717b95574a88",
    ("awgn", "lora-coherent"): "6df2bcff22a02a105a1df0da1ed21ddb674a5b0c35c230cb1e8a2586a723aef5",
    ("awgn", "iqcss"): "097ec796e17c83c8438f4096f81765bfad731cd908004a156507de8d370b155b",
    ("rayleigh-perfect", "lora-noncoherent"): "294e8acae6ab26c53c32685e9bb508092d384d64514ebb73784a27d571f6b39f",
    ("rayleigh-perfect", "lora-coherent"): "93740bc5fa30e7a34044f004c4c3c7c56b831bbff7bf7cd03848c13c645707c5",
    ("rayleigh-perfect", "iqcss"): "1dd7c603cd8f9805a26e424f88273ef3ffaeb15eeea769cf5aa4376c801b49b2",
    ("rayleigh-static-est", "lora-noncoherent"): "294e8acae6ab26c53c32685e9bb508092d384d64514ebb73784a27d571f6b39f",
    ("rayleigh-static-est", "lora-coherent"): "bb4bdea9e4b01c92dcbf51b5dc10df73760b8e7f90c2b64275532ad484b86be7",
    ("rayleigh-static-est", "iqcss"): "826e09d24eb1521544e4484034a8c49703c625902ba63c279af177d6b2f37027",
    ("rayleigh-mobile-est", "lora-noncoherent"): "6312e7a5b6d0020455c9f17b9efb8946b9ed8ca1eae2b33c9cd313c6601a3734",
    ("rayleigh-mobile-est", "lora-coherent"): "bc5662ecb7fc2d8ee7ada8c99bf9bbd2a7149348bc97800b6f38ad9ecc1250de",
    ("rayleigh-mobile-est", "iqcss"): "1c79544ce74a312e7d2c315af7d6ac55c194148d92d272a418c079e0a854ab99",
    ("tvfs-perfect", "lora-noncoherent"): "ed8884f4b009d6ed45897e07d702128a147732a6326380a823528c586f0074e8",
    ("tvfs-perfect", "lora-coherent"): "54221005c5924109ffaefc13bfabe96b878cdb793efc99d1c86a49d7cb1d6ebf",
    ("tvfs-perfect", "iqcss"): "e8440fd459e9eaf46fcc9c7659ac5f0effebcfa97dd082cca5e38ebb028cb2dd",
    ("tvfs-est", "lora-noncoherent"): "ed8884f4b009d6ed45897e07d702128a147732a6326380a823528c586f0074e8",
    ("tvfs-est", "lora-coherent"): "334dcce9cc664a77c53f400a5d0b0f2b56446de8c4bfd75a7b44ce08b2c37c94",
    ("tvfs-est", "iqcss"): "52047016c6f5a3b12b911b2c1508504b59a3cd4aefd04caf8db654df9ee1481a",
}


def _csv_sha256(channel: str, scheme: str, sf: int) -> str:
    # 60 km/h so the mobile channel differs from the block-static one
    cfg = SimConfig(
        scheme=scheme,
        channel=channel,
        sf_list=(sf,),
        axis_start=0.0,
        axis_step=10.0,
        axis_stop=10.0,
        max_frames=2,
        seed=2009,
        speed_kmh=60.0,
    )
    return hashlib.sha256(records_to_csv(run_ber(cfg)).encode()).hexdigest()


def test_table_recorded_under_current_stream_version():
    assert chirplink.STREAM_VERSION == GOLDEN_STREAM_VERSION


@pytest.mark.parametrize("channel,scheme", sorted(GOLDEN_SHA256))
def test_csv_bytes_match_golden(channel, scheme):
    assert _csv_sha256(channel, scheme, 7) == GOLDEN_SHA256[(channel, scheme)]


@pytest.mark.parametrize("channel,scheme", sorted(GOLDEN_SF9_SHA256))
def test_sf9_csv_bytes_match_golden(channel, scheme):
    assert _csv_sha256(channel, scheme, 9) == GOLDEN_SF9_SHA256[(channel, scheme)]
