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
per-point Doppler table instead of the waveform.
"""

import hashlib

import pytest

import chirplink
from chirplink.harness import SimConfig, records_to_csv, run_ber

GOLDEN_STREAM_VERSION = 3

GOLDEN_SHA256 = {
    ("awgn", "lora-noncoherent"): "053a0c5a297af7ae550f46633cb3206198f78ab873724fb441b5f2860672d23d",
    ("awgn", "lora-coherent"): "3e2bf6f52c8f69fceb20ac679fc2cd73b82c0d39d7fadf029eaa0b1555471bb9",
    ("awgn", "iqcss"): "208aad786db6dffee6c157c020b6e6bf67bb71fa1cca9c6c0c5ee82611aede09",
    ("rayleigh-perfect", "lora-noncoherent"): "c55d5febb18b2b61ff8dd97efd486ebdeb6b442f96235ceccce56c830d3c2b49",
    ("rayleigh-perfect", "lora-coherent"): "362e7a19b55066d210d39ec90a04cd918979e40b1d0d0e77cc973e963d7b65f4",
    ("rayleigh-perfect", "iqcss"): "9f0eb58955c5f9fa99439e528f8bb56015daed232a82467bd8a05a1e34644e8a",
    ("rayleigh-static-est", "lora-noncoherent"): "c55d5febb18b2b61ff8dd97efd486ebdeb6b442f96235ceccce56c830d3c2b49",
    ("rayleigh-static-est", "lora-coherent"): "dd5ba03b830e46317184696259c66d96602e496328c7bbf0329cbd640a3e3638",
    ("rayleigh-static-est", "iqcss"): "6ec354fe240e61531cc3f2012b6dbcdce3cdded47e2fe1e3be131ec14ba57567",
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
    ("awgn", "lora-noncoherent"): "88416da681e03a5ee4328dc6f3b35443185efb11717085c2af1e360b855106a4",
    ("awgn", "lora-coherent"): "0d7e5506b1761c7e44cd58581acabe8ec9f1622bc11a6ad315a8c183e29d5d71",
    ("awgn", "iqcss"): "cb827486b655154f8ab5c498550322891a9c9761eb5e880c632f672ff7418036",
    ("rayleigh-perfect", "lora-noncoherent"): "df20c44176d292379970d3945a6549049c18e5ff84886f9759bf178aff235e8b",
    ("rayleigh-perfect", "lora-coherent"): "6d4512f6c2bd3d3a52aebccbadbcc1b5901d0a9d438df029cacdf3ac198585f0",
    ("rayleigh-perfect", "iqcss"): "451f3813151f1e1473bd3b1a197ebd0fb0382356bf3852242df13cdb11201b49",
    ("rayleigh-static-est", "lora-noncoherent"): "df20c44176d292379970d3945a6549049c18e5ff84886f9759bf178aff235e8b",
    ("rayleigh-static-est", "lora-coherent"): "93740bc5fa30e7a34044f004c4c3c7c56b831bbff7bf7cd03848c13c645707c5",
    ("rayleigh-static-est", "iqcss"): "03618f6fd057553024df495e9379750c6d5b3e9924a696bb651ba46b69d02619",
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
