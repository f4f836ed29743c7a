"""Stream-layout golden test: fixed-seed ``run_ber`` CSVs must keep their bytes.

Every (channel, scheme) pair runs two Eb/N0 points of at most two sf7 frames,
so a change to the per-frame random draw order, to the frame layout or to a
detector shows up as a new SHA-256.  The table was recorded under stream
version ``GOLDEN_STREAM_VERSION``; a deliberate stream change must bump
``chirplink.STREAM_VERSION`` and re-record the hashes it moves, together.

Stream version 1 hashes were recorded before the scheme and channel tables
replaced the name-based dispatch.  Version 2 re-recorded only the 9 frozen
channels (``awgn``, ``rayleigh-perfect``, ``rayleigh-static-est``), which now
draw tx symbols, fade phases, the estimate error and the data noise bins.
"""

import hashlib

import pytest

import chirplink
from chirplink.harness import SimConfig, records_to_csv, run_ber

GOLDEN_STREAM_VERSION = 2

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
    ("rayleigh-mobile-est", "lora-noncoherent"): "92b24420102bc73b103bed5be1bb16e19ea2c72add426eb71c21e19501c3c60b",
    ("rayleigh-mobile-est", "lora-coherent"): "e77967cbe5ce3747dbac8e09625ebf3ba78d1ff73bcb4f9ff9029cf4105e4805",
    ("rayleigh-mobile-est", "iqcss"): "ce666e985a21041c329c52840b2aca1b0dd741c28651f156013ca7e15b8d6e25",
    ("tvfs-perfect", "lora-noncoherent"): "e0132ede4ebfd55008edb5e4d15c8877c916d039cd5bd62110eb77b5840bd66c",
    ("tvfs-perfect", "lora-coherent"): "74c857039eb787132a36aeacf443f52352966f26ebcd881f9be307add8d7eb7c",
    ("tvfs-perfect", "iqcss"): "aed101ddc45d51f350a1fcddbdded87d00304e9009935e8d77e9607bda20c6af",
    ("tvfs-est", "lora-noncoherent"): "e0132ede4ebfd55008edb5e4d15c8877c916d039cd5bd62110eb77b5840bd66c",
    ("tvfs-est", "lora-coherent"): "fdea6d7d5d41cc8ca2826ad234074b58774dcd6523e0e4d9ce39470b0fe5cd97",
    ("tvfs-est", "iqcss"): "80491e88f62bbddd597dce428f6a03688ba2341069743331ab1ff7911a78dbee",
}


def test_table_recorded_under_current_stream_version():
    assert chirplink.STREAM_VERSION == GOLDEN_STREAM_VERSION


@pytest.mark.parametrize("channel,scheme", sorted(GOLDEN_SHA256))
def test_csv_bytes_match_golden(channel, scheme):
    # 60 km/h so the mobile channel differs from the block-static one
    cfg = SimConfig(
        scheme=scheme,
        channel=channel,
        sf_list=(7,),
        axis_start=0.0,
        axis_step=10.0,
        axis_stop=10.0,
        max_frames=2,
        seed=2009,
        speed_kmh=60.0,
    )
    csv = records_to_csv(run_ber(cfg))
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_SHA256[(channel, scheme)]
