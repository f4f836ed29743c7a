"""Stream-layout golden test: fixed-seed ``run_ber`` CSVs must keep their bytes.

Every (channel, scheme) pair runs two Eb/N0 points of at most two sf7 frames,
so a change to the per-frame random draw order (tx symbols, fading phases,
noise), to the frame layout or to a detector shows up as a new SHA-256.  The
hashes were recorded before the scheme and channel tables replaced the
name-based dispatch; a deliberate stream change must update them and record a
new stream version.
"""

import hashlib

import pytest

from chirplink.harness import SimConfig, records_to_csv, run_ber

GOLDEN_SHA256 = {
    ("awgn", "lora-noncoherent"): "72e9dc41a285aa289ec5bb822dfd890efb2a19a24ff14e09a716eb1c00b8c7c6",
    ("awgn", "lora-coherent"): "22ddf5f51fd48fdccf306b2d11839d8ba6f0a9eb9eb109128d2f922feed3da0c",
    ("awgn", "iqcss"): "7c1ca800b5de50773ebc987d0fd154bb489a8364f3c62f1842ec13be1fef8ffb",
    ("rayleigh-perfect", "lora-noncoherent"): "958d6898677eafe8ec835fe2f60b56b729b853a9aa9669cf932870ca95f0aa90",
    ("rayleigh-perfect", "lora-coherent"): "443bf826fabcbf8e2b773153a6f9459d4ccdead8635f92184496de94a001ea19",
    ("rayleigh-perfect", "iqcss"): "27262d2cca5b6dc037c95278f29d19c15fc8f12348b4327480d347c3df3eef0c",
    ("rayleigh-static-est", "lora-noncoherent"): "958d6898677eafe8ec835fe2f60b56b729b853a9aa9669cf932870ca95f0aa90",
    ("rayleigh-static-est", "lora-coherent"): "b878b1883e0b38d299decf0fb98d8353d3d0c7bfbe545490eae18738a23726f4",
    ("rayleigh-static-est", "iqcss"): "67850765542bec4540cba363285b22e93fc0f1140be0fb48abc0510aa8c9a984",
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
