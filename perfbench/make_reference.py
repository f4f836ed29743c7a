#!/usr/bin/env python3
"""Regenerate ``reference.json``, the reference BER of every benchmark point.

Run from the repository root after a deliberate change of the physics or of
the random-stream layout, and say why in the change that commits the file:

    python3 perfbench/make_reference.py

Each config is swept over its own seed range, disjoint from the seeds the
benchmark derives from ``--seed``, and the counts are pooled per point.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import chirplink  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402

FIRST_SEED = 10**9
# Fading points count frames, not chirps, as independent units: more curves.
CURVES = {"static-sf7": 40, "mobile-sf10": 100, "tvfs-sf7": 100}


def main() -> None:
    runs = []
    for workload, curves in CURVES.items():
        for i in range(curves):
            for cfg in workloads.configs(chirplink.SimConfig, workload, FIRST_SEED + i):
                runs.append((workloads.config_key(cfg), cfg, chirplink.run_ber(cfg)))
        print(f"{workload}: {curves} curves", file=sys.stderr)
    points = {
        key: {p: dict(zip(("bit_errors", "bits", "units"), v)) for p, v in per_point.items()}
        for key, per_point in gate.pool(runs).items()
    }
    doc = {"chirplink": chirplink.__version__, "first_seed": FIRST_SEED, "curves": CURVES, "points": points}
    gate.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
