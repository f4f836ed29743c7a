"""Set-up probe, run by ``run.py`` in a fresh interpreter.

Imports chirplink, validates the workload's configs (which loads the TU12
profile for the multipath workload) and runs one warm-up batch per config
(starting the process pool for the two-worker workload), then prints
``ready``.  The parent times the interval from process start to that line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import chirplink  # noqa: E402
from workloads import configs, warmup_configs  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    for cfg in configs(chirplink.SimConfig, workload, seed):
        cfg.validate()
    for cfg in warmup_configs(chirplink.SimConfig, workload):
        chirplink.run_ber(cfg)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
