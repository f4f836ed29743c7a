"""What the benchmark under ``perfbench/`` loads from the package.

A change that folds one of these names away fails every benchmark run while
the rest of the suite stays green, so this test runs each workload's warm-up
batch the way ``perfbench/setup_probe.py`` and ``perfbench/run.py`` do.
"""

import importlib
from pathlib import Path

import chirplink

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_names_load_and_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    importlib.import_module("chirplink._kernels")
    harness = importlib.import_module("chirplink.harness")
    plotting = importlib.import_module("chirplink.plotting")
    assert isinstance(chirplink.__version__, str)
    for name in workloads.WORKLOADS:
        for cfg in workloads.configs(harness.SimConfig, name, 1):
            cfg.validate()
        for cfg in workloads.warmup_configs(harness.SimConfig, name):
            records = harness.run_ber(cfg)
            assert chirplink.records_to_csv(records).count("\n") == 1 + len(records)
            plotting.plot_records_svg(records, tmp_path / f"{name}.svg", kind="throughput")
            assert (tmp_path / f"{name}.svg").is_file()
