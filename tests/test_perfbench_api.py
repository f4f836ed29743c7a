"""What the benchmark under ``perfbench/`` loads from the package.

A change that folds one of these names away fails every benchmark run while
the rest of the suite stays green, so this test runs each workload's warm-up
batch the way ``perfbench/setup_probe.py`` and ``perfbench/run.py`` do.
"""

import importlib
import inspect
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


def test_traced_jakes_work_reads_the_kernel_arguments(monkeypatch):
    # spans._jakes_work reads jakes_trace's omegas (args[0] or the keyword) and
    # n_samples (args[3] or the keyword); a renamed or reordered parameter, or
    # a caller passing them otherwise, would silently zero kernels.jakes_*
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    kernels = importlib.import_module("chirplink._kernels")
    harness = importlib.import_module("chirplink.harness")
    params = list(inspect.signature(kernels.jakes_trace).parameters)
    assert params[0] == "omegas" and params[3] == "n_samples"
    (cfg,) = workloads.warmup_configs(harness.SimConfig, "tvfs-sf7")
    with spans.Tracer().install(harness, kernels) as tracer:
        (record,) = harness.run_ber(cfg)
    calls, (exps, nbytes) = tracer.counts()["_kernels.jakes_trace"]
    frames = record.bits_sent // (cfg.payload_symbols * 2 * cfg.sf_list[0])
    frame_len = harness._link(cfg, cfg.sf_list[0])[0].total_samples
    assert calls == frames >= 1
    assert exps == calls * 32 * frame_len
    assert nbytes == calls * 16 * frame_len
