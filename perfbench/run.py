#!/usr/bin/env python3
"""Link benchmark for chirplink: payload bits/s and time-to-curve.

Run from the repository root (the package need not be installed):

    python3 perfbench/run.py --workload static-sf7 --seed 1 --seconds 15 --trace 0

One caller runs ``chirplink.run_ber`` in a closed loop: curve after curve,
each curve being the workload's configs (see ``workloads.py``), until
``--seconds`` have passed.  Curve ``r`` uses ``SimConfig.seed = seed * 10000
+ r``, so every curve is a fresh Monte Carlo draw made from ``--seed``.  One
untimed warm-up curve at the seed of curve 0 fills caches first.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends half the time untraced and half traced (outside-in spans,
``spans.py``) on the same seeds and prints the per-layer metrics.

Every run checks the outputs: a repeated seed gives identical CSV bytes, also
when ``static-sf7`` reruns a curve on two workers, and each point's BER,
pooled over the run's curves, lies in a window around ``reference.json``
(``gate.py``).
The last stdout line is one JSON object; the exit code is 1 if a check
failed and 2 if the program could not be loaded.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from spans import GROUPS, ROOT as ROOT_SPAN, Tracer  # noqa: E402

MIN_CURVES = 3
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
REGULARIZED = re.compile(r" on (\d+) bin")


@dataclasses.dataclass
class Call:
    cfg: object
    records: list
    seconds: float


@dataclasses.dataclass
class Curve:
    seed: int
    calls: list[Call]
    seconds: float

    def frames(self) -> int:
        return sum(_frames(c.cfg, r) for c in self.calls for r in c.records)

    def bits(self) -> int:
        return sum(r.bits_sent for c in self.calls for r in c.records)


def _frames(cfg, record) -> int:
    return record.bits_sent // (cfg.payload_symbols * gate.bits_per_chirp(record.scheme, record.sf))


def rep_seed(seed: int, rep: int) -> int:
    return seed * 10_000 + rep


def load_program():
    """Import chirplink from ``src`` of this checkout; exit 2 if it is absent."""
    if not (SRC / "chirplink" / "__init__.py").is_file():
        print(f"perfbench: no chirplink package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import chirplink
    import chirplink._kernels
    import chirplink.harness
    import chirplink.plotting

    return chirplink


class Bench:
    def __init__(self, program, workload: str, seed: int) -> None:
        self.program = program
        self.harness = program.harness
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seen_csv: dict[tuple[int, str], str] = {}
        self.records_by_seed: dict[int, list] = {}

    def run_curve(self, seed: int, workers: int | None = None) -> Curve:
        cfgs = workloads.configs(self.harness.SimConfig, self.workload, seed)
        if workers is not None:
            cfgs = [dataclasses.replace(c, workers=workers) for c in cfgs]
        calls = []
        start = time.perf_counter()
        for cfg in cfgs:
            t0 = time.perf_counter()
            records = self.harness.run_ber(cfg)
            calls.append(Call(cfg, records, time.perf_counter() - t0))
        return Curve(seed, calls, time.perf_counter() - start)

    def measure(self, seconds: float) -> list[Curve]:
        curves: list[Curve] = []
        deadline = time.perf_counter() + seconds
        while len(curves) < MIN_CURVES or time.perf_counter() < deadline:
            curves.append(self.run_curve(rep_seed(self.seed, len(curves))))
        return curves

    def check_curve(self, curve: Curve, label: str) -> None:
        """Count the curve's points; same-seed CSVs must match byte for byte."""
        for call in curve.calls:
            self.attempted += len(call.records)
            key = (curve.seed, workloads.config_key(call.cfg))
            csv = self.program.records_to_csv(call.records)
            first = self.seen_csv.setdefault(key, csv)
            if csv != first:
                rows = sum(a != b for a, b in zip(csv.splitlines()[1:], first.splitlines()[1:]))
                self.failed += max(rows, 1)
                self.problems.append(f"{label}: seed {curve.seed} {key[1]} CSV differs from its first run")
        self.records_by_seed.setdefault(curve.seed, [(workloads.config_key(c.cfg), c.cfg, c.records) for c in curve.calls])

    def check_physics(self) -> None:
        pooled = gate.pool([item for items in self.records_by_seed.values() for item in items])
        for key, point, message in gate.check(pooled, gate.load_reference()):
            self.failed += sum(
                1
                for items in self.records_by_seed.values()
                for k, _, records in items
                if k == key
                for r in records
                if gate.point_key(r.axis_db) == point
            )
            self.problems.append(message)

    def render_seconds(self, curve: Curve) -> float:
        """Time CSV rendering plus the SVG plot of each sweep result.

        The throughput plot draws every point; the BER plot refuses a sweep
        whose points all have zero errors, which short fading curves can be.
        """
        start = time.perf_counter()
        for call in curve.calls:
            self.program.records_to_csv(call.records)
            self.program.plotting.plot_records_svg(
                call.records, OUT / f"{self.workload}.svg", kind="throughput"
            )
        return time.perf_counter() - start


def rate(curve: Curve) -> float:
    return curve.bits() / curve.seconds


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from interpreter start to ``ready`` over fresh probe processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - start)
            proc.communicate(timeout=PROBE_TIMEOUT_S)
            code = proc.returncode
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe ended with {code} before reporting ready")
    return median(times)


def environment(program, workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "chirplink").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "chirplink": program.__version__,
        "backend": program.backend_name() if hasattr(program, "backend_name") else None,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, args) -> dict:
    bench.check_curve(bench.run_curve(rep_seed(args.seed, 0)), "warm-up")
    curves = bench.measure(args.seconds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for curve in curves:
        bench.check_curve(curve, "timed")
    two_worker_curves(bench, 1)
    bench.check_physics()
    setup = setup_seconds(args.workload, args.seed)
    return {
        "payload_bits_per_s": metric(median(rate(c) for c in curves), "bit/s"),
        "curve_s": metric(median(c.seconds for c in curves), "s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "ok_frac": metric(1.0 - bench.failed / max(bench.attempted, 1), "frac"),
    }


def two_worker_curves(bench: Bench, count: int) -> list[Curve]:
    """Rerun the first ``count`` curves on two workers; their CSV must not change."""
    if bench.workload != workloads.TWO_WORKER:
        return []
    curves = [bench.run_curve(rep_seed(bench.seed, r), workers=workloads.WORKERS) for r in range(count)]
    for curve in curves:
        bench.check_curve(curve, "two-worker")
    return curves


def per_layer(bench: Bench, args) -> dict:
    bench.check_curve(bench.run_curve(rep_seed(args.seed, 0)), "warm-up")
    plain = bench.measure(args.seconds / 2)
    two_workers = two_worker_curves(bench, 2)
    tracer = Tracer().install(bench.harness, bench.program._kernels)
    with tracer, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traced = bench.measure(args.seconds / 2)
    tracer.write(OUT / f"{args.workload}.spans.jsonl")
    for label, curves in (("untraced", plain), ("traced", traced)):
        for curve in curves:
            bench.check_curve(curve, label)
    bench.check_physics()

    frames = sum(c.frames() for c in traced)
    selfs = tracer.self_times()
    counts = tracer.counts()
    grouped = {name for names in GROUPS.values() for name in names} | {ROOT_SPAN}

    def ms_per_frame(names) -> float:
        return 1000.0 * sum(selfs.get(n, 0.0) for n in names) / frames

    out = {
        "harness.self_ms_per_frame": metric(ms_per_frame([ROOT_SPAN]), "ms"),
        "harness.frames_per_curve": metric(median(c.frames() for c in plain), "count"),
        "harness.output_ms": metric(1000.0 * median(bench.render_seconds(c) for c in plain), "ms"),
    }
    two_fps = median(c.frames() / c.seconds for c in two_workers) if two_workers else 0.0
    out["harness.workers2_frames_per_s"] = metric(two_fps, "1/s")
    out["harness.workers2_speedup"] = metric(two_fps / median(c.frames() / c.seconds for c in plain), "ratio")
    for key in workloads.all_config_keys():
        per_call = [frames_per_s(call) for c in plain for call in c.calls if workloads.config_key(call.cfg) == key]
        out[f"harness.frames_per_s.{key}"] = metric(median(per_call) if per_call else 0.0, "1/s")
    for group, names in GROUPS.items():
        out[f"{group}_ms_per_frame"] = metric(ms_per_frame(names), "ms")
    out["trace.other_ms_per_frame"] = metric(ms_per_frame(set(selfs) - grouped), "ms")
    calls, (exps, nbytes) = counts.get("_kernels.jakes_trace", (0, (0, 0)))
    out["kernels.jakes_calls_per_frame"] = metric(calls / frames, "count")
    out["kernels.jakes_exps_per_frame"] = metric(exps / frames, "computed-count")
    out["kernels.jakes_bytes_per_frame"] = metric(nbytes / frames, "computed-B")
    bins = sum(
        int(m.group(1))
        for w in caught
        if issubclass(w.category, RuntimeWarning) and (m := REGULARIZED.search(str(w.message)))
    )
    out["chanest.regularized_bins_per_frame"] = metric(bins / frames, "count")
    out["trace.overhead_frac"] = metric(1.0 - median(rate(c) for c in traced) / median(rate(c) for c in plain), "frac")
    out["trace.self_sum_frac"] = metric(sum(selfs.values()) / sum(c.seconds for c in traced), "frac")
    return out


def frames_per_s(call: Call) -> float:
    return sum(_frames(call.cfg, r) for r in call.records) / call.seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    program = load_program()
    OUT.mkdir(exist_ok=True)
    print(json.dumps({"env": environment(program, args.workload, args.seed)}), flush=True)
    bench = Bench(program, args.workload, args.seed)
    try:
        metrics = (per_layer if args.trace else end_to_end)(bench, args)
    except Exception:  # a crash in the program under test is a failed run, not a result
        traceback.print_exc()
        bench.attempted += 1
        bench.failed += 1
        bench.problems.append("the program raised; see the traceback above")
        metrics = {}
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
