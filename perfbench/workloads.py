"""The benchmark's workloads: cut-down corners of the channel x scheme x SF matrix.

Each workload is a list of ``SimConfig`` overrides, one per ``run_ber`` call;
together they make one "curve".  The corners are chosen so that each layer
does most of the work in one workload and little in another:

* ``static-sf7``: short frames (~0.6 ms) where harness overhead, frame
  building and noise generation dominate; no Doppler synthesis runs.  The
  low Eb/N0 point of every config collects ``min_bit_errors`` in the first
  32-frame batch and the others stop on the frame budget, so the stop rule is
  exercised and the frame count per curve does not depend on the seed.
* ``mobile-sf10``: one 30,720-sample sum-of-sinusoids trace per frame; the
  largest per-frame arrays.
* ``tvfs-sf7``: twelve traces per frame plus the delay line, ``ls_selective``
  and ``equalize_fd``; the only workload that runs them.

``static-sf7`` also runs some curves on two worker processes, which is the
only place the harness's process-pool dispatch runs.  Two-worker runs spread
too much between runs on a shared two-core machine to carry an end-to-end
bound, so they give a per-layer metric and a byte-identity check instead.
"""

from __future__ import annotations

from types import SimpleNamespace

STATIC_SF7 = (
    dict(channel="awgn", scheme="lora-noncoherent", axis_start=-2.0, axis_step=6.0, axis_stop=10.0),
    dict(channel="awgn", scheme="iqcss", axis_start=-2.0, axis_step=6.0, axis_stop=10.0),
    dict(channel="rayleigh-static-est", scheme="lora-noncoherent", axis_start=0.0, axis_step=25.0, axis_stop=50.0),
    dict(channel="rayleigh-static-est", scheme="iqcss", axis_start=0.0, axis_step=25.0, axis_stop=50.0),
)
STATIC_STOP = dict(sf_list=(7,), max_frames=256, min_bit_errors=400)

# Fading frames cost ~130 ms, so these curves stop on a small frame budget.
FADING_STOP = dict(axis_start=0.0, axis_step=20.0, axis_stop=40.0, max_frames=3, min_bit_errors=400)

WORKLOADS: dict[str, tuple[dict, ...]] = {
    "static-sf7": tuple({**c, **STATIC_STOP} for c in STATIC_SF7),
    "mobile-sf10": (
        dict(channel="rayleigh-mobile-est", scheme="iqcss", sf_list=(10,), speed_kmh=0.1, **FADING_STOP),
    ),
    "tvfs-sf7": (dict(channel="tvfs-est", scheme="iqcss", sf_list=(7,), **FADING_STOP),),
}

TWO_WORKER = "static-sf7"
WORKERS = 2


def configs(sim_config_cls, workload: str, seed: int) -> list:
    """The ``SimConfig`` objects of one curve of ``workload`` at ``seed``."""
    return [sim_config_cls(seed=seed, **kw) for kw in WORKLOADS[workload]]


def warmup_configs(sim_config_cls, workload: str) -> list:
    """One small batch per config: the first point only, one frame."""
    return [
        sim_config_cls(seed=0, **{**kw, "axis_stop": kw["axis_start"], "max_frames": 1})
        for kw in WORKLOADS[workload]
    ]


def config_key(cfg) -> str:
    """``<channel>.<scheme>.sf<n>``: the name a config's per-point metrics use."""
    return f"{cfg.channel}.{cfg.scheme}.sf{cfg.sf_list[0]}"


def all_config_keys() -> list[str]:
    keys = (config_key(SimpleNamespace(**kw)) for kws in WORKLOADS.values() for kw in kws)
    return list(dict.fromkeys(keys))
