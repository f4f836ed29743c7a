"""Outside-in tracing: spans around the calls into each chirplink layer.

The tracer patches module attributes by name, so the program itself is not
changed.  It wraps ``chirplink.harness.run_ber`` (the root span), every public
function that ``chirplink.harness`` imports from a sibling module, and the two
kernels in ``chirplink._kernels``.  A name the program no longer has is skipped,
and a wrapped function the program no longer calls simply records no spans, so
both read as zero calls.

Spans live in memory as ``[name, start, end, parent, work]`` lists, where
``work`` is a computed (operations, bytes) pair for the kernels that have one, and are
written out only when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

ROOT = "harness.run_ber"
KERNELS = ("jakes_trace", "tdl_apply")


def _jakes_work(args, kwargs) -> tuple[int, int]:
    """Computed (complex exponentials, output bytes) of one
    ``jakes_trace(omegas, phases, ts, n_samples)`` call: sinusoids x samples
    and samples x 16 B."""
    omegas = kwargs.get("omegas", args[0] if args else ())
    n = int(kwargs.get("n_samples", args[3] if len(args) > 3 else 0))
    return len(omegas) * n, 16 * n


WORK = {"_kernels.jakes_trace": _jakes_work}
NO_WORK = (0, 0)

# Layer metric -> span names whose self time it sums.  Wrapped spans outside
# every group are reported together as ``trace.other_ms_per_frame``.
GROUPS = {
    "framing.build_frame": ("framing.build_frame",),
    "framing.extract": ("framing.extract_regions", "framing.average_sync"),
    "channel.awgn": ("channel.apply_awgn",),
    "channel.fading": ("channel.flat_rayleigh", "channel.tvfs_realization"),
    "channel.tdl": ("channel.apply_channel",),
    "kernels.jakes": ("_kernels.jakes_trace",),
    "kernels.tdl": ("_kernels.tdl_apply",),
    "chanest.estimate": ("chanest.ls_flat", "chanest.ls_selective"),
    "chanest.equalize": ("chanest.equalize_flat", "chanest.equalize_fd"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, work(args, kwargs) if work else NO_WORK]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _patch(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return
        self._patched.append((module, attr, fn))
        setattr(module, attr, self._wrap(name, fn))

    def install(self, harness, kernels) -> "Tracer":
        self._patch(harness, "run_ber", ROOT)
        for attr, fn in list(vars(harness).items()):
            module = getattr(fn, "__module__", "") or ""
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or not module.startswith("chirplink.")
                or module == harness.__name__
            ):
                continue
            self._patch(harness, attr, f"{module.rsplit('.', 1)[1]}.{attr}")
        for attr in KERNELS:
            self._patch(kernels, attr, f"_kernels.{attr}")
        return self

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out

    def counts(self) -> dict[str, tuple[int, tuple[int, int]]]:
        """(calls, summed computed work) per span name."""
        out: dict[str, tuple[int, tuple[int, int]]] = {}
        for name, _, _, _, work in self.spans:
            calls, total = out.get(name, (0, NO_WORK))
            out[name] = (calls + 1, (total[0] + work[0], total[1] + work[1]))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, work in self.spans:
                fh.write(json.dumps([name, start, end, parent, work]) + "\n")
