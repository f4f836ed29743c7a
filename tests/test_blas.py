"""The one-thread BLAS pin (``chirplink._blas``) that fading ranges run under.

The pin sets numpy's bundled OpenBLAS to one thread and restores the previous
count on exit, also when the block raises.  ``run_ber`` pins only while it
simulates, in this process or in a worker, so a caller's count survives a run,
and importing the package changes nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chirplink import SimConfig, _blas, harness, run_ber

CALLS = _blas._thread_calls()
needs_openblas = pytest.mark.skipif(CALLS is None, reason="numpy's bundled OpenBLAS not found")
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def get_count():
    """The count getter, with the count set to 2 for the test and restored after it."""
    get, set_ = CALLS
    before = get()
    set_(2)
    yield get
    set_(before)


@needs_openblas
def test_one_thread_inside_and_restored_after(get_count):
    with _blas.one_thread():
        assert get_count() == 1
    assert get_count() == 2


@needs_openblas
def test_restored_after_an_exception(get_count):
    with pytest.raises(RuntimeError):
        with _blas.one_thread():
            assert get_count() == 1
            raise RuntimeError("inside the pin")
    assert get_count() == 2


@needs_openblas
@pytest.mark.parametrize("workers", [1, 2])
def test_run_ber_leaves_the_callers_count(get_count, monkeypatch, workers):
    seen = []
    moving_flat = harness._moving_flat

    def recording(*args):
        seen.append(get_count())
        return moving_flat(*args)

    monkeypatch.setattr(harness, "_moving_flat", recording)
    cfg = SimConfig(scheme="iqcss", channel="rayleigh-mobile-est", axis_stop=10.0,
                    axis_step=10.0, max_frames=2, workers=workers)
    assert len(run_ber(cfg)) == 2
    assert get_count() == 2
    if workers == 1:  # the frames ran here, pinned
        assert seen == [1] * 4


@needs_openblas
def test_import_changes_nothing():
    # a fresh interpreter: the count is set before the import and read after it
    code = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("probe", {str(SRC / "chirplink" / "_blas.py")!r})
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)
get, set_ = probe._thread_calls()
set_(2)
import chirplink
print(get(), chirplink._blas._thread_calls.cache_info().currsize)
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "0"]  # count unchanged, no lookup made


@needs_openblas
def test_no_library_found_is_a_no_op(get_count, monkeypatch):
    monkeypatch.setattr(_blas, "_thread_calls", lambda: None)
    with _blas.one_thread():
        assert get_count() == 2
    cfg = SimConfig(scheme="iqcss", channel="rayleigh-mobile-est", axis_stop=0.0, max_frames=2)
    assert run_ber(cfg)[0].bits_sent == 2 * 20 * 2 * 7
    assert get_count() == 2
