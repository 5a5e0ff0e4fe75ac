"""RADIX: correctness and behavioural checks."""

import numpy as np
import pytest

from repro import DsmRuntime, RunConfig
from repro.apps.radix import Radix


def small(**kwargs):
    defaults = dict(num_keys=2048, max_key=1 << 12, digit_bits=6)  # 2 passes
    defaults.update(kwargs)
    return Radix(**defaults)


def test_pass_count():
    assert Radix(num_keys=64, max_key=1 << 21, digit_bits=7).passes == 3
    assert Radix(num_keys=64, max_key=1 << 12, digit_bits=6).passes == 2


def test_radix_sorts_on_two_nodes():
    DsmRuntime(RunConfig(num_nodes=2)).execute(small())


def test_radix_sorts_on_eight_nodes():
    DsmRuntime(RunConfig(num_nodes=8)).execute(small())


def test_radix_sorts_with_odd_pass_count():
    DsmRuntime(RunConfig(num_nodes=4)).execute(small(max_key=1 << 18, digit_bits=6))


def test_radix_multithreaded():
    DsmRuntime(RunConfig(num_nodes=4, threads_per_node=2)).execute(small())


def test_radix_with_prefetch():
    app = small()
    app.use_prefetch = True
    report = DsmRuntime(RunConfig(num_nodes=4, prefetch=True)).execute(app)
    assert report.prefetch_stats.issued > 0


def test_radix_combined_with_throttling():
    app = small()
    app.use_prefetch = True
    app.throttle_prefetch = True
    DsmRuntime(RunConfig(num_nodes=2, threads_per_node=2, prefetch=True)).execute(app)


def test_radix_is_communication_heavy():
    """The paper's RADIX signature: the permutation makes it the most
    traffic-intensive application per byte of data."""
    report = DsmRuntime(RunConfig(num_nodes=4)).execute(small())
    data_kb = 2048 * 8 / 1024
    assert report.total_kbytes > 4 * data_kb


def test_radix_rejects_bad_params():
    with pytest.raises(ValueError):
        Radix(num_keys=10)
    with pytest.raises(ValueError):
        Radix(digit_bits=0)


_CORRUPTED_VERIFY = """
from repro import DsmRuntime, RunConfig
from repro.apps.radix import Radix

runtime = DsmRuntime(RunConfig(num_nodes=2))
app = Radix(num_keys=256, max_key=1 << 12, digit_bits=6)
runtime.execute(app, verify=False)
read = runtime.read_vector

def corrupted(vector):
    result = read(vector).copy()
    result[[0, -1]] = result[[-1, 0]]  # smallest and largest key swap places
    return result

runtime.read_vector = corrupted
try:
    app.verify(runtime)
except AssertionError as exc:
    print("raised:", exc)
"""


def test_verify_raises_under_python_O():
    """Verification is an explicit ``raise``: ``python -O`` strips ``assert``s,
    and a stripped check would pass a corrupted result silently."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_VERIFY],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "raised: RADIX output not sorted"
