"""The pcikit names the benchmark harness under perfbench/ reads resolve.

perfbench's own tests are not part of this suite, so a deleted or renamed
target would otherwise go unnoticed here.
"""

import importlib.util
from pathlib import Path

import pcikit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_perfbench_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # defines TARGETS; install() is not called
    for owner, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr)), name
    # perfbench/worker.py records these on its environment line.
    assert isinstance(pcikit.active_backend(), str)
    assert hasattr(pcikit.kernels, "numba") and hasattr(pcikit.kernels, "np")
