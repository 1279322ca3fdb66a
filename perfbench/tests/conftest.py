"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``
from the repository root.  Tiny instances of each workload are built once."""
import os
import sys
import warnings

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workloads  # noqa: E402

warnings.filterwarnings("ignore", message="weighted measure not negligible")


@pytest.fixture(scope="session")
def tiny(tmp_path_factory):
    """name -> (workload, result of one checked pass)."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(7, str(tmp_path_factory.mktemp(name)), tiny=True)
        out[name] = (wl, wl.run_pass())
    return out
