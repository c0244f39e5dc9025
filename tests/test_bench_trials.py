"""The benchmark's trial code, run on one instance per workload.

``bench/run.py`` draws each workload's inputs and checks each trial's
outputs itself; its own smoke test (``bench/test_bench.py``) runs for
minutes.  Here every workload runs one trial on a one-instance pool at
seed 1, and the sha256 digest of its outputs is pinned: a workload whose
outputs change, or whose trial fails one of its checks, fails this suite.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"

# sha256 of each workload's first-instance outputs at seed 1: the run's digest0
DIGESTS = {
    "e2e-fail": "95409626a3039b0b0eacd88b47dc7d92df2c561be81287288acdaec3efe67b8a",
    "e2e-working": "cd1a51116724e443b751084bb6e45f327167a36990367ecf7f6cb19079de661e",
    "e2e-fallback": "11d4e1e375cf9f85ef978ba6324fa760b3f959f3eacd5695390c85bfe55c3bba",
    "bounds": "bfe13bfb08ec4b3053a50bd0708874661c43b533d84ec31e343700d8be3dfaa7",
}


@pytest.fixture(scope="module")
def bench():
    """``bench/run.py`` as a module and the library modules it imports; the
    import path and the module table are restored afterwards."""
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module, module.import_library()
    finally:
        del sys.modules[spec.name]
        sys.path[:] = path


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_first_instance_digest(bench, name):
    run, lib = bench
    workload = dataclasses.replace(run.WORKLOADS[name], pool=1)
    (inst,) = workload.make_inputs(lib, 1)
    out = workload.trial(lib, inst, 1)  # raises CheckFailed on a failed check
    assert out.digest == DIGESTS[name]
