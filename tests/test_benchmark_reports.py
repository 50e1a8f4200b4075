"""The benchmark's pinned reports: every call of every perfbench workload,
run at the digest seed, writes the report whose sha256 perfbench/digests.json
pins.  perfbench/ is read, never imported as a package or edited."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from metaline.cli import main

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_SEED = "42"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


_DIGESTS = json.loads((_PERFBENCH / "digests.json").read_text())[_SEED]
_CALLS = [
    pytest.param(workload.name, call, id=f"{workload.name}:{call.key}")
    for workload in _load_workloads().values()
    for call in workload.calls
]


@pytest.mark.parametrize("workload, call", _CALLS)
def test_benchmark_report_matches_pinned_digest(tmp_path, workload, call):
    out = tmp_path / "report.json"
    main(call.argv(int(_SEED), out))
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _DIGESTS[workload][call.key]
