"""Self-test of the benchmark: tracing is exact, leaves results alone, and
reports exactly the metrics BENCHMARK.json declares."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, Call, Workload  # noqa: E402

SMALL = Workload("small", (Call("flat-conic", samples=4), Call("nonisotropic-cubic", samples=4)))
COUNT_SUFFIXES = (
    ".calls",
    ".cells",
    ".max_bits",
    ".scalar_mults",
    ".entries_visited",
    ".points",
    ".useful_ratio",
)
SEED = 7  # not the digest seed: the small workload has no committed digests


def _originals():
    from metaline import family_geometry, jets, linalg, runner

    return {
        "Mat.rank": vars(linalg.Mat)["rank"],
        "Jet1.__radd__": vars(jets.Jet1)["__radd__"],
        "family_geometry.solve_in_span": family_geometry.solve_in_span,
        "runner.build_omega": runner.build_omega,
    }


def _traced_run():
    checker = run.Checker(SEED)
    metrics = run.run_traced(SMALL, SEED, checker, {})
    assert checker.attempted > 0
    assert checker.failed == 0, "traced reports differ from untraced ones"
    return metrics


def test_traced_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    before = _originals()
    first = _traced_run()
    second = _traced_run()
    assert _originals() == before, "uninstall left a wrapper behind"

    counts = {name: value for name, value in first.items() if name.endswith(COUNT_SUFFIXES)}
    assert counts == {name: second[name] for name in counts}
    for name in (
        "linalg.solve_in_span.calls",
        "linalg.Mat.rank.cells",
        "jets.Jet1.scalar_mults",
        "metabelian.OmegaForm.apply.entries_visited",
        "omega_builder.points",
    ):
        assert counts[name][0] > 0, name
    assert (tmp_path / f"trace-small-seed{SEED}.json").is_file()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(first)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {
        (name, unit) for name, (_, unit) in first.items()
    }


def test_predictions_cite_declared_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads == set(WORKLOADS)
    predictions = json.loads((HERE / "predictions.json").read_text())
    cited = set()
    for row in predictions["layers"]:
        cited.update(row["metrics"])
        assert set(row["moves_verify_s_on"]) <= workloads
        assert set(row["leaves_verify_s_alone_on"]) <= workloads
    assert cited == metrics
