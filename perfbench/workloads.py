"""Benchmark workloads: the verify calls each one makes, and their known answers.

Sizes were chosen on a 2-core host with the stdlib Fraction backend so
that one pass of a workload takes seconds, not minutes, and so that the
two workloads load different layers (see BENCHMARK.json for the reason
behind each and predictions.json for the layer metrics each should move).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    """One `metaline verify builtin:FIXTURE` call."""

    fixture: str
    samples: int
    checks: tuple = ()

    def argv(self, seed, out):
        args = ["verify", f"builtin:{self.fixture}", "--seed", str(seed)]
        args += ["--samples", str(self.samples)]
        if self.checks:
            args += ["--checks", ",".join(self.checks)]
        args += ["--out", str(out)]
        return args

    @property
    def key(self):
        """Names the call's report: the fixture, and its checks if not all run."""
        return "+".join((self.fixture,) + self.checks)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple


_CURVES = ("veronese-2-3", "veronese-2-4", "flat-conic", "flat-linear", "nonisotropic-cubic")

WORKLOADS = {
    w.name: w
    for w in (
        # One short call per slide check: each call is timed against the
        # reference runs on either side of it (see run.Yardstick), which
        # tracks the host's speed only over a second or two.
        Workload(
            "conic-slide",
            tuple(
                Call("veronese3-of-conic", samples=1, checks=(check,))
                for check in ("slide-identity", "slide-identity-alt-chart")
            ),
        ),
        Workload("curves-suite", tuple(Call(name, samples=50) for name in _CURVES)),
    )
}

# The only builtin whose form is not isotropic: its certificate must fail.
EXPECTED_FAIL = frozenset({"nonisotropic-cubic"})


def expected_verdict(fixture):
    return "fail" if fixture in EXPECTED_FAIL else "pass"
