"""Verification reports with byte-stable serialization.

The JSON form contains only deterministic content (label, seed, sample
counts, dims, per-check tallies), so two runs with the same seed emit
identical bytes.  Wall time is kept on the object, for the CLI to
print to stderr, and is in neither the JSON nor the text rendering.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class CheckResult:
    name: str
    samples: int
    passes: int
    skips: int = 0
    witness: str | None = None

    @property
    def failures(self) -> int:
        return self.samples - self.passes - self.skips

    def to_dict(self):
        return {**asdict(self), "failures": self.failures}


@dataclass
class VerificationReport:
    label: str
    seed: int
    samples: int
    dims: dict
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        """No check failed, and none skipped every sample it drew."""
        return all(c.failures == 0 and (c.passes or not c.samples) for c in self.checks)

    def to_dict(self):
        return {
            "label": self.label,
            "seed": self.seed,
            "samples": self.samples,
            "dims": self.dims,
            "checks": [c.to_dict() for c in self.checks],
            "verdict": "pass" if self.passed else "fail",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"fixture: {self.label}",
            f"seed:    {self.seed}",
            f"samples: {self.samples}",
            "dims:    "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.dims.items())),
            "",
            f"{'check':<28}{'samples':>8}{'passes':>8}{'skips':>7}{'fails':>7}",
        ]
        for c in self.checks:
            lines.append(
                f"{c.name:<28}{c.samples:>8}{c.passes:>8}{c.skips:>7}{c.failures:>7}"
            )
            if c.witness:
                lines.append(f"    witness: {c.witness}")
        lines.append("")
        lines.append(f"verdict: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines) + "\n"
