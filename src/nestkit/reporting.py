"""Suite reports: deterministic violation records plus run metadata.

The serialized document is a pure function of (suite, config, seed): wall
time is kept on the object for display but stays out of the canonical JSON,
which is what makes repeated runs byte-comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .serialize import canonical_json


@dataclass(frozen=True)
class Violation:
    property_id: str
    instance: Any

    def to_document(self) -> dict:
        return {"property": self.property_id, "instance": self.instance}


def sort_violations(violations: list[Violation]) -> tuple[Violation, ...]:
    return tuple(
        sorted(
            violations,
            key=lambda v: (v.property_id, json.dumps(v.instance, sort_keys=True, default=str)),
        )
    )


class CanonicalReport:
    """The canonical bytes (`canonical_json`) of a suite or search report.
    Subclasses define ``to_document(include_timing)``."""

    def to_json(self, include_timing: bool = False) -> str:
        return canonical_json(self.to_document(include_timing))


@dataclass
class SuiteReport(CanonicalReport):
    suite: str
    config: dict
    instances: int
    violations: tuple[Violation, ...]
    wall_ms: float = 0.0
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_document(self, include_timing: bool = False) -> dict:
        doc = {
            "suite": self.suite,
            "config": self.config,
            "instances": self.instances,
            "status": self.status,
            "violations": [v.to_document() for v in self.violations],
            "notes": list(self.notes),
        }
        if include_timing:
            doc["wall_ms"] = round(self.wall_ms, 3)
        return doc

    def summary(self) -> str:
        head = (
            f"suite {self.suite}: {self.status} "
            f"({self.instances} instances, {len(self.violations)} violations, "
            f"{self.wall_ms:.0f} ms)"
        )
        lines = [head]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for violation in self.violations[:20]:
            lines.append(f"  FAIL {violation.property_id}: {violation.instance}")
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)
