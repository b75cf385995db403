"""Shared report containers for the consistency checks."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .expressions import _worst


@dataclass
class ConditionResult:
    name: str
    max_residual: float
    worst_point: Optional[dict]
    passed: bool

    def __repr__(self):
        flag = "pass" if self.passed else "FAIL"
        return f"<{self.name}: {flag} max={self.max_residual:.3e}>"


@dataclass
class ConsistencyReport:
    """A check's conditions; ``passed``, ``vacuous`` and ``worst`` are the verdict rules."""

    conditions: list[ConditionResult] = field(default_factory=list)
    seed: int = 42
    tolerance: float = 1e-9
    note: str = ""
    extra: Optional[dict] = None

    @property
    def vacuous(self) -> bool:
        """Whether the check evaluated no condition."""
        return not self.conditions

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def max_residual(self) -> float:
        worst = self.worst
        return worst.max_residual if worst else 0.0

    @property
    def worst(self) -> Optional[ConditionResult]:
        """The first condition with a NaN residual, else the first with the largest."""
        found = [(c.max_residual, c) for c in self.conditions]
        return _worst(found, found[0])[1] if found else None

    def add(self, name, max_residual, worst_point) -> None:
        self.conditions.append(ConditionResult(
            name=name,
            max_residual=float(max_residual),
            worst_point=worst_point,
            passed=float(max_residual) <= self.tolerance,
        ))

    def summary(self) -> str:
        flag = "VACUOUS" if self.vacuous else ("PASS" if self.passed else "FAIL")
        return (
            f"{flag}: {len(self.conditions)} conditions, "
            f"max residual {self.max_residual:.3e} (seed {self.seed})"
        )
