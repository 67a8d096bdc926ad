"""Machine-readable outcomes of the exact, symbolic checks."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Mapping, NamedTuple

from .polyring import Poly


@dataclass
class VerificationReport:
    """Outcome of a single named check.

    ``status`` is "pass" iff every residual is the zero polynomial; no check
    has a tolerance.  Residuals are kept as canonical strings (or a string
    that describes a failure) so a failure is diagnosable without re-running.
    """

    check: str
    status: str
    residuals: list[str] = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        """The fields by name, shallow: the residual list and witness dict
        are the report's own, already plain JSON values."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Outcome(NamedTuple):
    """A check body's result when it has witnesses to record as well."""

    residuals: Iterable[Poly | str]
    witnesses: Mapping


def run_check(
    check: str, body: Callable[[], Iterable[Poly | str] | Outcome]
) -> VerificationReport:
    """Run the body of one named check, timing it, and build its report.

    ``body`` returns its residuals, or an :class:`Outcome` that adds
    witnesses.  A residual polynomial fails the check unless it is zero; a
    residual string describes a failure.  Only failures are recorded, as
    strings, so a passing report has an empty residual list.
    """
    started = time.perf_counter()
    result = body()
    # a residual tuple (as from ham_vector_field) is not an Outcome
    outcome = result if isinstance(result, Outcome) else Outcome(result, {})
    failures = [str(r) for r in outcome.residuals if isinstance(r, str) or not r.is_zero]
    return VerificationReport(
        check=check,
        status="pass" if not failures else "fail",
        residuals=failures,
        witnesses=dict(outcome.witnesses),
        elapsed_ms=(time.perf_counter() - started) * 1e3,
    )
