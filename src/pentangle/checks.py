"""The check record shared by every suite verifier.

A verifier reports a list of named checks, each the dict
``{"name", "passed", "detail"}``, plus ``"soft": True`` on a statistical
envelope check.  :mod:`pentangle.report` turns every check into one
claim; a soft check becomes a ``soft-pass`` or ``soft-fail`` claim.
"""

from __future__ import annotations


class Checks:
    """The checks of one verifier, in the order they were made."""

    __slots__ = ("records",)

    def __init__(self):
        self.records: list[dict] = []

    def add(self, name: str, ok, detail: str = "", soft: bool = False) -> None:
        record = {"name": name, "passed": bool(ok), "detail": detail}
        if soft:
            record["soft"] = True
        self.records.append(record)

    @property
    def passed(self) -> bool:
        """Every hard check passed; soft checks do not count."""
        return all(r["passed"] for r in self.records if not r.get("soft"))

    @property
    def soft_passed(self) -> bool:
        """Every soft check passed."""
        return all(r["passed"] for r in self.records if r.get("soft"))


def error_text(exc: Exception) -> str:
    """The detail of a check or claim that an exception decided."""
    return "%s: %s" % (type(exc).__name__, exc)
