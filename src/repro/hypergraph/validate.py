"""Structural validation of netlist hypergraphs.

Real netlists from parsers or generators can contain pathologies that the
partitioning algorithms either tolerate (and should be warned about) or
reject outright.  :func:`validate` collects every issue found;
:func:`check` raises on the first fatal one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..errors import ValidationError
from .hypergraph import Hypergraph

__all__ = ["Issue", "ValidationReport", "validate", "check"]


@dataclass(frozen=True)
class Issue:
    """One validation finding.

    ``severity`` is ``"error"`` for structures the core algorithms cannot
    process meaningfully and ``"warning"`` for tolerated oddities.
    """

    severity: str
    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.severity}] {self.code}: {self.message}"


@dataclass
class ValidationReport:
    """All issues found in one hypergraph."""

    issues: List[Issue] = field(default_factory=list)

    @property
    def errors(self) -> List[Issue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> List[Issue]:
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *errors* were found (warnings are allowed)."""
        return not self.errors

    def __str__(self) -> str:  # pragma: no cover - trivial
        if not self.issues:
            return "validation: clean"
        return "\n".join(str(i) for i in self.issues)


def validate(h: Hypergraph) -> ValidationReport:
    """Inspect ``h`` and report structural issues.

    Checks performed:

    * ``empty-netlist`` (error): no modules at all.
    * ``no-nets`` (error): modules but zero nets — nothing to partition.
    * ``empty-net`` (warning): a net with zero pins.  Harmless but usually
      a parser artefact; such nets can never be cut.
    * ``single-pin-net`` (warning): a 1-pin net carries no connectivity
      information and inflates net-cut-free statistics.
    * ``isolated-module`` (warning): a module on no net; it will be placed
      arbitrarily by every algorithm.
    * ``duplicate-net`` (warning): two nets with identical pin sets;
      legitimate (parallel wires) but worth flagging.
    * ``too-few-modules`` (error): fewer than 2 modules makes every
      bipartitioning problem vacuous.
    """
    report = ValidationReport()
    add = report.issues.append

    if h.num_modules == 0:
        add(Issue("error", "empty-netlist", "hypergraph has no modules"))
        return report
    if h.num_modules < 2:
        add(
            Issue(
                "error",
                "too-few-modules",
                f"only {h.num_modules} module(s); bipartitioning needs >= 2",
            )
        )
    if h.num_nets == 0:
        add(Issue("error", "no-nets", "hypergraph has no nets"))

    seen_pin_sets = {}
    for net, pins in h.iter_nets():
        if len(pins) == 0:
            add(
                Issue(
                    "warning",
                    "empty-net",
                    f"net {h.net_name(net)} (index {net}) has no pins",
                )
            )
        elif len(pins) == 1:
            add(
                Issue(
                    "warning",
                    "single-pin-net",
                    f"net {h.net_name(net)} (index {net}) has a single pin",
                )
            )
        first = seen_pin_sets.get(pins)
        if first is not None and pins:
            add(
                Issue(
                    "warning",
                    "duplicate-net",
                    f"net {h.net_name(net)} duplicates net "
                    f"{h.net_name(first)} (pins {pins})",
                )
            )
        else:
            seen_pin_sets[pins] = net

    for module in h.isolated_modules():
        add(
            Issue(
                "warning",
                "isolated-module",
                f"module {h.module_name(module)} (index {module}) "
                "is on no net",
            )
        )
    return report


def check(h: Hypergraph) -> None:
    """Raise :class:`ValidationError` if ``h`` has any fatal issue."""
    report = validate(h)
    if not report.ok:
        raise ValidationError(
            "; ".join(str(i) for i in report.errors)
        )
