"""The hMETIS ``.hgr`` hypergraph format.

The de-facto standard exchange format for hypergraph partitioning
benchmarks (hMETIS, KaHyPar, the ISPD98 circuit suite all speak it):

* first non-comment line: ``<num_nets> <num_vertices> [fmt]``
* then one line per net listing its pins as **1-indexed** vertex ids
* ``fmt`` flags: ``1`` — each net line starts with a net weight;
  ``10`` — after the net lines, one line per vertex with its weight;
  ``11`` — both.
* ``%`` starts a comment line.

Net weights map to :meth:`Hypergraph.net_weight` (the paper's
algorithms count nets, but the weighted cut metrics and file
round-trips preserve them); vertex weights map to module areas.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Optional, Union

from ...errors import ParseError
from ..hypergraph import Hypergraph
from ..io import comment_text

__all__ = ["loads_hgr", "dumps_hgr", "load_hgr", "save_hgr"]

PathLike = Union[str, Path]


def loads_hgr(text: str, name: str = "") -> Hypergraph:
    """Parse hMETIS ``.hgr`` text into a hypergraph."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("%"):
            lines.append((lineno, stripped))
    if not lines:
        raise ParseError("empty .hgr file")

    header_line, header = lines[0]
    fields = header.split()
    if len(fields) not in (2, 3):
        raise ParseError(
            "header must be '<nets> <vertices> [fmt]'", line=header_line
        )
    try:
        num_nets = int(fields[0])
        num_vertices = int(fields[1])
        fmt = int(fields[2]) if len(fields) == 3 else 0
    except ValueError:
        raise ParseError(
            f"non-integer header field in {header!r}", line=header_line
        ) from None
    if fmt not in (0, 1, 10, 11):
        raise ParseError(f"unsupported fmt code {fmt}", line=header_line)
    has_net_weights = fmt in (1, 11)
    has_vertex_weights = fmt in (10, 11)

    body = lines[1:]
    expected = num_nets + (num_vertices if has_vertex_weights else 0)
    if len(body) != expected:
        raise ParseError(
            f"expected {expected} data lines "
            f"({num_nets} nets"
            + (f" + {num_vertices} vertex weights" if has_vertex_weights
               else "")
            + f"), found {len(body)}"
        )

    nets: List[List[int]] = []
    net_weights: Optional[List[float]] = [] if has_net_weights else None
    for lineno, line in body[:num_nets]:
        try:
            numbers = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(
                f"non-integer pin in {line!r}", line=lineno
            ) from None
        if net_weights is not None:
            if len(numbers) < 2:
                raise ParseError(
                    "weighted net line needs a weight and >= 1 pin",
                    line=lineno,
                )
            if numbers[0] < 0:
                raise ParseError(
                    f"negative net weight {numbers[0]}", line=lineno
                )
            net_weights.append(float(numbers[0]))
            numbers = numbers[1:]
        pins = []
        for pin in numbers:
            if not 1 <= pin <= num_vertices:
                raise ParseError(
                    f"pin {pin} out of range 1..{num_vertices}",
                    line=lineno,
                )
            pins.append(pin - 1)
        nets.append(pins)

    areas: Optional[List[float]] = None
    if has_vertex_weights:
        areas = []
        for lineno, line in body[num_nets:]:
            try:
                weight = float(line.split()[0])
            except (ValueError, IndexError):
                weight = math.nan  # rejected just below
            # The chained comparison fails for negatives, NaN and inf.
            if not 0 <= weight < math.inf:
                raise ParseError(
                    f"bad vertex weight line {line!r}", line=lineno
                )
            areas.append(weight)

    return Hypergraph(
        nets,
        num_modules=num_vertices,
        module_areas=areas,
        net_weights=net_weights,
        name=name,
    )


def _integral(value: float, what: str) -> int:
    if value != int(value):
        raise ParseError(
            f"cannot write {what} as .hgr: its weight {value!r} is not "
            "an integer"
        )
    return int(value)


def dumps_hgr(h: Hypergraph) -> str:
    """Render a hypergraph as hMETIS ``.hgr`` text.

    Module areas are emitted as vertex weights and explicit net weights
    as net weights (fmt 1/10/11 accordingly); both must be integral,
    per the format, and every net needs a pin (a net line with none
    would be blank, which the reader skips).  A hypergraph that breaks
    either rule raises :class:`ParseError` naming the first module or
    net at fault.
    """
    vertex_weighted = any(a != 1.0 for a in h.module_areas)
    net_weighted = h.has_net_weights
    fmt = (1 if net_weighted else 0) + (10 if vertex_weighted else 0)
    lines = [f"% {comment_text(h.name) or 'hypergraph'}: {h.num_nets} "
             f"nets, {h.num_modules} vertices"]
    lines.append(
        f"{h.num_nets} {h.num_modules}" + (f" {fmt}" if fmt else "")
    )
    for j, net in enumerate(h.net_pins):
        if not net:
            raise ParseError(f"cannot write net {j} as .hgr: it has no pins")
        pins = " ".join(str(p + 1) for p in net)
        if net_weighted:
            weight = _integral(h.net_weight(j), f"net {j}")
            lines.append(f"{weight} {pins}")
        else:
            lines.append(pins)
    if vertex_weighted:
        for v in range(h.num_modules):
            lines.append(str(_integral(h.module_area(v), f"module {v}")))
    return "\n".join(lines) + "\n"


def load_hgr(path: PathLike) -> Hypergraph:
    """Read an hMETIS ``.hgr`` file."""
    path = Path(path)
    return loads_hgr(path.read_text(encoding="utf-8"), name=path.stem)


def save_hgr(h: Hypergraph, path: PathLike) -> None:
    """Write an hMETIS ``.hgr`` file."""
    Path(path).write_text(dumps_hgr(h), encoding="utf-8")
