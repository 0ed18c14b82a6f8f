"""The GSRC Bookshelf netlist format (``.nodes`` + ``.nets``).

The placement-community exchange format that superseded the raw MCNC
files.  The subset implemented here covers the netlist content:

``.nodes``::

    UCLA nodes 1.0
    # comments
    NumNodes      : <n>
    NumTerminals  : <t>
        <name> <width> <height> [terminal]

``.nets``::

    UCLA nets 1.0
    NumNets : <m>
    NumPins : <p>
    NetDegree : <k> [net_name]
        <node_name> <I|O|B> [: <x_off> <y_off>]

Pin directions and offsets are parsed and discarded (partitioning sees
only the hypergraph); node ``width*height`` becomes the module area,
with zero-area terminals normalised to area 0.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Tuple, Union

from ...errors import ParseError
from ..builder import HypergraphBuilder
from ..hypergraph import Hypergraph
from ..io import token_names

__all__ = [
    "loads_bookshelf",
    "dumps_bookshelf",
    "load_bookshelf",
    "save_bookshelf",
]

PathLike = Union[str, Path]


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


def _parse_count(line: str, key: str, lineno: int) -> int:
    parts = line.replace(":", " : ").split(":")
    if len(parts) != 2 or parts[0].strip() != key:
        raise ParseError(f"expected '{key} : <count>'", line=lineno)
    try:
        return int(parts[1].strip())
    except ValueError:
        raise ParseError(
            f"bad count in {line!r}", line=lineno
        ) from None


def _parse_nodes(text: str) -> List[Tuple[str, float, bool]]:
    """Parse a .nodes file into (name, area, is_terminal) triples."""
    lines = list(_content_lines(text))
    if not lines or not lines[0][1].startswith("UCLA nodes"):
        raise ParseError("missing 'UCLA nodes' header in .nodes file")
    body = lines[1:]
    if len(body) < 2:
        raise ParseError("truncated .nodes file")
    num_nodes = _parse_count(body[0][1], "NumNodes", body[0][0])
    _parse_count(body[1][1], "NumTerminals", body[1][0])

    nodes: List[Tuple[str, float, bool]] = []
    for lineno, line in body[2:]:
        fields = line.split()
        if len(fields) not in (3, 4):
            raise ParseError(
                "expected '<name> <width> <height> [terminal]'",
                line=lineno,
            )
        name = fields[0]
        try:
            width = float(fields[1])
            height = float(fields[2])
        except ValueError:
            width = height = math.nan  # rejected just below
        area = width * height
        # The chained comparisons fail for negatives, NaN and inf.
        if not (
            0 <= width < math.inf
            and 0 <= height < math.inf
            and area < math.inf
        ):
            raise ParseError(
                f"bad node dimensions in {line!r}", line=lineno
            )
        is_terminal = len(fields) == 4
        if is_terminal and fields[3] != "terminal":
            raise ParseError(
                f"unexpected trailing token {fields[3]!r}", line=lineno
            )
        nodes.append((name, area, is_terminal))
    if len(nodes) != num_nodes:
        raise ParseError(
            f"NumNodes says {num_nodes}, found {len(nodes)} node lines"
        )
    return nodes


def loads_bookshelf(
    nodes_text: str, nets_text: str, name: str = ""
) -> Hypergraph:
    """Build a hypergraph from ``.nodes`` + ``.nets`` file contents."""
    builder = HypergraphBuilder()
    for node_name, area, _ in _parse_nodes(nodes_text):
        builder.add_module(node_name, area=area)

    lines = list(_content_lines(nets_text))
    if not lines or not lines[0][1].startswith("UCLA nets"):
        raise ParseError("missing 'UCLA nets' header in .nets file")
    body = lines[1:]
    if len(body) < 2:
        raise ParseError("truncated .nets file")
    num_nets = _parse_count(body[0][1], "NumNets", body[0][0])
    num_pins = _parse_count(body[1][1], "NumPins", body[1][0])

    index = 2
    nets_read = 0
    pins_read = 0
    while index < len(body):
        lineno, line = body[index]
        if not line.startswith("NetDegree"):
            raise ParseError(
                f"expected 'NetDegree : <k>', got {line!r}", line=lineno
            )
        after = line.split(":", 1)[1].split()
        if not after:
            raise ParseError("NetDegree missing a count", line=lineno)
        try:
            degree = int(after[0])
        except ValueError:
            raise ParseError(
                f"bad NetDegree {after[0]!r}", line=lineno
            ) from None
        net_name = after[1] if len(after) > 1 else f"net{nets_read}"
        pins = []
        for offset in range(degree):
            pin_index = index + 1 + offset
            if pin_index >= len(body):
                raise ParseError(
                    f"net {net_name!r} declares {degree} pins but the "
                    "file ends early",
                    line=lineno,
                )
            pin_lineno, pin_line = body[pin_index]
            fields = pin_line.split()
            node_name = fields[0]
            if not builder.has_module(node_name):
                raise ParseError(
                    f"net {net_name!r} references unknown node "
                    f"{node_name!r}",
                    line=pin_lineno,
                )
            pins.append(builder.module_index(node_name))
        builder.add_net(pins, name=net_name)
        nets_read += 1
        pins_read += degree
        index += 1 + degree

    if nets_read != num_nets:
        raise ParseError(
            f"NumNets says {num_nets}, found {nets_read} NetDegree blocks"
        )
    if pins_read != num_pins:
        raise ParseError(
            f"NumPins says {num_pins}, counted {pins_read}"
        )
    return builder.build(name=name)


def dumps_bookshelf(h: Hypergraph) -> Tuple[str, str]:
    """Render ``(nodes_text, nets_text)`` for a hypergraph.

    Areas are emitted as ``<area> 1`` width/height pairs, the area
    written with ``repr`` so it reads back exactly.  A hypergraph the
    format cannot hold raises :class:`ParseError` naming the first
    module or net at fault: a name that is not one token without
    whitespace or ``#``, a name two modules (or two nets) share, or a
    net weight other than 1.
    """
    module_names, net_names = token_names(h, "Bookshelf")
    node_lines = [
        "UCLA nodes 1.0",
        f"NumNodes : {h.num_modules}",
        "NumTerminals : 0",
    ]
    for name, area in zip(module_names, h.module_areas):
        node_lines.append(f"    {name} {area!r} 1")

    net_lines = [
        "UCLA nets 1.0",
        f"NumNets : {h.num_nets}",
        f"NumPins : {h.num_pins}",
    ]
    for name, pins in zip(net_names, h.net_pins):
        net_lines.append(f"NetDegree : {len(pins)} {name}")
        for p in pins:
            net_lines.append(f"    {module_names[p]} B")
    return (
        "\n".join(node_lines) + "\n",
        "\n".join(net_lines) + "\n",
    )


def load_bookshelf(
    nodes_path: PathLike, nets_path: PathLike
) -> Hypergraph:
    """Read a Bookshelf ``.nodes``/``.nets`` pair."""
    nodes_path = Path(nodes_path)
    nets_path = Path(nets_path)
    return loads_bookshelf(
        nodes_path.read_text(encoding="utf-8"),
        nets_path.read_text(encoding="utf-8"),
        name=nets_path.stem,
    )


def save_bookshelf(
    h: Hypergraph, nodes_path: PathLike, nets_path: PathLike
) -> None:
    """Write a Bookshelf ``.nodes``/``.nets`` pair."""
    nodes_text, nets_text = dumps_bookshelf(h)
    Path(nodes_path).write_text(nodes_text, encoding="utf-8")
    Path(nets_path).write_text(nets_text, encoding="utf-8")
