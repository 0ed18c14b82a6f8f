"""A structural-Verilog front-end.

The paper's benchmark circuits are gate-level designs; this module lets
the library ingest the common interchange form for such designs — a
*structural* Verilog subset (one module, scalar nets, primitive or
named-cell instantiations):

.. code-block:: verilog

    // half adder
    module half_adder (a, b, sum, carry);
      input a, b;
      output sum, carry;
      wire w1;
      xor g1 (sum, a, b);
      and g2 (carry, a, b);
    endmodule

Mapping to the netlist hypergraph:

* every *gate instance* becomes a module (area 1);
* every top-level port becomes a pad module (area 0) so I/O connectivity
  is preserved — pads are modules too, as in the MCNC netlists;
* every declared net (ports and wires) becomes a hyperedge over the
  instances/pads that reference it; unconnected nets are dropped.

Out of scope (rejected with a clear error): vectors (``[3:0]``),
``assign``, behavioural blocks, parameters, and multiple modules per
file.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Set, Tuple, Union

from ...errors import ParseError
from ..builder import HypergraphBuilder
from ..hypergraph import Hypergraph

__all__ = ["loads_verilog", "load_verilog", "dumps_verilog",
           "save_verilog"]

PathLike = Union[str, Path]

_IDENT = r"[A-Za-z_][A-Za-z0-9_$]*"
_IDENT_RE = re.compile(_IDENT)

_UNSUPPORTED = (
    "assign", "always", "initial", "parameter", "generate", "function",
    "task",
)


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    return text


def _statements(text: str) -> List[str]:
    """Split on ';', keeping 'module ... ;' and 'endmodule' separate."""
    out = []
    for chunk in text.split(";"):
        stripped = " ".join(chunk.split())
        if stripped:
            out.append(stripped)
    return out


def _split_identifiers(body: str, what: str) -> List[str]:
    names = [tok.strip() for tok in body.split(",")]
    for name in names:
        if not re.fullmatch(_IDENT, name):
            raise ParseError(
                f"bad {what} name {name!r} (vectors and expressions "
                "are not supported)"
            )
    return names


def loads_verilog(text: str, name: str = "") -> Hypergraph:
    """Parse one structural Verilog module into a hypergraph."""
    text = _strip_comments(text)
    if "[" in text or "]" in text:
        raise ParseError(
            "vector nets ([msb:lsb]) are not supported by the "
            "structural subset"
        )
    statements = _statements(text)
    if not statements:
        raise ParseError("empty Verilog source")

    module_name = ""
    ports: List[str] = []
    declared: Set[str] = set()
    port_dirs: Dict[str, str] = {}
    instances: List[Tuple[str, str, List[str]]] = []
    saw_module = False
    saw_endmodule = False

    for statement in statements:
        first = statement.split()[0]
        if first in _UNSUPPORTED:
            raise ParseError(
                f"unsupported construct {first!r}: only structural "
                "netlists (declarations + instantiations) are accepted"
            )
        if first == "module":
            if saw_module:
                raise ParseError("multiple modules per file not supported")
            saw_module = True
            match = re.fullmatch(
                rf"module\s+({_IDENT})\s*(?:\(([^)]*)\))?", statement
            )
            if not match:
                raise ParseError(f"bad module header: {statement!r}")
            module_name = match.group(1)
            if match.group(2) and match.group(2).strip():
                ports = _split_identifiers(match.group(2), "port")
                declared.update(ports)
            continue
        if statement == "endmodule" or statement.startswith("endmodule"):
            saw_endmodule = True
            continue
        if not saw_module:
            raise ParseError(
                f"statement before 'module': {statement!r}"
            )
        if first in ("input", "output", "inout", "wire"):
            body = statement[len(first):].strip()
            if not body:
                raise ParseError(f"empty {first} declaration")
            names = _split_identifiers(body, first)
            declared.update(names)
            if first != "wire":
                for port in names:
                    port_dirs[port] = first
            continue
        # Gate / cell instantiation: <type> <name> ( net, net, ... )
        match = re.fullmatch(
            rf"({_IDENT})\s+({_IDENT})\s*\(([^)]*)\)", statement
        )
        if not match:
            raise ParseError(f"unrecognised statement: {statement!r}")
        cell_type, instance_name, pin_body = match.groups()
        if "." in pin_body:
            raise ParseError(
                "named port connections (.port(net)) are not supported; "
                "use positional connections"
            )
        pins = _split_identifiers(pin_body, "connection")
        instances.append((cell_type, instance_name, pins))

    if not saw_module:
        raise ParseError("no 'module' statement found")
    if not saw_endmodule:
        raise ParseError("missing 'endmodule'")
    if not instances:
        raise ParseError(f"module {module_name!r} has no instances")

    builder = HypergraphBuilder()
    # Pads first (stable indices), then gate instances.
    for port in ports:
        builder.add_module(f"pad:{port}", area=0.0)
    for _, instance_name, _ in instances:
        if builder.has_module(instance_name):
            raise ParseError(
                f"duplicate instance name {instance_name!r}"
            )
        builder.add_module(instance_name, area=1.0)

    connections: Dict[str, List[int]] = {}
    for port in ports:
        connections.setdefault(port, []).append(
            builder.module_index(f"pad:{port}")
        )
    for cell_type, instance_name, pins in instances:
        index = builder.module_index(instance_name)
        for net in pins:
            if net not in declared:
                raise ParseError(
                    f"instance {instance_name!r} references undeclared "
                    f"net {net!r}"
                )
            connections.setdefault(net, []).append(index)

    for net_name in sorted(connections):
        pins = sorted(set(connections[net_name]))
        if len(pins) >= 2:
            builder.add_net(pins, name=net_name)
    return builder.build(name=name or module_name)


def load_verilog(path: PathLike) -> Hypergraph:
    """Read a structural Verilog file."""
    path = Path(path)
    return loads_verilog(path.read_text(encoding="utf-8"), name=path.stem)


def dumps_verilog(h: Hypergraph, module_name: str = "") -> str:
    """Render a hypergraph as a generic structural Verilog netlist.

    The text reads back (:func:`loads_verilog`) as ``h``, names
    included.  A module named ``pad:<port>`` becomes the port
    ``<port>``, which the reader turns back into a pad of area 0 on the
    net of that name; every other module becomes a ``cell`` instance of
    area 1 whose positional pins are its nets (gate types are not
    stored in the hypergraph).  The reader lists pads before instances
    and nets by name, and drops nets with fewer than two pins, so ``h``
    must do the same; unnamed nets are written ``n<j>`` zero-padded,
    which sorts in net order.  A hypergraph the subset cannot hold
    raises :class:`ParseError` naming the first module or net at fault.
    ``module_name`` defaults to ``h.name`` made an identifier.
    """
    if module_name and not _IDENT_RE.fullmatch(module_name):
        raise ParseError(
            f"cannot write module name {module_name!r} as Verilog: "
            "not an identifier"
        )
    if not module_name:
        module_name = re.sub(r"[^A-Za-z0-9_$]+", "_", h.name)
        if not _IDENT_RE.fullmatch(module_name):
            module_name = "netlist"

    def fault(kind: str, index: int, name: str, why: str) -> ParseError:
        return ParseError(
            f"cannot write {kind} {index} ({name!r}) as Verilog: {why}"
        )

    width = len(str(h.num_nets - 1))
    net_names = [
        h.net_name(j) if h.has_net_names else f"n{j:0{width}d}"
        for j in range(h.num_nets)
    ]
    for j, name in enumerate(net_names):
        if not _IDENT_RE.fullmatch(name):
            raise fault("net", j, name, "not an identifier")
        if j and name <= net_names[j - 1]:
            raise fault("net", j, name, "the reader orders nets by name")
        if len(h.pins(j)) < 2:
            raise fault("net", j, name, "the reader drops nets with "
                        "fewer than two pins")
        if h.net_weight(j) != 1.0:
            raise fault("net", j, name, "the format carries no net "
                        "weights")
    net_index = {name: j for j, name in enumerate(net_names)}

    ports: List[str] = []
    cells: List[str] = []
    seen: Set[str] = set()
    for v in range(h.num_modules):
        name = h.module_name(v)
        if name in seen:
            raise fault("module", v, name, "another module has the "
                        "same name")
        seen.add(name)
        nets = h.nets_of(v)
        if name.startswith("pad:"):
            port = name[len("pad:"):]
            own = (net_index[port],) if port in net_index else ()
            if cells:
                raise fault("module", v, name, "the reader lists pads "
                            "before instances")
            if not _IDENT_RE.fullmatch(port):
                raise fault("module", v, name, "the port is not an "
                            "identifier")
            if h.module_area(v) != 0.0 or nets != own:
                raise fault("module", v, name, "a pad has area 0 and "
                            "lies on its port's net alone")
            ports.append(port)
        else:
            if not _IDENT_RE.fullmatch(name):
                raise fault("module", v, name, "not an identifier")
            if h.module_area(v) != 1.0 or not nets:
                raise fault("module", v, name, "an instance has area 1 "
                            "and at least one net")
            pins = ", ".join(net_names[j] for j in nets)
            cells.append(f"  cell {name} ({pins});")
    if not cells:
        raise ParseError(
            "cannot write as Verilog: the reader needs an instance, a "
            "module not named 'pad:<port>'"
        )

    lines = [f"module {module_name} ({', '.join(ports)});"]
    if ports:
        lines.append(f"  inout {', '.join(ports)};")
    port_set = set(ports)
    lines.extend(
        f"  wire {name};" for name in net_names if name not in port_set
    )
    lines.extend(cells)
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def save_verilog(
    h: Hypergraph, path: PathLike, module_name: str = ""
) -> None:
    """Write a structural Verilog view of ``h``."""
    Path(path).write_text(
        dumps_verilog(h, module_name), encoding="utf-8"
    )
