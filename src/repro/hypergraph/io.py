"""Netlist file formats.

Two formats are supported:

* **JSON** — a faithful, lossless serialisation of a hypergraph, used for
  caching generated benchmarks.
* **NET text format** — a minimal human-editable format in the spirit of
  the MCNC / bookshelf netlist files the paper's benchmarks shipped in::

      # comment
      module <name> [area]          (optional; modules auto-created by nets)
      net <name> <module> <module> ...

  Lines are whitespace-separated; blank lines and ``#`` comments ignored.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Type, Union

from ..errors import ParseError, ReproError
from .hypergraph import Hypergraph

__all__ = [
    "json_float",
    "json_int",
    "to_json",
    "from_json",
    "save_json",
    "load_json",
    "dumps_net",
    "loads_net",
    "save_net",
    "load_net",
]

PathLike = Union[str, Path]

_JSON_FORMAT = "repro-hypergraph-v1"


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def json_int(
    value: Any, what: str, error: Type[ReproError] = ParseError
) -> int:
    """``value``, read from a JSON document as an index or a count.

    Only an integer passes.  ``json`` also yields bools, floats
    (``2.5``, ``Infinity``) and strings, which ``int()`` would truncate,
    coerce or fail on with ``OverflowError``; each raises ``error``
    naming ``what`` instead.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise error(f"{what} must be an integer, got {value!r}")


def json_float(
    value: Any, what: str, error: Type[ReproError] = ParseError
) -> float:
    """``value``, read from a JSON document as an area or a weight.

    Only an integer or a float passes, as a float.  ``float()`` would
    also read bools and numeric strings; each raises ``error`` naming
    ``what`` instead.  Whether the number is finite and non-negative is
    the caller's check.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise error(
                f"{what} must be finite, got an integer beyond the "
                f"float range"
            ) from None
    raise error(f"{what} must be a number, got {value!r}")


def to_json(h: Hypergraph) -> dict:
    """Serialise ``h`` to a JSON-compatible dictionary."""
    doc = {
        "format": _JSON_FORMAT,
        "name": h.name,
        "num_modules": h.num_modules,
        "nets": [list(h.pins(j)) for j in range(h.num_nets)],
    }
    if h.has_module_names:
        doc["module_names"] = [
            h.module_name(v) for v in range(h.num_modules)
        ]
    if h.has_net_names:
        doc["net_names"] = [h.net_name(j) for j in range(h.num_nets)]
    if any(a != 1.0 for a in h.module_areas):
        doc["module_areas"] = list(h.module_areas)
    if h.has_net_weights:
        doc["net_weights"] = list(h.net_weights)
    return doc


def from_json(doc: Mapping) -> Hypergraph:
    """Rebuild a hypergraph from :func:`to_json` output.

    A document that is not an object, lacks a required key, or holds
    values of the wrong type raises :class:`ParseError`; pins and
    ``num_modules`` must be JSON integers (:func:`json_int`), areas and
    weights JSON numbers (:func:`json_float`).
    """
    if not isinstance(doc, Mapping):
        raise ParseError(
            f"netlist document must be a JSON object, not "
            f"{type(doc).__name__}"
        )
    if doc.get("format") != _JSON_FORMAT:
        raise ParseError(
            f"unrecognised format tag {doc.get('format')!r}; "
            f"expected {_JSON_FORMAT!r}"
        )
    try:
        return Hypergraph(
            [
                [json_int(p, f"net {j} pin") for p in net]
                for j, net in enumerate(doc["nets"])
            ],
            num_modules=json_int(doc["num_modules"], "num_modules"),
            module_names=doc.get("module_names"),
            net_names=doc.get("net_names"),
            module_areas=_json_floats(doc.get("module_areas"), "module area"),
            net_weights=_json_floats(doc.get("net_weights"), "net weight"),
            name=doc.get("name", ""),
        )
    except KeyError as exc:
        raise ParseError(
            f"netlist document lacks the {exc.args[0]!r} key"
        ) from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed netlist document: {exc}") from None


def _json_floats(values: Any, what: str) -> Optional[List[float]]:
    """An optional list of areas or weights, each read by
    :func:`json_float`."""
    if values is None:
        return None
    return [json_float(x, what) for x in values]


def save_json(h: Hypergraph, path: PathLike) -> None:
    """Write ``h`` as JSON to ``path``."""
    Path(path).write_text(json.dumps(to_json(h)), encoding="utf-8")


def load_json(path: PathLike) -> Hypergraph:
    """Read a hypergraph from a JSON file written by :func:`save_json`."""
    return from_json(json.loads(Path(path).read_text(encoding="utf-8")))


# ----------------------------------------------------------------------
# NET text format
# ----------------------------------------------------------------------
def comment_text(text: str) -> str:
    """``text`` on one line, for a comment: whitespace runs, line
    breaks included, become single spaces."""
    return " ".join(text.split())


def token_names(h: Hypergraph, fmt: str) -> Tuple[List[str], List[str]]:
    """``h``'s module and net names, for a format of whitespace-split
    lines with ``#`` comments and no net weights.

    Raises :class:`ParseError` naming the first module or net ``fmt``
    cannot hold: a name that is not one token without whitespace or
    ``#``, a name another module (or net) already has, or a net weight
    other than 1.
    """
    module_names = [h.module_name(v) for v in range(h.num_modules)]
    net_names = [h.net_name(j) for j in range(h.num_nets)]
    for kind, names in (("module", module_names), ("net", net_names)):
        seen: Set[str] = set()
        for i, name in enumerate(names):
            if name.split() != [name] or "#" in name:
                why = "a name must be one token without whitespace or '#'"
            elif name in seen:
                why = f"another {kind} has the same name"
            else:
                seen.add(name)
                continue
            raise ParseError(
                f"cannot write {kind} {i} ({name!r}) as {fmt}: {why}"
            )
    for j, weight in enumerate(h.net_weights):
        if weight != 1.0:
            raise ParseError(
                f"cannot write net {j} ({net_names[j]!r}) as {fmt}: "
                f"its weight is {weight!r} and the format carries none"
            )
    return module_names, net_names


def dumps_net(h: Hypergraph) -> str:
    """Render ``h`` in the NET text format.

    The text reads back as ``h``: areas are written with ``repr``,
    which round-trips every float.  A hypergraph the format cannot
    hold raises :class:`ParseError` naming the first module or net at
    fault: a name that is not one token without whitespace or ``#``, a
    name two modules (or two nets) share, or a net weight other than 1.
    """
    module_names, net_names = token_names(h, "NET")
    lines = [f"# netlist {comment_text(h.name) or '(unnamed)'}"]
    lines.append(
        f"# {h.num_modules} modules, {h.num_nets} nets, {h.num_pins} pins"
    )
    for v in range(h.num_modules):
        area = h.module_area(v)
        if area != 1.0:
            lines.append(f"module {module_names[v]} {area!r}")
        else:
            lines.append(f"module {module_names[v]}")
    for j, pins in enumerate(h.net_pins):
        names = " ".join(module_names[p] for p in pins)
        lines.append(f"net {net_names[j]} {names}")
    return "\n".join(lines) + "\n"


def loads_net(text: str, name: str = "") -> Hypergraph:
    """Parse the NET text format from a string.

    One pass fills the lists :class:`Hypergraph` takes: a ``module``
    line declares a module, and a net's pin names a module not seen
    before creates it with unit area.  Each malformed line raises
    :class:`ParseError` with its line number.
    """
    module_index: Dict[str, int] = {}
    module_names: List[str] = []
    areas: List[float] = []
    nets: List[List[int]] = []
    net_names: List[str] = []
    seen_nets: Set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0].lower()
        if keyword == "net":
            if len(fields) < 2:
                raise ParseError("expected 'net <name> <pins...>'", line=lineno)
            pins = []
            for pin in fields[2:]:
                index = module_index.get(pin)
                if index is None:
                    index = module_index[pin] = len(module_names)
                    module_names.append(pin)
                    areas.append(1.0)
                pins.append(index)
            net_name = fields[1]
            if net_name in seen_nets:
                raise ParseError(
                    f"duplicate net name {net_name!r}", line=lineno
                )
            seen_nets.add(net_name)
            nets.append(pins)
            net_names.append(net_name)
        elif keyword == "module":
            if len(fields) not in (2, 3):
                raise ParseError(
                    "expected 'module <name> [area]'", line=lineno
                )
            area = 1.0
            if len(fields) == 3:
                try:
                    area = float(fields[2])
                except ValueError:
                    area = math.nan  # rejected just below
                # The chained comparison fails for negatives, NaN and inf.
                if not 0 <= area < math.inf:
                    raise ParseError(
                        f"bad module area {fields[2]!r}", line=lineno
                    )
            if fields[1] in module_index:
                raise ParseError(
                    f"module {fields[1]!r} declared twice", line=lineno
                )
            module_index[fields[1]] = len(module_names)
            module_names.append(fields[1])
            areas.append(area)
        else:
            raise ParseError(
                f"unknown keyword {fields[0]!r} "
                "(expected 'module' or 'net')",
                line=lineno,
            )
    return Hypergraph(
        nets,
        num_modules=len(module_names),
        module_names=module_names,
        net_names=net_names,
        module_areas=areas,
        name=name,
    )


def save_net(h: Hypergraph, path: PathLike) -> None:
    """Write ``h`` in the NET text format."""
    Path(path).write_text(dumps_net(h), encoding="utf-8")


def load_net(path: PathLike) -> Hypergraph:
    """Read a NET-format netlist file."""
    path = Path(path)
    return loads_net(path.read_text(encoding="utf-8"), name=path.stem)
