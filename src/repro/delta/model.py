"""Netlist deltas: first-class ECO edits against a base hypergraph.

An engineering change order (ECO) rarely rewrites a netlist — it adds a
few cells, reroutes a handful of signals, tweaks an area.  This module
models such an edit as an immutable :class:`NetlistDelta` value that can
be validated against its base hypergraph, applied to produce the edited
hypergraph, inverted, and composed.  A canonical JSON wire format
(``repro-netlist-delta-v1``) makes deltas portable across the CLI and the
HTTP API.

Index conventions
-----------------
*Removals and edits* (``remove_modules``, ``remove_nets``, ``set_pins``,
``set_net_weights``, ``set_module_areas``) address entities by their
**base** index — the numbering of the hypergraph the delta is written
against.  *Pins* (inside ``add_nets`` entries and ``set_pins`` values)
and explicit insertion ``index`` positions are expressed in the **final**
numbering of the edited hypergraph, because they describe the result.
Added entities without an explicit ``index`` append after the survivors,
which keep their relative order.

Pins of removed modules are stripped from every surviving net
automatically; a net edited via ``set_pins`` is replaced wholesale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import DeltaError
from ..hypergraph import Hypergraph
from ..hypergraph.io import json_float, json_int

__all__ = [
    "DELTA_FORMAT",
    "DeltaApplication",
    "ModuleAdd",
    "NetAdd",
    "NetlistDelta",
    "delta_from_maps",
    "dumps_delta",
    "load_delta",
    "loads_delta",
    "random_delta",
    "save_delta",
]

PathLike = Union[str, Path]

DELTA_FORMAT = "repro-netlist-delta-v1"


def _json_index(value, what: str) -> Optional[int]:
    """An optional wire-format index: ``None`` or a JSON integer."""
    return None if value is None else json_int(value, what, DeltaError)


def _json_indices(values, what: str) -> Tuple[int, ...]:
    """A wire-format index list; every entry must be a JSON integer."""
    return tuple(json_int(v, what, DeltaError) for v in values)


@dataclass(frozen=True)
class ModuleAdd:
    """One module added by a delta.

    ``index`` is the module's position in the final numbering; ``None``
    appends it after the surviving modules.  ``area`` and ``index`` are
    checked as :class:`NetlistDelta` checks its fields.
    """

    name: Optional[str] = None
    area: float = 1.0
    index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(
            self, "area",
            json_float(self.area, "add_modules area", DeltaError),
        )
        object.__setattr__(
            self, "index", _json_index(self.index, "add_modules index")
        )

    def to_doc(self) -> dict:
        doc: dict = {}
        if self.name is not None:
            doc["name"] = self.name
        if self.area != 1.0:
            doc["area"] = self.area
        if self.index is not None:
            doc["index"] = self.index
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping) -> "ModuleAdd":
        if not isinstance(doc, Mapping):
            raise DeltaError(f"add_modules entry must be an object: {doc!r}")
        unknown = set(doc) - {"name", "area", "index"}
        if unknown:
            raise DeltaError(
                f"unknown add_modules fields: {sorted(unknown)}"
            )
        return cls(
            name=doc.get("name"),
            area=doc.get("area", 1.0),
            index=doc.get("index"),
        )


@dataclass(frozen=True)
class NetAdd:
    """One net added by a delta; ``pins`` use final module indices.

    ``pins``, ``weight`` and ``index`` are checked as
    :class:`NetlistDelta` checks its fields.
    """

    pins: Tuple[int, ...] = ()
    name: Optional[str] = None
    weight: Optional[float] = None
    index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(
            self, "pins", _json_indices(self.pins, "add_nets pin")
        )
        if self.weight is not None:
            object.__setattr__(
                self, "weight",
                json_float(self.weight, "add_nets weight", DeltaError),
            )
        object.__setattr__(
            self, "index", _json_index(self.index, "add_nets index")
        )

    def to_doc(self) -> dict:
        doc: dict = {"pins": list(self.pins)}
        if self.name is not None:
            doc["name"] = self.name
        if self.weight is not None:
            doc["weight"] = self.weight
        if self.index is not None:
            doc["index"] = self.index
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping) -> "NetAdd":
        if not isinstance(doc, Mapping):
            raise DeltaError(f"add_nets entry must be an object: {doc!r}")
        unknown = set(doc) - {"pins", "name", "weight", "index"}
        if unknown:
            raise DeltaError(f"unknown add_nets fields: {sorted(unknown)}")
        if "pins" not in doc:
            raise DeltaError("add_nets entry missing 'pins'")
        return cls(
            pins=doc["pins"],
            name=doc.get("name"),
            weight=doc.get("weight"),
            index=doc.get("index"),
        )


@dataclass(frozen=True)
class DeltaApplication:
    """Everything :meth:`NetlistDelta.apply_detailed` learned.

    ``module_map`` / ``net_map`` map base indices to final indices
    (``None`` for removed entities); ``added_modules`` are **final**
    positions.  The warm-start machinery maps the previous sides and
    matching through these.
    """

    hypergraph: Hypergraph
    module_map: Tuple[Optional[int], ...]
    net_map: Tuple[Optional[int], ...]
    added_modules: Tuple[int, ...]


def _arrange(survivors: List[int], adds: Sequence, kind: str):
    """Interleave survivors and added entries into final positions.

    Returns a list of ``("old", base_index)`` / ``("add", add_pos)``
    pairs indexed by final position.  Entries with an explicit ``index``
    claim that slot; survivors (in base order) then implicit adds (in
    listed order) fill the remaining slots left to right — so with no
    explicit indices, adds append at the end.
    """
    final_count = len(survivors) + len(adds)
    slots: List[Optional[tuple]] = [None] * final_count
    for pos, entry in enumerate(adds):
        if entry.index is None:
            continue
        if not 0 <= entry.index < final_count:
            raise DeltaError(
                f"add_{kind}s insertion index {entry.index} out of range "
                f"(final {kind} count {final_count})"
            )
        if slots[entry.index] is not None:
            raise DeltaError(
                f"duplicate add_{kind}s insertion index {entry.index}"
            )
        slots[entry.index] = ("add", pos)
    fill = iter(
        [("old", b) for b in survivors]
        + [
            ("add", pos)
            for pos, entry in enumerate(adds)
            if entry.index is None
        ]
    )
    for i in range(final_count):
        if slots[i] is None:
            slots[i] = next(fill)
    return slots


def _check_indices(
    indices, limit: int, what: str, removed: Optional[set] = None
) -> None:
    for idx in indices:
        if not 0 <= idx < limit:
            raise DeltaError(f"{what} index {idx} out of range (0..{limit - 1})")
        if removed is not None and idx in removed:
            raise DeltaError(f"{what} index {idx} is also being removed")


@dataclass(frozen=True)
class NetlistDelta:
    """An immutable edit script against a base hypergraph.

    See the module docstring for the index conventions.  Instances are
    normalised on construction: removal lists are sorted and de-duplicated,
    edit mappings keyed by ``int``.  Indices must be integers and areas
    and weights numbers, read as the wire format reads them
    (:func:`~repro.hypergraph.io.json_int`,
    :func:`~repro.hypergraph.io.json_float`); a bool, a string or a
    fractional index raises :class:`DeltaError` instead of being
    coerced.
    """

    remove_modules: Tuple[int, ...] = ()
    add_modules: Tuple[ModuleAdd, ...] = ()
    set_module_areas: Mapping[int, float] = field(default_factory=dict)
    remove_nets: Tuple[int, ...] = ()
    add_nets: Tuple[NetAdd, ...] = ()
    set_pins: Mapping[int, Tuple[int, ...]] = field(default_factory=dict)
    set_net_weights: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self,
            "remove_modules",
            tuple(sorted(set(_json_indices(
                self.remove_modules, "remove_modules entry"
            )))),
        )
        object.__setattr__(
            self,
            "remove_nets",
            tuple(sorted(set(_json_indices(
                self.remove_nets, "remove_nets entry"
            )))),
        )
        object.__setattr__(self, "add_modules", tuple(self.add_modules))
        object.__setattr__(self, "add_nets", tuple(self.add_nets))
        object.__setattr__(
            self,
            "set_module_areas",
            {
                json_int(k, "set_module_areas key", DeltaError): json_float(
                    v, f"set_module_areas[{k}]", DeltaError
                )
                for k, v in dict(self.set_module_areas).items()
            },
        )
        object.__setattr__(
            self,
            "set_pins",
            {
                json_int(k, "set_pins key", DeltaError): _json_indices(
                    v, f"set_pins[{k}] pin"
                )
                for k, v in dict(self.set_pins).items()
            },
        )
        object.__setattr__(
            self,
            "set_net_weights",
            {
                json_int(k, "set_net_weights key", DeltaError): json_float(
                    v, f"set_net_weights[{k}]", DeltaError
                )
                for k, v in dict(self.set_net_weights).items()
            },
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the delta edits nothing at all."""
        return not (
            self.remove_modules
            or self.add_modules
            or self.set_module_areas
            or self.remove_nets
            or self.add_nets
            or self.set_pins
            or self.set_net_weights
        )

    def summary(self) -> Dict[str, int]:
        """Edit counts by kind (for logs and metrics labels)."""
        return {
            "remove_modules": len(self.remove_modules),
            "add_modules": len(self.add_modules),
            "set_module_areas": len(self.set_module_areas),
            "remove_nets": len(self.remove_nets),
            "add_nets": len(self.add_nets),
            "set_pins": len(self.set_pins),
            "set_net_weights": len(self.set_net_weights),
        }

    # ------------------------------------------------------------------
    # Validation and application
    # ------------------------------------------------------------------
    def validate(self, base: Hypergraph) -> None:
        """Raise :class:`DeltaError` unless ``self`` applies to ``base``."""
        n, m = base.num_modules, base.num_nets
        removed_m = set(self.remove_modules)
        removed_e = set(self.remove_nets)
        _check_indices(self.remove_modules, n, "remove_modules")
        _check_indices(self.remove_nets, m, "remove_nets")
        _check_indices(
            self.set_module_areas, n, "set_module_areas", removed_m
        )
        _check_indices(self.set_pins, m, "set_pins", removed_e)
        _check_indices(
            self.set_net_weights, m, "set_net_weights", removed_e
        )
        final_n = n - len(removed_m) + len(self.add_modules)
        final_m = m - len(removed_e) + len(self.add_nets)
        if final_n < 0 or final_m < 0:  # pragma: no cover - sets forbid
            raise DeltaError("delta removes more entities than exist")
        # The chained comparisons also fail for NaN and infinities.
        for area in self.set_module_areas.values():
            if not 0 <= area < math.inf:
                raise DeltaError(
                    f"module area must be finite and non-negative: {area}"
                )
        for weight in self.set_net_weights.values():
            if not 0 <= weight < math.inf:
                raise DeltaError(
                    f"net weight must be finite and non-negative: {weight}"
                )
        for entry in self.add_modules:
            if not 0 <= entry.area < math.inf:
                raise DeltaError(
                    "added module area must be finite and non-negative: "
                    f"{entry.area}"
                )
        for entry in self.add_nets:
            if entry.weight is not None and not 0 <= entry.weight < math.inf:
                raise DeltaError(
                    "added net weight must be finite and non-negative: "
                    f"{entry.weight}"
                )
            _check_indices(entry.pins, final_n, "add_nets pin")
        for pins in self.set_pins.values():
            _check_indices(pins, final_n, "set_pins pin")
        # _arrange validates insertion indices (range + duplicates).
        _arrange(
            [v for v in range(n) if v not in removed_m],
            self.add_modules,
            "module",
        )
        _arrange(
            [e for e in range(m) if e not in removed_e],
            self.add_nets,
            "net",
        )

    def apply_detailed(self, base: Hypergraph) -> DeltaApplication:
        """Apply to ``base``, returning the result plus the index maps."""
        self.validate(base)
        removed_m = set(self.remove_modules)
        module_slots = _arrange(
            [v for v in range(base.num_modules) if v not in removed_m],
            self.add_modules,
            "module",
        )
        final_n = len(module_slots)
        module_map: List[Optional[int]] = [None] * base.num_modules
        added_modules: List[int] = [0] * len(self.add_modules)
        areas: List[float] = [1.0] * final_n
        want_module_names = base.has_module_names or any(
            entry.name is not None for entry in self.add_modules
        )
        module_names: Optional[List[str]] = (
            [""] * final_n if want_module_names else None
        )
        for final_idx, (tag, ref) in enumerate(module_slots):
            if tag == "old":
                module_map[ref] = final_idx
                areas[final_idx] = self.set_module_areas.get(
                    ref, base.module_area(ref)
                )
                if module_names is not None:
                    module_names[final_idx] = base.module_name(ref)
            else:
                entry = self.add_modules[ref]
                added_modules[ref] = final_idx
                areas[final_idx] = entry.area
                if module_names is not None:
                    module_names[final_idx] = (
                        entry.name
                        if entry.name is not None
                        else f"m{final_idx}"
                    )

        removed_e = set(self.remove_nets)
        net_slots = _arrange(
            [e for e in range(base.num_nets) if e not in removed_e],
            self.add_nets,
            "net",
        )
        final_m = len(net_slots)
        net_map: List[Optional[int]] = [None] * base.num_nets
        nets: List[Sequence[int]] = [()] * final_m
        want_weights = (
            base.has_net_weights
            or bool(self.set_net_weights)
            or any(entry.weight is not None for entry in self.add_nets)
        )
        weights: Optional[List[float]] = (
            [1.0] * final_m if want_weights else None
        )
        want_net_names = base.has_net_names or any(
            entry.name is not None for entry in self.add_nets
        )
        net_names: Optional[List[str]] = (
            [""] * final_m if want_net_names else None
        )
        for final_idx, (tag, ref) in enumerate(net_slots):
            if tag == "old":
                net_map[ref] = final_idx
                if ref in self.set_pins:
                    nets[final_idx] = self.set_pins[ref]
                else:
                    nets[final_idx] = [
                        module_map[p]
                        for p in base.pins(ref)
                        if module_map[p] is not None
                    ]
                if weights is not None:
                    weights[final_idx] = self.set_net_weights.get(
                        ref, base.net_weight(ref)
                    )
                if net_names is not None:
                    net_names[final_idx] = base.net_name(ref)
            else:
                entry = self.add_nets[ref]
                nets[final_idx] = entry.pins
                if weights is not None and entry.weight is not None:
                    weights[final_idx] = entry.weight
                if net_names is not None:
                    net_names[final_idx] = (
                        entry.name
                        if entry.name is not None
                        else f"n{final_idx}"
                    )

        edited = Hypergraph(
            nets,
            num_modules=final_n,
            module_names=module_names,
            net_names=net_names,
            module_areas=areas,
            net_weights=weights,
            name=base.name,
        )
        return DeltaApplication(
            hypergraph=edited,
            module_map=tuple(module_map),
            net_map=tuple(net_map),
            added_modules=tuple(added_modules),
        )

    def apply(self, base: Hypergraph) -> Hypergraph:
        """Apply to ``base`` and return the edited hypergraph."""
        return self.apply_detailed(base).hypergraph

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def invert(self, base: Hypergraph) -> "NetlistDelta":
        """The delta that undoes ``self``: applying it to
        ``self.apply(base)`` reconstructs ``base`` (up to the usual
        weight-defaulting equivalence)."""
        app = self.apply_detailed(base)
        edited = app.hypergraph
        inverse_mmap: List[Optional[int]] = [None] * edited.num_modules
        for v, target in enumerate(app.module_map):
            if target is not None:
                inverse_mmap[target] = v
        inverse_nmap: List[Optional[int]] = [None] * edited.num_nets
        for e, target in enumerate(app.net_map):
            if target is not None:
                inverse_nmap[target] = e
        return delta_from_maps(edited, base, inverse_mmap, inverse_nmap)

    def compose(self, other: "NetlistDelta", base: Hypergraph) -> "NetlistDelta":
        """One delta equivalent to applying ``self`` then ``other``."""
        app1 = self.apply_detailed(base)
        app2 = other.apply_detailed(app1.hypergraph)
        module_map = [
            None if t is None else app2.module_map[t]
            for t in app1.module_map
        ]
        net_map = [
            None if t is None else app2.net_map[t] for t in app1.net_map
        ]
        return delta_from_maps(base, app2.hypergraph, module_map, net_map)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        """Serialise to the canonical JSON-compatible document."""
        doc: dict = {"format": DELTA_FORMAT}
        if self.remove_modules:
            doc["remove_modules"] = list(self.remove_modules)
        if self.add_modules:
            doc["add_modules"] = [e.to_doc() for e in self.add_modules]
        if self.set_module_areas:
            doc["set_module_areas"] = {
                str(k): self.set_module_areas[k]
                for k in sorted(self.set_module_areas)
            }
        if self.remove_nets:
            doc["remove_nets"] = list(self.remove_nets)
        if self.add_nets:
            doc["add_nets"] = [e.to_doc() for e in self.add_nets]
        if self.set_pins:
            doc["set_pins"] = {
                str(k): list(self.set_pins[k]) for k in sorted(self.set_pins)
            }
        if self.set_net_weights:
            doc["set_net_weights"] = {
                str(k): self.set_net_weights[k]
                for k in sorted(self.set_net_weights)
            }
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping) -> "NetlistDelta":
        """Parse a document produced by :meth:`to_doc`."""
        if not isinstance(doc, Mapping):
            raise DeltaError("delta document must be a JSON object")
        if doc.get("format") != DELTA_FORMAT:
            raise DeltaError(
                f"unrecognised delta format tag {doc.get('format')!r}; "
                f"expected {DELTA_FORMAT!r}"
            )
        unknown = set(doc) - {
            "format",
            "remove_modules",
            "add_modules",
            "set_module_areas",
            "remove_nets",
            "add_nets",
            "set_pins",
            "set_net_weights",
        }
        if unknown:
            raise DeltaError(f"unknown delta fields: {sorted(unknown)}")

        def _int_keyed(name):
            mapping = doc.get(name, {})
            if not isinstance(mapping, Mapping):
                raise DeltaError(f"{name} must be an object")
            try:
                return {int(k): v for k, v in mapping.items()}
            except (TypeError, ValueError):
                raise DeltaError(
                    f"{name} keys must be integer indices"
                ) from None

        try:
            return cls(
                remove_modules=doc.get("remove_modules", ()),
                add_modules=tuple(
                    ModuleAdd.from_doc(e) for e in doc.get("add_modules", ())
                ),
                set_module_areas=_int_keyed("set_module_areas"),
                remove_nets=doc.get("remove_nets", ()),
                add_nets=tuple(
                    NetAdd.from_doc(e) for e in doc.get("add_nets", ())
                ),
                set_pins=_int_keyed("set_pins"),
                set_net_weights=_int_keyed("set_net_weights"),
            )
        except (TypeError, ValueError) as exc:
            raise DeltaError(f"malformed delta document: {exc}") from None


def delta_from_maps(
    base: Hypergraph,
    target: Hypergraph,
    module_map: Sequence[Optional[int]],
    net_map: Sequence[Optional[int]],
) -> NetlistDelta:
    """Derive the delta that rewrites ``base`` into ``target``.

    ``module_map`` / ``net_map`` give each base entity's index in
    ``target`` (``None`` = removed); both maps must be order-preserving
    on the survivors.  This is the shared engine behind
    :meth:`NetlistDelta.invert` and :meth:`NetlistDelta.compose` — and a
    public diffing primitive in its own right.
    """
    remove_modules = tuple(
        v for v in range(base.num_modules) if module_map[v] is None
    )
    mapped_modules = {t for t in module_map if t is not None}
    add_modules = tuple(
        ModuleAdd(
            name=target.module_name(i) if target.has_module_names else None,
            area=target.module_area(i),
            index=i,
        )
        for i in range(target.num_modules)
        if i not in mapped_modules
    )
    set_module_areas = {
        v: target.module_area(module_map[v])
        for v in range(base.num_modules)
        if module_map[v] is not None
        and target.module_area(module_map[v]) != base.module_area(v)
    }
    remove_nets = tuple(
        e for e in range(base.num_nets) if net_map[e] is None
    )
    mapped_nets = {t for t in net_map if t is not None}
    add_nets = tuple(
        NetAdd(
            pins=target.pins(i),
            name=target.net_name(i) if target.has_net_names else None,
            weight=target.net_weight(i) if target.net_weight(i) != 1.0 else None,
            index=i,
        )
        for i in range(target.num_nets)
        if i not in mapped_nets
    )
    set_pins = {}
    set_net_weights = {}
    for e in range(base.num_nets):
        t = net_map[e]
        if t is None:
            continue
        expected = tuple(
            sorted(
                {
                    module_map[p]
                    for p in base.pins(e)
                    if module_map[p] is not None
                }
            )
        )
        if expected != target.pins(t):
            set_pins[e] = target.pins(t)
        if target.net_weight(t) != base.net_weight(e):
            set_net_weights[e] = target.net_weight(t)
    return NetlistDelta(
        remove_modules=remove_modules,
        add_modules=add_modules,
        set_module_areas=set_module_areas,
        remove_nets=remove_nets,
        add_nets=add_nets,
        set_pins=set_pins,
        set_net_weights=set_net_weights,
    )


# ----------------------------------------------------------------------
# JSON convenience wrappers
# ----------------------------------------------------------------------
def dumps_delta(delta: NetlistDelta) -> str:
    """Canonical JSON text for ``delta`` (sorted keys, stable)."""
    return json.dumps(delta.to_doc(), sort_keys=True)


def loads_delta(text: str) -> NetlistDelta:
    """Parse delta JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DeltaError(f"invalid delta JSON: {exc}") from None
    return NetlistDelta.from_doc(doc)


def save_delta(delta: NetlistDelta, path: PathLike) -> None:
    """Write ``delta`` as JSON to ``path``."""
    Path(path).write_text(dumps_delta(delta) + "\n", encoding="utf-8")


def load_delta(path: PathLike) -> NetlistDelta:
    """Read a delta from a JSON file written by :func:`save_delta`."""
    return loads_delta(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Random ECO edits (bench scenarios and fuzzing)
# ----------------------------------------------------------------------
def random_delta(
    h: Hypergraph,
    rng,
    max_net_removes: int = 2,
    max_net_adds: int = 2,
    max_rewires: int = 2,
    max_pins: int = 5,
    module_churn: bool = True,
) -> NetlistDelta:
    """A small random ECO edit valid against ``h``.

    Draws a handful of net removals, additions, and rewires (plus the
    occasional module add / area tweak) sized like a realistic change
    order — a fixed number of edits regardless of netlist size, which is
    exactly the regime incremental partitioning is built for.  Keeps the
    result partitionable: at least 4 modules, 2 nets, and every touched
    net with >= 2 pins.
    """
    n, m = h.num_modules, h.num_nets

    def _sample_pins(count_modules):
        size = rng.randint(2, min(max_pins, count_modules))
        return rng.sample(range(count_modules), size)

    removable = max(0, m - 2)
    remove_nets = sorted(
        rng.sample(range(m), min(rng.randint(0, max_net_removes), removable))
    )
    add_module = bool(module_churn and n >= 4 and rng.random() < 0.5)
    final_n = n + (1 if add_module else 0)
    add_modules = ()
    if add_module:
        add_modules = (ModuleAdd(area=float(rng.randint(1, 4))),)
    removed = set(remove_nets)
    editable = [e for e in range(m) if e not in removed]
    rewires = rng.sample(
        editable, min(rng.randint(0, max_rewires), len(editable))
    )
    set_pins = {e: tuple(sorted(_sample_pins(final_n))) for e in rewires}
    add_nets = tuple(
        NetAdd(pins=tuple(sorted(_sample_pins(final_n))))
        for _ in range(rng.randint(0, max_net_adds))
    )
    set_module_areas = {}
    if module_churn and rng.random() < 0.3:
        victim = rng.randrange(n)
        set_module_areas[victim] = float(rng.randint(1, 4))
    return NetlistDelta(
        add_modules=add_modules,
        set_module_areas=set_module_areas,
        remove_nets=remove_nets,
        add_nets=add_nets,
        set_pins=set_pins,
    )
