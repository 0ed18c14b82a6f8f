"""Net model framework.

A *net model* converts the netlist hypergraph into a weighted module graph
by expanding each k-pin net into a small graph over its pins (Section 2.1
of the paper).  Models register themselves by name so experiments can sweep
over them (ablation A3 in DESIGN.md).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Tuple, Type

from ..errors import ReproError
from ..graph import Graph
from ..hypergraph import Hypergraph

__all__ = ["NetModel", "register_model", "get_model", "available_models"]

_REGISTRY: Dict[str, "NetModel"] = {}


class NetModel(ABC):
    """Converts hypergraphs to weighted module graphs.

    Subclasses implement :meth:`expand_net`, emitting the weighted edges a
    single net contributes.  The shared :meth:`to_graph` accumulates
    contributions from all nets, so overlapping nets reinforce shared
    adjacencies — the standard semantics for every classical model.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    @abstractmethod
    def expand_net(
        self, pins: Tuple[int, ...]
    ) -> Iterable[Tuple[int, int, float]]:
        """Yield ``(u, v, weight)`` edges for one net's pin tuple.

        Nets with fewer than two pins contribute nothing; implementations
        may assume ``len(pins) >= 2``.
        """

    def to_graph(self, h: Hypergraph) -> Graph:
        """Expand every net of ``h`` and accumulate into a module graph
        (a pair repeated across nets sums its weights in net order)."""
        edges = [
            edge
            for _, pins in h.iter_nets()
            if len(pins) >= 2
            for edge in self.expand_net(pins)
        ]
        u, v, w = list(zip(*edges)) or [(), (), ()]
        return Graph.from_edges(h.num_modules, u, v, w)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<NetModel {self.name!r}>"


def register_model(cls: Type[NetModel]) -> Type[NetModel]:
    """Class decorator adding a model to the global registry."""
    if not cls.name:
        raise ReproError(f"net model {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ReproError(f"net model name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls()
    return cls


def get_model(name: str) -> NetModel:
    """Look up a registered net model instance by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown net model {name!r}; "
            f"available: {sorted(_REGISTRY)}"
        ) from None


def available_models() -> List[str]:
    """Names of all registered net models, sorted."""
    return sorted(_REGISTRY)
