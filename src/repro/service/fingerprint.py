"""Content-addressed fingerprints of hypergraphs and partition requests.

Two complementary hashes, both SHA-256 hex digests over a normalised
serialisation:

* :func:`exact_fingerprint` — identifies one *concrete* hypergraph
  instance: the pin structure exactly as indexed, plus module count,
  areas, and net weights.  Module/net *names* and the hypergraph's
  display ``name`` are excluded — they never influence any algorithm.
  This is the hash the result cache keys on, because partitioners break
  ties by module and net index: two relabelings of the same netlist are
  different problem instances with (potentially) different answers.
* :func:`canonical_fingerprint` — identifies the netlist *up to
  relabeling*: invariant under any permutation of module indices and
  any permutation of net indices.  It is computed from Weisfeiler–Leman
  colour refinement over the bipartite module/net incidence structure,
  hashing the sorted multisets of stable colours.  Use it to key
  external caches, deduplicate netlist libraries, or recognise that two
  differently-ordered files describe the same circuit.  (Like every
  WL-style invariant it is not injective on non-isomorphic graphs in
  pathological cases; it is a fingerprint, not a certificate.)

:func:`request_fingerprint` extends the exact hash with the frozen
request configuration (algorithm, seed, every quality-affecting knob)
and the result-payload schema version — the full cache key under which
:mod:`repro.service.cache` stores results.  Parallel execution settings
are deliberately **not** part of the key: :mod:`repro.parallel`
guarantees bit-identical results for any worker count.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..hypergraph import Hypergraph
    from .engine import PartitionRequest

__all__ = [
    "FINGERPRINT_SCHEMA",
    "canonical_fingerprint",
    "exact_fingerprint",
    "request_fingerprint",
]

#: Version tag mixed into every digest.  Bump whenever the serialisation
#: below (or the cached result payload in :mod:`repro.service.engine`)
#: changes shape, so stale disk caches miss instead of deserialising
#: garbage.
FINGERPRINT_SCHEMA = 1

#: Rounds of Weisfeiler–Leman refinement for the canonical fingerprint.
#: Colours stabilise in O(diameter) rounds; eight is plenty for netlist
#: topologies while keeping the hash cost linear in pins per round.
_WL_ROUNDS = 8


def _sha(parts: List[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        digest.update(b"\x00")
    return digest.hexdigest()


def _number(x: float) -> str:
    """Canonical text for a number: integers lose the decimal point."""
    f = float(x)
    return str(int(f)) if f == int(f) else repr(f)


def exact_fingerprint(h: "Hypergraph") -> str:
    """SHA-256 of the concrete instance (label-sensitive; cache key)."""
    parts = [
        b"repro-exact-fp",
        str(FINGERPRINT_SCHEMA).encode(),
        str(h.num_modules).encode(),
        str(h.num_nets).encode(),
    ]
    for _, pins in h.iter_nets():
        parts.append(",".join(map(str, pins)).encode())
    if any(a != 1.0 for a in h.module_areas):
        parts.append(b"areas")
        parts.append(",".join(_number(a) for a in h.module_areas).encode())
    if any(w != 1.0 for w in h.net_weights):
        parts.append(b"weights")
        parts.append(",".join(_number(w) for w in h.net_weights).encode())
    return _sha(parts)


def _hash64(*fields: object) -> int:
    """A stable 64-bit hash of a tuple of primitives (WL colour)."""
    text = "\x1f".join(str(f) for f in fields)
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"
    )


def canonical_fingerprint(h: "Hypergraph") -> str:
    """SHA-256 invariant under module and net index permutations.

    Initial colours encode each object's local invariants (degree,
    area / weight, incident-size profile); each refinement round
    re-colours every module by the sorted multiset of its nets' colours
    and vice versa.  The final digest hashes the sorted colour
    multisets, so no original index survives into the hash.
    """
    areas = h.module_areas
    weights = h.net_weights
    module_colour: List[int] = [
        _hash64(
            "m",
            h.module_degree(v),
            _number(areas[v]),
            ",".join(
                str(s)
                for s in sorted(h.net_size(e) for e in h.nets_of(v))
            ),
        )
        for v in range(h.num_modules)
    ]
    net_colour: List[int] = [
        _hash64("n", h.net_size(e), _number(weights[e]))
        for e in range(h.num_nets)
    ]
    for _ in range(_WL_ROUNDS):
        new_net = [
            _hash64(
                net_colour[e],
                ",".join(
                    str(c) for c in sorted(module_colour[v] for v in pins)
                ),
            )
            for e, pins in h.iter_nets()
        ]
        new_module = [
            _hash64(
                module_colour[v],
                ",".join(
                    str(c) for c in sorted(new_net[e] for e in nets)
                ),
            )
            for v, nets in h.iter_modules()
        ]
        if new_net == net_colour and new_module == module_colour:
            break
        net_colour, module_colour = new_net, new_module
    parts = [
        b"repro-canonical-fp",
        str(FINGERPRINT_SCHEMA).encode(),
        str(h.num_modules).encode(),
        str(h.num_nets).encode(),
        ",".join(str(c) for c in sorted(module_colour)).encode(),
        ",".join(str(c) for c in sorted(net_colour)).encode(),
    ]
    return _sha(parts)


def request_fingerprint(h: "Hypergraph", request: "PartitionRequest") -> str:
    """The full cache key: exact instance hash + frozen request config."""
    config: Dict[str, object] = request.key_fields()
    parts = [
        b"repro-request-fp",
        str(FINGERPRINT_SCHEMA).encode(),
        exact_fingerprint(h).encode(),
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode(),
    ]
    return _sha(parts)
