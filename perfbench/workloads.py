"""The benchmark's workloads: input generation, timed passes, checks.

Every workload is closed loop with one caller in one process: each op
starts when the previous one has returned.  Inputs are generated from
the workload seed before any timing, written to netlist files (and, for
``eco-chain``, delta wire documents), and the program only ever sees
those.  The checks run outside the timed regions.
"""

from __future__ import annotations

import array
import functools
import hashlib
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import LayerTracer

#: The nine paper circuits, in table order (``repro.bench.specs``).
PAPER_CIRCUITS = (
    "bm1", "19ks", "Prim1", "Prim2", "Test02",
    "Test03", "Test04", "Test05", "Test06",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"suite"`` (each op reads one netlist file and runs
    ``algorithm`` on it) or ``"chain"`` (each netlist is a base served
    cold during set-up, then ``chain_length`` net-level deltas are
    served against its session through ``partition_delta``).
    ``instances`` netlists are generated per circuit.  ``layers`` are
    the layers the traced run must see spans from.
    """

    name: str
    kind: str
    algorithm: str
    circuits: Tuple[str, ...]
    scale: float
    instances: int = 1
    chain_length: int = 0
    layers: Tuple[str, ...] = ()


# The instance counts average out how much one generated netlist costs
# and scores.  Across ten seeds, FM's ratio cut spread 12% (interquartile
# range over median) with three netlists per circuit and 4% with six to
# eight, and FM's work (passes x pins) 9% and 4%.  IG-Match's cost varies a few
# percent between netlists, so igmatch-suite spends its time on repeats
# instead, which is what steadies it against machine interference.  A
# chain stays within the session store's default 16 live sessions, so
# every pass can replay it from its base.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "igmatch-suite", "suite", "ig-match", PAPER_CIRCUITS, 0.4,
            layers=("hypergraph", "intersection", "spectral", "matching",
                    "partitioning.igmatch"),
        ),
        Workload(
            "fm-suite", "suite", "fm", PAPER_CIRCUITS, 0.4,
            instances=8,
            layers=("hypergraph", "partitioning.fm"),
        ),
        Workload(
            "eco-chain", "chain", "ig-match", ("Test05",), 0.4,
            instances=3, chain_length=8,
            layers=("intersection", "spectral", "matching",
                    "partitioning.igmatch", "delta", "service"),
        ),
    )
}


def derived_seed(seed: int, *labels: object) -> int:
    """A 32-bit seed that depends only on ``seed`` and ``labels``."""
    text = ":".join(str(x) for x in (seed,) + labels)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Netlist:
    """One generated netlist file."""

    label: str
    path: Path
    planted_u: int  # modules 0 .. planted_u-1 form the planted U side
    planted_ratio: float  # ratio cut of the planted partition
    deltas: List[Dict[str, Any]] = field(default_factory=list)  # chain


@dataclass
class Inputs:
    """Generated inputs of one run, with their provenance digests."""

    netlists: List[Netlist]
    digests: Dict[str, str]


def generate(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's inputs under ``workdir``."""
    from repro import save_net

    netlists: List[Netlist] = []
    digests: Dict[str, str] = {}
    for circuit in workload.circuits:
        for instance in range(workload.instances):
            h = _circuit(workload, seed, circuit, instance)
            label = f"{circuit}.{instance}"
            path = workdir / f"{label}.net"
            save_net(h, path)
            digests[path.name] = sha256_file(path)
            planted_u = _planted_u(circuit, h)
            netlist = Netlist(label, path, planted_u,
                              planted_ratio(h, planted_u))
            if workload.kind == "chain":
                netlist.deltas = _chain_deltas(workload, seed, netlist,
                                               digests)
            netlists.append(netlist)
    return Inputs(netlists, digests)


def _chain_deltas(workload: Workload, seed: int, netlist: Netlist,
                  digests: Dict[str, str]) -> List[Dict[str, Any]]:
    """Write and return the seeded delta chain of one base netlist."""
    from repro import load_net
    from repro.delta import dumps_delta, random_delta

    rng = random.Random(derived_seed(seed, workload.name, netlist.label,
                                     "deltas"))
    current = load_net(netlist.path)
    docs = []
    for index in range(workload.chain_length):
        # Re-draw a delta that strands a module with no nets: that
        # collapses the optimum to a degenerate ratio-0 cut.
        delta = random_delta(current, rng, module_churn=False)
        while _strands_module(delta.apply(current)):
            delta = random_delta(current, rng, module_churn=False)
        text = dumps_delta(delta)
        name = f"{netlist.label}.delta{index:02d}.json"
        path = netlist.path.with_name(name)
        path.write_text(text + "\n", encoding="utf-8")
        digests[path.name] = sha256_file(path)
        docs.append(json.loads(text))
        current = delta.apply(current)
    return docs


def _circuit(workload: Workload, seed: int, circuit: str,
             instance: int) -> Any:
    """The stand-in generator's netlist for one circuit instance.

    A generator seed whose connectivity repair does not converge is
    replaced by the next derived one, deterministically.
    """
    from repro import BenchmarkError, generate_from_spec, get_spec

    for attempt in range(100):
        gen_seed = derived_seed(seed, workload.name, circuit, instance,
                                attempt)
        try:
            return generate_from_spec(get_spec(circuit), seed=gen_seed,
                                      scale=workload.scale)
        except BenchmarkError:
            continue
    raise RuntimeError(f"no {circuit} instance generated for seed {seed}")


def _planted_u(circuit: str, h: Any) -> int:
    """Size of the U side of the generator's planted partition, which
    holds modules ``0 .. |U|-1`` (``generate_hierarchical``)."""
    from repro import get_spec

    n = h.num_modules
    return max(2, min(n - 2, round(get_spec(circuit).natural_fraction * n)))


def _strands_module(h: Any) -> bool:
    return any(h.module_degree(v) == 0 for v in range(h.num_modules))


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def recount(h: Any, sides: Sequence[int]) -> Tuple[int, int, int]:
    """``(nets cut, |U|, |W|)`` in one pass over the pins."""
    cut = 0
    for net in range(h.num_nets):
        pins = h.pins(net)
        if pins and any(sides[p] != sides[pins[0]] for p in pins):
            cut += 1
    u = sides.count(0)
    return cut, u, len(sides) - u


def planted_ratio(h: Any, planted_u: int) -> float:
    """Ratio cut of the planted partition (modules ``< planted_u`` on U)."""
    n = h.num_modules
    cut, u, w = recount(h, [0] * planted_u + [1] * (n - planted_u))
    return cut / (u * w)


def check_result(h: Any, sides: Sequence[int], nets_cut: int,
                 ratio_cut: float) -> Optional[str]:
    """Recount the cut from ``sides`` in one pass over the pins.

    Returns ``None`` when the reported ``nets_cut`` / ``ratio_cut``
    match the recount and both sides are non-empty, else the reason.
    """
    if len(sides) != h.num_modules or any(s not in (0, 1) for s in sides):
        return f"side list of {len(sides)} is not a 0/1 list of " \
               f"{h.num_modules} modules"
    cut, u, w = recount(h, sides)
    if u == 0 or w == 0:
        return f"empty side ({u}:{w})"
    ratio = cut / (u * w)
    if cut != nets_cut:
        return f"nets_cut {nets_cut} != recount {cut}"
    if not math.isclose(ratio, ratio_cut, rel_tol=1e-12, abs_tol=0.0):
        return f"ratio_cut {ratio_cut!r} != recount {ratio!r}"
    return None


def structure_key(h: Any) -> tuple:
    """Everything the exact fingerprint covers (no-op detection)."""
    return (
        h.num_modules,
        tuple(h.pins(net) for net in range(h.num_nets)),
        tuple(h.module_areas),
        tuple(h.net_weights),
    )


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
#: Seconds :func:`reference_s` takes on the 2-vCPU x86-64 host the
#: benchmark was tuned on, at that host's fastest.
REFERENCE_S = 0.0038


@functools.lru_cache(maxsize=1)
def _reference_table() -> array.array:
    return array.array("i", range(1 << 21))  # 8 MiB


def reference_s() -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    The work is dict and loop traffic, like most of the program's, and
    scattered reads from an 8 MiB table, since the host's neighbours
    slow memory-bound work more than work that stays in cache.  On
    repeated IG-Match ops, rescaling by it cut the spread of pass times
    from 14% to 7% (coefficient of variation); dict traffic alone, 9%.
    """
    table = _reference_table()
    mask = len(table) - 1
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(15000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + 1
    j = 1
    for _ in range(15000):
        j = table[(j * 2654435761) & mask] + 1
    sorted(counts.items())
    return time.perf_counter() - start


def timed(fn, *args, tracer: Optional[LayerTracer] = None):
    """``(value, seconds, steady seconds)`` of ``fn(*args)``.

    Steady seconds rescale the latency to the reference speed.  Shared
    hosts switch between speeds tens of percent apart every few seconds;
    the reference work, timed just before and just after the call, slows
    with the host, and the faster of its two timings is taken, since a
    transient that hits one of them is not the host's speed.  With a
    ``tracer``, only the call itself is traced.
    """
    before = reference_s()
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        value = fn(*args)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    return value, seconds, steady(seconds, before, reference_s())


def steady(seconds: float, *references: float) -> float:
    """``seconds`` at the reference speed, from reference timings taken
    around them."""
    return seconds * REFERENCE_S / min(references)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One timed op of a pass."""

    label: str
    latency_s: float
    steady_s: float = 0.0  # latency_s at the reference speed
    ratio_cut: float = 0.0
    planted_ratio: float = 0.0  # of the same input, for ratio_cut.gmean
    answer: Any = None  # what must repeat exactly across passes
    failure: Optional[str] = None
    noop: bool = False


@dataclass
class Pass:
    """One pass over a workload's ops."""

    ops: List[Op]
    session_bytes: int = 0

    @property
    def timed_s(self) -> float:
        """Time inside the timed ops (checks excluded)."""
        return sum(op.latency_s for op in self.ops)


@dataclass
class Step:
    """One delta of a chain, with what the benchmark expects of it."""

    label: str
    doc: Dict[str, Any]
    edited: Any  # the benchmark's own apply of ``doc``
    planted_ratio: float
    noop: bool


@dataclass
class Chain:
    """A base netlist served cold, and the deltas replayed on its session.

    Every pass serves the same deltas from the same base session, so
    every pass does the same work.
    """

    engine: Any
    fingerprint: str
    steps: List[Step]
    setup_s: float  # load the base and serve it cold
    setup_steady_s: float  # the same at the reference speed


def _failure(exc: BaseException) -> str:
    """Print ``exc``'s traceback to standard error and describe it."""
    traceback.print_exception(type(exc), exc, exc.__traceback__,
                              file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _failed(label: str, exc: BaseException) -> Op:
    return Op(label, 0.0, 0.0, failure=_failure(exc))


def _request(workload: Workload) -> Any:
    from repro.service.engine import PartitionRequest

    return PartitionRequest(algorithm=workload.algorithm)


def setup_chains(workload: Workload,
                 inputs: Inputs) -> Tuple[List[Chain], List[str]]:
    """Serve every base cold and prepare its chain's checks.

    Returns the chains and the failures of bases that could not be
    served correctly (their chains are left out).
    """
    from repro import load_net
    from repro.delta import NetlistDelta
    from repro.service.engine import PartitionEngine

    def serve_base(path: Path) -> Tuple[Any, Any, Any]:
        engine = PartitionEngine()
        base = load_net(path)
        return engine, base, engine.partition(base, request)

    request = _request(workload)
    chains: List[Chain] = []
    failures: List[str] = []
    for netlist in inputs.netlists:
        try:
            (engine, base, served), *setup = timed(serve_base, netlist.path)
        except Exception as exc:
            failures.append(f"{netlist.label}: {_failure(exc)}")
            continue
        result = served.result
        failure = check_result(base, list(result.partition.sides),
                               result.nets_cut, result.ratio_cut)
        if failure is not None:
            failures.append(f"{netlist.label}: {failure}")
            continue
        steps = []
        expected = base
        for index, doc in enumerate(netlist.deltas):
            edited = NetlistDelta.from_doc(doc).apply(expected)
            steps.append(Step(
                f"{netlist.label}/delta{index:02d}", doc, edited,
                planted_ratio(edited, netlist.planted_u),
                structure_key(edited) == structure_key(expected),
            ))
            expected = edited
        chains.append(Chain(engine, served.fingerprint, steps, *setup))
    return chains, failures


def _suite_op(request: Any, path: Path, tracer: Optional[LayerTracer]):
    from repro import load_net
    from repro.service.engine import run_partitioner

    if tracer is not None:
        h = tracer.call("hypergraph.load_s", load_net, path)
        tracer.counts["hypergraph.pins"] += h.num_pins
    else:
        h = load_net(path)
    return h, run_partitioner(h, request)


def suite_pass(workload: Workload, inputs: Inputs,
               tracer: Optional[LayerTracer] = None) -> Pass:
    """One pass over a suite; with a ``tracer``, the ops are traced."""
    request = _request(workload)
    ops: List[Op] = []
    for netlist in inputs.netlists:
        try:
            (h, result), *seconds = timed(_suite_op, request, netlist.path,
                                          tracer, tracer=tracer)
        except Exception as exc:  # an op failure is a result
            ops.append(_failed(netlist.label, exc))
            continue
        sides = list(result.partition.sides)
        ops.append(Op(
            netlist.label, *seconds, result.ratio_cut, netlist.planted_ratio,
            tuple(sides),
            check_result(h, sides, result.nets_cut, result.ratio_cut),
        ))
    return Pass(ops)


def chain_pass(workload: Workload, chains: List[Chain],
               tracer: Optional[LayerTracer] = None) -> Pass:
    """One pass over every chain; with a ``tracer``, the serves are
    traced."""
    request = _request(workload)
    ops: List[Op] = []
    for chain in chains:
        fingerprint = chain.fingerprint
        for step in chain.steps:
            try:
                served, *seconds = timed(
                    chain.engine.partition_delta, fingerprint, step.doc,
                    request, tracer=tracer,
                )
            except Exception as exc:
                ops.append(_failed(step.label, exc))
                break  # the chain cannot continue past a failed serve
            result = served.result
            sides = list(result.partition.sides)
            failure = check_result(step.edited, sides, result.nets_cut,
                                   result.ratio_cut)
            want = "session" if step.noop else "delta-warm"
            if failure is None and served.source != want:
                failure = f"served from {served.source!r}, expected {want!r}"
            ops.append(Op(step.label, *seconds, result.ratio_cut,
                          step.planted_ratio, tuple(sides), failure,
                          step.noop))
            fingerprint = served.fingerprint
    session_bytes = sum(
        chain.engine.sessions.stats_dict()["service.session.bytes"]
        for chain in chains
    )
    return Pass(ops, session_bytes)
