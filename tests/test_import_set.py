"""The ``repro.*`` modules that a bare ``import repro`` loads.

Import cost is part of every ``repro-partition`` call, and unlike a
timing the module set is deterministic.  A change that adds a module
to it, or removes one, updates :data:`EXPECTED` on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

EXPECTED = """
repro
repro.bench
repro.bench.generator
repro.bench.logic_generator
repro.bench.primary2_histogram
repro.bench.scale_curve
repro.bench.specs
repro.bench.suite
repro.clustering
repro.clustering.coarsen
repro.clustering.multilevel
repro.delta
repro.delta.model
repro.delta.warm
repro.errors
repro.graph
repro.graph.convert
repro.graph.graph
repro.graph.laplacian
repro.graph.traversal
repro.hypergraph
repro.hypergraph.builder
repro.hypergraph.formats
repro.hypergraph.formats.bookshelf
repro.hypergraph.formats.hmetis
repro.hypergraph.formats.verilog
repro.hypergraph.hypergraph
repro.hypergraph.io
repro.hypergraph.stats
repro.hypergraph.transform
repro.hypergraph.validate
repro.intersection
repro.intersection.build
repro.intersection.weights
repro.matching
repro.matching.incremental
repro.netmodels
repro.netmodels.base
repro.netmodels.clique
repro.netmodels.path
repro.netmodels.star
repro.obs
repro.obs.counters
repro.obs.diff
repro.obs.events
repro.obs.hist
repro.obs.memprof
repro.obs.proc
repro.obs.prom
repro.obs.registry
repro.obs.render
repro.obs.report
repro.obs.span
repro.obs.trace
repro.parallel
repro.parallel.executor
repro.parallel.tracing
repro.partitioning
repro.partitioning.annealing
repro.partitioning.eig1
repro.partitioning.exact
repro.partitioning.fm
repro.partitioning.igmatch
repro.partitioning.igvote
repro.partitioning.kl
repro.partitioning.kway
repro.partitioning.metrics
repro.partitioning.multiway
repro.partitioning.partition
repro.partitioning.rcut
repro.partitioning.refine
repro.partitioning.replication
repro.partitioning.report
repro.partitioning.sanchis
repro.service
repro.service.cache
repro.service.engine
repro.service.fingerprint
repro.service.http
repro.service.sessions
repro.spectral
repro.spectral.fiedler
repro.spectral.hall
repro.spectral.ordering
repro.spectral.splits
""".split()

_LIST_MODULES = (
    "import sys, repro; "
    "print('\\n'.join(sorted(n for n in sys.modules "
    "if n == 'repro' or n.startswith('repro.'))))"
)


def test_import_repro_loads_exactly_the_expected_modules():
    # A fresh interpreter: this process has imported far more by now.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", _LIST_MODULES],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()
    assert out == EXPECTED, (
        f"loaded but not expected: {sorted(set(out) - set(EXPECTED))}; "
        f"expected but not loaded: {sorted(set(EXPECTED) - set(out))}"
    )
