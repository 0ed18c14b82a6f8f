#!/usr/bin/env python
"""Clustering analysis for floorplanning (Section 1 of the paper).

Partitioning drives early floorplanning: recursive ratio cuts expose
the design's natural cluster tree, and Hall's spectral placement
(Appendix A of the paper) gives each cluster an analytical 2-D seed
position.  This example:

1. builds a benchmark-style circuit,
2. recursively bipartitions it into 8 clusters with the multilevel
   hybrid (coarsen -> IG-Match -> refine),
3. places the cluster-level netlist with Hall's eigenvector placement,
4. prints the resulting floorplan seed: cluster sizes, positions and
   inter-cluster wiring demand.

Run:  python examples/floorplan_clustering.py
"""

from repro import MultilevelConfig, build_circuit, recursive_partition
from repro.clustering import multilevel_partition
from repro.hypergraph import merge_modules
from repro.netmodels import get_model
from repro.spectral import hall_placement


def main() -> None:
    circuit = build_circuit("Test02", scale=0.5)
    print(f"circuit: {circuit.name} -- {circuit.num_modules} modules, "
          f"{circuit.num_nets} nets")

    # 1. Recursive ratio-cut clustering into 8 blocks, using the
    #    multilevel hybrid as the bipartitioner at every level.
    clusters = recursive_partition(
        circuit,
        num_blocks=8,
        bipartitioner=lambda h: multilevel_partition(
            h, MultilevelConfig(target_modules=100, seed=0)
        ),
    )
    print(f"\n8-way clustering: block sizes {clusters.block_sizes}, "
          f"{clusters.nets_cut} nets span blocks")

    # 2. Contract each cluster to one node; the coarse netlist is the
    #    floorplan-level connectivity.
    coarse, _ = merge_modules(circuit, clusters.blocks)
    print(f"cluster-level netlist: {coarse.num_modules} clusters, "
          f"{coarse.num_nets} inter-cluster nets")

    # 3. Hall placement of the cluster graph (Appendix A): second and
    #    third Laplacian eigenvectors as x/y coordinates.
    graph = get_model("clique").to_graph(coarse)
    placement = hall_placement(graph, dimensions=2)

    print("\nfloorplan seed (Hall placement):")
    print(f"{'cluster':>8}  {'modules':>8}  {'area':>7}  "
          f"{'x':>7}  {'y':>7}")
    for c in range(coarse.num_modules):
        x, y = placement.coordinates[c]
        print(f"{c:>8}  {clusters.block_sizes[c]:>8}  "
              f"{coarse.module_area(c):>7.0f}  {x:>7.3f}  {y:>7.3f}")
    print(f"\nquadratic wirelength of the seed: "
          f"x-axis {placement.eigenvalues[0]:.4f}, "
          f"y-axis {placement.eigenvalues[1]:.4f} "
          "(the two smallest nontrivial Laplacian eigenvalues)")


if __name__ == "__main__":
    main()
