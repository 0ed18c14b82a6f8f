"""Bipartite matching under the IG-Match sweep.

:class:`IncrementalMatching` keeps a maximum matching of the crossing
bipartite graph as nets move from L to R, and the König classes that
turn it into winner and loser nets (Figure 3 / Theorems 2–3 of the
paper), both maintained across splits.
"""

from .incremental import IncrementalMatching

__all__ = ["IncrementalMatching"]
