"""Federated registry topologies: the registry graph and its metrics.

The paper's two-registry Jini variant generalises to K Lookup Services
connected by a topology (full mesh, star, ring, line).  The node behaviour —
eager push, pull-on-miss with a cache TTL, periodic gossip, the stale-entry
fallback and home-pinned Managers and Users — lives in the Jini roles
themselves (:mod:`repro.protocols.jini`), and
:func:`repro.protocols.jini.builder.build_federation` is the single
constructor of the whole Jini family.  This package holds only what does not
depend on Jini:

* :mod:`~repro.protocols.federation.topology` — the registry graph
  (adjacency lists and diameters);
* :mod:`~repro.protocols.federation.monitor` — the cross-registry
  consistency metrics (staleness windows, convergence time, per-registry m').
"""

from repro.protocols.federation.monitor import FederationMonitor
from repro.protocols.federation.topology import diameter, neighbor_indices

__all__ = ["FederationMonitor", "diameter", "neighbor_indices"]
