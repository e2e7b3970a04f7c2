"""Jini protocol model (Table 2 / Table 4).

Jini is the 3-party system of the comparison: one or two Lookup Services
(the Registries) mediate between the service provider (the Manager) and the
clients (the Users).  Discovery uses redundant multicast (announcements from
the Lookup Service, discovery requests from nodes); all unicast control
traffic — registration, lookup, remote-event notification, lease renewal —
runs over TCP with the Table 3 failure response.

A service change is propagated as a re-registration at each Lookup Service,
which fires a remote event (carrying the new service item) to every client
with a live event registration: ``registries * (N + 2)`` update messages,
m' = 7 for ``jini1`` and 14 for ``jini2``.

Recovery techniques (Table 2): SRC1/SRN1 only through TCP's bounded retries,
SRC2 (version numbers on lease-renewal acknowledgements trigger explicit
lookups), PR1 (events fire on re-registration — future registrations only),
PR2 (clients purge a silent Lookup Service and rediscover via multicast) and
PR3 (a renewal of a purged event registration is answered with an error that
triggers re-registration).

The same three roles model the federated generalisation (``jini@k=...``):
K Lookup Services on a registry graph propagate the change by eager push,
pull-on-miss or gossip, and a Manager or User may be pinned to one home
registry.  :func:`~repro.protocols.jini.builder.build_federation` is the
only constructor; ``jini1``/``jini2`` are frozen aliases of its push-mode
``k=1``/``k=2`` instances.  The registry graph and the cross-registry
metrics live in :mod:`repro.protocols.federation`.
"""

from repro.protocols.jini.builder import JiniDeployment, build_federation
from repro.protocols.jini.config import JiniConfig

__all__ = ["JiniConfig", "JiniDeployment", "build_federation"]
