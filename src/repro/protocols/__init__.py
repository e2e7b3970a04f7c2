"""Protocol models.

One subpackage per modelled system:

* :mod:`repro.protocols.frodo` — the paper's own protocol (registry names
  ``frodo2``/``frodo3``: 2-party and 3-party subscription, UDP-only,
  Central/Backup, SRN1/SRN2/SRC1/SRC2, PR1/PR3/PR4/PR5),
* :mod:`repro.protocols.jini` — Jini with one or two Lookup Services
  (``jini1``/``jini2``: 3-party remote events over TCP, PR1/PR2/PR3, SRC2)
  and its generalisation to K federated Lookup Services (the ``jini``
  family, ``jini@k=...``: push/pull/gossip propagation), one class per role,
* :mod:`repro.protocols.upnp` — UPnP (``upnp``: 2-party GENA eventing over
  TCP, invalidation-based notification, PR4/PR5).

:mod:`repro.protocols.federation` is not a system of its own: it holds the
registry graph and the cross-registry consistency metrics the ``jini``
family uses.

:mod:`repro.protocols.base` defines the :class:`~repro.protocols.base.ProtocolDeployment`
interface the experiment harness drives, :mod:`repro.protocols.registry` maps
the system names above to their builders, and
:mod:`repro.protocols.accounting` holds each protocol's declaration of which
message kinds are update-related for the efficiency metrics.
"""

from repro.protocols.base import ProtocolDeployment
from repro.protocols.registry import SYSTEMS, build_system, system_names

__all__ = ["ProtocolDeployment", "SYSTEMS", "build_system", "system_names"]
