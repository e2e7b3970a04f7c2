"""Message accounting.

The Update Efficiency and Efficiency Degradation metrics need, per run, the
total number of update-related discovery-layer messages sent at or after the
service-change time (*y* in the paper).  :class:`MessageStats` keeps two
things:

* a histogram of every send keyed by ``(protocol, kind, layer,
  update_related, multicast)``, holding ``[sends, copies]``, which answers
  every unwindowed query (totals, per-layer and per-kind counts, *y* over
  the whole run);
* a timed :class:`SentMessage` for each update-related send, which answers
  the change-time-windowed queries (``since=``) the metrics make.

Sends that are not update-related (transport segments, lookups, renewals)
are only counted: no query needs their send time.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.net.messages import Message, MessageLayer

#: Histogram key: ``(protocol, kind, layer, update_related, multicast)``.
SendKey = Tuple[str, str, MessageLayer, bool, bool]


class SentMessage:
    """One recorded update-related send, with its time.

    A ``__slots__`` class (not a dataclass): one is allocated per
    update-related send.
    """

    __slots__ = (
        "time",
        "sender",
        "receiver",
        "protocol",
        "kind",
        "layer",
        "update_related",
        "multicast",
        "copies",
    )

    def __init__(
        self,
        time: float,
        sender: str,
        receiver: str,
        protocol: str,
        kind: str,
        layer: MessageLayer,
        update_related: bool,
        multicast: bool,
        copies: int = 1,
    ) -> None:
        self.time = time
        self.sender = sender
        self.receiver = receiver
        self.protocol = protocol
        self.kind = kind
        self.layer = layer
        self.update_related = update_related
        self.multicast = multicast
        self.copies = copies

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SentMessage(t={self.time:g}, {self.protocol}.{self.kind} "
            f"{self.sender} -> {self.receiver}, copies={self.copies})"
        )


class MessageStats:
    """Accumulates every transmission attempt made on a :class:`~repro.net.network.Network`.

    Unwindowed queries read the send histogram, whose size is the number of
    distinct message kinds, not the number of sends.  Queries with a
    ``since`` bound read the timed records, which exist only for
    update-related sends, so they require ``update_related``.
    """

    def __init__(self) -> None:
        self._histogram: Dict[SendKey, List[int]] = {}
        self._updates: List[SentMessage] = []

    def __len__(self) -> int:
        return sum(pair[0] for pair in self._histogram.values())

    @property
    def sent(self) -> List[SentMessage]:
        """The update-related sends, in send order."""
        return self._updates

    @property
    def total_copies(self) -> int:
        """Physical copies sent, multicast redundancy included."""
        return sum(pair[1] for pair in self._histogram.values())

    @property
    def multicast_sends(self) -> int:
        """Logical multicast announcements recorded."""
        return sum(pair[0] for key, pair in self._histogram.items() if key[4])

    @property
    def histogram(self) -> Dict[SendKey, List[int]]:
        """``[sends, copies]`` per :data:`SendKey`, over every recorded send."""
        return self._histogram

    def counts_by_layer(self) -> Dict[str, int]:
        """Logical send counts per accounting layer (telemetry)."""
        counts: Counter = Counter()
        for key, pair in self._histogram.items():
            counts[key[2].value] += pair[0]
        return dict(sorted(counts.items()))

    def record_send(self, time: float, message: Message, copies: int = 1) -> None:
        """Record a transmission attempt (``copies`` > 1 for redundant multicast)."""
        update_related = message.update_related
        multicast = message.is_multicast
        key = (message.protocol, message.kind, message.layer, update_related, multicast)
        pair = self._histogram.get(key)
        if pair is None:
            pair = self._histogram[key] = [0, 0]
        pair[0] += 1
        pair[1] += copies
        if update_related:
            self._updates.append(
                SentMessage(
                    time,
                    message.sender,
                    message.receiver,
                    message.protocol,
                    message.kind,
                    message.layer,
                    True,
                    multicast,
                    copies,
                )
            )

    # ------------------------------------------------------------------ queries
    def total_sent(self, layer: Optional[MessageLayer] = None, count_copies: bool = False) -> int:
        """Total transmissions, optionally restricted to one layer."""
        index = 1 if count_copies else 0
        pairs = self._histogram.items()
        return sum(pair[index] for key, pair in pairs if layer is None or key[2] == layer)

    def update_messages(
        self,
        since: Optional[float] = None,
        include_transport: bool = False,
        count_copies: bool = False,
    ) -> int:
        """Number of update-related messages (*y* in the efficiency metrics).

        Unwindowed (``since is None``) it reads the histogram; the
        change-time-windowed form used by the metrics scans the timed
        update-related records.
        """
        total = 0
        if since is None:
            index = 1 if count_copies else 0
            for (_, _, layer, update_related, _), pair in self._histogram.items():
                if update_related and (include_transport or layer == MessageLayer.DISCOVERY):
                    total += pair[index]
            return total
        for rec in self._updates:
            if not include_transport and rec.layer != MessageLayer.DISCOVERY:
                continue
            if rec.time < since:
                continue
            total += rec.copies if count_copies else 1
        return total

    def counts_by_kind(
        self,
        layer: Optional[MessageLayer] = None,
        since: Optional[float] = None,
        update_related: Optional[bool] = None,
    ) -> Dict[str, int]:
        """Histogram of logical sends by ``protocol.kind``.

        ``update_related`` restricts the histogram to messages with (``True``)
        or without (``False``) the accounting flag; ``None`` counts both.  A
        ``since`` bound needs ``update_related=True``: only update-related
        sends keep their send time.
        """
        counter: Counter = Counter()
        if since is not None:
            if update_related is not True:
                raise ValueError("a since bound needs update_related=True")
            for rec in self._updates:
                if rec.time >= since and (layer is None or rec.layer == layer):
                    counter[f"{rec.protocol}.{rec.kind}"] += 1
            return dict(counter)
        for (protocol, kind, key_layer, key_update, _), pair in self._histogram.items():
            if layer is not None and key_layer != layer:
                continue
            if update_related is not None and key_update != update_related:
                continue
            counter[f"{protocol}.{kind}"] += pair[0]
        return dict(counter)

    def transport_overhead(self) -> int:
        """Number of transport-layer messages (TCP segments and acknowledgements)."""
        return self.total_sent(layer=MessageLayer.TRANSPORT)

    def clear(self) -> None:
        """Reset all counters."""
        self._histogram.clear()
        self._updates.clear()
