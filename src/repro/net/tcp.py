"""TCP transport model (Table 3).

UPnP and Jini send their unicast messages over TCP and rely on its recovery
behaviour.  The model reproduces the failure response described in Table 3 of
the paper:

* **Connection set-up** - the initial attempt plus 4 retransmission attempts
  spaced 6 s, 24 s, 24 s and 24 s apart.  If none succeeds, a *Remote
  Exception* (REX) is raised to the service-discovery layer, which then
  abandons the operation.
* **Data transfer** - once connected, the application message is
  retransmitted until success; the retransmission time-out starts at the
  round-trip time and grows by 25 % on each retry.

A severed link (partition scenarios) behaves like a dead path: connection
set-up runs its retry schedule into a REX, and an already-established
transfer keeps retransmitting until the link heals.

Transport segments (SYN, SYN-ACK, data retransmissions, acknowledgements) are
recorded as :class:`~repro.net.messages.MessageLayer.TRANSPORT` messages so
that they can be reported separately; the paper's efficiency metrics for
UPnP/Jini "do not take into account the messages used by the transmission
layers".  Every segment, and the application message itself, is recorded
through :meth:`~repro.net.network.Network.record_send`, so traces carry a
``net/send`` record for each.  The SYN and SYN-ACK go through
:meth:`~repro.net.network.Network.transmit_unicast` for their loss and delay
draws; no node handles them, so interest filtering never posts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.net.messages import Message, MessageLayer
from repro.net.network import Network


@dataclass(frozen=True)
class RemoteException:
    """Signal delivered to the discovery layer when a TCP operation fails."""

    message: Message
    reason: str
    time: float


@dataclass
class TcpConfig:
    """Parameters of the TCP failure response (Table 3)."""

    #: Delays between connection set-up attempts, in seconds.
    connection_retry_delays: Tuple[float, ...] = (6.0, 24.0, 24.0, 24.0)
    #: Multiplicative growth of the data-retransmission time-out per retry.
    data_backoff_factor: float = 1.25
    #: First data retransmission time-out; ``None`` means "use the round-trip time".
    initial_rto: Optional[float] = None
    #: Safety bound on data retransmissions (the paper retransmits until success).
    max_data_retries: int = 500


class _TcpExchange:
    """State machine for one application message sent over TCP."""

    def __init__(
        self,
        transport: "TcpTransport",
        message: Message,
        on_delivered: Optional[Callable[[Message], None]],
        on_rex: Optional[Callable[[RemoteException], None]],
    ) -> None:
        self.transport = transport
        self.network = transport.network
        self.sim = transport.network.sim
        self.config = transport.config
        self.message = message
        self.on_delivered = on_delivered
        self.on_rex = on_rex
        self.setup_attempt = 0
        self.data_attempt = 0
        self.finished = False

    # --------------------------------------------------------------- connection
    def start(self) -> None:
        self._attempt_connection()

    def _attempt_connection(self) -> None:
        if self.finished:
            return
        self.setup_attempt += 1
        handshake_ok = self._record_handshake_segments()
        rtt = 2.0 * self.network.transmission_delay()
        if handshake_ok:
            self.sim.post(rtt, self._start_data_transfer)
            return
        retries = self.config.connection_retry_delays
        if self.setup_attempt > len(retries):
            self._fail("connection_setup_failed")
            return
        delay = retries[self.setup_attempt - 1]
        self.sim.post(delay, self._attempt_connection)

    def _record_handshake_segments(self) -> bool:
        """Emit SYN / SYN-ACK transport segments; return ``True`` if the handshake completes."""
        src = self.message.sender
        dst = self.message.receiver
        syn = Message(
            sender=src,
            receiver=dst,
            protocol=self.message.protocol,
            kind="tcp_syn",
            layer=MessageLayer.TRANSPORT,
            size_bytes=40,
            msg_id=next(self.network.msg_ids),
        )
        sent = self.network.transmit_unicast(syn)
        if not sent:
            return False
        if self.network.link_is_cut(src, dst):
            # Severed link (partition scenarios): the SYN died on the wire, so
            # the peer never answers and the setup retry schedule takes over.
            return False
        dst_ep = self.network.endpoint(dst) if self.network.has_endpoint(dst) else None
        if dst_ep is None or not dst_ep.interface.can_receive() or not dst_ep.interface.can_send():
            return False
        synack = Message(
            sender=dst,
            receiver=src,
            protocol=self.message.protocol,
            kind="tcp_synack",
            layer=MessageLayer.TRANSPORT,
            size_bytes=40,
            msg_id=next(self.network.msg_ids),
        )
        self.network.transmit_unicast(synack)
        src_ep = self.network.endpoint(src)
        return src_ep.interface.can_receive()

    # --------------------------------------------------------------- data phase
    def _start_data_transfer(self) -> None:
        if self.finished:
            return
        # The application-layer message is accounted exactly once, when the
        # established connection first carries it.
        self.network.record_send(self.message)
        self._attempt_data(first=True)

    def _attempt_data(self, first: bool = False) -> None:
        if self.finished:
            return
        self.data_attempt += 1
        if not first:
            retrans = Message(
                sender=self.message.sender,
                receiver=self.message.receiver,
                protocol=self.message.protocol,
                kind="tcp_data_retransmit",
                layer=MessageLayer.TRANSPORT,
                size_bytes=self.message.size_bytes,
                msg_id=next(self.network.msg_ids),
            )
            self.network.record_send(retrans)

        src = self.message.sender
        dst = self.message.receiver
        delay = self.network.transmission_delay()
        success = (
            not self.network.link_is_cut(src, dst)
            and self.network.interfaces_up(src, dst)
            and self.network.interfaces_up(dst, src)
        )
        if success:
            ack = Message(
                sender=dst,
                receiver=src,
                protocol=self.message.protocol,
                kind="tcp_ack",
                layer=MessageLayer.TRANSPORT,
                size_bytes=40,
                msg_id=next(self.network.msg_ids),
            )
            self.network.record_send(ack)
            self.sim.post(delay, self._deliver)
            return
        if self.data_attempt >= self.config.max_data_retries:
            self._fail("data_transfer_aborted")
            return
        rto = self._current_rto()
        self.sim.post(rto, self._attempt_data)

    def _current_rto(self) -> float:
        base = self.config.initial_rto
        if base is None:
            base = 2.0 * self.network.transmission_delay()
        return base * (self.config.data_backoff_factor ** max(0, self.data_attempt - 1))

    def _deliver(self) -> None:
        if self.finished:
            return
        self.finished = True
        endpoint = (
            self.network.endpoint(self.message.receiver)
            if self.network.has_endpoint(self.message.receiver)
            else None
        )
        delivered = endpoint.deliver(self.message) if endpoint is not None else False
        if delivered and self.on_delivered is not None:
            self.on_delivered(self.message)
        elif not delivered:
            # The receiver vanished between the acknowledgement and delivery
            # (possible only at microsecond granularity); treat as a REX.
            if self.on_rex is not None:
                self.on_rex(RemoteException(self.message, "receiver_unreachable", self.sim.now))

    def _fail(self, reason: str) -> None:
        if self.finished:
            return
        self.finished = True
        self.sim.trace(
            "tcp",
            "rex",
            sender=self.message.sender,
            receiver=self.message.receiver,
            kind=self.message.kind,
            reason=reason,
        )
        if self.on_rex is not None:
            self.on_rex(RemoteException(self.message, reason, self.sim.now))


class TcpTransport:
    """Reliable unicast transport with the Table 3 failure response."""

    def __init__(self, network: Network, config: Optional[TcpConfig] = None) -> None:
        self.network = network
        self.config = config if config is not None else TcpConfig()

    def send(
        self,
        message: Message,
        on_delivered: Optional[Callable[[Message], None]] = None,
        on_rex: Optional[Callable[[RemoteException], None]] = None,
    ) -> None:
        """Send ``message`` reliably; exactly one of the callbacks eventually fires.

        ``on_delivered`` is invoked at the simulation time the receiver's
        discovery layer gets the message; ``on_rex`` is invoked when TCP gives
        up (connection set-up failed after the retry schedule).
        """
        _TcpExchange(self, message, on_delivered, on_rex).start()
