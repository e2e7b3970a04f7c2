"""Unit tests for the network substrate: delays, interface outages, multicast."""

import pytest

from repro.discovery.node import DiscoveryNode, NodeRole, Transports
from repro.net.addressing import MULTICAST_GROUP
from repro.net.failures import FailureInjector, NodeChurn
from repro.net.interfaces import Endpoint
from repro.net.messages import Message
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def make_network(n_nodes=3):
    sim = Simulator()
    network = Network(sim, RngRegistry(1234))
    inboxes = {}
    for index in range(n_nodes):
        address = f"node-{index}"
        inbox = []
        inboxes[address] = inbox
        network.join(Endpoint(address, handler=inbox.append))
    return sim, network, inboxes


def msg(sender, receiver, kind="ping", update_related=False):
    return Message(
        sender=sender, receiver=receiver, protocol="test", kind=kind, update_related=update_related
    )


def test_unicast_delay_within_table3_bounds():
    sim, network, inboxes = make_network(2)
    for _ in range(50):
        network.transmit_unicast(msg("node-0", "node-1"))
    sim.run()
    assert len(inboxes["node-1"]) == 50
    # Every delivery event happened between 10 and 100 microseconds after t=0.
    assert network.config.min_delay == pytest.approx(10e-6)
    assert network.config.max_delay == pytest.approx(100e-6)
    assert sim.now <= network.config.max_delay
    for _ in range(200):
        delay = network.transmission_delay()
        assert network.config.min_delay <= delay <= network.config.max_delay


def test_unicast_dropped_when_sender_tx_down():
    sim, network, inboxes = make_network(2)
    network.endpoint("node-0").interface.fail(tx=True)
    sent = network.transmit_unicast(msg("node-0", "node-1"))
    sim.run()
    assert sent is False
    assert inboxes["node-1"] == []
    assert network.endpoint("node-0").interface.counters.dropped_tx == 1
    # Nothing left the transmitter, so no traffic was recorded.
    assert len(network.stats) == 0


def test_unicast_dropped_when_receiver_rx_down_at_delivery():
    sim, network, inboxes = make_network(2)
    network.endpoint("node-1").interface.fail(rx=True)
    sent = network.transmit_unicast(msg("node-0", "node-1"))
    sim.run()
    # The message left the wire (and is counted as traffic) but was not delivered.
    assert sent is True
    assert inboxes["node-1"] == []
    assert network.endpoint("node-1").interface.counters.dropped_rx == 1
    assert len(network.stats) == 1


def test_interface_restore_resumes_delivery():
    sim, network, inboxes = make_network(2)
    interface = network.endpoint("node-1").interface
    interface.fail(rx=True)
    interface.restore(rx=True)
    network.transmit_unicast(msg("node-0", "node-1"))
    sim.run()
    assert len(inboxes["node-1"]) == 1


def test_multicast_reaches_all_other_nodes():
    sim, network, inboxes = make_network(4)
    sent = network.transmit_multicast(msg("node-0", MULTICAST_GROUP))
    sim.run()
    assert sent is True
    assert inboxes["node-0"] == []  # the sender does not hear itself
    for address in ("node-1", "node-2", "node-3"):
        assert len(inboxes[address]) == 1


def test_multicast_return_value_honest_when_tx_down():
    """Satellite fix: transmit_multicast must not report success blindly."""
    sim, network, inboxes = make_network(3)
    network.endpoint("node-0").interface.fail(tx=True)
    sent = network.transmit_multicast(msg("node-0", MULTICAST_GROUP))
    sim.run()
    assert sent is False
    assert all(inbox == [] for inbox in inboxes.values())
    assert network.endpoint("node-0").interface.counters.dropped_tx == 1
    # Nothing left the transmitter, so no traffic was recorded (unicast rule).
    assert len(network.stats) == 0


def test_multicast_recorded_once_by_first_copy_that_leaves():
    sim, network, inboxes = make_network(2)
    interface = network.endpoint("node-0").interface
    interface.fail(tx=True)
    # Restore the transmitter between the first and second redundant copy.
    sim.schedule(network.config.multicast_copy_spacing / 2, interface.restore, True)
    sent = network.transmit_multicast(msg("node-0", MULTICAST_GROUP), copies=3)
    sim.run()
    assert sent is False  # the first copy was blocked ...
    assert len(inboxes["node-1"]) == 2  # ... but copies 2 and 3 got through
    assert network.stats.total_sent() == 1  # logical send recorded exactly once
    assert interface.counters.dropped_tx == 1


def test_multicast_redundant_copies_recorded_once():
    sim, network, inboxes = make_network(2)
    network.transmit_multicast(msg("node-0", MULTICAST_GROUP), copies=3)
    sim.run()
    # Three copies arrive, spaced by the copy interval ...
    assert len(inboxes["node-1"]) == 3
    spacing = network.config.multicast_copy_spacing
    assert sim.now == pytest.approx(2 * spacing, abs=network.config.max_delay)
    # ... but the logical announcement is recorded once, with its copy count.
    assert network.stats.total_sent() == 1
    assert network.stats.total_sent(count_copies=True) == 3


def test_multicast_requires_group_address():
    sim, network, _ = make_network(2)
    with pytest.raises(ValueError):
        network.transmit_multicast(msg("node-0", "node-1"))


def test_duplicate_join_rejected():
    sim, network, _ = make_network(2)
    with pytest.raises(ValueError):
        network.join(Endpoint("node-0", handler=lambda m: None))


# --------------------------------------------------------------------------- interest filtering
class _Pinger(DiscoveryNode):
    def __init__(self, sim, network, node_id):
        super().__init__(sim, network, node_id, NodeRole.USER, Transports())
        self.heard = []

    def handle_ping(self, message):
        self.heard.append((self.now, message.kind))


class _PingPonger(_Pinger):
    def handle_pong(self, message):
        self.heard.append((self.now, message.kind))


def test_endpoint_without_declared_kinds_receives_every_multicast_kind():
    sim, network, inboxes = make_network(3)
    for kind in ("ping", "pong", "anything_else"):
        network.transmit_multicast(msg("node-0", MULTICAST_GROUP, kind=kind))
    sim.run()
    for address in ("node-1", "node-2"):
        assert sorted(m.kind for m in inboxes[address]) == ["anything_else", "ping", "pong"]
    assert network.filtered == 0


def test_multicast_posts_only_to_subscribers_with_unchanged_delays():
    def arrivals(subscribe):
        sim, network, inboxes = make_network(2)
        node = _Pinger(sim, network, "pinger")
        if not subscribe:
            node.endpoint.kinds = None
        # A generic receiver after the filtered one: its delay must not move.
        late = []
        network.join(Endpoint("late", handler=lambda m: late.append((sim.now, m.kind))))
        for kind in ("pong", "ping", "pong"):
            network.transmit_multicast(msg("node-0", MULTICAST_GROUP, kind=kind))
        sim.run()
        return node.heard, late, network.filtered, sim.executed_events

    heard, late, filtered, events = arrivals(subscribe=True)
    ref_heard, ref_late, ref_filtered, ref_events = arrivals(subscribe=False)
    assert [kind for _, kind in heard] == ["ping"]
    assert heard == ref_heard and late == ref_late
    assert (filtered, ref_filtered) == (2, 0)
    assert ref_events - events == 2


def test_subclass_inherits_parent_handler_kinds():
    assert DiscoveryNode.handled_kinds == frozenset()
    assert _Pinger.handled_kinds == {"ping"}
    assert _PingPonger.handled_kinds == {"ping", "pong"}
    sim, network, _ = make_network(1)
    node = _PingPonger(sim, network, "child")
    assert node.endpoint.kinds == {"ping", "pong"}
    network.transmit_multicast(msg("node-0", MULTICAST_GROUP, kind="ping"))
    network.transmit_multicast(msg("node-0", MULTICAST_GROUP, kind="pong"))
    network.transmit_multicast(msg("node-0", MULTICAST_GROUP, kind="other"))
    sim.run()
    assert [kind for _, kind in node.heard] == ["ping", "pong"]
    assert network.filtered == 1


def test_churned_node_receives_nothing_away_and_its_kinds_after_rejoin():
    sim, network, inboxes = make_network(2)
    node = _Pinger(sim, network, "pinger")
    injector = FailureInjector(
        sim,
        network,
        [],
        churn=[NodeChurn(node="pinger", leave=1.0, rejoin=2.0)],
        node_resolver={"pinger": node}.get,
    )
    node.start()
    injector.start()
    for at in (0.5, 1.5, 2.5):
        for kind in ("ping", "pong"):
            sim.schedule_at(at, network.transmit_multicast, msg("node-0", MULTICAST_GROUP, kind))
    sim.run()
    assert injector.departed == injector.rejoined == ["pinger"]
    assert [(int(when), kind) for when, kind in node.heard] == [(0, "ping"), (2, "ping")]
    # Nothing was even posted to the departed endpoint.
    assert node.endpoint.interface.counters.received == 2
    # The generic receiver heard every copy throughout.
    assert len(inboxes["node-1"]) == 6


def _unicasts_to_pinger(kinds, subscribe=True, loss=0.0, cut=False):
    """Unicast ``kinds`` from a generic node to a ``_Pinger`` (handles only
    ``ping``), one every second; ``subscribe=False`` is the reference where
    the pinger's endpoint takes every kind.  Returns (what the pinger heard,
    the network, events fired)."""
    sim, network, _ = make_network(1)
    node = _Pinger(sim, network, "pinger")
    if not subscribe:
        node.endpoint.kinds = None
    if loss:
        network.push_loss(loss)
    if cut:
        network.cut_link("node-0", "pinger")
    for index, kind in enumerate(kinds):
        sim.schedule_at(float(index), network.transmit_unicast, msg("node-0", "pinger", kind))
    sim.run()
    return node.heard, network, sim.executed_events


def test_unicast_of_unhandled_kind_is_not_posted_and_keeps_delays():
    kinds = ("pong", "ping", "pong", "ping")
    heard, network, events = _unicasts_to_pinger(kinds)
    ref_heard, ref_network, ref_events = _unicasts_to_pinger(kinds, subscribe=False)
    assert [kind for _, kind in heard] == ["ping", "ping"]
    # The filtered sends drew their delays: later arrivals do not move.
    assert heard == ref_heard
    assert (network.filtered, ref_network.filtered) == (2, 0)
    assert ref_events - events == 2
    # The sends are still spent and recorded.
    assert len(network.stats) == len(ref_network.stats) == 4
    assert network.endpoint("pinger").interface.counters.received == 2


def test_unicast_with_on_delivered_is_posted_even_when_unhandled():
    sim, network, _ = make_network(1)
    node = _Pinger(sim, network, "pinger")
    delivered = []
    network.transmit_unicast(msg("node-0", "pinger", "pong"), on_delivered=delivered.append)
    sim.run()
    assert [m.kind for m in delivered] == ["pong"]
    assert node.heard == []
    assert network.filtered == 0
    assert node.endpoint.interface.counters.received == 1


def test_endpoint_without_declared_kinds_receives_every_unicast_kind():
    sim, network, inboxes = make_network(2)
    for kind in ("ping", "pong", "tcp_syn"):
        network.transmit_unicast(msg("node-0", "node-1", kind=kind))
    sim.run()
    assert [m.kind for m in inboxes["node-1"]] == ["ping", "pong", "tcp_syn"]
    assert network.filtered == 0


def test_unicast_filter_keeps_cut_and_loss_accounting():
    kinds = ("pong", "ping") * 20
    heard, network, _ = _unicasts_to_pinger(kinds, loss=0.5)
    ref_heard, ref_network, _ = _unicasts_to_pinger(kinds, subscribe=False, loss=0.5)
    assert heard == ref_heard
    assert 0 < network.link_losses == ref_network.link_losses < len(kinds)
    lost_pongs = 20 - network.filtered
    assert 0 < lost_pongs < 20  # a lost send is a loss, not a filtered delivery

    heard, network, _ = _unicasts_to_pinger(kinds, cut=True)
    _, ref_network, _ = _unicasts_to_pinger(kinds, subscribe=False, cut=True)
    assert heard == []
    assert network.link_cut_drops == ref_network.link_cut_drops == len(kinds)
    assert network.filtered == 0
