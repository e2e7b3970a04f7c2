"""Skip-ahead differential battery.

Without loss windows or cut links, a multicast copy skips each run of
non-subscribers with one ``getrandbits`` call instead of drawing and
discarding one delay per receiver.  The reference is the per-receiver draw
loop (:func:`pinned_outputs.per_draw_delivery`).  This battery pins that the
two are the same simulation:

* the premise: ``getrandbits(64 * n)`` leaves a ``random.Random`` exactly
  where ``n`` calls of ``random()`` leave it;
* hand-picked layouts (sender at the head, inside a run, at the tail, a
  subscriber sender, no subscribers, ``kinds=None`` endpoints, a leave and
  rejoin inside a run) and generated ones give the same deliveries at the
  same times, the same ``Network.filtered`` and the same next delay draw;
* for every registered system x {table4, churn, restart, lossy} x
  lambda in {0, 0.3}, the per-run dicts are equal, cost counters included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinned_outputs import per_draw_delivery
from repro.experiments import ExperimentRunner, ScenarioSpec
from repro.net.addressing import MULTICAST_GROUP
from repro.net.interfaces import Endpoint
from repro.net.messages import Message
from repro.net.network import Network
from repro.protocols.registry import SYSTEMS
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: Endpoint roles in a layout string: ``S`` handles ``ping``, ``N`` handles
#: only ``other``, ``A`` handles every kind (``kinds=None``).
ROLE_KINDS = {"S": frozenset({"ping"}), "N": frozenset({"other"}), "A": None}
#: ``nobody`` has no subscriber but the ``A`` endpoints.
KINDS = ("ping", "other", "nobody")


# --------------------------------------------------------------------------- premise
@pytest.mark.parametrize("n", (1, 2, 7, 1000))
def test_getrandbits_consumes_the_words_of_n_random_calls(n):
    for seed in (0, 1, 2**63 + 5):
        skipped, drawn = random.Random(seed), random.Random(seed)
        skipped.getrandbits(64 * n)
        for _ in range(n):
            drawn.random()
        assert skipped.getstate() == drawn.getstate()
        # The state comparison tells a single 32-bit word apart.
        one_more = random.Random(seed)
        one_more.getrandbits(64 * n + 32)
        assert one_more.getstate() != skipped.getstate()


# --------------------------------------------------------------------------- layouts
def _address(index):
    return f"n{index:03d}"


def _play(layout, sends, churn=()):
    """Run ``sends`` over a network laid out by ``layout``.

    ``sends`` holds ``(sender, kind, target, copies)`` with endpoint indexes;
    ``target`` is ``None`` for a multicast.  ``churn`` holds ``(time, index,
    'leave' or 'join')``.  Send ``i`` leaves at ``t = i``.  Returns every
    delivery, ``Network.filtered``, the events fired and the next draw of
    the ``network/delay`` stream.
    """
    sim = Simulator()
    rng = RngRegistry(7)
    network = Network(sim, rng)
    heard = []
    endpoints = []
    for index, role in enumerate(layout):
        address = _address(index)

        def handler(message, address=address):
            heard.append((sim.now, address, message.sender, message.kind))

        endpoints.append(Endpoint(address, handler=handler, kinds=ROLE_KINDS[role]))
        network.join(endpoints[-1])
    for at, (sender, kind, target, copies) in enumerate(sends):
        receiver = MULTICAST_GROUP if target is None else _address(target)
        message = Message(_address(sender), receiver, "test", kind)
        if target is None:
            sim.schedule_at(float(at), network.transmit_multicast, message, copies)
        else:
            sim.schedule_at(float(at), network.transmit_unicast, message)
    for at, index, action in churn:
        if action == "leave":
            sim.schedule_at(at, network.leave, _address(index))
        else:
            sim.schedule_at(at, network.join, endpoints[index])
    sim.run()
    return heard, network.filtered, sim.executed_events, rng.stream("network", "delay").random()


def _assert_matches_reference(layout, sends, churn=()):
    skipped = _play(layout, sends, churn)
    with per_draw_delivery():
        reference = _play(layout, sends, churn)
    assert skipped == reference
    return skipped


LAYOUT = "NNSNNNSANNSN"


@pytest.mark.parametrize(
    "sender",
    [
        pytest.param(0, id="head"),
        pytest.param(4, id="inside-run"),
        pytest.param(len(LAYOUT) - 1, id="tail"),
        pytest.param(2, id="subscriber"),
        pytest.param(7, id="kinds-none"),
    ],
)
def test_skip_path_matches_reference_for_each_sender_position(sender):
    sends = [(sender, kind, None, 2) for kind in KINDS]
    heard, filtered, _, _ = _assert_matches_reference(LAYOUT, sends)
    assert filtered > 0
    assert all(address != _address(sender) for _, address, _, _ in heard)


def test_skip_path_matches_reference_with_no_subscribers():
    sends = [(1, "nobody", None, 3), (0, "ping", None, 1)]
    heard, filtered, _, _ = _assert_matches_reference("NNNNN", sends)
    assert heard == []
    assert filtered == 4 * 4


def test_skip_path_matches_reference_with_every_endpoint_subscribed():
    heard, filtered, _, _ = _assert_matches_reference("AAAA", [(2, "ping", None, 2)])
    assert len(heard) == 2 * 3 and filtered == 0


def test_leave_and_rejoin_inside_a_run_rebuild_the_table():
    # n004 sits inside the run n003..n005; it leaves at t=0.5 and rejoins
    # (now last in join order) at t=1.5, between sends of the same kind.
    layout = "SNSNNNSN"
    sends = [(0, "ping", None, 1), (3, "ping", None, 1), (4, "ping", None, 1)]
    churn = [(0.5, 4, "leave"), (1.5, 4, "join")]
    heard, _, _, _ = _assert_matches_reference(layout, sends, churn)
    assert sorted((int(at), address) for at, address, _, _ in heard) == [
        (0, "n002"),
        (0, "n006"),
        (1, "n000"),
        (1, "n002"),
        (1, "n006"),
        (2, "n000"),
        (2, "n002"),
        (2, "n006"),
    ]


def test_skip_path_draws_a_delay_only_for_subscribers():
    """The battery is not vacuous: non-subscribers are skipped, not drawn for."""

    def draws(reference):
        sim = Simulator()
        network = Network(sim, RngRegistry(3))
        for index, role in enumerate("NNSNNNNS"):
            network.join(Endpoint(_address(index), kinds=ROLE_KINDS[role]))
        rand = network._rand
        counted = []
        network._rand = lambda: counted.append(None) or rand()
        message = Message("n000", MULTICAST_GROUP, "test", "ping")
        if reference:
            with per_draw_delivery():
                network.transmit_multicast(message)
        else:
            network.transmit_multicast(message)
        return len(counted), network.filtered

    assert draws(reference=False) == (2, 5)
    assert draws(reference=True) == (7, 5)


# --------------------------------------------------------------------------- generated
@st.composite
def _scripts(draw):
    layout = "".join(draw(st.lists(st.sampled_from("SNA"), min_size=1, max_size=300)))
    index = st.integers(0, len(layout) - 1)
    # (sender, kind, target, copies); about two sends in three are multicasts.
    send = st.tuples(
        index,
        st.sampled_from(KINDS),
        st.one_of(st.none(), st.none(), index),
        st.integers(1, 3),
    )
    return layout, draw(st.lists(send, min_size=1, max_size=8))


@settings(max_examples=150, deadline=None, database=None)
@given(_scripts())
def test_generated_layouts_match_the_per_draw_reference(script):
    layout, sends = script
    _assert_matches_reference(layout, sends)


# --------------------------------------------------------------------------- systems
def _run(spec):
    """(result dict, network.filtered) of one run."""
    runner = ExperimentRunner()
    context = runner.setup(spec)
    result = runner.execute(context)
    return result.to_dict(), context.network.filtered


@pytest.mark.parametrize("scenario", ("table4", "churn", "restart", "lossy"))
@pytest.mark.parametrize("system", SYSTEMS.names())
def test_skip_ahead_and_per_draw_runs_agree(system, scenario):
    for rate in (0.0, 0.3):
        spec = ScenarioSpec(system=system, failure_rate=rate, seed=1, scenario=scenario)
        skipped = _run(spec)
        with per_draw_delivery():
            reference = _run(spec)
        assert skipped == reference
        assert skipped[1] > 0


@pytest.mark.parametrize("system", ("upnp", "jini1", "frodo3"))
def test_skip_ahead_and_per_draw_runs_agree_at_scale(system):
    spec = ScenarioSpec(system=system, failure_rate=0.2, seed=1, n_users=40)
    skipped = _run(spec)
    with per_draw_delivery():
        reference = _run(spec)
    assert skipped == reference
    assert skipped[1] > skipped[0]["details"]["telemetry"]["net"]["delivered"]
