"""Tests for mesh topology and the wormhole network timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.network.topology as topology
from repro.faults import FaultInjector, lossy_plan
from repro.machine import Machine, MachineConfig
from repro.network import Mesh2D, Network, Packet, PacketKind
from repro.network.topology import Coord, Torus2D
from repro.proc import Compute, Send
from repro.runtime import MPTreeBarrier
from repro.sim import SimulationError, Simulator


class TestMesh2D:
    def test_square_dimensions(self):
        m = Mesh2D(64)
        assert (m.width, m.height) == (8, 8)

    def test_nonsquare_falls_back_to_divisor(self):
        m = Mesh2D(8)
        assert m.width * m.height == 8

    def test_explicit_width(self):
        m = Mesh2D(12, width=4)
        assert (m.width, m.height) == (4, 3)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            Mesh2D(10, width=4)

    def test_coord_roundtrip(self):
        m = Mesh2D(64)
        for n in range(64):
            assert m.node_at(m.coord(n)) == n

    def test_hops_manhattan(self):
        m = Mesh2D(64)  # 8x8
        assert m.hops(0, 0) == 0
        assert m.hops(0, 7) == 7
        assert m.hops(0, 63) == 14
        assert m.hops(9, 18) == 2

    def test_route_is_xy(self):
        m = Mesh2D(16)  # 4x4
        route = m.route(0, 15)
        # X first: 0->1->2->3, then Y: 3->7->11->15
        assert route == [(0, 1), (1, 2), (2, 3), (3, 7), (7, 11), (11, 15)]

    def test_route_length_matches_hops(self):
        m = Mesh2D(64)
        for src, dst in [(0, 63), (5, 40), (17, 17), (63, 0)]:
            assert len(m.route(src, dst)) == m.hops(src, dst)

    def test_neighbors_corner_edge_interior(self):
        m = Mesh2D(16)  # 4x4
        assert sorted(m.neighbors(0)) == [1, 4]
        assert sorted(m.neighbors(1)) == [0, 2, 5]
        assert sorted(m.neighbors(5)) == [1, 4, 6, 9]

    def test_out_of_range_node(self):
        m = Mesh2D(16)
        with pytest.raises(ValueError):
            m.hops(0, 16)

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=50)
    def test_route_connects_endpoints(self, src, dst):
        m = Mesh2D(64)
        route = m.route(src, dst)
        if src == dst:
            assert route == []
        else:
            assert route[0][0] == src
            assert route[-1][1] == dst
            for (a, b), (c, d) in zip(route, route[1:]):
                assert b == c
                assert m.hops(a, b) == 1


def _reference_step(cur, target, size, torus):
    if not torus:
        return cur + (1 if target > cur else -1)
    fwd = (target - cur) % size
    back = (cur - target) % size
    if fwd <= back:
        return (cur + 1) % size
    return (cur - 1) % size


def _reference_route(mesh, src, dst):
    """The earlier Coord-based router, kept as the oracle: one Coord
    per hop, and on a torus a fresh shorter-way decision at each step
    (forward on a tie)."""
    torus = isinstance(mesh, Torus2D)
    w, h = mesh.width, mesh.height
    links = []
    cur = Coord(src % w, src // w)
    target = Coord(dst % w, dst // w)
    while cur.x != target.x:
        nxt = Coord(_reference_step(cur.x, target.x, w, torus), cur.y)
        links.append((cur.y * w + cur.x, nxt.y * w + nxt.x))
        cur = nxt
    while cur.y != target.y:
        nxt = Coord(cur.x, _reference_step(cur.y, target.y, h, torus))
        links.append((cur.y * w + cur.x, nxt.y * w + nxt.x))
        cur = nxt
    return links


@pytest.mark.parametrize("topo", [Mesh2D, Torus2D])
@pytest.mark.parametrize("n, width", [
    (1, None), (2, None), (6, 3), (8, 2), (12, 3), (12, 4), (16, 8),
    (64, None), (256, None), (1024, None),
])
def test_routes_match_reference(topo, n, width):
    """The integer walk routes every pair as the Coord walk did; at
    1024 nodes, 30 sources spread over every row to every destination."""
    mesh = topo(n, width)
    sources = range(0, n, 35) if n == 1024 else range(n)
    for src in sources:
        for dst in range(n):
            route = mesh.route(src, dst)
            assert route == _reference_route(mesh, src, dst), (src, dst)
            assert mesh.hops(src, dst) == len(route)


def test_send_path_builds_no_coord(monkeypatch):
    """Routing and sending never construct a coordinate object."""
    def no_coord(*args):
        raise AssertionError("Coord built on the send path")

    monkeypatch.setattr(topology, "Coord", no_coord)
    m = Machine(MachineConfig(n_nodes=64))
    barrier = MPTreeBarrier(m, fanout=8)
    left = []

    def participant(node):
        for _ in range(2):
            yield from barrier.enter(node)
            yield Compute(1)
        left.append(node)

    for node in range(64):
        m.processor(node).run_thread(participant(node))
    m.run()
    assert sorted(left) == list(range(64))


def test_pair_routed_once(monkeypatch):
    """A pair is routed at its first injected send and never again: the
    fabric keeps its link chain, and a drop-only fault plan reads no
    route."""
    calls = []
    route = Mesh2D.route

    def spy(self, src, dst):
        calls.append((src, dst))
        return route(self, src, dst)

    monkeypatch.setattr(Mesh2D, "route", spy)
    m = Machine(MachineConfig(n_nodes=16))

    def handler(msg):
        yield Compute(1)

    m.processor(5).register_handler("ping", handler)
    FaultInjector(m, lossy_plan(0.5, seed=3))

    def sender():
        for i in range(10):
            yield Send(5, "ping", operands=(i,))
            yield Compute(25)

    m.processor(0).run_thread(sender())
    m.run()
    assert 0 < m.network.stats.dropped < 10
    assert calls == [(0, 5)]


class TestPacket:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=0)

    def test_protocol_classification(self):
        p = Packet(src=0, dst=1, kind=PacketKind.COH_READ_REQ, size_words=3)
        q = Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=3)
        assert p.is_protocol and not q.is_protocol

    def test_unique_ids(self):
        a = Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=1)
        b = Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=1)
        assert a.pid != b.pid


def make_net(n=16, **kw):
    sim = Simulator()
    net = Network(sim, Mesh2D(n), **kw)
    delivered = []
    for node in range(n):
        net.attach(node, lambda p, node=node: delivered.append((node, p, sim.now)))
    return sim, net, delivered


class TestNetworkTiming:
    def test_uncontended_latency_formula(self):
        sim, net, delivered = make_net(
            16, hop_latency=2, bandwidth_bytes_per_cycle=4.0, injection_latency=1
        )
        p = Packet(src=0, dst=3, kind=PacketKind.USER_MESSAGE, size_words=4)
        arrival = net.send(p)
        # injection 1 + 3 hops * 2 + body 4 words * 1 cycle
        assert arrival == 1 + 3 * 2 + 4
        sim.run()
        assert delivered == [(3, p, arrival)]

    def test_local_loopback(self):
        sim, net, delivered = make_net(
            16, local_loopback_latency=2, bandwidth_bytes_per_cycle=4.0
        )
        p = Packet(src=5, dst=5, kind=PacketKind.USER_MESSAGE, size_words=2)
        arrival = net.send(p)
        assert arrival == 2 + 2  # loopback + body (2 words @ 1 cyc/word)
        sim.run()
        assert delivered[0][0] == 5

    def test_link_contention_serializes(self):
        sim, net, delivered = make_net(16, bandwidth_bytes_per_cycle=4.0)
        p1 = Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=10)
        p2 = Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=10)
        a1 = net.send(p1)
        a2 = net.send(p2)
        assert a2 > a1
        # second packet must wait for the first body to clear the link
        assert a2 - a1 >= 10

    def test_distinct_links_do_not_contend(self):
        sim, net, delivered = make_net(16)
        a1 = net.send(Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=8))
        a2 = net.send(Packet(src=4, dst=5, kind=PacketKind.USER_MESSAGE, size_words=8))
        assert a1 == a2

    def test_longer_route_takes_longer(self):
        sim, net, delivered = make_net(16)
        a_near = net.send(Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=4))
        sim2, net2, _ = make_net(16)
        a_far = net2.send(Packet(src=0, dst=15, kind=PacketKind.USER_MESSAGE, size_words=4))
        assert a_far > a_near

    def test_stats_accumulate(self):
        sim, net, delivered = make_net(16)
        net.send(Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=4))
        net.send(Packet(src=0, dst=2, kind=PacketKind.COH_READ_REQ, size_words=3))
        assert net.stats.packets == 2
        assert net.stats.words == 7
        assert net.stats.by_kind[PacketKind.USER_MESSAGE] == 1

    def test_send_to_unattached_node_fails(self):
        sim = Simulator()
        net = Network(sim, Mesh2D(4))
        with pytest.raises(SimulationError):
            net.send(Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=1))

    def test_double_attach_rejected(self):
        sim = Simulator()
        net = Network(sim, Mesh2D(4))
        net.attach(0, lambda p: None)
        with pytest.raises(SimulationError):
            net.attach(0, lambda p: None)

    def test_bandwidth_scales_body_time(self):
        sim1, net1, _ = make_net(16, bandwidth_bytes_per_cycle=2.0)
        sim2, net2, _ = make_net(16, bandwidth_bytes_per_cycle=4.0)
        slow = net1.send(Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=100))
        fast = net2.send(Packet(src=0, dst=1, kind=PacketKind.USER_MESSAGE, size_words=100))
        assert slow > fast

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(1, 64))
    @settings(max_examples=40)
    def test_delivery_always_in_future(self, src, dst, words):
        sim, net, delivered = make_net(16)
        arrival = net.send(Packet(src=src, dst=dst, kind=PacketKind.USER_MESSAGE, size_words=words))
        assert arrival >= sim.now
        sim.run()
        assert len(delivered) == 1
