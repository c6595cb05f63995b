/**
 * @file
 * Topology-layer unit tests: ring/mesh geometry and hop counts, the
 * deterministic direction tie-break, the exact link sequences XY and
 * ring routing produce, and end-to-end arrival timing through a real
 * Network instance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "mem/network.hh"
#include "sim/sim_object.hh"

using namespace fenceless;
using namespace fenceless::mem;

namespace
{

std::vector<std::uint32_t>
routeLinks(Topology t, std::uint32_t n, NodeId s, NodeId d)
{
    std::vector<std::uint32_t> links;
    forEachRouteLink(t, n, s, d,
                     [&](std::uint32_t link) { links.push_back(link); });
    return links;
}

} // namespace

TEST(Topology, Names)
{
    EXPECT_STREQ(topologyName(Topology::Crossbar), "crossbar");
    EXPECT_STREQ(topologyName(Topology::Ring), "ring");
    EXPECT_STREQ(topologyName(Topology::Mesh), "mesh");

    Topology t = Topology::Crossbar;
    EXPECT_TRUE(parseTopology("mesh", t));
    EXPECT_EQ(t, Topology::Mesh);
    EXPECT_TRUE(parseTopology("ring", t));
    EXPECT_EQ(t, Topology::Ring);
    EXPECT_TRUE(parseTopology("crossbar", t));
    EXPECT_EQ(t, Topology::Crossbar);
    EXPECT_FALSE(parseTopology("torus", t));
}

TEST(Topology, MeshDimsCoverAllNodes)
{
    for (std::uint32_t n = 2; n <= 130; ++n) {
        const MeshDims d = meshDims(n);
        EXPECT_GE(d.w * d.h, n) << "n=" << n;
        // Minimal width: one column less would not fit n nodes.
        EXPECT_LT(static_cast<std::uint64_t>(d.w - 1) * (d.w - 1), n)
            << "n=" << n;
        // Minimal height for that width.
        EXPECT_LT(static_cast<std::uint64_t>(d.w) * (d.h - 1), n)
            << "n=" << n;
    }
    EXPECT_EQ(meshDims(4).w, 2u);
    EXPECT_EQ(meshDims(4).h, 2u);
    EXPECT_EQ(meshDims(9).w, 3u);
    EXPECT_EQ(meshDims(9).h, 3u);
    // 64 cores + 8 directory banks: a 9x8 grid.
    EXPECT_EQ(meshDims(72).w, 9u);
    EXPECT_EQ(meshDims(72).h, 8u);
}

TEST(Topology, RingHops)
{
    EXPECT_EQ(ringHops(8, 0, 0), 0u);
    EXPECT_EQ(ringHops(8, 0, 1), 1u);
    EXPECT_EQ(ringHops(8, 0, 4), 4u); // antipode
    EXPECT_EQ(ringHops(8, 0, 5), 3u); // shorter counter-clockwise
    EXPECT_EQ(ringHops(8, 7, 0), 1u); // wraps
    EXPECT_EQ(ringHops(3, 2, 0), 1u);
}

TEST(Topology, RingTieBreakIsClockwise)
{
    // The antipode is equidistant both ways; the route must be the
    // same on every host, so ties fix on clockwise.
    EXPECT_TRUE(ringClockwise(8, 0, 4));
    EXPECT_TRUE(ringClockwise(8, 1, 5));
    EXPECT_TRUE(ringClockwise(4, 3, 1));
    // Strictly shorter directions are taken regardless.
    EXPECT_TRUE(ringClockwise(8, 0, 3));
    EXPECT_FALSE(ringClockwise(8, 0, 5));
}

TEST(Topology, MeshHopsIsManhattanDistance)
{
    // 3x3 mesh: node = y * 3 + x.
    EXPECT_EQ(meshHops(9, 0, 0), 0u);
    EXPECT_EQ(meshHops(9, 0, 8), 4u); // corner to corner
    EXPECT_EQ(meshHops(9, 0, 4), 2u); // corner to center
    EXPECT_EQ(meshHops(9, 6, 2), 4u);
    // Distance is symmetric even though routes differ.
    for (NodeId s = 0; s < 9; ++s) {
        for (NodeId d = 0; d < 9; ++d)
            EXPECT_EQ(meshHops(9, s, d), meshHops(9, d, s));
    }
}

TEST(Topology, CrossbarAlwaysOneHop)
{
    EXPECT_EQ(topologyHops(Topology::Crossbar, 9, 0, 8), 1u);
    EXPECT_EQ(topologyHops(Topology::Crossbar, 2, 1, 0), 1u);
    EXPECT_TRUE(routeLinks(Topology::Crossbar, 9, 0, 8).empty());
}

TEST(Topology, RingRouteLinkSequence)
{
    // 4-ring antipode 0 -> 2: tie, so clockwise through node 1.
    // Link id = node * 4 + direction (0 = clockwise).
    const std::vector<std::uint32_t> cw{0 * 4 + 0, 1 * 4 + 0};
    EXPECT_EQ(routeLinks(Topology::Ring, 4, 0, 2), cw);

    // 0 -> 3 is one counter-clockwise hop (direction 1).
    const std::vector<std::uint32_t> ccw{0 * 4 + 1};
    EXPECT_EQ(routeLinks(Topology::Ring, 4, 0, 3), ccw);

    EXPECT_TRUE(routeLinks(Topology::Ring, 4, 2, 2).empty());
}

TEST(Topology, MeshRouteIsXThenY)
{
    // 2x2 mesh, 0 (0,0) -> 3 (1,1): east out of node 0, then +y out
    // of node 1.  XY routing never takes the y-first alternative.
    const std::vector<std::uint32_t> expected{0 * 4 + 0, 1 * 4 + 2};
    EXPECT_EQ(routeLinks(Topology::Mesh, 4, 0, 3), expected);

    // 3 -> 0 reverses: west out of node 3, then -y out of node 2.
    const std::vector<std::uint32_t> back{3 * 4 + 1, 2 * 4 + 3};
    EXPECT_EQ(routeLinks(Topology::Mesh, 4, 3, 0), back);

    // Route length always equals the hop count.
    for (NodeId s = 0; s < 9; ++s) {
        for (NodeId d = 0; d < 9; ++d) {
            EXPECT_EQ(routeLinks(Topology::Mesh, 9, s, d).size(),
                      meshHops(9, s, d));
        }
    }
}

namespace
{

/** Records each delivered message and its arrival tick. */
class RecordingEndpoint : public MsgReceiver
{
  public:
    explicit RecordingEndpoint(sim::SimContext &ctx) : ctx_(ctx) {}

    void
    receiveMsg(const Msg &msg) override
    {
        arrivals.push_back(
            {ctx_.curTick(), msg.sent_tick, msg.hops, msg.sizeBytes()});
    }

    struct Arrival
    {
        Tick tick;
        Tick sent;
        std::uint8_t hops;
        std::size_t bytes;
    };
    std::vector<Arrival> arrivals;

  private:
    sim::SimContext &ctx_;
};

} // namespace

TEST(Topology, RingArrivalTiming)
{
    sim::SimContext ctx;
    Network::Params params;
    params.topology = Topology::Ring;
    params.num_nodes = 4;
    params.hop_latency = 3;
    params.link_bytes_per_cycle = 16;
    Network net(ctx, "network", params);

    RecordingEndpoint ep(ctx);
    net.registerEndpoint(2, &ep);

    // Header-only message (8 bytes): 2 hops * 3 cycles + 1 cycle of
    // serialization = arrival at tick 7.
    Msg msg;
    msg.type = MsgType::GetS;
    msg.src = 0;
    msg.dst = 2;
    msg.block_addr = 0x40;
    net.send(std::move(msg));
    ctx.eventq.run();

    ASSERT_EQ(ep.arrivals.size(), 1u);
    EXPECT_EQ(ep.arrivals[0].tick, 7u);
    EXPECT_EQ(ep.arrivals[0].hops, 2);

    // A second message on the same channel is FIFO-clamped behind the
    // first arrival plus its serialization cycle.
    Msg msg2;
    msg2.type = MsgType::GetS;
    msg2.src = 0;
    msg2.dst = 2;
    msg2.block_addr = 0x80;
    net.send(std::move(msg2));
    ctx.eventq.run();

    ASSERT_EQ(ep.arrivals.size(), 2u);
    EXPECT_EQ(ep.arrivals[1].tick, 14u);
}

TEST(Topology, MeshPartialLastRowRoutesThroughEmptySlots)
{
    // 24 nodes on a 5x5 grid leave slot 24 (4,4) empty.  XY routes may
    // still cross it as a router -- e.g. (0,4) -> (4,3) walks row 4 out
    // to x=4 and then turns -y out of the empty corner.  routerSlots()
    // must cover the full grid or that turn indexes past the link
    // arrays.
    EXPECT_EQ(routerSlots(Topology::Mesh, 24), 25u);
    EXPECT_EQ(routerSlots(Topology::Ring, 24), 24u);
    EXPECT_EQ(routerSlots(Topology::Crossbar, 24), 24u);

    const std::vector<std::uint32_t> links =
        routeLinks(Topology::Mesh, 24, 20, 19);
    ASSERT_EQ(links.size(), meshHops(24, 20, 19));
    EXPECT_EQ(links.back(), 24u * 4 + 3); // -y out of the empty corner
    for (std::uint32_t link : links)
        EXPECT_LT(link, routerSlots(Topology::Mesh, 24) * 4);

    // End-to-end through a real Network: the send must not corrupt the
    // link counters and the fold must see the empty-slot link.
    sim::SimContext ctx;
    Network::Params params;
    params.topology = Topology::Mesh;
    params.num_nodes = 24;
    params.hop_latency = 2;
    Network net(ctx, "network", params);
    RecordingEndpoint ep(ctx);
    net.registerEndpoint(19, &ep);

    Msg msg;
    msg.type = MsgType::GetS;
    msg.src = 20;
    msg.dst = 19;
    msg.block_addr = 0x40;
    net.send(std::move(msg));
    ctx.eventq.run();

    ASSERT_EQ(ep.arrivals.size(), 1u);
    EXPECT_EQ(ep.arrivals[0].hops, 5);
    net.foldLinkStats();
    EXPECT_EQ(net.statGroup().scalarCount("hops"), 5u);
    EXPECT_EQ(net.statGroup().scalarCount("links_used"), 5u);
}

TEST(Topology, MeshHopAndLinkStatsFold)
{
    sim::SimContext ctx;
    Network::Params params;
    params.topology = Topology::Mesh;
    params.num_nodes = 4;
    params.hop_latency = 2;
    Network net(ctx, "network", params);

    RecordingEndpoint ep(ctx);
    net.registerEndpoint(3, &ep);

    Msg msg;
    msg.type = MsgType::GetS;
    msg.src = 0;
    msg.dst = 3;
    msg.block_addr = 0x40;
    net.send(std::move(msg));
    ctx.eventq.run();

    ASSERT_EQ(ep.arrivals.size(), 1u);
    EXPECT_EQ(ep.arrivals[0].hops, 2);

    net.foldLinkStats();
    EXPECT_EQ(net.statGroup().scalarCount("hops"), 2u);
    EXPECT_EQ(net.statGroup().scalarCount("links_used"), 2u);
    EXPECT_EQ(net.statGroup().scalarCount("hot_link_msgs"), 1u);
}

TEST(Topology, LinkOccupancyFoldMatchesPerMessageWalk)
{
    // Several sources share links; data messages (72 bytes: 5 cycles
    // of serialization) mix with control ones (8 bytes: 1 cycle).  The
    // reference charges every message to each link of its route, as a
    // per-message walk would; the network folds per-channel totals.
    struct Send
    {
        NodeId src, dst;
        bool data;
    };
    const std::vector<Send> sends = {
        {0, 2, false}, {0, 2, true}, {1, 2, true},  {5, 2, false},
        {6, 0, true},  {6, 0, true}, {2, 6, false}, {4, 1, true},
        {3, 5, false}, {1, 3, true}, {0, 4, false}, {6, 5, true},
        {5, 6, false}, {2, 0, true}, {4, 2, false}, {0, 2, true},
    };
    const Addr dropped_block = 0x1c0;

    // Ring: 6 nodes (ties go clockwise).  Mesh: 7 nodes on a 3x3 grid,
    // a partial last row.  Crossbar: no modeled links.
    for (const auto &[topo, n] :
         std::vector<std::pair<Topology, std::uint32_t>>{
             {Topology::Ring, 6}, {Topology::Mesh, 7},
             {Topology::Crossbar, 7}}) {
        SCOPED_TRACE(topologyName(topo));
        sim::SimContext ctx;
        Network::Params params;
        params.topology = topo;
        params.num_nodes = n;
        params.hop_latency = 2;
        params.link_bytes_per_cycle = 16;
        params.drop_fwd_acks_for = {dropped_block};
        Network net(ctx, "network", params);
        std::vector<std::unique_ptr<RecordingEndpoint>> eps;
        for (NodeId id = 0; id < n; ++id) {
            eps.push_back(std::make_unique<RecordingEndpoint>(ctx));
            net.registerEndpoint(id, eps.back().get());
        }

        const std::size_t nlinks = topo == Topology::Crossbar
                                       ? 0
                                       : routerSlots(topo, n) * 4u;
        std::vector<std::uint64_t> ref_msgs(nlinks, 0);
        std::vector<std::uint64_t> ref_busy(nlinks, 0);
        for (const Send &s : sends) {
            Msg msg;
            msg.type = s.data ? MsgType::DataM : MsgType::GetS;
            msg.src = s.src % n;
            msg.dst = s.dst % n;
            msg.block_addr = 0x40;
            if (s.data)
                msg.data.assign(64, 0xab);
            const Cycles serialization =
                (msg.sizeBytes() + params.link_bytes_per_cycle - 1)
                / params.link_bytes_per_cycle;
            forEachRouteLink(topo, n, msg.src, msg.dst,
                             [&](std::uint32_t link) {
                                 ++ref_msgs[link];
                                 ref_busy[link] += serialization;
                             });
            net.send(std::move(msg));
            ctx.eventq.run(ctx.eventq.curTick() + 3);
        }
        // Swallowed by fault injection: charges no link.
        Msg ack;
        ack.type = MsgType::FwdDataAck;
        ack.src = 1;
        ack.dst = 3;
        ack.block_addr = dropped_block;
        ack.data.assign(64, 0xcd);
        net.send(std::move(ack));
        ctx.eventq.run();

        // The traffic counters and msg_latency are live: before any
        // fold they match what the endpoints recorded.
        std::uint64_t bytes = 0, hops = 0, arrived = 0;
        double lat_sum = 0.0, lat_min = 0.0, lat_max = 0.0;
        for (const auto &ep : eps) {
            for (const auto &a : ep->arrivals) {
                const auto lat = static_cast<double>(a.tick - a.sent);
                lat_min = arrived == 0 ? lat : std::min(lat_min, lat);
                lat_max = std::max(lat_max, lat);
                lat_sum += lat;
                bytes += a.bytes;
                hops += a.hops;
                ++arrived;
            }
        }
        ASSERT_EQ(arrived, sends.size());
        const statistics::StatGroup &g = net.statGroup();
        EXPECT_EQ(g.scalarCount("msgs"), arrived);
        EXPECT_EQ(g.scalarCount("bytes"), bytes);
        EXPECT_EQ(g.scalarCount("hops"), hops);
        EXPECT_EQ(g.scalarCount("dropped_msgs"), 1u);
        const statistics::Distribution *lat =
            g.findDistribution("msg_latency");
        ASSERT_NE(lat, nullptr);
        EXPECT_EQ(lat->samples(), arrived);
        EXPECT_EQ(lat->minValue(), lat_min);
        EXPECT_EQ(lat->maxValue(), lat_max);
        EXPECT_DOUBLE_EQ(lat->mean(),
                         lat_sum / static_cast<double>(arrived));

        std::uint64_t used = 0, hot_msgs = 0, hot_busy = 0;
        for (std::size_t l = 0; l < nlinks; ++l) {
            if (ref_msgs[l] == 0)
                continue;
            ++used;
            hot_msgs = std::max(hot_msgs, ref_msgs[l]);
            hot_busy = std::max(hot_busy, ref_busy[l]);
        }
        EXPECT_EQ(net.foldedLinkMsgs(), ref_msgs);
        net.foldLinkStats();
        EXPECT_EQ(net.foldedLinkMsgs(), ref_msgs);
        EXPECT_EQ(net.droppedMsgs(), 1u);
        EXPECT_EQ(net.statGroup().scalarCount("msgs"), sends.size());
        EXPECT_EQ(net.statGroup().scalarCount("links_used"), used);
        EXPECT_EQ(net.statGroup().scalarCount("hot_link_msgs"), hot_msgs);
        EXPECT_EQ(net.statGroup().scalarCount("hot_link_busy"), hot_busy);
        if (topo != Topology::Crossbar) {
            // Shared links carried traffic from more than one message,
            // and the busiest-by-cycles link is not a plain msg count.
            EXPECT_GT(hot_msgs, 1u);
            EXPECT_GT(hot_busy, hot_msgs);
        }
    }
}

TEST(Topology, ForEachChannelCountsInFlight)
{
    // Crossbar, latency 8, 16 bytes/cycle: a control message (8 bytes)
    // serializes in 1 cycle, a data message (72 bytes) in 5.
    sim::SimContext ctx;
    Network::Params params;
    Network net(ctx, "network", params);
    std::vector<std::unique_ptr<RecordingEndpoint>> eps;
    for (NodeId id = 0; id < 3; ++id) {
        eps.push_back(std::make_unique<RecordingEndpoint>(ctx));
        net.registerEndpoint(id, eps.back().get());
    }
    auto sendAt0 = [&](NodeId src, bool data) {
        Msg msg;
        msg.type = data ? MsgType::DataM : MsgType::GetS;
        msg.src = src;
        msg.dst = 1;
        msg.block_addr = 0x40;
        if (data)
            msg.data.assign(64, 0xab);
        net.send(std::move(msg));
    };
    // Channel 0 -> 1 arrives at 9, 10, 11; channel 2 -> 1 at 13, 18.
    for (int i = 0; i < 3; ++i)
        sendAt0(0, false);
    sendAt0(2, true);
    sendAt0(2, true);

    using Seen = std::vector<std::tuple<NodeId, NodeId, Tick,
                                        std::uint64_t>>;
    auto channels = [&net] {
        Seen seen;
        net.forEachChannel([&](NodeId s, NodeId d, Network::Channel ch) {
            seen.emplace_back(s, d, ch.last_arrival, ch.in_flight);
        });
        return seen;
    };
    EXPECT_EQ(channels(), (Seen{{0, 1, 11, 3}, {2, 1, 18, 2}}));
    ctx.eventq.run(10);
    EXPECT_EQ(eps[1]->arrivals.size(), 2u);
    EXPECT_EQ(channels(), (Seen{{0, 1, 11, 1}, {2, 1, 18, 2}}));
    ctx.eventq.run(15);
    // A drained channel is still visited, with nothing in flight.
    EXPECT_EQ(channels(), (Seen{{0, 1, 11, 0}, {2, 1, 18, 1}}));
    ctx.eventq.run();
    EXPECT_EQ(channels(), (Seen{{0, 1, 11, 0}, {2, 1, 18, 0}}));
    EXPECT_EQ(eps[1]->arrivals.back().tick, 18u);
}
