#include "mem/network.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"

namespace fenceless::mem
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GetS: return "GetS";
      case MsgType::GetM: return "GetM";
      case MsgType::PutM: return "PutM";
      case MsgType::PutS: return "PutS";
      case MsgType::PutNoData: return "PutNoData";
      case MsgType::WbClean: return "WbClean";
      case MsgType::Inv: return "Inv";
      case MsgType::FwdGetS: return "FwdGetS";
      case MsgType::FwdGetM: return "FwdGetM";
      case MsgType::Recall: return "Recall";
      case MsgType::DataS: return "DataS";
      case MsgType::DataE: return "DataE";
      case MsgType::DataM: return "DataM";
      case MsgType::PutAck: return "PutAck";
      case MsgType::InvAck: return "InvAck";
      case MsgType::FwdDataAck: return "FwdDataAck";
      case MsgType::FwdNoDataAck: return "FwdNoDataAck";
    }
    return "?";
}

bool
isDirRequest(MsgType t)
{
    switch (t) {
      case MsgType::GetS:
      case MsgType::GetM:
      case MsgType::PutM:
      case MsgType::PutS:
      case MsgType::PutNoData:
        return true;
      default:
        return false;
    }
}

const char *
topologyName(Topology t)
{
    switch (t) {
      case Topology::Crossbar: return "crossbar";
      case Topology::Ring: return "ring";
      case Topology::Mesh: return "mesh";
    }
    return "?";
}

bool
parseTopology(const std::string &s, Topology &out)
{
    if (s == "crossbar") {
        out = Topology::Crossbar;
    } else if (s == "ring") {
        out = Topology::Ring;
    } else if (s == "mesh") {
        out = Topology::Mesh;
    } else {
        return false;
    }
    return true;
}

MeshDims
meshDims(std::uint32_t n)
{
    MeshDims d;
    if (n == 0)
        return d;
    d.w = 1;
    while (d.w * d.w < n)
        ++d.w;
    d.h = (n + d.w - 1) / d.w;
    return d;
}

std::uint32_t
routerSlots(Topology t, std::uint32_t n)
{
    if (t != Topology::Mesh)
        return n;
    const MeshDims d = meshDims(n);
    return d.w * d.h;
}

std::uint32_t
ringHops(std::uint32_t n, NodeId s, NodeId d)
{
    const std::uint32_t cw = (d + n - s) % n;
    return std::min(cw, n - cw);
}

bool
ringClockwise(std::uint32_t n, NodeId s, NodeId d)
{
    // Shorter direction; clockwise (increasing id) on ties, so the
    // route -- and with it the link-occupancy accounting -- is a fixed
    // function of (s, d) with no arbitration state.
    const std::uint32_t cw = (d + n - s) % n;
    return cw <= n - cw;
}

std::uint32_t
meshHops(std::uint32_t n, NodeId s, NodeId d)
{
    const MeshDims dims = meshDims(n);
    const std::int64_t dx = static_cast<std::int64_t>(d % dims.w)
                            - static_cast<std::int64_t>(s % dims.w);
    const std::int64_t dy = static_cast<std::int64_t>(d / dims.w)
                            - static_cast<std::int64_t>(s / dims.w);
    return static_cast<std::uint32_t>((dx < 0 ? -dx : dx)
                                      + (dy < 0 ? -dy : dy));
}

std::uint32_t
topologyHops(Topology t, std::uint32_t n, NodeId s, NodeId d)
{
    switch (t) {
      case Topology::Crossbar: return 1;
      case Topology::Ring: return ringHops(n, s, d);
      case Topology::Mesh: return meshHops(n, s, d);
    }
    return 1;
}

void
forEachRouteLink(Topology t, std::uint32_t n, NodeId s, NodeId d,
                 const std::function<void(std::uint32_t)> &fn)
{
    if (t == Topology::Crossbar || s == d)
        return;
    if (t == Topology::Ring) {
        const bool cw = ringClockwise(n, s, d);
        for (NodeId at = s; at != d;) {
            fn(at * 4 + (cw ? 0u : 1u));
            at = cw ? (at + 1) % n : (at + n - 1) % n;
        }
        return;
    }
    // Mesh: XY routing -- walk out the x offset first, then y.  The
    // intermediate grid slots need not host an endpoint (the last mesh
    // row may be partially filled); they are routers either way.
    const MeshDims dims = meshDims(n);
    std::uint32_t x = s % dims.w, y = s / dims.w;
    const std::uint32_t dx = d % dims.w, dy = d / dims.w;
    while (x != dx) {
        const bool east = x < dx;
        fn((y * dims.w + x) * 4 + (east ? 0u : 1u));
        x += east ? 1 : -1;
    }
    while (y != dy) {
        const bool north = y < dy;
        fn((y * dims.w + x) * 4 + (north ? 2u : 3u));
        y += north ? 1 : -1;
    }
}

std::string
linkName(Topology t, std::uint32_t link_id)
{
    static const char *const mesh_dirs[4] = {"+x", "-x", "+y", "-y"};
    static const char *const ring_dirs[4] = {"cw", "ccw", "?", "?"};
    std::ostringstream os;
    os << "rtr" << (link_id / 4) << '.'
       << (t == Topology::Ring ? ring_dirs[link_id % 4]
                               : mesh_dirs[link_id % 4]);
    return os.str();
}

std::string
Msg::toString() const
{
    std::ostringstream os;
    os << msgTypeName(type) << " " << src << "->" << dst << " blk=0x"
       << std::hex << block_addr << std::dec
       << (hasData() ? " +data" : "");
    return os.str();
}

namespace
{

/** Max-heap comparator yielding a (arrival, src, chan_seq) min-heap. */
struct PendingLater
{
    bool
    operator()(const Network::PendingMsg &a,
               const Network::PendingMsg &b) const
    {
        if (a.arrival != b.arrival)
            return a.arrival > b.arrival;
        if (a.msg.src != b.msg.src)
            return a.msg.src > b.msg.src;
        return a.chan_seq > b.chan_seq;
    }
};

} // namespace

Network::Network(sim::SimContext &ctx, const std::string &name,
                 const Params &params)
    : SimObject(ctx, name), params_(params),
      stat_msgs_(statGroup().addScalar("msgs", "messages sent")),
      stat_bytes_(statGroup().addScalar("bytes", "bytes sent")),
      stat_data_msgs_(statGroup().addScalar("data_msgs",
                                            "data-carrying messages")),
      stat_ctrl_msgs_(statGroup().addScalar("ctrl_msgs",
                                            "control messages")),
      stat_dropped_(statGroup().addScalar("dropped_msgs",
          "messages discarded by fault injection (drop_fwd_acks_for)")),
      stat_hops_(statGroup().addScalar("hops",
          "links crossed, summed over all messages (crossbar: 1 each)")),
      stat_links_used_(statGroup().addScalar("links_used",
          "directed links that carried at least one message "
          "(ring/mesh only)")),
      stat_hot_link_msgs_(statGroup().addScalar("hot_link_msgs",
          "messages over the busiest directed link (ring/mesh only)")),
      stat_hot_link_busy_(statGroup().addScalar("hot_link_busy",
          "serialization cycles charged to the busiest directed link "
          "(ring/mesh only)")),
      stat_msg_latency_(statGroup().addDistribution("msg_latency",
          "cycles from send to delivery (route latency + serialization "
          "+ channel backpressure)"))
{
    flAssert(params_.link_bytes_per_cycle > 0,
             "network link bandwidth must be positive");
    if (params_.topology != Topology::Crossbar) {
        flAssert(params_.num_nodes >= 2, topologyName(params_.topology),
                 " topology needs num_nodes >= 2 (got ",
                 params_.num_nodes, ")");
        flAssert(params_.hop_latency > 0,
                 "per-hop latency must be positive");
    }

    std::vector<std::string> msg_names;
    for (int t = 0; t <= static_cast<int>(MsgType::FwdNoDataAck); ++t)
        msg_names.push_back(msgTypeName(static_cast<MsgType>(t)));
    tracer().setAuxNames(trace::EventKind::NetHop, std::move(msg_names));

    // Size the node table up front: ingressFire holds a Node reference
    // across receiveMsg, whose replies must not grow the table.
    nodes_.resize(params_.num_nodes);
}

Network::~Network()
{
    for (Node &n : nodes_) {
        if (n.ingress_event && n.ingress_event->scheduled())
            eventq().deschedule(n.ingress_event.get());
    }
}

Network::Node &
Network::ensureNode(NodeId id)
{
    if (nodes_.size() <= id)
        nodes_.resize(id + 1);
    return nodes_[id];
}

void
Network::registerEndpoint(NodeId id, MsgReceiver *receiver)
{
    Node &n = ensureNode(id);
    flAssert(!n.receiver, "endpoint ", id, " already registered");
    n.receiver = receiver;
    n.trace_id = tracer().registerComponent("net.rx" + std::to_string(id));
    n.ingress_event = std::make_unique<sim::EventFunctionWrapper>(
        [this, id] { ingressFire(id); }, "net-ingress",
        ingress_prio_base + static_cast<int>(id));
}

void
Network::send(Msg msg)
{
    flAssert(msg.dst < nodes_.size() && nodes_[msg.dst].receiver,
             "message to unregistered endpoint ", msg.dst);
    Node &src = ensureNode(msg.src);

    // Fault injection (tests only): swallow the owner's probe response
    // before it touches channel state, wedging the directory's forward
    // phase exactly as a lost message would.
    if ((msg.type == MsgType::FwdDataAck ||
         msg.type == MsgType::FwdNoDataAck) &&
        std::find(params_.drop_fwd_acks_for.begin(),
                  params_.drop_fwd_acks_for.end(),
                  msg.block_addr) != params_.drop_fwd_acks_for.end()) {
        ++stat_dropped_;
        return;
    }

    msg.sent_tick = curTick();

    const Cycles serialization =
        (msg.sizeBytes() + params_.link_bytes_per_cycle - 1)
        / params_.link_bytes_per_cycle;

    Tick route_latency = params_.latency;
    std::uint32_t hops = 1;
    if (params_.topology != Topology::Crossbar) {
        flAssert(msg.src < params_.num_nodes &&
                 msg.dst < params_.num_nodes,
                 "endpoint outside the configured ",
                 topologyName(params_.topology), " (num_nodes=",
                 params_.num_nodes, ")");
        hops = topologyHops(params_.topology, params_.num_nodes,
                            msg.src, msg.dst);
        route_latency = static_cast<Tick>(hops) * params_.hop_latency;
    }
    msg.hops = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(hops, 255));

    if (src.chans.size() <= msg.dst)
        src.chans.resize(msg.dst + 1);
    TxChan &ch = src.chans[msg.dst];
    Tick arrival = msg.sent_tick + route_latency + serialization;
    // Preserve per-channel FIFO order and serialize on link bandwidth.
    if (arrival <= ch.last_arrival)
        arrival = ch.last_arrival + serialization;
    ch.last_arrival = arrival;
    // The route is fixed per channel: its links' occupancy is this
    // channel's totals, added along the route by foldLinks().
    ch.busy += serialization;

    ++stat_msgs_;
    stat_bytes_ += msg.sizeBytes();
    stat_hops_ += hops;
    if (msg.hasData())
        ++stat_data_msgs_;
    else
        ++stat_ctrl_msgs_;

    Node &dst = nodes_[msg.dst];
    dst.heap.push_back(PendingMsg{std::move(msg), arrival, ++ch.seq});
    std::push_heap(dst.heap.begin(), dst.heap.end(), PendingLater{});
    armIngress(dst);
}

void
Network::armIngress(Node &n)
{
    const Tick next = n.heap.front().arrival;
    sim::Event *ev = n.ingress_event.get();
    if (!ev->scheduled())
        eventq().schedule(ev, next);
    else if (ev->when() > next)
        eventq().reschedule(ev, next);
}

void
Network::ingressFire(NodeId id)
{
    Node &n = nodes_[id];
    const Tick now = curTick();
    while (!n.heap.empty() && n.heap.front().arrival == now) {
        std::pop_heap(n.heap.begin(), n.heap.end(), PendingLater{});
        PendingMsg pm = std::move(n.heap.back());
        n.heap.pop_back();

        const Msg &msg = pm.msg;
        const Tick latency = now - msg.sent_tick;
        stat_msg_latency_.sample(static_cast<double>(latency));
        ++nodes_[msg.src].chans[id].delivered;
        if (tracer().wants(trace::Flag::Net)) {
            tracer().record(n.trace_id, trace::EventKind::NetHop, now,
                            msg.req_id, latency,
                            static_cast<std::uint32_t>(msg.type));
        }
        // receiveMsg may send() back into this very heap; arrivals are
        // strictly in the future, so they never join this tick's batch,
        // and the (re)schedule below accounts for them.
        n.receiver->receiveMsg(msg);
    }
    if (!n.heap.empty())
        armIngress(n);
}

void
Network::foldLinks(std::vector<std::uint64_t> &msgs,
                   std::vector<std::uint64_t> &busy) const
{
    if (params_.topology == Topology::Crossbar)
        return;
    const std::size_t nlinks =
        static_cast<std::size_t>(routerSlots(params_.topology,
                                             params_.num_nodes)) * 4;
    msgs.assign(nlinks, 0);
    busy.assign(nlinks, 0);
    for (NodeId s = 0; s < nodes_.size(); ++s) {
        const std::vector<TxChan> &chans = nodes_[s].chans;
        for (NodeId d = 0; d < chans.size(); ++d) {
            const TxChan &ch = chans[d];
            if (ch.seq == 0)
                continue;
            forEachRouteLink(params_.topology, params_.num_nodes, s, d,
                             [&](std::uint32_t link) {
                                 msgs[link] += ch.seq;
                                 busy[link] += ch.busy;
                             });
        }
    }
}

std::vector<std::uint64_t>
Network::foldedLinkMsgs() const
{
    std::vector<std::uint64_t> msgs, busy;
    foldLinks(msgs, busy);
    return msgs;
}

void
Network::foldLinkStats()
{
    if (params_.topology == Topology::Crossbar)
        return;
    // Report the hot spot of the per-link occupancy.
    std::vector<std::uint64_t> lmsgs, lbusy;
    foldLinks(lmsgs, lbusy);
    std::uint64_t used = 0, hot_msgs = 0, hot_busy = 0;
    for (std::size_t l = 0; l < lmsgs.size(); ++l) {
        if (lmsgs[l] == 0)
            continue;
        ++used;
        hot_msgs = std::max(hot_msgs, lmsgs[l]);
        hot_busy = std::max(hot_busy, lbusy[l]);
    }
    stat_links_used_ = used;
    stat_hot_link_msgs_ = hot_msgs;
    stat_hot_link_busy_ = hot_busy;
}

} // namespace fenceless::mem
