/**
 * @file
 * The on-chip interconnect model.
 *
 * A topology layer connects the L1 controllers and the directory
 * bank(s).  Three topologies are supported:
 *
 *  - Crossbar (default): the legacy star -- every message pays the
 *    same `latency`, regardless of endpoints.
 *  - Ring: nodes 0..N-1 on a bidirectional ring; a message takes the
 *    shorter direction (clockwise on ties -- a fixed, deterministic
 *    tie-break) and pays `hop_latency` per link crossed.
 *  - Mesh: nodes laid out row-major on a ceil(sqrt(N))-wide 2D grid
 *    with deterministic XY (x-first) dimension-ordered routing;
 *    `hop_latency` per link.
 *
 * Each (src, dst) channel is a FIFO: a message arrives
 * max(now + route_latency, channel_last_arrival + serialization)
 * cycles later, where route_latency is `latency` (crossbar) or
 * hops * `hop_latency` (ring/mesh) and serialization =
 * ceil(bytes / link_bytes_per_cycle) models link bandwidth.  FIFO
 * order per channel is a protocol requirement.
 *
 * Link occupancy is modeled as per-channel accounting: every message
 * charges its serialization cycles to each directed link on its route.
 * A route is a pure function of (src, dst), so send() only bumps the
 * channel's message count and busy cycles; the fold walks each used
 * channel's route once, in node order, and adds the channel totals to
 * every link on it (hot-link occupancy at foldLinkStats(), the
 * per-link message vector of foldedLinkMsgs()).  Shared-link *timing*
 * contention is deliberately not modeled: an arrival time is a pure
 * function of the sending channel's state.
 *
 * Delivery goes through a *canonical per-destination ingress*: every
 * node owns a min-heap of pending arrivals ordered by (arrival tick,
 * source node, per-channel sequence) -- a total order whose keys are
 * computed entirely at send time -- drained by one ingress event per
 * node.  Same-tick delivery order at every node is therefore a pure
 * function of the message timing, never of event-queue insertion
 * order, and every stats, trace and blackbox document depends on it.
 *
 * The "network" stat group is counted as messages move: send() bumps
 * the traffic counters (msgs and bytes count messages sent), and each
 * delivery samples msg_latency, so the group is live at any tick.  Only
 * the link-occupancy summary is derived, by foldLinkStats().
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/msg.hh"
#include "sim/sim_object.hh"

namespace fenceless::mem
{

/** Anything that can receive coherence messages from the network. */
class MsgReceiver
{
  public:
    virtual ~MsgReceiver() = default;
    virtual void receiveMsg(const Msg &msg) = 0;
};

/** Interconnect topology (see the file comment). */
enum class Topology : std::uint8_t
{
    Crossbar, //!< flat star: uniform latency (the legacy model)
    Ring,     //!< bidirectional ring, shortest direction, cw on ties
    Mesh,     //!< 2D mesh, XY dimension-ordered routing
};

/** @return the printable name of a topology. */
const char *topologyName(Topology t);

/** Parse "crossbar" / "ring" / "mesh". @return false on anything else. */
bool parseTopology(const std::string &s, Topology &out);

/** Row-major 2D mesh geometry for @p n nodes: w = ceil(sqrt(n)). */
struct MeshDims
{
    std::uint32_t w = 0;
    std::uint32_t h = 0;
};
MeshDims meshDims(std::uint32_t n);

/**
 * Router slots the topology routes through: @p n for the ring, the
 * full w x h grid for the mesh -- XY routes legally cross the empty
 * slots of a partially-filled last row, and those routers own links
 * too.  Sizes the per-link occupancy arrays (4 links per slot).
 */
std::uint32_t routerSlots(Topology t, std::uint32_t n);

/** Ring distance s -> d over @p n nodes (shorter direction). */
std::uint32_t ringHops(std::uint32_t n, NodeId s, NodeId d);

/** @return true if the ring route s -> d goes clockwise (id + 1). */
bool ringClockwise(std::uint32_t n, NodeId s, NodeId d);

/** Manhattan distance on the @p n-node mesh (XY routing length). */
std::uint32_t meshHops(std::uint32_t n, NodeId s, NodeId d);

/** Links a message s -> d crosses under @p t (crossbar: always 1). */
std::uint32_t topologyHops(Topology t, std::uint32_t n, NodeId s,
                           NodeId d);

/**
 * Directed links are identified as `node * 4 + direction`, direction
 * 0 = +x / clockwise, 1 = -x / counter-clockwise, 2 = +y, 3 = -y.
 * Visit each link id on the (deterministic) route s -> d in order.
 * The crossbar has no modeled links; the visitor is never called.
 */
void forEachRouteLink(Topology t, std::uint32_t n, NodeId s, NodeId d,
                      const std::function<void(std::uint32_t)> &fn);

/**
 * Human-readable name for a directed link id: "rtr<slot>.<dir>" where
 * dir is +x/-x/+y/-y on the mesh and cw/ccw on the ring.  Used by the
 * tail-latency dossiers to name a request's hottest link.
 */
std::string linkName(Topology t, std::uint32_t link_id);

class Network : public sim::SimObject
{
  public:
    struct Params
    {
        Topology topology = Topology::Crossbar;
        Cycles latency = 8;     //!< crossbar traversal latency
        Cycles hop_latency = 3; //!< per-link latency (ring/mesh)
        /**
         * Endpoint count, fixing the ring circumference / mesh
         * dimensions.  Required (>= 2) for ring and mesh; the crossbar
         * ignores it and grows its node table on demand.
         */
        std::uint32_t num_nodes = 0;
        std::uint32_t link_bytes_per_cycle = 16;

        /**
         * Fault injection: silently drop FwdDataAck/FwdNoDataAck
         * messages for these block addresses.  The owner believes it
         * answered the probe; the directory transaction waits forever
         * -- a deterministic, protocol-shaped deadlock used to test the
         * hang watchdog and wait-for-graph dossiers.  Empty in any
         * honest configuration.
         */
        std::vector<Addr> drop_fwd_acks_for;
    };

    /**
     * A message en route to its destination's ingress heap, keyed for
     * the canonical delivery order.  chan_seq is the (src, dst)
     * channel's send sequence; per-channel arrivals strictly increase,
     * so (arrival, src, chan_seq) is a strict total order per node.
     */
    struct PendingMsg
    {
        Msg msg;
        Tick arrival = 0;
        std::uint64_t chan_seq = 0;
    };

    Network(sim::SimContext &ctx, const std::string &name,
            const Params &params);

    /**
     * Pending ingress events are owned by the network; an aborted run
     * (watchdog, cycle budget) leaves them scheduled, so pull them off
     * their queues before the Event destructor asserts.
     */
    ~Network() override;

    /** Attach the receiver for endpoint @p id. */
    void registerEndpoint(NodeId id, MsgReceiver *receiver);

    /** Send a message into its destination's ingress heap. */
    void send(Msg msg);

    /**
     * Set links_used and hot_link_{msgs,busy} from the per-channel
     * totals so far (ring/mesh only; idempotent).  The System calls it
     * before every stat snapshot and at end of run.
     */
    void foldLinkStats();

    // --- stall-dossier inspection ---------------------------------------

    struct Channel
    {
        Tick last_arrival = 0;
        std::uint64_t in_flight = 0; //!< sent, not yet delivered
    };

    /** Visit every channel that has ever carried a message. */
    template <typename Fn>
    void
    forEachChannel(Fn fn) const
    {
        for (NodeId s = 0; s < nodes_.size(); ++s) {
            const Node &src = nodes_[s];
            for (NodeId d = 0; d < src.chans.size(); ++d) {
                const TxChan &ch = src.chans[d];
                if (ch.seq != 0)
                    fn(s, d, Channel{ch.last_arrival, ch.seq - ch.delivered});
            }
        }
    }

    /** The topology (dossiers reconstruct routes from it). */
    Topology topology() const { return params_.topology; }

    /**
     * Per-link message counts (indexed by link id; empty on the
     * crossbar), from the same per-channel fold as foldLinkStats().
     * Callable at any point (end-of-run reports use it to name each
     * sampled request's hottest link).
     */
    std::vector<std::uint64_t> foldedLinkMsgs() const;

    /** Fault-injected drops so far (see Params::drop_fwd_acks_for). */
    std::uint64_t droppedMsgs() const { return stat_dropped_.count(); }

  private:
    /**
     * One FIFO channel's send-side state.  Its message count and busy
     * cycles are also its route's link occupancy, charged to each link
     * of the route by foldLinks().
     */
    struct TxChan
    {
        Tick last_arrival = 0;
        std::uint64_t seq = 0;       //!< sends so far (becomes chan_seq)
        std::uint64_t delivered = 0; //!< of those, handed to the receiver
        std::uint64_t busy = 0;      //!< serialization cycles of the sends
    };

    /**
     * Per-node state: its channels as a source (link occupancy lives
     * in them, not per link) and the ingress heap it owns as a
     * destination.
     */
    struct Node
    {
        MsgReceiver *receiver = nullptr;
        std::uint16_t trace_id = 0; //!< "net.rxN" track
        std::vector<TxChan> chans;  //!< indexed by dst
        std::vector<PendingMsg> heap; //!< min-heap via Pending order
        std::unique_ptr<sim::EventFunctionWrapper> ingress_event;
    };

    /**
     * Ingress events outrank every component event (prio_highest is 0)
     * and each other by node id, so all of a tick's deliveries land --
     * in node order -- before any component logic runs at that tick.
     */
    static constexpr int ingress_prio_base = -100000;

    Node &ensureNode(NodeId id);
    void armIngress(Node &n);
    void ingressFire(NodeId id);

    /**
     * Fill the empty @p msgs and @p busy with per-link message counts
     * and busy cycles (indexed by link id): each used channel's totals
     * added to every link of its route, sources in node order.  Both
     * stay empty on the crossbar.
     */
    void foldLinks(std::vector<std::uint64_t> &msgs,
                   std::vector<std::uint64_t> &busy) const;

    Params params_;
    std::vector<Node> nodes_;

    statistics::Scalar &stat_msgs_;
    statistics::Scalar &stat_bytes_;
    statistics::Scalar &stat_data_msgs_;
    statistics::Scalar &stat_ctrl_msgs_;
    statistics::Scalar &stat_dropped_; //!< fault-injected drops
    statistics::Scalar &stat_hops_;    //!< total links crossed
    statistics::Scalar &stat_links_used_;    //!< links with traffic
    statistics::Scalar &stat_hot_link_msgs_; //!< busiest link, msgs
    statistics::Scalar &stat_hot_link_busy_; //!< busiest link, cycles
    statistics::Distribution &stat_msg_latency_;
};

} // namespace fenceless::mem
