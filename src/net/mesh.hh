/**
 * @file
 * 2-D wormhole mesh interconnect model.
 *
 * Following the paper's methodology, latency models contention at the
 * network entry (injection port) and exit (ejection port) of each node,
 * but not at internal mesh routers. A message's in-flight time is the
 * dimension-order hop count times the per-hop latency plus the flit
 * serialization time at the ports.
 *
 * Messages between a fixed (src, dst) pair are delivered in FIFO order,
 * which the coherence protocol relies on.
 */

#ifndef DSM_NET_MESH_HH
#define DSM_NET_MESH_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "net/msg.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace dsm {

class FaultPlan;
class Recovery;
class Tracer;
class TxnTracer;

/** Longest possible dimension-order path, in nodes (8x8 mesh worst case). */
constexpr int MAX_PATH_NODES = 16;

/** Aggregate network statistics. */
struct MeshStats
{
    std::uint64_t messages = 0;  ///< network messages (src != dst)
    std::uint64_t flits = 0;     ///< flits injected
    std::uint64_t local = 0;     ///< node-local deliveries (src == dst)
    std::uint64_t hop_sum = 0;   ///< total hops traversed
};

/**
 * The interconnect. Every node registers a handler; send() computes the
 * delivery time from port occupancy and hop distance, then schedules the
 * handler invocation.
 */
class Mesh
{
  public:
    using Handler = std::function<void(const Msg &)>;

    Mesh(EventQueue &eq, const MachineConfig &cfg);

    /** Register the message handler for node @p n. */
    void setHandler(NodeId n, Handler h);

    /**
     * Send a message. Node-local messages (src == dst) bypass the network
     * and are delivered after the configured local latency. The mesh
     * stamps @p m where it lies (the tracer's flow id, the fault flags,
     * and on a corruption hit the checksum and the flipped bit), so the
     * caller hands over a message it is done with and the delivery
     * event holds the only copy made here.
     */
    void send(Msg &m);
    /** Send a temporary message. */
    void send(Msg &&m) { send(m); }

    /** Dimension-order hop count between two nodes. */
    int hops(NodeId a, NodeId b) const;

    const MeshStats &stats() const { return _stats; }
    void clearStats();

    /** Attach the event tracer (records MSG_SEND/MSG_RECV). */
    void setTracer(Tracer *t) { _tracer = t; }

    /** Attach the transaction tracer (counts per-transaction sends). */
    void setTxnTracer(TxnTracer *t) { _txns = t; }

    /**
     * Attach the fault injector; network messages may then receive
     * bounded arrival jitter. Jitter lands before the ejection-port
     * FIFO reservation, so per-destination delivery order — which the
     * protocol relies on — is preserved. Local messages are exempt.
     *
     * With the faulty-channel axes armed the mesh additionally may
     * reorder (bypass the ejection reservation with bounded skew),
     * duplicate (replay a delivered message after a seeded delay), or
     * corrupt (bit-flip, detected by checksum verify and converted
     * into a drop) — each confined to the sequence-guarded message
     * classes the protocol's epoch/sequence guards absorb.
     */
    void setFaults(FaultPlan *f) { _faults = f; }

    /**
     * Attach the recovery ledger and arm link quarantine: after
     * @p quarantine_k drops on one directed link within
     * @p quarantine_window ticks, the link is marked degraded for the
     * rest of the run and dimension-order traffic is rerouted around it
     * (XY -> YX, which has the identical hop count). Recovery must be
     * attached whenever message loss is armed — the ledger is what
     * guarantees every drop is accounted for.
     */
    void setRecovery(Recovery *r, int quarantine_k,
                     Tick quarantine_window);

    /** Is the directed link @p a -> @p b quarantined? */
    bool linkQuarantined(NodeId a, NodeId b) const
    {
        return !_quarantined.empty() &&
               _quarantined[linkId(a, b)] != 0;
    }

    /**
     * Fill @p path with the nodes a message visits from @p src to
     * @p dst in dimension order (@p yx_order routes Y-first) and
     * return the node count. path[0] == src, path[n-1] == dst.
     */
    int buildPath(NodeId src, NodeId dst, bool yx_order,
                  NodeId *path) const;

    /** @name Per-node port counters (for the stats registry). @{ */
    const std::uint64_t &injMsgs(NodeId n) const { return _inj_msgs[n]; }
    const std::uint64_t &ejMsgs(NodeId n) const { return _ej_msgs[n]; }
    const std::uint64_t &injFlits(NodeId n) const { return _inj_flits[n]; }
    /** @} */

    /** @name Per-directed-link flit counters (telemetry). @{ */

    /**
     * Allocate the N^2 per-directed-link flit matrix and attribute
     * every subsequent message's flits to each adjacent link of its
     * dimension-order path (the rerouted path when a quarantine is
     * active, the intended path for dropped messages — offered load).
     * Off by default: send() then never materializes paths for timing.
     */
    void enableLinkCounters();

    bool linkCountersEnabled() const { return !_link_flits.empty(); }

    /** Flits offered to the directed link @p a -> @p b. */
    std::uint64_t
    linkFlits(NodeId a, NodeId b) const
    {
        return _link_flits.empty() ? 0 : _link_flits[linkId(a, b)];
    }

    /** @} */

  private:
    unsigned flitsFor(const Msg &msg) const;

    std::size_t linkId(NodeId a, NodeId b) const
    {
        return static_cast<std::size_t>(a) *
               static_cast<std::size_t>(_cfg.num_procs) +
               static_cast<std::size_t>(b);
    }

    bool pathQuarantined(const NodeId *path, int nodes) const;

    /** Record a drop on a link; may trip its quarantine. */
    void noteLinkDrop(NodeId from, NodeId to, Tick now);

    EventQueue &_eq;
    const MachineConfig &_cfg;
    std::vector<Handler> _handlers;
    std::vector<Tick> _inj_free; ///< next tick each injection port is free
    std::vector<Tick> _ej_free;  ///< next tick each ejection port is free
    MeshStats _stats;
    std::vector<std::uint64_t> _inj_msgs; ///< messages injected per node
    std::vector<std::uint64_t> _ej_msgs;  ///< messages ejected per node
    std::vector<std::uint64_t> _inj_flits;///< flits injected per node
    /** Flits per directed link; empty unless enableLinkCounters(). */
    std::vector<std::uint64_t> _link_flits;
    Tracer *_tracer = nullptr;
    TxnTracer *_txns = nullptr;
    FaultPlan *_faults = nullptr;
    Recovery *_recovery = nullptr;
    /** @name Link quarantine state (allocated only when armed). @{ */
    int _quarantine_k = 0;
    Tick _quarantine_window = 0;
    std::vector<std::uint8_t> _quarantined;   ///< per directed link
    std::vector<std::vector<Tick>> _drop_times; ///< recent drops per link
    bool _have_quarantine = false; ///< any link quarantined yet
    /** @} */
};

} // namespace dsm

#endif // DSM_NET_MESH_HH
