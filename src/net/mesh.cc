#include "net/mesh.hh"

#include <algorithm>
#include <cstdlib>

#include "fault/fault.hh"
#include "fault/recovery.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"
#include "trace/txn.hh"

namespace dsm {

Mesh::Mesh(EventQueue &eq, const MachineConfig &cfg)
    : _eq(eq), _cfg(cfg),
      _handlers(cfg.num_procs),
      _inj_free(cfg.num_procs, 0),
      _ej_free(cfg.num_procs, 0),
      _inj_msgs(cfg.num_procs, 0),
      _ej_msgs(cfg.num_procs, 0),
      _inj_flits(cfg.num_procs, 0)
{
}

void
Mesh::setHandler(NodeId n, Handler h)
{
    dsm_assert(n >= 0 && n < static_cast<NodeId>(_handlers.size()),
               "bad node id %d", n);
    _handlers[n] = std::move(h);
}

void
Mesh::clearStats()
{
    _stats = MeshStats{};
    std::fill(_inj_msgs.begin(), _inj_msgs.end(), 0);
    std::fill(_ej_msgs.begin(), _ej_msgs.end(), 0);
    std::fill(_inj_flits.begin(), _inj_flits.end(), 0);
    std::fill(_link_flits.begin(), _link_flits.end(), 0);
}

void
Mesh::enableLinkCounters()
{
    std::size_t links = static_cast<std::size_t>(_cfg.num_procs) *
                        static_cast<std::size_t>(_cfg.num_procs);
    _link_flits.assign(links, 0);
}

int
Mesh::hops(NodeId a, NodeId b) const
{
    int ax = a % _cfg.mesh_x, ay = a / _cfg.mesh_x;
    int bx = b % _cfg.mesh_x, by = b / _cfg.mesh_x;
    return std::abs(ax - bx) + std::abs(ay - by);
}

unsigned
Mesh::flitsFor(const Msg &msg) const
{
    unsigned bytes = msg.sizeBytes() + HEADER_BYTES;
    return (bytes + FLIT_BYTES - 1) / FLIT_BYTES;
}

void
Mesh::setRecovery(Recovery *r, int quarantine_k, Tick quarantine_window)
{
    _recovery = r;
    _quarantine_k = quarantine_k;
    _quarantine_window = quarantine_window;
    std::size_t links = static_cast<std::size_t>(_cfg.num_procs) *
                        static_cast<std::size_t>(_cfg.num_procs);
    _quarantined.assign(links, 0);
    _drop_times.assign(links, {});
    _have_quarantine = false;
}

int
Mesh::buildPath(NodeId src, NodeId dst, bool yx_order,
                NodeId *path) const
{
    int x = src % _cfg.mesh_x, y = src / _cfg.mesh_x;
    int dx = dst % _cfg.mesh_x, dy = dst / _cfg.mesh_x;
    int n = 0;
    path[n++] = src;
    auto walk_x = [&] {
        while (x != dx) {
            x += x < dx ? 1 : -1;
            path[n++] = static_cast<NodeId>(y * _cfg.mesh_x + x);
        }
    };
    auto walk_y = [&] {
        while (y != dy) {
            y += y < dy ? 1 : -1;
            path[n++] = static_cast<NodeId>(y * _cfg.mesh_x + x);
        }
    };
    if (yx_order) {
        walk_y();
        walk_x();
    } else {
        walk_x();
        walk_y();
    }
    dsm_assert(n <= MAX_PATH_NODES, "path overflow %d", n);
    return n;
}

bool
Mesh::pathQuarantined(const NodeId *path, int nodes) const
{
    for (int i = 0; i + 1 < nodes; ++i)
        if (_quarantined[linkId(path[i], path[i + 1])] != 0)
            return true;
    return false;
}

void
Mesh::noteLinkDrop(NodeId from, NodeId to, Tick now)
{
    if (_quarantine_k <= 0)
        return;
    std::size_t id = linkId(from, to);
    if (_quarantined[id] != 0)
        return;
    std::vector<Tick> &times = _drop_times[id];
    times.push_back(now);
    // Keep only drops inside the sliding window.
    std::size_t keep = 0;
    for (Tick t : times)
        if (now - t <= _quarantine_window)
            times[keep++] = t;
    times.resize(keep);
    if (static_cast<int>(times.size()) < _quarantine_k)
        return;
    _quarantined[id] = 1;
    _have_quarantine = true;
    times.clear();
    times.shrink_to_fit();
    ++_recovery->counters().links_quarantined;
    if (_tracer != nullptr && _tracer->on(TraceCat::LINK_FAULT))
        _tracer->linkFault(now, from, to, nullptr);
}

void
Mesh::send(Msg &m)
{
    dsm_assert(m.src >= 0 && m.src < _cfg.num_procs &&
               m.dst >= 0 && m.dst < _cfg.num_procs,
               "bad endpoints %d -> %d", m.src, m.dst);
    dsm_assert(_handlers[m.dst] != nullptr, "no handler at node %d",
               m.dst);

    Tick now = _eq.now();
    Tracer *tr = _tracer;
    if (tr != nullptr && tr->on(TraceCat::MSG_SEND)) {
        m.trace_id = tr->nextFlowId();
        tr->message(TraceCat::MSG_SEND, now, m);
    }

    if (m.txn_id != 0 && _txns != nullptr)
        _txns->noteSend(m.txn_id);

    // When the scheduled lambda runs, _eq.now() is the delivery tick.
    // Injected duplicate replays reuse this path with the replayed
    // flag set; a reordered delivery is counted here so the ledger's
    // reorders_delivered reconciles against the injector's draw count.
    auto schedule_delivery = [this, tr](Tick at, const Msg &dm) {
        _eq.schedule(at, [this, tr, dm] {
            if (tr != nullptr && tr->on(TraceCat::MSG_RECV))
                tr->message(TraceCat::MSG_RECV, _eq.now(), dm);
            if (dm.reordered && _recovery != nullptr)
                ++_recovery->counters().reorders_delivered;
            _handlers[dm.dst](dm);
        });
    };

    if (m.src == m.dst) {
        ++_stats.local;
        schedule_delivery(now + LOCAL_LATENCY, m);
        return;
    }

    unsigned flits = flitsFor(m);
    Tick ser = static_cast<Tick>(flits) * _cfg.flit_latency;

    // Injection port: serialized among messages leaving this node.
    Tick depart = std::max(now, _inj_free[m.src]);
    _inj_free[m.src] = depart + ser;

    // In-flight time: head latency over the dimension-order path.
    int nhops = hops(m.src, m.dst);

    // Only a consumer — a droppable message with loss or corruption
    // armed (corruption needs a link to attribute the detected drop
    // to), or per-link telemetry — makes us materialize the path: XY
    // dimension order, falling back to YX (identical hop count, so
    // timing-neutral) when XY would cross a quarantined link.
    bool droppable = _faults != nullptr && _recovery != nullptr &&
                     m.seq != 0 &&
                     (recoverableRequest(m.type) ||
                      recoverableReply(m.type));
    bool loss_armed = droppable && _faults->lossArmed();
    bool corrupt_armed = droppable && _faults->corruptArmed();
    NodeId path[MAX_PATH_NODES];
    int nnodes = 0;
    if (loss_armed || corrupt_armed || !_link_flits.empty()) {
        nnodes = buildPath(m.src, m.dst, false, path);
        if (_have_quarantine && pathQuarantined(path, nnodes)) {
            NodeId alt[MAX_PATH_NODES];
            int altn = buildPath(m.src, m.dst, true, alt);
            if (!pathQuarantined(alt, altn)) {
                std::copy(alt, alt + altn, path);
                nnodes = altn;
            }
        }
    }

    // Every network message is counted at injection, lost or not. A
    // lost message has consumed its injection slot; only the delivery
    // (and the ejection port) never happens. Telemetry attributes its
    // flits to each directed link of its path the same way: a lost
    // message still offered its load to the links it would have
    // crossed.
    ++_stats.messages;
    _stats.flits += flits;
    _stats.hop_sum += static_cast<std::uint64_t>(nhops);
    ++_inj_msgs[m.src];
    _inj_flits[m.src] += flits;
    if (!_link_flits.empty())
        for (int i = 0; i + 1 < nnodes; ++i)
            _link_flits[linkId(path[i], path[i + 1])] += flits;

    // Message-loss faults drop the message on link lf -> lt of its
    // path.
    NodeId lf = INVALID_NODE, lt = INVALID_NODE;
    bool dropped = loss_armed &&
                   _faults->dropMessage(now, path, nnodes, lf, lt);
    // Payload corruption: on a hit the injector stamps the checksum the
    // ejection port verifies, then flips a protocol-visible bit; no
    // other message is hashed. A mismatch at verify turns the
    // corruption into a detected loss, charged to the path's first
    // link — the message never reaches the protocol. Corruption is
    // payload damage, not a link failure, so it does not feed the
    // quarantine windows. (If a flip ever eluded the checksum, the
    // corrupted message would be delivered and the coherence checker
    // would flag the damage — the ledger's corrupt_detected count is
    // how runs prove that never happened.)
    bool corrupted = false;
    if (!dropped && corrupt_armed && _faults->corruptMessage(m)) {
        corrupted = m.computeChecksum() != m.checksum;
        if (corrupted) {
            ++_recovery->counters().corrupt_detected;
            lf = path[0];
            lt = path[1];
        }
    }
    // A lost message goes on the recovery ledger, whose retransmission
    // machinery recovers it like any other loss.
    if (dropped || corrupted) {
        _recovery->noteDrop(m, lf, lt);
        if (dropped)
            noteLinkDrop(lf, lt, now);
        if (tr != nullptr && tr->on(TraceCat::LINK_FAULT))
            tr->linkFault(now, lf, lt, &m);
        return;
    }

    Tick head_arrive = depart + static_cast<Tick>(nhops) * _cfg.hop_latency;

    // Fault injection: bounded arrival jitter, applied before the
    // ejection-port reservation below so the per-destination FIFO
    // delivery order the protocol depends on still holds.
    if (_faults != nullptr)
        head_arrive += _faults->messageJitter();

    // Reordering: a sequence-guarded message may bypass the ejection
    // port's FIFO reservation with a bounded seeded skew — it neither
    // waits for the port backlog nor extends the reservation, so
    // messages sent later can overtake it (and it can overtake the
    // backlog). Confined to the guarded classes the epoch/sequence
    // guards absorb; every other class keeps FIFO delivery.
    bool guarded = _faults != nullptr && _recovery != nullptr &&
                   m.seq != 0 && sequenceGuarded(m.type);
    Tick deliver;
    Tick skew = guarded && _faults->reorderArmed()
                    ? _faults->reorderSkew() : 0;
    if (skew != 0) {
        m.reordered = true;
        deliver = head_arrive + ser + skew;
    } else {
        // Ejection port: serialized among messages entering the
        // destination.
        Tick start = std::max(head_arrive, _ej_free[m.dst]);
        deliver = start + ser;
        _ej_free[m.dst] = deliver;
    }

    ++_ej_msgs[m.dst];

    // Duplication: replay a guarded message a seeded delay after its
    // original delivery. The replay is scheduled directly — it cannot
    // itself be dropped, corrupted, or reordered, and the original is
    // always delivered strictly first (dup_delay >= 1). The replayed
    // flag lets the guards attribute the absorbed duplicate to the
    // injection ledger; mesh traffic stats count only the original.
    if (guarded && _faults->dupArmed()) {
        Tick delay = _faults->duplicateDelay();
        if (delay != 0) {
            Msg dup = m;
            dup.replayed = true;
            dup.reordered = false;
            schedule_delivery(deliver + delay, dup);
        }
    }

    schedule_delivery(deliver, m);
}

} // namespace dsm
