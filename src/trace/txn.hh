/**
 * @file
 * End-to-end transaction tracing.
 *
 * Every processor-issued operation becomes a *transaction*: it gets an
 * id at issue time that is stamped into every protocol message sent on
 * its behalf (request, forward, invalidation/update, ack, reply, NACK)
 * and propagated through the cache controller, mesh, and all three
 * protocol implementations. As the transaction's messages reach
 * milestones, the tracer partitions the requester's wait time
 * [issue, complete] into non-overlapping phase segments (TxnPhase), so
 * the per-phase sums of every transaction add up exactly to its
 * end-to-end latency.
 *
 * On completion each transaction is also validated against the paper's
 * Table 1: from the directory state the home observed when it serviced
 * the final attempt (plus fan-out targets and forwarding), the tracer
 * computes the analytic serialized-message chain length and compares it
 * with the chain count carried by the protocol messages themselves.
 * Divergences are counted and reported via proto/checker.
 *
 * Cost discipline: the tracer is configured only while
 * Config::txn_trace.enabled holds, and when it is off every hook is a
 * single branch on that predicate or on a zero txn id in the message.
 */

#ifndef DSM_TRACE_TXN_HH
#define DSM_TRACE_TXN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/msg.hh"
#include "proto/checker.hh"
#include "sim/config.hh"
#include "sim/types.hh"
#include "stats/attribution.hh"

namespace dsm {

/** One contiguous phase segment of a transaction's lifetime. */
struct TxnSpan
{
    TxnPhase phase;
    Tick start = 0;
    Tick end = 0;
    /** Node at which the milestone ending this segment occurred. */
    NodeId node = INVALID_NODE;
};

/** Everything recorded about one transaction. */
struct TxnRecord
{
    std::uint64_t id = 0;
    Addr addr = 0;
    SyncPolicy policy = SyncPolicy::INV;
    /** Cache LineState of the block at issue time. */
    std::uint8_t line_state = 0;
    Tick issue = 0;
    Tick complete = 0;
    /** NACK-driven protocol retries of this transaction. */
    int retries = 0;
    /** Failed-attempt streak of the enclosing TAS / LL-SC / CAS loop. */
    int loop_iter = 0;
    /** Total messages stamped with this transaction's id. */
    int messages = 0;
    /** Analytic Table 1 chain for the observed case (set on completion). */
    int expected_chain = 0;
    bool success = true;

    /**
     * The operation, its requester (the processor), the home's facts
     * for the final attempt (reset when the transaction is NACKed and
     * retried) and the longest chain observed in any received message.
     */
    ChainFact fact;

    /** Exact per-phase cycle attribution (always complete). */
    Tick phase_sum[NUM_TXN_PHASES] = {};
    /** Phase segments for Perfetto export (may be truncated). */
    std::vector<TxnSpan> spans;
    bool spans_truncated = false;

    /** Invalidations/updates sent on the final serviced attempt. */
    int fanout() const;
};

class TxnTracer
{
  public:
    /** Size the tracer for @p num_procs processors (tracing on only). */
    void configure(const TxnTraceConfig &cfg, int num_procs);

    /**
     * Open a transaction for @p proc (one outstanding op per processor,
     * so this replaces any slot content) and record the processor's
     * failure streak as its loop_iter. Returns the new id; ids are
     * never zero, and id % num_procs recovers the processor.
     */
    std::uint64_t begin(NodeId proc, AtomicOp op, Addr addr,
                        SyncPolicy pol, std::uint8_t line_state, Tick now);

    /** Id of @p proc's in-flight transaction (0 if none). */
    std::uint64_t activeId(NodeId proc) const;

    /**
     * Note that the *next* transaction issued by @p proc serves an
     * open-loop arrival that entered the admission queue at
     * @p arrival. begin() consumes the note: it rebases the record's
     * issue time to the arrival tick and attributes [arrival, begin)
     * to TxnPhase::ADMIT, so the transaction's total becomes its
     * sojourn time (admission wait + service) and the phase-sum
     * invariant holds by construction.
     */
    void noteArrival(NodeId proc, Tick arrival);

    /**
     * Attribute [last milestone, @p now] to @p ph and advance the
     * milestone. Marks at out-of-order ticks are dropped and counted.
     */
    void mark(std::uint64_t id, TxnPhase ph, Tick now, NodeId node);

    /**
     * Home-arrival milestone triple: transit until @p arrive, queue
     * wait until @p svc_start, directory service until @p svc_end.
     * @p reply_leg selects REPLY_TRANSIT for the transit segment (used
     * when the arriving message is an owner reply, not the request).
     */
    void markService(std::uint64_t id, NodeId home, Tick arrive,
                     Tick svc_start, Tick svc_end, bool reply_leg);

    /**
     * Record the facts @p home reported for a (non-NACK) service
     * decision (ChainFact::serve). Last call before completion wins.
     */
    void service(std::uint64_t id, NodeId home,
                 const tf::ServiceFacts &facts);

    /**
     * NACKed attempt is being retried now: close the RETRY_WAIT gap
     * and forget the attempt's facts (ChainFact::retry).
     */
    void retry(std::uint64_t id, Tick now);

    /** A message stamped with @p id entered the mesh. */
    void noteSend(std::uint64_t id);

    /**
     * Complete a transaction: attribute the tail, aggregate, validate,
     * and update the processor's failure streak from the operation's
     * verdict @p success and the word @p value it read. A TAS reading
     * nonzero or a failed CAS, SC or SCS extends the streak; any other
     * fetch_and_Phi, CAS, SC or SCS, or a store, ends it; loads leave
     * it.
     */
    void complete(std::uint64_t id, Tick now, int observed_chain,
                  bool success, Word value);

    const PhaseAttribution &attribution() const { return _attr; }

    /** Completed transactions whose full record was kept. */
    const std::vector<TxnRecord> &records() const { return _records; }

    /**
     * The exemplar reservoir: the cfg.exemplar_k slowest completed
     * transactions (end-to-end latency descending, ids breaking ties
     * ascending so the order is deterministic), with full span trees,
     * kept independently of the record capacity.
     */
    const std::vector<TxnRecord> &exemplars() const { return _exemplars; }

    /**
     * Exemplars as a compact JSON array (id, op, proc, addr, total,
     * issue/complete, retries, loop_iter, fanout, messages, and the
     * nonzero per-phase cycle sums). Full span trees are exported via
     * the Chrome/Perfetto array instead.
     */
    std::string exemplarsJson() const;

    std::uint64_t completed() const { return _attr.completed(); }
    std::uint64_t phaseSumMismatches() const { return _mismatches; }
    std::uint64_t chainDivergences() const { return _divergences; }
    std::uint64_t markAnomalies() const { return _anomalies; }

    /** First few divergences, rendered for proto/checker. */
    const std::vector<std::string> &divergenceMessages() const
    {
        return _divergence_msgs;
    }

    /**
     * Render @p proc's in-flight transaction — header plus its phase
     * span tree so far — for watchdog/deadlock diagnoses. Returns ""
     * when the processor has no open transaction.
     */
    std::string describeActive(NodeId proc) const;

    // Stable pointers for StatsRegistry registration.
    const std::uint64_t *droppedCounter() const { return &_dropped; }
    const std::uint64_t *mismatchCounter() const { return &_mismatches; }
    const std::uint64_t *divergenceCounter() const { return &_divergences; }

    /**
     * Kept records as a complete Chrome trace-event JSON array
     * fragment: process/thread metadata, one root "X" slice per
     * transaction on the requester's track, nested "X" phase slices,
     * and s/t/f flow arrows linking request -> directory -> fan-out ->
     * reply milestones.
     */
    std::string chromeEventsJsonArray(int pid,
                                      const std::string &process_name) const;

    /** Standalone Perfetto-loadable document (single process). */
    std::string exportChromeJson() const;

  private:
    struct Active
    {
        TxnRecord rec;
        Tick last_mark = 0;
        /** Consecutive failed attempts of the processor's acquire loop. */
        int fail_streak = 0;
        Tick pending_arrival = 0;
        bool arrival_pending = false;
        bool live = false;
    };

    Active *find(std::uint64_t id);
    void noteExemplar(const TxnRecord &r);

    TxnTraceConfig _cfg;
    int _num_procs = 0;
    std::vector<Active> _active;
    std::vector<TxnRecord> _records;
    std::vector<TxnRecord> _exemplars;
    std::vector<std::string> _divergence_msgs;
    PhaseAttribution _attr;
    std::uint64_t _seq = 0;
    std::uint64_t _dropped = 0;
    std::uint64_t _mismatches = 0;
    std::uint64_t _divergences = 0;
    std::uint64_t _anomalies = 0;
};

} // namespace dsm

#endif // DSM_TRACE_TXN_HH
