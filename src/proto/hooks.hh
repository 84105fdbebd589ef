/**
 * @file
 * ProtoHooks: the unified observability/bookkeeping sink bundle the
 * driver commits transition outcomes against. Before the transition
 * refactor each of the three controller implementation files carried
 * its own ad-hoc Tracer/TxnTracer/LineProfiler/stat call plumbing;
 * now every hook fires in exactly one place (applyEffect/applyStats),
 * driven by the effect records a pure transition emitted.
 */

#ifndef DSM_PROTO_HOOKS_HH
#define DSM_PROTO_HOOKS_HH

#include "proto/transition.hh"
#include "sim/types.hh"

namespace dsm {

class Tracer;
class TxnTracer;
class LineProfiler;
class Directory;
class Recovery;
struct SysStats;

/**
 * Hook sinks for one node. Null pointers are skipped (the tracer and
 * txn tracer are always present but cheap when off; the driver fills
 * the profiler and recovery ledger only while their Config predicate
 * holds: telemetry.enabled and faults.recoveryEnabled()).
 */
struct ProtoHooks
{
    SysStats *stats = nullptr;
    Tracer *tracer = nullptr;
    TxnTracer *txns = nullptr;
    LineProfiler *lp = nullptr;
    Directory *dir = nullptr;
    Recovery *recovery = nullptr;

    /** Fold a transition's stat delta into the node/recovery counters. */
    void applyStats(const tf::StatDelta &d) const;

    /**
     * Apply one trace/profiler/txn-tracer effect at tick @p now for
     * node @p self.
     * @return true when the effect was consumed here; false for the
     *         driver-owned kinds (SEND, COMPLETE, RETRY, ARM_TIMER).
     */
    bool applyEffect(const tf::Effect &ef, NodeId self, Tick now) const;
};

} // namespace dsm

#endif // DSM_PROTO_HOOKS_HH
