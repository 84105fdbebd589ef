#include "stats/stat_set.hh"

#include "sim/logging.hh"

namespace dsm {

void
SysStats::merge(const SysStats &o)
{
    nacks += o.nacks;
    retries += o.retries;
    invalidations += o.invalidations;
    updates += o.updates;
    writebacks += o.writebacks;
    drop_notifies += o.drop_notifies;
    sc_failures += o.sc_failures;
    sc_local_failures += o.sc_local_failures;
    sc_successes += o.sc_successes;
    cas_failures += o.cas_failures;
    cas_successes += o.cas_successes;
    for (int i = 0; i < NUM_ATOMIC_OPS; ++i) {
        op_count[i] += o.op_count[i];
        op_latency[i].merge(o.op_latency[i]);
    }
    chain_length.merge(o.chain_length);
}

std::string
SysStats::report() const
{
    std::string out;
    out += csprintf("nacks=%llu retries=%llu inv=%llu upd=%llu wb=%llu "
                    "drops=%llu\n",
                    (unsigned long long)nacks,
                    (unsigned long long)retries,
                    (unsigned long long)invalidations,
                    (unsigned long long)updates,
                    (unsigned long long)writebacks,
                    (unsigned long long)drop_notifies);
    out += csprintf("sc: ok=%llu fail=%llu (local=%llu)  "
                    "cas: ok=%llu fail=%llu\n",
                    (unsigned long long)sc_successes,
                    (unsigned long long)sc_failures,
                    (unsigned long long)sc_local_failures,
                    (unsigned long long)cas_successes,
                    (unsigned long long)cas_failures);
    for (int i = 0; i < NUM_ATOMIC_OPS; ++i) {
        if (op_count[i] == 0)
            continue;
        const LatencyStat &lat = op_latency[i];
        out += csprintf("%-18s n=%-10llu mean=%8.1f "
                        "p50=%-6llu p95=%-6llu p99=%-6llu p999=%-6llu "
                        "max=%llu\n",
                        toString(static_cast<AtomicOp>(i)),
                        (unsigned long long)op_count[i],
                        lat.mean(),
                        (unsigned long long)lat.p50(),
                        (unsigned long long)lat.p95(),
                        (unsigned long long)lat.p99(),
                        (unsigned long long)lat.p999(),
                        (unsigned long long)lat.max);
    }
    return out;
}

} // namespace dsm
