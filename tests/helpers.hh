/**
 * @file
 * Shared helpers for simulator-level tests: small machine configs and
 * single-operation workload coroutines.
 */

#ifndef DSM_TESTS_HELPERS_HH
#define DSM_TESTS_HELPERS_HH

#include <gtest/gtest.h>

#include "cpu/system.hh"
#include "proto/checker.hh"
#include "sim/json.hh"

namespace dsmtest {

using namespace dsm;

/** A small 4-node machine (2x2 mesh) with the given sync policy. */
inline Config
smallConfig(SyncPolicy pol = SyncPolicy::INV, int procs = 4)
{
    Config cfg;
    cfg.machine.num_procs = procs;
    switch (procs) {
      case 1: cfg.machine.mesh_x = 1; cfg.machine.mesh_y = 1; break;
      case 2: cfg.machine.mesh_x = 2; cfg.machine.mesh_y = 1; break;
      case 4: cfg.machine.mesh_x = 2; cfg.machine.mesh_y = 2; break;
      case 8: cfg.machine.mesh_x = 4; cfg.machine.mesh_y = 2; break;
      case 16: cfg.machine.mesh_x = 4; cfg.machine.mesh_y = 4; break;
      case 64: cfg.machine.mesh_x = 8; cfg.machine.mesh_y = 8; break;
      default:
        cfg.machine.mesh_x = procs;
        cfg.machine.mesh_y = 1;
        break;
    }
    cfg.sync.policy = pol;
    return cfg;
}

/** Issue one operation and capture its result. */
inline Task
doOp(Proc &p, AtomicOp op, Addr a, Word v, Word exp, OpResult *out)
{
    OpResult r;
    switch (op) {
      case AtomicOp::LOAD: r = co_await p.load(a); break;
      case AtomicOp::STORE: r = co_await p.store(a, v); break;
      case AtomicOp::LOAD_EXCL: r = co_await p.loadExclusive(a); break;
      case AtomicOp::DROP_COPY: r = co_await p.dropCopy(a); break;
      case AtomicOp::TAS: r = co_await p.testAndSet(a); break;
      case AtomicOp::FAA: r = co_await p.fetchAdd(a, v); break;
      case AtomicOp::FAS: r = co_await p.fetchStore(a, v); break;
      case AtomicOp::FAO: r = co_await p.fetchOr(a, v); break;
      case AtomicOp::CAS: r = co_await p.cas(a, exp, v); break;
      case AtomicOp::LL: r = co_await p.ll(a); break;
      case AtomicOp::SC: r = co_await p.sc(a, v); break;
      case AtomicOp::LLS: r = co_await p.llSerial(a); break;
      case AtomicOp::SCS: r = co_await p.scSerial(a, v, exp); break;
    }
    if (out != nullptr)
        *out = r;
}

inline Task
doStore(Proc &p, Addr a, Word v)
{
    co_await p.store(a, v);
}

inline Task
doLoad(Proc &p, Addr a, OpResult *out)
{
    *out = co_await p.load(a);
}

inline Task
doLoadVoid(Proc &p, Addr a)
{
    co_await p.load(a);
}

/** Assert that every coherence invariant holds on the quiesced system. */
inline void
expectCoherent(System &sys)
{
    for (const std::string &v : checkCoherence(sys))
        ADD_FAILURE() << "coherence violation: " << v;
}

/** Run the system to completion, assert completion and coherence. */
inline void
runAll(System &sys)
{
    RunResult r = sys.run();
    ASSERT_TRUE(r.completed) << "simulation deadlocked at tick "
                             << r.end_tick;
    expectCoherent(sys);
    sys.reapTasks();
}

/** Run a single op on @p proc to completion and return its result. */
inline OpResult
runOp(System &sys, NodeId proc, AtomicOp op, Addr a, Word v = 0,
      Word exp = 0)
{
    OpResult out;
    sys.spawn(doOp(sys.proc(proc), op, a, v, exp, &out));
    RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    sys.reapTasks();
    return out;
}

/** Parse @p text with dsm::parseJson, or ADD_FAILURE with its error. */
inline bool
parseJsonOrFail(const std::string &text, JsonValue *out)
{
    std::string err;
    bool ok = parseJson(text, out, &err);
    EXPECT_TRUE(ok) << "JSON parse error: " << err << "\ninput:\n"
                    << text.substr(0, 2000);
    return ok;
}

/** Reset system-wide protocol statistics. */
inline void
clearStats(System &sys)
{
    sys.clearStats();
}

} // namespace dsmtest

#endif // DSM_TESTS_HELPERS_HH
