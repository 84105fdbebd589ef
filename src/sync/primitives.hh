/**
 * @file
 * The two operations the synchronization library builds on, each
 * defined once over the configured universal primitive (Section 2.2):
 *  - fetch_and_Phi for Phi = add or store: the native instruction
 *    (FAP); a load -- or load_exclusive (Section 3) -- and
 *    compare_and_swap retry loop (CAS, "the case in which CAS simulates
 *    fetch_and_Phi"); or a load_linked/store_conditional retry loop
 *    (LLSC);
 *  - compare_and_swap: the native instruction (CAS), or load_linked/
 *    store_conditional retrying only on a spurious store_conditional
 *    failure (LLSC). fetch_and_Phi cannot simulate it (Herlihy's
 *    hierarchy).
 */

#ifndef DSM_SYNC_PRIMITIVES_HH
#define DSM_SYNC_PRIMITIVES_HH

#include <cstdint>

#include "cpu/co_task.hh"
#include "cpu/proc.hh"
#include "sim/config.hh"
#include "sim/types.hh"
#include "sync/backoff.hh"

namespace dsm {

/**
 * fetch_and_Phi on @p a through @p prim.
 * @param phi AtomicOp::FAA (add @p operand) or AtomicOp::FAS (store it).
 * @param backoff Pauses drawn after each failed CAS/SC attempt; one with
 *        a zero bound (the default) retries at once.
 * @param failures If non-null, counts the failed CAS/SC attempts.
 * @return the value before the update.
 */
CoTask<Word> fetchAndPhi(Proc &p, Primitive prim, AtomicOp phi, Addr a,
                         Word operand, Backoff backoff = Backoff(0, 0),
                         std::uint64_t *failures = nullptr);

/**
 * compare_and_swap on @p a through @p prim (CAS or LLSC).
 * @return true if @p a held @p expected and now holds @p desired.
 */
CoTask<bool> compareAndSwap(Proc &p, Primitive prim, Addr a, Word expected,
                            Word desired);

} // namespace dsm

#endif // DSM_SYNC_PRIMITIVES_HH
