/**
 * @file
 * Fundamental scalar types shared by every module of the simulator.
 */

#ifndef DSM_SIM_TYPES_HH
#define DSM_SIM_TYPES_HH

#include <cstdint>

namespace dsm {

/** Simulated time, in processor clock cycles. */
using Tick = std::uint64_t;

/** A byte address in the simulated shared address space. */
using Addr = std::uint64_t;

/** The machine word operated on by loads, stores, and atomic primitives. */
using Word = std::uint64_t;

/** Identifier of a processing node (processor + cache + memory module). */
using NodeId = int;

/** Sentinel for "no node". */
constexpr NodeId INVALID_NODE = -1;

/** Size of a machine word in bytes. */
constexpr unsigned WORD_BYTES = 8;

/** Coherence block (cache line) size in bytes; the paper uses 32. */
constexpr unsigned BLOCK_BYTES = 32;

/** Words per coherence block. */
constexpr unsigned BLOCK_WORDS = BLOCK_BYTES / WORD_BYTES;

/** Round an address down to its block base. */
constexpr Addr
blockBase(Addr a)
{
    return a & ~static_cast<Addr>(BLOCK_BYTES - 1);
}

/** Index of a word within its block. */
constexpr unsigned
wordInBlock(Addr a)
{
    return static_cast<unsigned>((a % BLOCK_BYTES) / WORD_BYTES);
}

/** Round an address down to its word base. */
constexpr Addr
wordBase(Addr a)
{
    return a & ~static_cast<Addr>(WORD_BYTES - 1);
}

/** Home node of the block containing @p a on a machine of @p nodes
 *  nodes: blocks are interleaved across the nodes' memories. */
constexpr NodeId
homeOf(Addr a, int nodes)
{
    return static_cast<NodeId>((a / BLOCK_BYTES) % static_cast<Addr>(nodes));
}

} // namespace dsm

#endif // DSM_SIM_TYPES_HH
