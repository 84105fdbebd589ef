/**
 * @file
 * Coherence-protocol message definitions.
 *
 * A single fat struct carries every protocol message; the type field
 * selects which fields are meaningful. Message sizes (and hence flit
 * counts) are derived from the type by sizeBytes().
 */

#ifndef DSM_NET_MSG_HH
#define DSM_NET_MSG_HH

#include <array>
#include <cstdint>

#include "sim/types.hh"

namespace dsm {

/**
 * The memory/synchronization operations a processor can issue. The same
 * enumeration encodes the operation inside UncReq/UpdReq messages.
 */
enum class AtomicOp
{
    LOAD,       ///< ordinary load
    STORE,      ///< ordinary store
    LOAD_EXCL,  ///< load_exclusive auxiliary instruction
    DROP_COPY,  ///< drop_copy auxiliary instruction
    TAS,        ///< test_and_set (fetch_and_Phi family)
    FAA,        ///< fetch_and_add
    FAS,        ///< fetch_and_store (swap)
    FAO,        ///< fetch_and_or
    CAS,        ///< compare_and_swap
    LL,         ///< load_linked
    SC,         ///< store_conditional
    LLS,        ///< serial-number load_linked (Section 3.1, option 4)
    SCS,        ///< serial-number store_conditional (may be "bare")
};

/** True for the fetch_and_Phi family members. */
constexpr bool
isFetchAndPhi(AtomicOp op)
{
    return op == AtomicOp::TAS || op == AtomicOp::FAA ||
           op == AtomicOp::FAS || op == AtomicOp::FAO;
}

/** True for operations that atomically read-modify-write memory. */
constexpr bool
isAtomic(AtomicOp op)
{
    return isFetchAndPhi(op) || op == AtomicOp::CAS ||
           op == AtomicOp::SC || op == AtomicOp::SCS;
}

/** True if @p op, with verdict @p success, wrote memory. */
constexpr bool
effectiveWrite(AtomicOp op, bool success)
{
    return op == AtomicOp::STORE || isFetchAndPhi(op) ||
           (isAtomic(op) && success);
}

/** The word a store or fetch_and_Phi @p op writes over @p old. */
Word applyOp(AtomicOp op, Word old, Word operand);

const char *toString(AtomicOp op);

/** Protocol message types. */
enum class MsgType
{
    // Requests sent to the home node.
    GET_S,        ///< read request, shared copy
    GET_X,        ///< read-exclusive request (store / load_excl / INV rmw)
    UPGRADE,      ///< shared -> exclusive upgrade (no data needed)
    CAS_HOME,     ///< INVd/INVs compare_and_swap request
    SC_REQ,       ///< INV store_conditional that cannot complete locally
    UNC_REQ,      ///< uncached operation (UNC policy)
    UPD_REQ,      ///< write-update operation (UPD policy)
    WB_DATA,      ///< write-back of an exclusive line (eviction/drop_copy)
    DROP_NOTIFY,  ///< a shared copy was dropped (drop_copy)

    // Home -> requester responses.
    DATA_S,       ///< data, shared grant
    DATA_X,       ///< data, exclusive grant; ack_count invalidations out
    UPG_ACK,      ///< upgrade granted; ack_count invalidations out
    NACK,         ///< busy/raced; requester must retry
    CAS_FAIL,     ///< INVd failure: no copy granted
    CAS_FAIL_S,   ///< INVs failure: read-only copy granted (carries data)
    UNC_RESP,     ///< uncached operation result
    UPD_RESP,     ///< update operation result; may carry data + ack_count
    SC_RESP,      ///< store_conditional verdict; ack_count on success

    // Home -> sharer.
    INV,          ///< invalidate; ack to msg.requester
    UPDATE,       ///< write-update of one word; ack to msg.requester

    // Sharer -> requester.
    INV_ACK,
    UPDATE_ACK,

    // Home -> owner (forwarded requests; msg.requester is the original).
    FWD_GET_S,
    FWD_GET_X,
    FWD_CAS,      ///< INVd/INVs comparison forwarded to the owner

    // Owner -> home.
    OWNER_DATA_S, ///< data + downgrade to shared
    OWNER_DATA_X, ///< data + ownership surrender
    CAS_OWNER_FAIL,   ///< INVd: comparison failed at owner, no downgrade
    CAS_OWNER_FAIL_S, ///< INVs: comparison failed; owner downgraded, data
    FWD_NACK_RETRY,   ///< owner busy; home should NACK the requester
    FWD_NACK_WB,      ///< owner no longer holds line; write-back in flight
};

const char *toString(MsgType t);

/**
 * True for the request types the recovery layer covers: processor
 * requests sent to the home node, each carrying its own retry
 * machinery. Only these (and their direct replies) may be dropped by
 * message-loss fault injection; forwards, invalidations, updates,
 * acknowledgements, write-backs, and drop notifications stay reliable.
 */
constexpr bool
recoverableRequest(MsgType t)
{
    return t == MsgType::GET_S || t == MsgType::GET_X ||
           t == MsgType::UPGRADE || t == MsgType::CAS_HOME ||
           t == MsgType::SC_REQ || t == MsgType::UNC_REQ ||
           t == MsgType::UPD_REQ;
}

/** True for home -> requester replies to a recoverable request. */
constexpr bool
recoverableReply(MsgType t)
{
    return t == MsgType::DATA_S || t == MsgType::DATA_X ||
           t == MsgType::UPG_ACK || t == MsgType::NACK ||
           t == MsgType::CAS_FAIL || t == MsgType::CAS_FAIL_S ||
           t == MsgType::UNC_RESP || t == MsgType::UPD_RESP ||
           t == MsgType::SC_RESP;
}

/** True for an owner's reply to a request the home forwarded to it. */
constexpr bool
ownerReply(MsgType t)
{
    return t == MsgType::OWNER_DATA_S || t == MsgType::OWNER_DATA_X ||
           t == MsgType::CAS_OWNER_FAIL || t == MsgType::CAS_OWNER_FAIL_S ||
           t == MsgType::FWD_NACK_RETRY || t == MsgType::FWD_NACK_WB;
}

/**
 * True for the messages a block's home node serves behind its memory
 * module: the recoverable requests, write-backs, drop notifications and
 * owner replies.
 */
constexpr bool
homeTargeted(MsgType t)
{
    return recoverableRequest(t) || t == MsgType::WB_DATA ||
           t == MsgType::DROP_NOTIFY || ownerReply(t);
}

/** A protocol message. Fields beyond type/src/dst are type-dependent. */
struct Msg
{
    MsgType type = MsgType::NACK;
    NodeId src = INVALID_NODE;
    NodeId dst = INVALID_NODE;
    /** Original requester (for forwarded/third-party messages). */
    NodeId requester = INVALID_NODE;
    /** Block-aligned address of the affected line. */
    Addr addr = 0;
    /** Word address for operations narrower than a block. */
    Addr word_addr = 0;
    /** Operation encoded in UNC_REQ/UPD_REQ messages. */
    AtomicOp op = AtomicOp::LOAD;
    /** Operand (store/FAP value, CAS new value, SC new value). */
    Word value = 0;
    /** CAS expected value. */
    Word expected = 0;
    /** Operation result / UPDATE payload word. */
    Word result = 0;
    /** Success indication for CAS/SC results. */
    bool success = false;
    /** Block write serial number (requests: expected; responses: current). */
    Word serial = 0;
    /** Invalidations/updates whose acks the requester must collect. */
    int ack_count = 0;
    /** Block data payload; valid iff has_data. */
    std::array<Word, BLOCK_WORDS> data{};
    bool has_data = false;
    /**
     * Length of the serialized message chain ending at this message
     * (1 for a request issued by a processor). Used to verify Table 1.
     */
    int chain = 1;
    /**
     * Flow correlation id for the event tracer (0 = untraced). Assigned
     * by Mesh::send when message tracing is on; lets the Chrome trace
     * exporter link each send to its receive as a flow arrow.
     */
    std::uint32_t trace_id = 0;
    /**
     * Transaction id for the transaction tracer (0 = untraced).
     * Stamped by the issuing cache controller and copied into every
     * message sent on the transaction's behalf. Metadata only:
     * excluded from sizeBytes(), like chain and trace_id.
     */
    std::uint64_t txn_id = 0;
    /**
     * Recovery-layer request identity (0 = recovery off). The
     * requester assigns a fresh per-node monotonic seq to every *new*
     * network request (a NACK-and-retry is a new request); timeout
     * retransmissions reuse the seq with an incremented attempt.
     * Replies — and the invalidations/updates/acks fanned out on the
     * request's behalf — echo the seq so the requester and the home's
     * dedup table can tell a current message from a stale duplicate.
     * Metadata only: excluded from sizeBytes(); conceptually the seq
     * rides in the 8 header bytes every message already pays for.
     */
    std::uint64_t seq = 0;
    /** Retransmission attempt number for this seq (1 = original). */
    int attempt = 1;
    /**
     * Service priority at the home queue (serve.priority): 0 =
     * foreground, 1 = low (NACK retries and recovery retransmissions).
     * Metadata only: excluded from sizeBytes(); conceptually a single
     * header bit every message already pays for.
     */
    int prio = 0;
    /**
     * Home request-queue depth observed when a reply was sent, or -1
     * when the home runs without a serve queue (serve.backpressure
     * credit feedback). Metadata only: excluded from sizeBytes();
     * conceptually a byte in the reply header.
     */
    int qdepth = -1;
    /**
     * Checksum over the protocol-visible fields, stamped by
     * FaultPlan::corruptMessage on a corruption hit, just before it
     * flips a bit, and verified by Mesh::send (faults.corrupt_prob). A
     * corrupted message fails verification and is dropped — detected,
     * never delivered — turning corruption into a loss the
     * retransmission ledger already covers. Every other message keeps
     * 0: hashing one that nothing damages would prove nothing.
     * Metadata only: excluded from sizeBytes(); conceptually the CRC
     * field real link headers already carry.
     */
    std::uint32_t checksum = 0;
    /**
     * Fault-injection provenance flags (faults.dup_prob /
     * faults.reorder_prob): replayed marks an injected duplicate
     * delivery, reordered a delivery that bypassed the per-dst FIFO
     * order. The protocol guards use replayed to attribute an absorbed
     * duplicate to the injection ledger (Recovery::Counters::
     * dups_absorbed) instead of the organic stale counters; the mesh
     * counts reordered deliveries for conservation. Metadata only:
     * excluded from sizeBytes() and from the checksum.
     */
    bool replayed = false;
    bool reordered = false;

    /** Payload size in bytes (excluding the per-message header). */
    unsigned sizeBytes() const;

    /**
     * Checksum of the protocol-visible fields (everything a corruption
     * fault may flip: type, routing, address, operands, payload).
     * Excludes the metadata fields, which conceptually ride in header
     * bytes outside the checksummed payload.
     */
    std::uint32_t computeChecksum() const;
};

/**
 * True for the message classes covered by the epoch/sequence guards:
 * the recoverable requests/replies plus the invalidation and update
 * acknowledgements a requester collects. Reordering and duplication
 * fault injection is scoped to exactly these classes — every other
 * class keeps per-link FIFO, reliable delivery (the model checker's
 * REORDER/DUPLICATE transitions cover the guarded classes
 * exhaustively).
 */
constexpr bool
sequenceGuarded(MsgType t)
{
    return recoverableRequest(t) || recoverableReply(t) ||
           t == MsgType::INV_ACK || t == MsgType::UPDATE_ACK;
}

} // namespace dsm

#endif // DSM_NET_MSG_HH
