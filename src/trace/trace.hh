/**
 * @file
 * Structured protocol event tracer.
 *
 * A bounded ring buffer of fixed-size typed records covering message
 * traffic, directory and cache-line state transitions, atomic operation
 * lifetimes, NACKs/retries, and LL reservation activity. Recording is
 * filtered per category at runtime; when tracing is disabled the cost
 * at every instrumentation site is a single branch on the category
 * mask. Captured traces export to human-readable text or to Chrome
 * trace-event JSON loadable in Perfetto (one track per node, flow
 * arrows linking message sends to receives).
 */

#ifndef DSM_TRACE_TRACE_HH
#define DSM_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace dsm {

/** Event categories; each can be filtered independently. */
enum class TraceCat : std::uint8_t
{
    MSG_SEND,        ///< message injected into the mesh
    MSG_RECV,        ///< message delivered to a controller
    DIR_STATE,       ///< directory entry state transition
    LINE_STATE,      ///< cache line state transition
    ATOMIC_START,    ///< processor began an atomic/memory operation
    ATOMIC_COMPLETE, ///< operation finished (value = latency)
    NACK,            ///< home NACKed a request
    RETRY,           ///< requester retried after NACK/failure
    RESV_SET,        ///< LL reservation established
    RESV_CLEAR,      ///< LL reservation cleared
    LINK_FAULT,      ///< message dropped on a link / link quarantined

    NUM_CATEGORIES
};

constexpr unsigned NUM_TRACE_CATEGORIES =
    static_cast<unsigned>(TraceCat::NUM_CATEGORIES);

const char *toString(TraceCat cat);

/** Mask bit for one category. */
constexpr std::uint32_t
traceBit(TraceCat cat)
{
    return 1u << static_cast<unsigned>(cat);
}

/** Mask enabling every category. */
constexpr std::uint32_t TRACE_ALL = (1u << NUM_TRACE_CATEGORIES) - 1;

/**
 * One trace record. Fixed-size POD; the category determines which
 * fields are meaningful:
 *
 *  - MSG_SEND/MSG_RECV: node=src-or-receiver, peer=other endpoint,
 *    op=MsgType, addr, flow=message trace_id.
 *  - DIR_STATE/LINE_STATE: node, addr, arg_a=old state, arg_b=new.
 *  - ATOMIC_START/ATOMIC_COMPLETE: node, op=AtomicOp, addr,
 *    value=latency on complete, flow=operation flow id.
 *  - NACK: node=home, peer=nacked requester, addr, op=request MsgType.
 *  - RETRY: node=requester, op=AtomicOp, addr, value=retry count.
 *  - RESV_SET/RESV_CLEAR: node=reserving node or home, addr.
 *  - LINK_FAULT: node=link source, peer=link destination, op=dropped
 *    message's MsgType, value=0 for a drop, 1 for quarantine.
 */
struct TraceEvent
{
    Tick tick = 0;
    Addr addr = 0;
    std::uint64_t value = 0;
    std::uint32_t flow = 0;
    std::int16_t node = -1;
    std::int16_t peer = -1;
    TraceCat cat = TraceCat::MSG_SEND;
    std::uint8_t op = 0;
    std::uint8_t arg_a = 0;
    std::uint8_t arg_b = 0;
};

/** Bounded ring buffer of TraceEvents with per-category filtering. */
class Tracer
{
  public:
    /**
     * Apply a TraceConfig: sets the mask and records the ring capacity.
     * The ring itself is allocated when the mask first becomes non-zero,
     * here or through setMask(), so a disabled tracer holds no storage.
     */
    void configure(const TraceConfig &cfg);

    /** True if any category is enabled. */
    bool enabled() const { return _mask != 0; }

    /**
     * True if @p cat should be recorded. This is the hot-path guard:
     * with tracing off the mask is zero and the whole instrumentation
     * site reduces to this single branch.
     */
    bool on(TraceCat cat) const { return (_mask & traceBit(cat)) != 0; }

    /** Current category mask. */
    std::uint32_t mask() const { return _mask; }

    /**
     * Enable exactly the categories in @p mask, allocating the ring at
     * the configured capacity (the TraceConfig default if never
     * configured) when it does not exist yet.
     */
    void setMask(std::uint32_t mask);

    /** Append a record, overwriting the oldest once the ring is full. */
    void record(const TraceEvent &ev);

    /** Fresh flow id for correlating related records. */
    std::uint32_t nextFlowId() { return ++_next_flow; }

    /** Ring capacity in records. */
    std::size_t capacity() const { return _capacity; }

    /** Records the ring holds storage for: 0 until tracing turns on. */
    std::size_t allocated() const { return _ring.size(); }

    /** Records currently retained (<= capacity). */
    std::size_t size() const;

    /** Total record() calls, including overwritten ones. */
    std::uint64_t totalRecorded() const { return _total; }

    /** Records lost to ring wrap-around. */
    std::uint64_t dropped() const;

    /** Retained records, oldest first. */
    std::vector<TraceEvent> events() const;

    /** Drop all retained records (keeps mask and capacity). */
    void clear();

    /** Render retained records as one line of text each. */
    std::string exportText() const;

    /**
     * Render retained records as Chrome trace-event JSON (Perfetto
     * loadable): one thread track per node, metadata names, instants
     * for point events, B/E durations for atomic ops, s/f flow arrows
     * for message send/receive pairs.
     */
    std::string exportChromeJson() const;

    /** exportChromeJson() to a file; false on I/O failure. */
    bool writeChromeJson(const std::string &path) const;

    /** exportText() to a file; false on I/O failure. */
    bool writeText(const std::string &path) const;

  private:
    std::uint32_t _mask = 0;
    std::size_t _capacity = 0;
    std::vector<TraceEvent> _ring;
    std::size_t _head = 0;      ///< next write position
    bool _wrapped = false;      ///< ring has overwritten old records
    std::uint64_t _total = 0;   ///< lifetime record() count
    std::uint32_t _next_flow = 0;
};

} // namespace dsm

#endif // DSM_TRACE_TRACE_HH
