#include "trace/trace.hh"

#include <fstream>

#include "cache/cache.hh"
#include "mem/directory.hh"
#include "net/msg.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace dsm {

const char *
toString(TraceCat cat)
{
    switch (cat) {
      case TraceCat::MSG_SEND: return "msg_send";
      case TraceCat::MSG_RECV: return "msg_recv";
      case TraceCat::DIR_STATE: return "dir_state";
      case TraceCat::LINE_STATE: return "line_state";
      case TraceCat::ATOMIC_START: return "atomic_start";
      case TraceCat::ATOMIC_COMPLETE: return "atomic_complete";
      case TraceCat::NACK: return "nack";
      case TraceCat::RETRY: return "retry";
      case TraceCat::RESV_SET: return "resv_set";
      case TraceCat::RESV_CLEAR: return "resv_clear";
      case TraceCat::LINK_FAULT: return "link_fault";
      default: return "unknown";
    }
}

void
Tracer::configure(const TraceConfig &cfg)
{
    _capacity = cfg.capacity;
    _ring = {};
    _head = 0;
    _wrapped = false;
    _total = 0;
    setMask(cfg.enabled && cfg.capacity > 0 ? cfg.categories : 0);
}

void
Tracer::setMask(std::uint32_t mask)
{
    mask &= TRACE_ALL;
    if (mask != 0 && _ring.empty()) {
        // First enable: size the ring as configured, or give a tracer
        // never configured the default size, so record() has somewhere
        // to write.
        if (_capacity == 0)
            _capacity = TraceConfig{}.capacity;
        _ring.assign(_capacity, TraceEvent{});
        _head = 0;
        _wrapped = false;
    }
    _mask = mask;
}

void
Tracer::record(const TraceEvent &ev)
{
    if (_ring.empty())
        return;
    _ring[_head] = ev;
    if (++_head == _ring.size()) {
        _head = 0;
        _wrapped = true;
    }
    ++_total;
}

namespace {

std::int16_t
nodeField(NodeId n)
{
    return static_cast<std::int16_t>(n);
}

} // anonymous namespace

void
Tracer::message(TraceCat cat, Tick now, const Msg &m)
{
    bool sent = cat == TraceCat::MSG_SEND;
    record({.tick = now, .addr = m.addr, .flow = m.trace_id,
            .node = nodeField(sent ? m.src : m.dst),
            .peer = nodeField(sent ? m.dst : m.src), .cat = cat,
            .op = static_cast<std::uint8_t>(m.type)});
}

void
Tracer::operation(TraceCat cat, Tick now, NodeId node, AtomicOp op,
                  Addr addr, std::uint64_t value, std::uint32_t flow)
{
    record({.tick = now, .addr = addr, .value = value, .flow = flow,
            .node = nodeField(node), .cat = cat,
            .op = static_cast<std::uint8_t>(op)});
}

void
Tracer::stateChange(TraceCat cat, Tick now, NodeId node, Addr addr,
                    std::uint8_t from, std::uint8_t to)
{
    record({.tick = now, .addr = addr, .node = nodeField(node), .cat = cat,
            .arg_a = from, .arg_b = to});
}

void
Tracer::reservation(TraceCat cat, Tick now, NodeId node, Addr addr)
{
    record({.tick = now, .addr = addr, .node = nodeField(node), .cat = cat});
}

void
Tracer::nack(Tick now, NodeId home, NodeId requester, Addr addr,
             MsgType req)
{
    record({.tick = now, .addr = addr, .node = nodeField(home),
            .peer = nodeField(requester), .cat = TraceCat::NACK,
            .op = static_cast<std::uint8_t>(req)});
}

void
Tracer::linkFault(Tick now, NodeId from, NodeId to, const Msg *lost)
{
    if (lost == nullptr) {
        record({.tick = now, .value = 1, .node = nodeField(from),
                .peer = nodeField(to), .cat = TraceCat::LINK_FAULT});
        return;
    }
    record({.tick = now, .addr = lost->addr, .flow = lost->trace_id,
            .node = nodeField(from), .peer = nodeField(to),
            .cat = TraceCat::LINK_FAULT,
            .op = static_cast<std::uint8_t>(lost->type)});
}

std::size_t
Tracer::size() const
{
    return _wrapped ? _ring.size() : _head;
}

std::uint64_t
Tracer::dropped() const
{
    return _total - size();
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(size());
    if (_wrapped)
        for (std::size_t i = _head; i < _ring.size(); ++i)
            out.push_back(_ring[i]);
    for (std::size_t i = 0; i < _head; ++i)
        out.push_back(_ring[i]);
    return out;
}

void
Tracer::clear()
{
    _head = 0;
    _wrapped = false;
    _total = 0;
}

namespace {

/** Event-specific detail string for the text exporter. */
std::string
eventDetail(const TraceEvent &ev)
{
    switch (ev.cat) {
      case TraceCat::MSG_SEND:
      case TraceCat::MSG_RECV:
        return csprintf("%s peer=%d flow=%u",
                        toString(static_cast<MsgType>(ev.op)),
                        ev.peer, ev.flow);
      case TraceCat::DIR_STATE:
        return csprintf("%s -> %s",
                        toString(static_cast<DirState>(ev.arg_a)),
                        toString(static_cast<DirState>(ev.arg_b)));
      case TraceCat::LINE_STATE:
        return csprintf("%s -> %s",
                        toString(static_cast<LineState>(ev.arg_a)),
                        toString(static_cast<LineState>(ev.arg_b)));
      case TraceCat::ATOMIC_START:
        return csprintf("%s flow=%u",
                        toString(static_cast<AtomicOp>(ev.op)), ev.flow);
      case TraceCat::ATOMIC_COMPLETE:
        return csprintf("%s latency=%llu flow=%u",
                        toString(static_cast<AtomicOp>(ev.op)),
                        (unsigned long long)ev.value, ev.flow);
      case TraceCat::NACK:
        return csprintf("%s requester=%d",
                        toString(static_cast<MsgType>(ev.op)), ev.peer);
      case TraceCat::RETRY:
        return csprintf("%s attempt=%llu",
                        toString(static_cast<AtomicOp>(ev.op)),
                        (unsigned long long)ev.value);
      case TraceCat::RESV_SET:
      case TraceCat::RESV_CLEAR:
        return "";
      case TraceCat::LINK_FAULT:
        return csprintf("%s link=%d->%d %s",
                        toString(static_cast<MsgType>(ev.op)),
                        ev.node, ev.peer,
                        ev.value != 0 ? "quarantined" : "dropped");
      default:
        return "";
    }
}

/** Short human label used as the Chrome event name. */
std::string
eventName(const TraceEvent &ev)
{
    switch (ev.cat) {
      case TraceCat::MSG_SEND:
      case TraceCat::MSG_RECV:
      case TraceCat::NACK:
        return csprintf("%s:%s", toString(ev.cat),
                        toString(static_cast<MsgType>(ev.op)));
      case TraceCat::ATOMIC_START:
      case TraceCat::ATOMIC_COMPLETE:
        // Same name on the B and the E so slice pairing is clean.
        return csprintf("atomic:%s",
                        toString(static_cast<AtomicOp>(ev.op)));
      case TraceCat::RETRY:
        return csprintf("%s:%s", toString(ev.cat),
                        toString(static_cast<AtomicOp>(ev.op)));
      case TraceCat::DIR_STATE:
        return csprintf("dir:%s->%s",
                        toString(static_cast<DirState>(ev.arg_a)),
                        toString(static_cast<DirState>(ev.arg_b)));
      case TraceCat::LINE_STATE:
        return csprintf("line:%s->%s",
                        toString(static_cast<LineState>(ev.arg_a)),
                        toString(static_cast<LineState>(ev.arg_b)));
      case TraceCat::LINK_FAULT:
        return csprintf("%s:%d->%d",
                        ev.value != 0 ? "quarantine" : "drop",
                        ev.node, ev.peer);
      default:
        return toString(ev.cat);
    }
}

/** Common args object for Chrome events. */
void
writeArgs(JsonWriter &w, const TraceEvent &ev)
{
    w.key("args");
    w.beginObject();
    w.kv("addr", csprintf("0x%llx", (unsigned long long)ev.addr));
    w.kv("node", ev.node);
    if (ev.peer >= 0)
        w.kv("peer", ev.peer);
    if (ev.value != 0)
        w.kv("value", ev.value);
    if (ev.flow != 0)
        w.kv("flow", ev.flow);
    w.endObject();
}

/** Shared fields of every Chrome event record. */
void
beginChromeEvent(JsonWriter &w, const TraceEvent &ev, const char *ph)
{
    w.beginObject();
    w.kv("name", eventName(ev));
    w.kv("cat", toString(ev.cat));
    w.kv("ph", ph);
    w.kv("ts", ev.tick);
    w.kv("pid", 0);
    w.kv("tid", static_cast<int>(ev.node < 0 ? 0 : ev.node));
}

} // anonymous namespace

std::string
Tracer::exportText() const
{
    std::string out;
    for (const TraceEvent &ev : events()) {
        std::string detail = eventDetail(ev);
        out += csprintf("%10llu n%-3d %-15s 0x%-10llx %s\n",
                        (unsigned long long)ev.tick, ev.node,
                        toString(ev.cat),
                        (unsigned long long)ev.addr, detail.c_str());
    }
    return out;
}

std::string
Tracer::exportChromeJson() const
{
    std::vector<TraceEvent> evs = events();

    JsonWriter w;
    w.beginObject();
    w.kv("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.beginArray();

    // Name one track per node that appears in the trace.
    std::uint64_t nodes_seen = 0;
    for (const TraceEvent &ev : evs)
        if (ev.node >= 0 && ev.node < 64)
            nodes_seen |= 1ull << ev.node;
    for (int n = 0; n < 64; ++n) {
        if (!(nodes_seen & (1ull << n)))
            continue;
        w.beginObject();
        w.kv("name", "thread_name");
        w.kv("ph", "M");
        w.kv("pid", 0);
        w.kv("tid", n);
        w.key("args");
        w.beginObject();
        w.kv("name", csprintf("node%d", n));
        w.endObject();
        w.endObject();
    }

    for (const TraceEvent &ev : evs) {
        switch (ev.cat) {
          case TraceCat::ATOMIC_START:
            beginChromeEvent(w, ev, "B");
            writeArgs(w, ev);
            w.endObject();
            break;
          case TraceCat::ATOMIC_COMPLETE:
            // Close the matching "B"; Perfetto pairs B/E per tid.
            beginChromeEvent(w, ev, "E");
            writeArgs(w, ev);
            w.endObject();
            break;
          case TraceCat::MSG_SEND:
            beginChromeEvent(w, ev, "i");
            w.kv("s", "t");
            writeArgs(w, ev);
            w.endObject();
            if (ev.flow != 0) {
                beginChromeEvent(w, ev, "s");
                w.kv("id", ev.flow);
                w.endObject();
            }
            break;
          case TraceCat::MSG_RECV:
            beginChromeEvent(w, ev, "i");
            w.kv("s", "t");
            writeArgs(w, ev);
            w.endObject();
            if (ev.flow != 0) {
                beginChromeEvent(w, ev, "f");
                w.kv("bp", "e");
                w.kv("id", ev.flow);
                w.endObject();
            }
            break;
          default:
            beginChromeEvent(w, ev, "i");
            w.kv("s", "t");
            writeArgs(w, ev);
            w.endObject();
            break;
        }
    }

    w.endArray();
    // Ring accounting footer: Perfetto ignores unknown top-level keys,
    // but a consumer (or a human) can see how much the bounded ring
    // silently overwrote.
    w.kv("dsm_recorded", totalRecorded());
    w.kv("dsm_dropped", dropped());
    w.endObject();
    return w.str();
}

namespace {

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << content;
    return static_cast<bool>(out);
}

} // anonymous namespace

bool
Tracer::writeChromeJson(const std::string &path) const
{
    return writeFile(path, exportChromeJson());
}

bool
Tracer::writeText(const std::string &path) const
{
    return writeFile(path, exportText());
}

} // namespace dsm
