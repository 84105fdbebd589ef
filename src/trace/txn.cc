#include "trace/txn.hh"

#include <algorithm>
#include <fstream>

#include "cache/cache.hh"
#include "mem/directory.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace dsm {

namespace {

int
popcount64(std::uint64_t m)
{
    int n = 0;
    for (; m != 0; m &= m - 1)
        ++n;
    return n;
}

} // namespace

void
TxnTracer::configure(const TxnTraceConfig &cfg, int num_procs)
{
    _cfg = cfg;
    _num_procs = num_procs;
    _active.assign(static_cast<std::size_t>(num_procs), Active{});
    _records.clear();
    _records.reserve(cfg.capacity < 4096 ? cfg.capacity : 4096);
    _exemplars.clear();
    _exemplars.reserve(cfg.exemplar_k);
    _divergence_msgs.clear();
    _attr.configureTail(cfg.tail_capacity);
}

std::uint64_t
TxnTracer::begin(NodeId proc, AtomicOp op, Addr addr, SyncPolicy pol,
                 std::uint8_t line_state, Tick now)
{
    Active &a = _active[static_cast<std::size_t>(proc)];
    std::uint64_t id = ++_seq * static_cast<std::uint64_t>(_num_procs) +
                       static_cast<std::uint64_t>(proc);
    a.rec = TxnRecord{};
    a.rec.id = id;
    a.rec.proc = proc;
    a.rec.op = op;
    a.rec.addr = addr;
    a.rec.policy = pol;
    a.rec.line_state = line_state;
    a.rec.issue = now;
    a.rec.loop_iter = a.pending_loop_iter;
    a.pending_loop_iter = 0;
    a.last_mark = now;
    if (a.arrival_pending) {
        // Open-loop op: rebase the lifetime to the admission-queue
        // arrival and attribute the wait to ADMIT, so the total is the
        // sojourn time and the phase sums still cover [issue, complete]
        // exactly.
        Tick arrival =
            a.pending_arrival <= now ? a.pending_arrival : now;
        a.arrival_pending = false;
        a.rec.issue = arrival;
        if (now > arrival) {
            a.rec.phase_sum[static_cast<int>(TxnPhase::ADMIT)] =
                now - arrival;
            if (a.rec.spans.size() < TXN_MAX_SPANS)
                a.rec.spans.push_back(
                    {TxnPhase::ADMIT, arrival, now, proc});
            else
                a.rec.spans_truncated = true;
        }
    }
    a.live = true;
    return id;
}

std::uint64_t
TxnTracer::activeId(NodeId proc) const
{
    if (proc < 0 || proc >= _num_procs)
        return 0;
    const Active &a = _active[static_cast<std::size_t>(proc)];
    return a.live ? a.rec.id : 0;
}

void
TxnTracer::noteLoopIter(NodeId proc, int streak)
{
    if (proc < 0 || proc >= _num_procs)
        return;
    _active[static_cast<std::size_t>(proc)].pending_loop_iter = streak;
}

void
TxnTracer::noteArrival(NodeId proc, Tick arrival)
{
    if (proc < 0 || proc >= _num_procs)
        return;
    Active &a = _active[static_cast<std::size_t>(proc)];
    a.pending_arrival = arrival;
    a.arrival_pending = true;
}

TxnTracer::Active *
TxnTracer::find(std::uint64_t id)
{
    if (id == 0 || _num_procs == 0 || _active.empty())
        return nullptr;
    Active &a = _active[static_cast<std::size_t>(
        id % static_cast<std::uint64_t>(_num_procs))];
    return a.live && a.rec.id == id ? &a : nullptr;
}

void
TxnTracer::mark(std::uint64_t id, TxnPhase ph, Tick now, NodeId node)
{
    Active *a = find(id);
    if (a == nullptr)
        return;
    if (now < a->last_mark) {
        // Should be impossible: the requester is idle while waiting,
        // and the event queue fires in time order. Count, don't crash.
        ++_anomalies;
        return;
    }
    if (now == a->last_mark)
        return;
    a->rec.phase_sum[static_cast<int>(ph)] += now - a->last_mark;
    if (a->rec.spans.size() < TXN_MAX_SPANS)
        a->rec.spans.push_back({ph, a->last_mark, now, node});
    else
        a->rec.spans_truncated = true;
    a->last_mark = now;
}

void
TxnTracer::markService(std::uint64_t id, NodeId home, Tick arrive,
                       Tick svc_start, Tick svc_end, bool reply_leg)
{
    mark(id, reply_leg ? TxnPhase::REPLY_TRANSIT : TxnPhase::REQ_TRANSIT,
         arrive, home);
    mark(id, TxnPhase::DIR_QUEUE, svc_start, home);
    mark(id, TxnPhase::DIR_SERVICE, svc_end, home);
}

void
TxnTracer::service(std::uint64_t id, NodeId home, std::uint8_t dir_state,
                   int sharers, bool forwarded, NodeId owner,
                   std::uint64_t fanout_mask)
{
    Active *a = find(id);
    if (a == nullptr)
        return;
    a->rec.serviced = true;
    a->rec.home = home;
    a->rec.dir_state = dir_state;
    a->rec.sharers = sharers;
    a->rec.forwarded = forwarded;
    a->rec.owner = owner;
    a->rec.fanout_mask = fanout_mask;
    a->rec.fanout = popcount64(fanout_mask);
}

void
TxnTracer::retry(std::uint64_t id, Tick now)
{
    Active *a = find(id);
    if (a == nullptr)
        return;
    mark(id, TxnPhase::RETRY_WAIT, now, a->rec.proc);
    ++a->rec.retries;
    // Only the final (serviced, completed) attempt is validated
    // against Table 1, so facts from the NACKed attempt are cleared.
    a->rec.serviced = false;
    a->rec.forwarded = false;
    a->rec.home = INVALID_NODE;
    a->rec.owner = INVALID_NODE;
    a->rec.dir_state = 0;
    a->rec.sharers = 0;
    a->rec.fanout_mask = 0;
    a->rec.fanout = 0;
}

void
TxnTracer::noteSend(std::uint64_t id)
{
    Active *a = find(id);
    if (a != nullptr)
        ++a->rec.messages;
}

int
TxnTracer::expectedChain(const TxnRecord &r)
{
    if (!r.serviced)
        return 0;
    auto hop = [](NodeId x, NodeId y) { return x == y ? 0 : 1; };
    int reply = hop(r.proc, r.home) + hop(r.home, r.proc);
    if (r.forwarded)
        reply += hop(r.home, r.owner) + hop(r.owner, r.home);
    int chain = reply;
    std::uint64_t m = r.fanout_mask;
    for (NodeId n = 0; m != 0; ++n, m >>= 1) {
        if ((m & 1) == 0)
            continue;
        int c = hop(r.proc, r.home) + hop(r.home, n) + hop(n, r.proc);
        if (c > chain)
            chain = c;
    }
    return chain;
}

void
TxnTracer::complete(std::uint64_t id, Tick now, int observed_chain,
                    bool success)
{
    Active *a = find(id);
    if (a == nullptr)
        return;
    // Whatever remains since the last milestone was spent in the local
    // cache controller (hit service, or post-reply line fill).
    mark(id, TxnPhase::CACHE, now, a->rec.proc);

    TxnRecord &r = a->rec;
    r.complete = now;
    r.observed_chain = observed_chain;
    r.success = success;
    r.expected_chain = expectedChain(r);

    Tick sum = 0;
    for (int ph = 0; ph < NUM_TXN_PHASES; ++ph)
        sum += r.phase_sum[ph];
    if (sum != now - r.issue)
        ++_mismatches;

    if (r.expected_chain != r.observed_chain) {
        ++_divergences;
        if (_divergence_msgs.size() < TXN_MAX_DIVERGENCES)
            _divergence_msgs.push_back(csprintf(
                "txn %llu: %s %s addr=%llx proc=%d home=%d dir=%u "
                "sharers=%d fanout=%d%s: observed chain %d, Table 1 "
                "expects %d",
                static_cast<unsigned long long>(r.id), toString(r.policy),
                toString(r.op), static_cast<unsigned long long>(r.addr),
                r.proc, r.home, static_cast<unsigned>(r.dir_state),
                r.sharers, r.fanout, r.forwarded ? " (forwarded)" : "",
                r.observed_chain, r.expected_chain));
    }

    _attr.sample(r.op, r.phase_sum, now - r.issue, r.retries, r.fanout,
                 observed_chain);
    if (_cfg.exemplar_k != 0)
        noteExemplar(r);
    if (_records.size() < _cfg.capacity)
        _records.push_back(std::move(r));
    else
        ++_dropped;
    a->live = false;
}

void
TxnTracer::noteExemplar(const TxnRecord &r)
{
    // Keep the reservoir sorted slowest-first; equal totals break ties
    // toward the smaller (earlier) id, so the contents and order are
    // deterministic for a given run.
    auto slower = [](const TxnRecord &x, const TxnRecord &y) {
        Tick tx = x.complete - x.issue;
        Tick ty = y.complete - y.issue;
        if (tx != ty)
            return tx > ty;
        return x.id < y.id;
    };
    if (_exemplars.size() == _cfg.exemplar_k &&
        !slower(r, _exemplars.back()))
        return;
    auto pos =
        std::lower_bound(_exemplars.begin(), _exemplars.end(), r, slower);
    _exemplars.insert(pos, r);
    if (_exemplars.size() > _cfg.exemplar_k)
        _exemplars.pop_back();
}

std::string
TxnTracer::exemplarsJson() const
{
    JsonWriter w;
    w.beginArray();
    for (const TxnRecord &r : _exemplars) {
        w.beginObject();
        w.kv("id", r.id);
        w.kv("op", toString(r.op));
        w.kv("proc", r.proc);
        w.kv("addr", r.addr);
        w.kv("total", static_cast<std::uint64_t>(r.complete - r.issue));
        w.kv("issue", static_cast<std::uint64_t>(r.issue));
        w.kv("complete", static_cast<std::uint64_t>(r.complete));
        w.kv("retries", r.retries);
        w.kv("loop_iter", r.loop_iter);
        w.kv("fanout", r.fanout);
        w.kv("messages", r.messages);
        w.key("phases");
        w.beginObject();
        for (int ph = 0; ph < NUM_TXN_PHASES; ++ph) {
            if (r.phase_sum[ph] == 0)
                continue;
            w.kv(toString(static_cast<TxnPhase>(ph)),
                 static_cast<std::uint64_t>(r.phase_sum[ph]));
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    return w.str();
}

std::string
TxnTracer::chromeEventsJsonArray(int pid,
                                 const std::string &process_name) const
{
    JsonWriter w;
    w.beginArray();

    auto metadata = [&](const char *what, int tid, const std::string &nm) {
        w.beginObject();
        w.key("name");
        w.value(what);
        w.key("ph");
        w.value("M");
        w.key("pid");
        w.value(pid);
        w.key("tid");
        w.value(tid);
        w.key("args");
        w.beginObject();
        w.key("name");
        w.value(nm);
        w.endObject();
        w.endObject();
    };

    // Exemplars whose full record was dropped from _records still get
    // exported (that is the reservoir's purpose); ones that were kept
    // are re-categorized, not duplicated.
    std::vector<const TxnRecord *> extra_exemplars;
    for (const TxnRecord &e : _exemplars) {
        bool kept = std::any_of(
            _records.begin(), _records.end(),
            [&](const TxnRecord &r) { return r.id == e.id; });
        if (!kept)
            extra_exemplars.push_back(&e);
    }

    metadata("process_name", 0, process_name);
    std::vector<bool> seen(static_cast<std::size_t>(_num_procs), false);
    for (const TxnRecord &r : _records)
        if (r.proc >= 0 && r.proc < _num_procs)
            seen[static_cast<std::size_t>(r.proc)] = true;
    for (const TxnRecord *r : extra_exemplars)
        if (r->proc >= 0 && r->proc < _num_procs)
            seen[static_cast<std::size_t>(r->proc)] = true;
    for (int n = 0; n < _num_procs; ++n)
        if (seen[static_cast<std::size_t>(n)])
            metadata("thread_name", n, csprintf("node%d", n));

    auto isExemplar = [&](std::uint64_t id) {
        return std::any_of(
            _exemplars.begin(), _exemplars.end(),
            [&](const TxnRecord &e) { return e.id == id; });
    };

    auto flowEvent = [&](const char *ph, std::uint64_t id, Tick ts,
                         NodeId tid, bool enclosing) {
        w.beginObject();
        w.key("name");
        w.value("txn");
        w.key("cat");
        w.value("txn_flow");
        w.key("ph");
        w.value(ph);
        w.key("id");
        w.value(id);
        w.key("ts");
        w.value(ts);
        w.key("pid");
        w.value(pid);
        w.key("tid");
        w.value(tid);
        if (enclosing) {
            w.key("bp");
            w.value("e");
        }
        w.endObject();
    };

    auto emitRecord = [&](const TxnRecord &r, const char *cat) {
        w.beginObject();
        w.key("name");
        w.value(std::string("txn:") + toString(r.op));
        w.key("cat");
        w.value(cat);
        w.key("ph");
        w.value("X");
        w.key("ts");
        w.value(r.issue);
        w.key("dur");
        w.value(r.complete - r.issue);
        w.key("pid");
        w.value(pid);
        w.key("tid");
        w.value(r.proc);
        w.key("args");
        w.beginObject();
        w.key("id");
        w.value(r.id);
        w.key("addr");
        w.value(r.addr);
        w.key("policy");
        w.value(toString(r.policy));
        w.key("line_state");
        w.value(toString(static_cast<LineState>(r.line_state)));
        w.key("success");
        w.value(r.success);
        w.key("retries");
        w.value(r.retries);
        w.key("loop_iter");
        w.value(r.loop_iter);
        w.key("fanout");
        w.value(r.fanout);
        w.key("messages");
        w.value(r.messages);
        w.key("chain");
        w.value(r.observed_chain);
        w.key("expected_chain");
        w.value(r.expected_chain);
        if (r.serviced) {
            w.key("home");
            w.value(r.home);
            w.key("dir_state");
            w.value(toString(static_cast<DirState>(r.dir_state)));
            w.key("sharers");
            w.value(r.sharers);
            if (r.forwarded) {
                w.key("owner");
                w.value(r.owner);
            }
        }
        if (r.spans_truncated) {
            w.key("spans_truncated");
            w.value(true);
        }
        w.endObject();
        w.endObject();

        for (const TxnSpan &s : r.spans) {
            w.beginObject();
            w.key("name");
            w.value(toString(s.phase));
            w.key("cat");
            w.value("txn_phase");
            w.key("ph");
            w.value("X");
            w.key("ts");
            w.value(s.start);
            w.key("dur");
            w.value(s.end - s.start);
            w.key("pid");
            w.value(pid);
            w.key("tid");
            w.value(r.proc);
            w.key("args");
            w.beginObject();
            w.key("node");
            w.value(s.node);
            w.endObject();
            w.endObject();
        }

        // Flow arrows: request departure -> service milestones -> reply.
        int first_req = -1, last_reply = -1;
        for (std::size_t i = 0; i < r.spans.size(); ++i) {
            TxnPhase ph = r.spans[i].phase;
            if (ph == TxnPhase::REQ_TRANSIT && first_req < 0)
                first_req = static_cast<int>(i);
            if (ph == TxnPhase::REPLY_TRANSIT || ph == TxnPhase::FANOUT)
                last_reply = static_cast<int>(i);
        }
        if (first_req >= 0 && last_reply > first_req) {
            flowEvent("s", r.id, r.spans[static_cast<std::size_t>(
                                     first_req)].start,
                      r.proc, false);
            for (int i = first_req + 1; i < last_reply; ++i) {
                TxnPhase ph = r.spans[static_cast<std::size_t>(i)].phase;
                if (ph == TxnPhase::DIR_SERVICE || ph == TxnPhase::OWNER ||
                    ph == TxnPhase::FANOUT)
                    flowEvent("t", r.id,
                              r.spans[static_cast<std::size_t>(i)].start,
                              r.proc, false);
            }
            flowEvent("f", r.id,
                      r.spans[static_cast<std::size_t>(last_reply)].start,
                      r.proc, true);
        }
    };

    for (const TxnRecord &r : _records)
        emitRecord(r, isExemplar(r.id) ? "txn_exemplar" : "txn");
    for (const TxnRecord *r : extra_exemplars)
        emitRecord(*r, "txn_exemplar");

    w.endArray();
    return w.str();
}

std::string
TxnTracer::exportChromeJson() const
{
    return std::string("{\"displayTimeUnit\":\"ns\",\"traceEvents\":") +
           chromeEventsJsonArray(0, "dsm") + "}";
}

bool
TxnTracer::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << exportChromeJson() << '\n';
    return static_cast<bool>(out);
}

std::string
TxnTracer::describeActive(NodeId proc) const
{
    if (proc < 0 || proc >= _num_procs)
        return "";
    const Active &a = _active[static_cast<std::size_t>(proc)];
    if (!a.live)
        return "";
    const TxnRecord &r = a.rec;
    std::string out = csprintf(
        "    txn %llu %s %s addr=%#llx issue=%llu retries=%d "
        "messages=%d spans:\n",
        (unsigned long long)r.id, toString(r.policy), toString(r.op),
        (unsigned long long)r.addr, (unsigned long long)r.issue,
        r.retries, r.messages);
    for (const TxnSpan &s : r.spans)
        out += csprintf("      [%llu, %llu) %s @node %d\n",
                        (unsigned long long)s.start,
                        (unsigned long long)s.end, toString(s.phase),
                        s.node);
    if (r.spans_truncated)
        out += "      ...(spans truncated)\n";
    out += csprintf("      (last milestone at %llu)\n",
                    (unsigned long long)a.last_mark);
    return out;
}

} // namespace dsm
