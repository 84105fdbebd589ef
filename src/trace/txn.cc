#include "trace/txn.hh"

#include <algorithm>
#include <bit>

#include "cache/cache.hh"
#include "mem/directory.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace dsm {

int
TxnRecord::fanout() const
{
    return std::popcount(fact.service.fanout_mask);
}

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
    a.rec.fact.requester = proc;
    a.rec.fact.op = op;
    a.rec.addr = addr;
    a.rec.policy = pol;
    a.rec.line_state = line_state;
    a.rec.issue = now;
    a.rec.loop_iter = a.fail_streak;
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
TxnTracer::service(std::uint64_t id, NodeId home,
                   const tf::ServiceFacts &facts)
{
    Active *a = find(id);
    if (a != nullptr)
        a->rec.fact.serve(home, facts);
}

void
TxnTracer::retry(std::uint64_t id, Tick now)
{
    Active *a = find(id);
    if (a == nullptr)
        return;
    mark(id, TxnPhase::RETRY_WAIT, now, a->rec.fact.requester);
    ++a->rec.retries;
    a->rec.fact.retry();
}

void
TxnTracer::noteSend(std::uint64_t id)
{
    Active *a = find(id);
    if (a != nullptr)
        ++a->rec.messages;
}

void
TxnTracer::complete(std::uint64_t id, Tick now, int observed_chain,
                    bool success, Word value)
{
    Active *a = find(id);
    if (a == nullptr)
        return;
    switch (a->rec.fact.op) {
      case AtomicOp::TAS:
        // A test_and_set that reads nonzero found the lock held: a spin.
        a->fail_streak = value != 0 ? a->fail_streak + 1 : 0;
        break;
      case AtomicOp::CAS:
      case AtomicOp::SC:
      case AtomicOp::SCS:
        a->fail_streak = success ? 0 : a->fail_streak + 1;
        break;
      case AtomicOp::STORE:
      case AtomicOp::FAA:
      case AtomicOp::FAS:
      case AtomicOp::FAO:
        a->fail_streak = 0;
        break;
      default:
        // Loads (incl. LL/LLS) neither succeed nor fail an acquire.
        break;
    }
    // Whatever remains since the last milestone was spent in the local
    // cache controller (hit service, or post-reply line fill).
    mark(id, TxnPhase::CACHE, now, a->rec.fact.requester);

    TxnRecord &r = a->rec;
    r.complete = now;
    r.fact.observed_chain = observed_chain;
    r.success = success;
    r.expected_chain = expectedChain(r.fact);

    Tick sum = 0;
    for (int ph = 0; ph < NUM_TXN_PHASES; ++ph)
        sum += r.phase_sum[ph];
    if (sum != now - r.issue)
        ++_mismatches;

    if (r.expected_chain != observed_chain) {
        ++_divergences;
        if (_divergence_msgs.size() < TXN_MAX_DIVERGENCES)
            _divergence_msgs.push_back(
                csprintf("txn %llu: %s addr=%#llx: ",
                         static_cast<unsigned long long>(r.id),
                         toString(r.policy),
                         static_cast<unsigned long long>(r.addr)) +
                describeDivergence(r.fact, r.expected_chain));
    }

    _attr.sample(r.fact.op, r.phase_sum, now - r.issue, r.retries,
                 r.fanout(), observed_chain);
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
        w.kv("op", toString(r.fact.op));
        w.kv("proc", r.fact.requester);
        w.kv("addr", r.addr);
        w.kv("total", static_cast<std::uint64_t>(r.complete - r.issue));
        w.kv("issue", static_cast<std::uint64_t>(r.issue));
        w.kv("complete", static_cast<std::uint64_t>(r.complete));
        w.kv("retries", r.retries);
        w.kv("loop_iter", r.loop_iter);
        w.kv("fanout", r.fanout());
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
        if (r.fact.requester >= 0 && r.fact.requester < _num_procs)
            seen[static_cast<std::size_t>(r.fact.requester)] = true;
    for (const TxnRecord *r : extra_exemplars)
        if (r->fact.requester >= 0 && r->fact.requester < _num_procs)
            seen[static_cast<std::size_t>(r->fact.requester)] = true;
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
        w.value(std::string("txn:") + toString(r.fact.op));
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
        w.value(r.fact.requester);
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
        w.value(r.fanout());
        w.key("messages");
        w.value(r.messages);
        w.key("chain");
        w.value(r.fact.observed_chain);
        w.key("expected_chain");
        w.value(r.expected_chain);
        const ChainFact &f = r.fact;
        if (f.serviced) {
            w.key("home");
            w.value(f.home);
            w.key("dir_state");
            w.value(toString(static_cast<DirState>(f.service.dir_state)));
            w.key("sharers");
            w.value(f.service.sharers);
            if (f.service.forwarded) {
                w.key("owner");
                w.value(f.service.owner);
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
            w.value(r.fact.requester);
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
                      r.fact.requester, false);
            for (int i = first_req + 1; i < last_reply; ++i) {
                TxnPhase ph = r.spans[static_cast<std::size_t>(i)].phase;
                if (ph == TxnPhase::DIR_SERVICE || ph == TxnPhase::OWNER ||
                    ph == TxnPhase::FANOUT)
                    flowEvent("t", r.id,
                              r.spans[static_cast<std::size_t>(i)].start,
                              r.fact.requester, false);
            }
            flowEvent("f", r.id,
                      r.spans[static_cast<std::size_t>(last_reply)].start,
                      r.fact.requester, true);
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
        (unsigned long long)r.id, toString(r.policy), toString(r.fact.op),
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
