/**
 * @file
 * Controller driver: feeds delivered messages and processor requests to
 * the pure transition functions (proto/transition.hh) and commits their
 * outcomes — memory/directory writes, stat deltas, and ordered effects
 * (sends, Tracer/TxnTracer/LineProfiler records, completions, retries,
 * recovery timers). Everything impure lives here: the event queue, the
 * mesh, the memory-module queue, RNG draws, fault injection, and the
 * hand-off of a finished operation to Proc::complete().
 */

#include "proto/controller.hh"

#include <cstdio>

#include "cpu/admission.hh"
#include "cpu/system.hh"
#include "fault/fault.hh"
#include "fault/recovery.hh"
#include "fault/watchdog.hh"
#include "mem/home_queue.hh"
#include "proto/transition_impl.hh"
#include "sim/logging.hh"
#include "stats/attribution.hh"

namespace dsm {

namespace {

/** Message tracing for protocol debugging, enabled by DSM_TRACE=1. */
bool
traceEnabled()
{
    static const bool on = envFlag("DSM_TRACE");
    return on;
}

} // namespace

Controller::Controller(System &sys, NodeId id)
    : _sys(sys), _id(id),
      _st(sys.cfg().machine.cache_sets, sys.cfg().machine.cache_ways)
{
    if (sys.cfg().faults.recoveryEnabled())
        _st.dedup.resize(
            static_cast<std::size_t>(sys.cfg().machine.num_procs));
}

Tick
Controller::now() const
{
    return _sys.eq().now();
}

void
Controller::send(Msg &m)
{
    m.src = _id;
    // Credit-based backpressure: replies (and NACKs) from a serving
    // home carry its request-queue depth so requesters can throttle
    // before the mesh fills (serve.backpressure).
    const ServeConfig &sv = _sys.cfg().serve;
    if (sv.enabled && sv.backpressure && recoverableReply(m.type))
        m.qdepth = static_cast<int>(_sys.homeQueue(_id).depth());
    _sys.mesh().send(m);
}

// ===================== StepCtx world view ================================

bool
Controller::isSync(Addr a) const
{
    return _sys.isSync(a);
}

DirEntry
Controller::dirEntry(Addr block) const
{
    const DirEntry *e = _sys.dir(_id).find(block);
    return e != nullptr ? *e : DirEntry{};
}

Word
Controller::memWord(Addr a) const
{
    return _sys.store().readWord(a);
}

std::array<Word, BLOCK_WORDS>
Controller::memBlock(Addr block) const
{
    return _sys.store().readBlock(block);
}

std::uint64_t
Controller::activeTxnId(NodeId n) const
{
    return _sys.cfg().txn_trace.enabled ? _sys.txns().activeId(n) : 0;
}

tf::Env
Controller::env() const
{
    tf::Env e;
    e.cfg = &_sys.cfg();
    e.self = _id;
    e.ctx = this;
    return e;
}

// ===================== Outcome commit ====================================

void
Controller::commit(tf::Outcome &&o)
{
    for (const tf::MemWrite &mw : o.mem_writes) {
        if (mw.is_block)
            _sys.store().writeBlock(mw.addr, mw.block);
        else
            _sys.store().writeWord(mw.addr, mw.word);
    }
    for (const tf::DirWrite &dw : o.dir_writes)
        _sys.dir(_id).entry(dw.addr) = dw.entry;

    const Config &cfg = _sys.cfg();
    const tf::StatDelta &d = o.stats;
    SysStats &st = _sys.stats(_id);
    st.nacks += d.nacks;
    st.retries += d.retries;
    st.invalidations += d.invalidations;
    st.updates += d.updates;
    st.writebacks += d.writebacks;
    st.drop_notifies += d.drop_notifies;
    st.sc_local_failures += d.sc_local_failures;
    if (cfg.faults.recoveryEnabled()) {
        Recovery::Counters &c = _sys.recoveryState().counters();
        c.dup_requests += d.dup_requests;
        c.dup_stale += d.dup_stale;
        c.dup_in_progress += d.dup_in_progress;
        c.dup_reprocessed += d.dup_reprocessed;
        c.dup_replayed += d.dup_replayed;
        c.nacks_replayed += d.nacks_replayed;
        c.nacks_stale += d.nacks_stale;
        c.stale_replies += d.stale_replies;
        c.dups_absorbed += d.dups_absorbed;
    }

    Tracer &tr = _sys.tracer();
    for (const tf::Effect &ef : o.effects) {
        switch (ef.kind) {
          case tf::EffectKind::TRACE_DIR:
            // Emitted only on an actual stable-state change; the
            // transition counter is unconditional, the trace record is
            // mask-gated.
            _sys.dir(_id).noteTransition();
            if (tr.on(TraceCat::DIR_STATE))
                tr.stateChange(TraceCat::DIR_STATE, now(), _id, ef.addr,
                               ef.a, ef.b);
            break;
          case tf::EffectKind::TRACE_LINE:
            if (tr.on(TraceCat::LINE_STATE))
                tr.stateChange(TraceCat::LINE_STATE, now(), _id, ef.addr,
                               ef.a, ef.b);
            break;
          case tf::EffectKind::TRACE_RESV: {
            TraceCat cat =
                ef.a != 0 ? TraceCat::RESV_CLEAR : TraceCat::RESV_SET;
            if (tr.on(cat))
                tr.reservation(cat, now(), _id, ef.addr);
            break;
          }
          case tf::EffectKind::TRACE_NACK:
            if (tr.on(TraceCat::NACK))
                tr.nack(now(), _id, ef.node, ef.addr,
                        static_cast<MsgType>(ef.a));
            break;
          case tf::EffectKind::LP_NACK:
            if (cfg.telemetry.enabled)
                _sys.lineProfiler().noteNack(ef.addr);
            break;
          case tf::EffectKind::LP_OWNER:
            if (cfg.telemetry.enabled)
                _sys.lineProfiler().noteOwner(ef.addr, ef.node);
            break;
          case tf::EffectKind::LP_SHARER_JOIN:
            if (cfg.telemetry.enabled)
                _sys.lineProfiler().noteSharerJoin(ef.addr);
            break;
          case tf::EffectKind::LP_INVALIDATION:
            if (cfg.telemetry.enabled)
                _sys.lineProfiler().noteInvalidation(ef.addr);
            break;
          case tf::EffectKind::TXN_MARK:
            _sys.txns().mark(ef.id, static_cast<TxnPhase>(ef.a),
                             now() + ef.delay, ef.node);
            break;
          case tf::EffectKind::TXN_SERVICE:
            _sys.txns().service(ef.id, _id, o.facts(ef));
            break;
          case tf::EffectKind::SEND:
            if (ef.delay == 0)
                send(o.msg(ef));
            else
                _sys.eq().scheduleIn(ef.delay,
                                     [this, m = o.msg(ef)]() mutable {
                                         send(m);
                                     });
            break;
          case tf::EffectKind::COMPLETE:
            if (ef.delay == 0) {
                finishNow(ef.value, ef.flag, ef.serial);
            } else {
                Word value = ef.value;
                bool success = ef.flag;
                Word serial = ef.serial;
                _sys.eq().scheduleIn(ef.delay,
                                     [this, value, success, serial] {
                                         finishNow(value, success, serial);
                                     });
            }
            break;
          case tf::EffectKind::RETRY:
            driverRetry();
            break;
          case tf::EffectKind::ARM_TIMER:
            armRecoveryTimer();
            break;
        }
    }
}

// ===================== CPU side ==========================================

void
Controller::cpuRequest(AtomicOp op, Addr addr, Word value, Word expected)
{
    dsm_assert(!_st.txn.active,
               "processor %d issued %s with a transaction outstanding",
               _id, toString(op));
    dsm_assert(addr == wordBase(addr),
               "unaligned operand address %#llx",
               static_cast<unsigned long long>(addr));
    // Fault injection, at issue time only (never mid-transaction, so
    // the protocol's in-flight invariants are preserved): model a
    // context switch clearing the load_linked reservation and/or a
    // conflict miss evicting the target block just before the
    // operation starts. Both are events the paper's protocols must
    // already survive; the injector just makes them frequent.
    if (_sys.cfg().faults.enabled) {
        FaultPlan &fp = _sys.faultPlan();
        if (_st.cache.reservationValid() && fp.dropReservation())
            _st.cache.clearReservation();
        const CacheLine *line = _st.cache.peek(addr);
        if (line != nullptr && fp.forceEviction()) {
            Victim v;
            v.valid = true;
            v.base = blockBase(addr);
            v.state = line->state;
            v.data = line->data;
            ++_st.cache.stats().evictions;
            _st.cache.invalidate(addr);
            tf::Outcome evict;
            tf::detail::emitTraceLine(evict, v.base, v.state,
                                      LineState::INVALID);
            tf::detail::evictVictim(env(), _st, evict, v);
            commit(std::move(evict));
        }
    }
    _trace_flow = 0;
    _parked_total = 0;
    Tracer &tr = _sys.tracer();
    if (tr.on(TraceCat::ATOMIC_START)) {
        _trace_flow = tr.nextFlowId();
        tr.operation(TraceCat::ATOMIC_START, now(), _id, op, addr, 0,
                     _trace_flow);
    }
    std::uint64_t txn_id = 0;
    if (_sys.cfg().txn_trace.enabled)
        txn_id = _sys.txns().begin(
            _id, op, addr, _sys.policyOf(addr),
            static_cast<std::uint8_t>(_st.cache.stateOf(addr)), now());
    tf::OpReq req;
    req.op = op;
    req.addr = addr;
    req.value = value;
    req.expected = expected;
    req.txn_id = txn_id;
    req.start = now();
    commit(tf::issue(env(), _st, req));
}

bool
Controller::loadHit(Addr addr, bool is_sync, const SpinUntil &until)
{
    // faults.enabled also covers recovery: recoveryEnabled() implies it.
    const Config &cfg = _sys.cfg();
    if (cfg.faults.enabled || cfg.txn_trace.enabled ||
        _sys.tracer().enabled())
        return false;
    if (is_sync && cfg.sync.policy == SyncPolicy::UNC)
        return false;
    // lookup(), not peek(): the slow path's hit moves the LRU stamp,
    // and other lines of this set are touched while the processor
    // spins, so a stale stamp would change a later victim choice.
    CacheLine *line = _st.cache.lookup(addr);
    if (line == nullptr)
        return false;
    dsm_assert(!_st.txn.active,
               "processor %d issued LOAD with a transaction outstanding",
               _id);
    dsm_assert(addr == wordBase(addr), "unaligned operand address %#llx",
               static_cast<unsigned long long>(addr));
    ++_st.cache.stats().hits;
    _trace_flow = 0;
    _parked_total = 0;
    _st.txn = tf::TxnState{};
    _st.txn.active = true;
    _st.txn.op = AtomicOp::LOAD;
    _st.txn.addr = addr;
    _st.txn.start = now();
    Word value = line->readWord(addr);
    if (until(value)) {
        _sys.eq().scheduleIn(cfg.machine.cache_hit_latency,
                             [this, value] { finishNow(value, true, 0); });
        return true;
    }
    // Park: until the line changes or another processor writes the
    // word, every iteration repeats this one. A sync reader whose next
    // read would end another processor's write run starts touched, so
    // that read is recorded for real.
    _spin_issue = now();
    _spin_addr = addr;
    _spin_line = line;
    _spin_value = value;
    _spin_sync = is_sync;
    _spin.touched = is_sync && _sys.sharing().parkReader(addr, _id);
    _sys.joinSpinGroup(*this, now() + cfg.machine.cache_hit_latency);
    return true;
}

void
Controller::settleSpin()
{
    if (_spin.group == nullptr)
        return;
    // The group fires at the next completion tick; every iteration
    // issued before that, up to one hit latency earlier, has happened.
    Tick hit = _sys.cfg().machine.cache_hit_latency;
    Tick last = _spin.group->when - hit;
    if (last == _spin_issue)
        return;
    std::uint64_t n = (last - _spin_issue) / hit;
    _spin_issue = last;
    _st.txn.start = last;
    _st.cache.stats().hits += n;
    _st.cache.restamp(*_spin_line, n);
    _sys.stats(_id).sampleOp(AtomicOp::LOAD, hit, 0, n);
    _sys.proc(_id).countIssues(n);
}

void
Controller::touchSpin()
{
    if (_spin.group == nullptr || _spin.touched)
        return;
    _spin.touched = true;
    ++_spin.group->touched;
}

void
Controller::noteSpinLine()
{
    if (_spin.group == nullptr)
        return;
    const CacheLine &l = *_spin_line;
    if (!l.valid() || l.base != blockBase(_spin_addr) ||
        l.readWord(_spin_addr) != _spin_value)
        touchSpin();
}

void
Controller::wakeSpin()
{
    settleSpin();
    _spin = SpinLink{};
    if (_spin_sync)
        _sys.sharing().unparkReader(_spin_addr, _id);
    finishNow(_spin_value, true, 0);
}

void
Controller::finishNow(Word value, bool success, Word serial)
{
    dsm_assert(_st.txn.active, "finish without an active transaction");
    SysStats &st = _sys.stats(_id);
    st.sampleOp(_st.txn.op, now() - _st.txn.start, _st.txn.max_chain);
    if (_st.txn.txn_id != 0)
        _sys.txns().complete(_st.txn.txn_id, now(), _st.txn.max_chain,
                             success, value);
    Tracer &tr = _sys.tracer();
    if (tr.on(TraceCat::ATOMIC_COMPLETE))
        tr.operation(TraceCat::ATOMIC_COMPLETE, now(), _id, _st.txn.op,
                     _st.txn.addr, now() - _st.txn.start, _trace_flow);
    if (_st.txn.op == AtomicOp::CAS) {
        if (success)
            ++st.cas_successes;
        else
            ++st.cas_failures;
    } else if (_st.txn.op == AtomicOp::SC ||
               _st.txn.op == AtomicOp::SCS) {
        if (success)
            ++st.sc_successes;
        else
            ++st.sc_failures;
    }
    _st.txn.active = false;
    // The seq is retired: any still-uncovered drops charged to it can
    // no longer need recovery.
    if (_sys.cfg().faults.recoveryEnabled())
        _sys.recoveryState().coverRequester(_id);
    _sys.proc(_id).complete(OpResult{value, success, serial});
}

void
Controller::driverRetry()
{
    // The transition already bumped txn.retries / the retry stat and
    // reset the per-attempt response state; the driver owns the
    // watchdog hook, the trace record, ledger coverage, and the
    // backoff RNG draw.
    const Config &cfg = _sys.cfg();
    if (cfg.watchdog.enabled)
        _sys.watchdogState().onRetry(_sys, _id, _st.txn.op, _st.txn.addr,
                                     _st.txn.retries);
    Tracer &tr = _sys.tracer();
    if (tr.on(TraceCat::RETRY))
        tr.operation(TraceCat::RETRY, now(), _id, _st.txn.op, _st.txn.addr,
                     static_cast<std::uint64_t>(_st.txn.retries),
                     _trace_flow);
    // The NACK retires this seq (the retry will draw a fresh one), so
    // cover any drops still charged to it.
    if (cfg.faults.recoveryEnabled())
        _sys.recoveryState().coverRequester(_id);
    const MachineConfig &mc = cfg.machine;
    const ServeConfig &sv = cfg.serve;
    // Capped exponential backoff on retries: under heavy contention a
    // fixed retry delay floods the home memory module with requests
    // that will only be NACKed again. serve.nack_backoff raises the
    // cap from the built-in 4 doublings so retry pressure keeps
    // halving deep into overload instead of plateauing.
    int cap = sv.enabled && sv.nack_backoff ? sv.backoff_cap : 4;
    int shift = _st.txn.retries - 1 < cap ? _st.txn.retries - 1 : cap;
    Tick delay = (mc.retry_delay << shift) *
                 _sys.rng().range(1, RETRY_JITTER);
    if (sv.enabled) {
        if (sv.nack_backoff && shift == cap && cap > 4)
            ++_sys.serveStats().backoff_capped;
        _park_kind = ParkKind::BACKOFF;
        // A credit-throttled requester holds its retry until the
        // throttle lapses: retrying into a backlogged home just burns
        // a NACK round trip.
        if (sv.backpressure && _throttled_until > now() + delay) {
            delay = _throttled_until - now();
            _park_kind = ParkKind::THROTTLED;
        }
        _park_until = now() + delay;
        // The park is deliberate waiting with a scheduled wake-up, so
        // it must not count toward the watchdog's livelock age.
        _parked_total += delay;
    }
    _sys.eq().scheduleIn(delay, [this] {
        dsm_assert(_st.txn.active, "retry fired without a transaction");
        _park_kind = ParkKind::NONE;
        _park_until = 0;
        if (_st.txn.txn_id != 0)
            _sys.txns().retry(_st.txn.txn_id, now());
        commit(tf::dispatch(env(), _st));
    });
}

void
Controller::armRecoveryTimer()
{
    // Capped exponential backoff, mirroring driverRetry()'s idiom but
    // without jitter: the timeout must be deterministic so a fault-free
    // run with recovery armed never consumes RNG draws.
    Tick base = _sys.cfg().faults.req_timeout;
    int shift = _st.txn.attempt < 5 ? _st.txn.attempt - 1 : 4;
    std::uint64_t s = _st.txn.seq;
    int a = _st.txn.attempt;
    _sys.eq().scheduleIn(base << shift, [this, s, a] {
        recoveryTimeout(s, a);
    });
}

void
Controller::recoveryTimeout(std::uint64_t seq, int attempt)
{
    // Stale timer: the reply arrived (or the txn moved on) first.
    if (!_st.txn.active || !_st.txn.waiting || _st.txn.resp_seen ||
        _st.txn.seq != seq || _st.txn.attempt != attempt)
        return;
    Recovery &rc = _sys.recoveryState();
    ++rc.counters().retransmits;
    // A retransmission is the recovery event that covers every drop
    // charged to this seq so far (the resend supersedes them all).
    rc.coverRequester(_id);
    commit(tf::retransmit(env(), _st));
}

// ===================== Message delivery ==================================

void
Controller::handleMsg(const Msg &m)
{
    dsm_assert(m.dst == _id, "message for node %d delivered to %d",
               m.dst, _id);
    if (traceEnabled())
        std::fprintf(stderr, "[%8llu] %s\n",
                     static_cast<unsigned long long>(now()),
                     tf::debugString(m).c_str());
    // Home-targeted messages queue behind the memory module.
    if (homeTargeted(m.type)) {
        homeEnqueue(m);
        return;
    }
    // Everything else acts immediately at this node (responses to the
    // local requester, invalidations, updates, forwards).
    if (m.qdepth >= 0 && _sys.cfg().serve.backpressure)
        noteCredit(m.qdepth);
    settleSpin();
    commit(tf::deliver(env(), _st, m));
    noteSpinLine();
}

void
Controller::noteCredit(int qdepth)
{
    const ServeConfig &sv = _sys.cfg().serve;
    // serve.credit_threshold=auto: track the threshold the telemetry
    // layer derives from recent home-queue depth windows instead of the
    // static configured value.
    int threshold = sv.credit_auto ? _sys.adaptiveCreditThreshold()
                                   : sv.credit_threshold;
    if (qdepth <= threshold)
        return;
    // Deterministic throttle duration: the backlog beyond the credit
    // threshold, in service times — roughly how long the home needs to
    // drain back under it. No RNG, so feature-off runs draw nothing.
    Tick dur = static_cast<Tick>(qdepth - threshold) *
               _sys.cfg().machine.mem_service_time;
    Tick until = now() + dur;
    if (until <= _throttled_until)
        return;
    ServeStats &st = _sys.serveStats();
    ++st.throttle_events;
    st.throttle_cycles +=
        until - (_throttled_until > now() ? _throttled_until : now());
    _throttled_until = until;
    // Propagate to the edge: the open-loop admission queue sheds
    // arrivals outright while this node is throttled, so overload is
    // rejected cheaply instead of queueing into the mesh.
    if (_sys.cfg().openloop.enabled)
        _sys.admissionState().setThrottledUntil(_id, until);
}

void
Controller::homeEnqueue(const Msg &m)
{
    dsm_assert(_sys.homeOf(m.addr) == _id,
               "%s for block %#llx delivered to non-home node %d",
               toString(m.type), static_cast<unsigned long long>(m.addr),
               _id);
    if (_sys.cfg().serve.enabled) {
        // Overload-protection path: buffer in the explicit two-level
        // queue and pump one memory service slot at a time, so a slot
        // can serve a whole combining batch and the scheduler can
        // prefer foreground over retry traffic. Only retryable requests
        // may ride low: write-backs, drop notices, and owner replies
        // resolve directory busy states and must never wait behind
        // foreground traffic.
        bool low = m.prio == 1 && recoverableRequest(m.type);
        _sys.homeQueue(_id).push(m, now(), low);
        homePump();
        return;
    }
    Tick when = _sys.mem(_id).access(now());
    noteHomeService(m, now(), when);
    Msg copy = m;
    _sys.eq().schedule(when, [this, copy] { homeService(copy); });
}

void
Controller::noteHomeService(const Msg &m, Tick enq, Tick when)
{
    // Telemetry: attribute this request and its full home cost (queue
    // wait plus service) to the block it targets.
    if (_sys.cfg().telemetry.enabled)
        _sys.lineProfiler().noteService(m.addr, when - enq);
    // An injected duplicate replay still burns the bank slot (hence
    // the line-profiler attribution above), but its transaction has
    // already been serviced by the original delivery — a second
    // SERVICE mark would break the tracer's phase partition.
    if (m.txn_id != 0 && !m.replayed) {
        // Owner replies re-enter the home queue: their transit leg
        // belongs to the reply path, not the request path.
        _sys.txns().markService(m.txn_id, _id, enq,
                                when - _sys.cfg().machine.mem_service_time,
                                when, ownerReply(m.type));
    }
}

void
Controller::homePump()
{
    if (_slot_scheduled || _sys.homeQueue(_id).empty())
        return;
    // Reserve the slot now (the bank is busy for it either way) but
    // defer head selection and batch formation to the slot itself:
    // requests arriving while the bank drains can still join a
    // combining batch or overtake a lower class.
    _slot_scheduled = true;
    Tick when = _sys.mem(_id).access(now());
    ++_sys.serveStats().slots;
    _sys.eq().schedule(when, [this, when] { homeServiceSlot(when); });
}

void
Controller::homeServiceSlot(Tick when)
{
    _slot_scheduled = false;
    // Home transitions never touch this node's cache (its own copy
    // changes only through a delivered INV or UPDATE), so settling is
    // all a parked spin-wait here needs.
    settleSpin();
    HomeQueue &hq = _sys.homeQueue(_id);
    dsm_assert(!hq.empty(), "home service slot fired with an empty queue");
    ServeStats &sst = _sys.serveStats();
    const ServeConfig &sv = _sys.cfg().serve;
    HomeQueue::Entry lead = hq.pop(now(), sst);
    noteHomeService(lead.msg, lead.enq, when);

    // A leader consumed by dedup or an injected NACK spends the slot.
    if (homeFilter(lead.msg)) {
        homePump();
        return;
    }

    // Home-node combining: fold queued commutative requests to the
    // same line into this slot.
    if (sv.combining && HomeQueue::leads(lead.msg, dirEntry(lead.msg.addr))) {
        hq.extractCombinable(lead.msg, sv.combine_limit - 1, _followers);
        _batch.assign(1, lead.msg);
        for (const HomeQueue::Entry &f : _followers) {
            // Per-member dedup, exactly as if delivered alone; the
            // replies captured by deliverCombined refresh each member's
            // slot.
            if (tf::dedupApplies(_st, f.msg)) {
                tf::Outcome o;
                bool handled = tf::tryDedup(env(), _st, f.msg, o);
                commit(std::move(o));
                if (handled)
                    continue;
            }
            _batch.push_back(f.msg);
        }
        // Every extracted follower was served in this slot, including
        // one dedup consumed, whether or not a batch remains.
        for (const HomeQueue::Entry &f : _followers)
            noteHomeService(f.msg, f.enq, when);
        if (_batch.size() >= 2) {
            sst.batches += 1;
            sst.coalesced += _batch.size() - 1;
            sst.served += _batch.size() - 1;
            for (std::size_t i = 1; i < _batch.size(); ++i) {
                if (_batch[i].prio == 1)
                    ++sst.lo_served;
                else
                    ++sst.hi_served;
            }
            commit(tf::deliverCombined(env(), _st, _batch));
            homePump();
            return;
        }
    }

    commit(tf::deliver(env(), _st, lead.msg));
    homePump();
}

bool
Controller::homeFilter(const Msg &m)
{
    // Only requests that carry retry machinery are filtered. Never
    // write-backs, drop notifications, or owner replies: they have no
    // retry path, and NACKing them would wedge the directory's
    // busy-state machine.
    if (!recoverableRequest(m.type))
        return false;
    // Recovery layer: filter duplicate requests (timeout
    // retransmissions) before any directory action or fault hook, so a
    // request is never serviced twice unless re-execution is provably
    // idempotent. Runs after the memory-queue delay on purpose — a
    // duplicate costs real memory bandwidth, like any other request.
    if (tf::dedupApplies(_st, m)) {
        tf::Outcome o;
        bool handled = tf::tryDedup(env(), _st, m, o);
        commit(std::move(o));
        if (handled)
            return true;
    }
    // Fault injection: an extra NACK round.
    if (_sys.cfg().faults.enabled && _sys.faultPlan().injectNack(m.src)) {
        commit(tf::injectNack(env(), _st, m));
        return true;
    }
    return false;
}

void
Controller::homeService(const Msg &m)
{
    settleSpin(); // as in homeServiceSlot()
    if (!homeFilter(m))
        commit(tf::deliver(env(), _st, m));
}

} // namespace dsm
