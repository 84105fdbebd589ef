#include "cpu/system.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace dsm {

System::System(const Config &cfg)
    : _cfg(cfg),
      _eq(),
      _mesh(_eq, _cfg.machine),
      _registry(statsSchema(), this, cfg.machine.num_procs),
      _rng(cfg.machine.seed)
{
    std::string cfg_err = _cfg.validate();
    if (!cfg_err.empty())
        dsm_fatal("invalid configuration: %s", cfg_err.c_str());
    int n = _cfg.machine.num_procs;
    _mems.reserve(n);
    _dirs.resize(n);
    _node_stats.resize(n);
    for (int i = 0; i < n; ++i)
        _mems.emplace_back(_cfg.machine.mem_service_time);
    for (int i = 0; i < n; ++i) {
        _ctrls.push_back(std::make_unique<Controller>(*this, i));
        _procs.push_back(std::make_unique<Proc>(*this, i));
    }
    for (int i = 0; i < n; ++i) {
        Controller *c = _ctrls[i].get();
        _mesh.setHandler(i, [c](const Msg &m) { c->handleMsg(m); });
    }
    _tracer.configure(_cfg.trace);
    _mesh.setTracer(&_tracer);
    _txns.configure(_cfg.txn_trace, n);
    _mesh.setTxnTracer(&_txns);
    if (_cfg.faults.enabled) {
        _faults.configure(_cfg.faults, _cfg.machine.seed, _cfg.machine);
        _mesh.setFaults(&_faults);
    }
    if (_cfg.faults.recoveryEnabled()) {
        _recovery.configure(*this, _mesh);
        _mesh.setRecovery(&_recovery, _cfg.faults.quarantine_k,
                          _cfg.faults.quarantine_window);
    }
    if (_cfg.watchdog.enabled)
        _watchdog.configure(_cfg.watchdog);
    if (_cfg.openloop.enabled)
        _admission.configure(_cfg.openloop, n);
    if (_cfg.serve.enabled) {
        _home_queues.reserve(n);
        for (int i = 0; i < n; ++i)
            _home_queues.emplace_back(_cfg.serve.age_limit);
    }
    _credit_threshold = _cfg.serve.credit_threshold;
    if (_cfg.telemetry.enabled) {
        _telemetry.configure(_cfg.telemetry);
        _mesh.enableLinkCounters();
        registerTelemetrySeries();
        if (_cfg.serve.credit_auto) {
            // serve.credit_threshold=auto: re-derive the backpressure
            // threshold from the depth series at each window boundary.
            _eq.setSampler(_cfg.telemetry.window, [this](Tick t) {
                _telemetry.sample(t);
                updateCreditThreshold();
            });
        } else {
            _eq.setSampler(_cfg.telemetry.window,
                           [this](Tick t) { _telemetry.sample(t); });
        }
    }
    if (_cfg.machine.spurious_resv_period > 0)
        scheduleSpuriousInvalidation();
    if (_cfg.watchdog.enabled && _cfg.watchdog.max_txn_age > 0)
        scheduleWatchdogScan();
}

void
System::registerTelemetrySeries()
{
    // Machine-wide series, sampled at window boundaries by the event
    // queue. Getters that sum per-node counters are O(nodes) per
    // window — off the per-event hot path entirely.
    _telemetry.addDelta("events",
                        [this] { return _eq.eventsExecuted(); });
    _telemetry.addDelta("ops", [this] {
        std::uint64_t v = 0;
        for (const auto &p : _procs)
            v += p->opsIssued();
        return v;
    });
    const MeshStats &ms = _mesh.stats();
    _telemetry.addDelta("messages", [&ms] { return ms.messages; });
    _telemetry.addDelta("flits", [&ms] { return ms.flits; });
    _telemetry.addDelta("nacks", [this] {
        std::uint64_t v = 0;
        for (const SysStats &s : _node_stats)
            v += s.nacks;
        return v;
    });
    _telemetry.addDelta("retries", [this] {
        std::uint64_t v = 0;
        for (const SysStats &s : _node_stats)
            v += s.retries;
        return v;
    });
    _telemetry.addDelta("invalidations", [this] {
        std::uint64_t v = 0;
        for (const SysStats &s : _node_stats)
            v += s.invalidations;
        return v;
    });
    _telemetry.addDelta("mem_queue_cycles", [this] {
        std::uint64_t v = 0;
        for (const MemModule &m : _mems)
            v += m.queueCycles();
        return v;
    });
    // Directory/memory backlog: cycles of already-reserved service
    // time still ahead of the clock, summed and worst-node.
    _telemetry.addGauge("mem_backlog", [this] {
        std::uint64_t v = 0;
        Tick t = _eq.now();
        for (const MemModule &m : _mems)
            if (m.freeAt() > t)
                v += m.freeAt() - t;
        return v;
    });
    _telemetry.addGauge("mem_backlog_max", [this] {
        std::uint64_t v = 0;
        Tick t = _eq.now();
        for (const MemModule &m : _mems)
            if (m.freeAt() > t && m.freeAt() - t > v)
                v = m.freeAt() - t;
        return v;
    });
    if (_cfg.faults.recoveryEnabled()) {
        const Recovery::Counters &rc = _recovery.counters();
        _telemetry.addDelta("recovery_drops", [&rc] { return rc.drops; });
        _telemetry.addDelta("recovery_retransmits",
                            [&rc] { return rc.retransmits; });
    }
    if (_cfg.serve.credit_auto) {
        // Home-queue depth series feeding the adaptive credit threshold.
        // Registered only under credit_threshold=auto so fixed-threshold
        // serve runs keep their exact telemetry shape.
        _telemetry.addGauge("serve_queue_depth", [this] {
            std::uint64_t v = 0;
            for (const HomeQueue &q : _home_queues)
                v += q.depth();
            return v;
        });
    }
    if (_cfg.openloop.enabled) {
        const OpenLoopStats &os = _admission.stats();
        _telemetry.addDelta("openloop_admitted",
                            [&os] { return os.admitted; });
        _telemetry.addDelta("openloop_rejected",
                            [&os] { return os.rejected; });
        _telemetry.addDelta("openloop_completed",
                            [&os] { return os.completed; });
        _telemetry.addGauge("openloop_queue_depth", [this] {
            std::uint64_t v = 0;
            for (int i = 0; i < numProcs(); ++i)
                v += _admission.depth(i);
            return v;
        });
    }
}

void
System::updateCreditThreshold()
{
    std::vector<std::uint64_t> v =
        _telemetry.seriesValues("serve_queue_depth");
    if (v.empty())
        return;
    std::uint64_t sum = 0;
    for (std::uint64_t x : v)
        sum += x;
    std::uint64_t mean_ceil =
        (sum + v.size() - 1) / static_cast<std::uint64_t>(v.size());
    std::uint64_t threshold = 2 * mean_ceil;
    if (threshold < 2)
        threshold = 2;
    _credit_threshold = static_cast<int>(threshold);
}

// Stat-row macros for statsSchema(). Each reader is a captureless
// lambda over the bound System `s`, the node `i` (per-node rows) and
// the row argument `a`; a gate is one over the bound System's config `c`.
#define STAT_READER(T, expr)                                             \
    [](const void *obj, [[maybe_unused]] int i,                         \
       [[maybe_unused]] int a) -> T {                                    \
        const System &s = *static_cast<const System *>(obj);            \
        return expr;                                                     \
    }
#define STAT_COUNTER(name, expr)                                         \
    StatRow{.path = name, .counter = STAT_READER(std::uint64_t, expr)}
#define STAT_HIST(name, expr)                                            \
    StatRow{.path = name,                                                \
            .hist = STAT_READER(const Histogram *, &(expr))}
#define STAT_LAT(name, expr)                                             \
    StatRow{.path = name,                                                \
            .lat = STAT_READER(const LatencyStat *, &(expr))}
#define STAT_GATE(expr)                                                  \
    [](const void *obj) {                                                \
        const Config &c = static_cast<const System *>(obj)->_cfg;       \
        return expr;                                                     \
    }

const StatSchema &
System::statsSchema()
{
    // Built once per process; function-local statics initialise
    // thread-safely, and SweepRunner constructs Systems on several
    // threads.
    static const StatSchema schema = [] {
        std::vector<StatRow> global;
        auto add = [&global](StatRow::GateFn gate,
                             std::initializer_list<StatRow> rows) {
            for (StatRow r : rows) {
                r.gate = gate;
                global.push_back(std::move(r));
            }
        };
        auto withArg = [](StatRow r, int arg) {
            r.arg = arg;
            return r;
        };

        // Global simulation and network counters.
        add(nullptr,
            {STAT_COUNTER("sim.ticks", s._eq.now()),
             STAT_COUNTER("sim.events", s._eq.eventsExecuted()),
             STAT_COUNTER("net.messages", s._mesh.stats().messages),
             STAT_COUNTER("net.flits", s._mesh.stats().flits),
             STAT_COUNTER("net.local", s._mesh.stats().local),
             STAT_COUNTER("net.hop_sum", s._mesh.stats().hop_sum)});

        // Every optional group below is present only while its feature
        // is on, so runs without it keep their exact JSON shape.

        // Transaction-tracer attribution (global, not per-node). The
        // tail scalars are computed only when the registry is rendered
        // or snapshotted; the full conditional breakdown is exported
        // via PhaseAttribution::tailJson().
        StatRow::GateFn txn = STAT_GATE(c.txn_trace.enabled);
        add(txn,
            {STAT_COUNTER("txn.completed", s._txns.completed()),
             STAT_COUNTER("txn.records_kept", s._txns.records().size()),
             STAT_COUNTER("txn.records_dropped", *s._txns.droppedCounter()),
             STAT_COUNTER("txn.phase_sum_mismatches",
                          *s._txns.mismatchCounter()),
             STAT_COUNTER("txn.chain_divergences",
                          *s._txns.divergenceCounter()),
             STAT_HIST("txn.retries", *s._txns.attribution().retriesHist()),
             STAT_HIST("txn.fanout", *s._txns.attribution().fanoutHist()),
             STAT_HIST("txn.observed_chain",
                       *s._txns.attribution().chainHist()),
             STAT_COUNTER("txn.tail.records",
                          s._txns.attribution().tailRecords()),
             STAT_COUNTER("txn.tail.dropped",
                          s._txns.attribution().tailDropped()),
             STAT_COUNTER("txn.tail.p90_threshold",
                          s._txns.attribution().tailCut(0.90).threshold),
             STAT_COUNTER("txn.tail.p99_threshold",
                          s._txns.attribution().tailCut(0.99).threshold)});
        for (int op = 0; op < NUM_ATOMIC_OPS; ++op) {
            std::string base = std::string("txn.ops.") +
                               toString(static_cast<AtomicOp>(op));
            add(txn, {withArg(STAT_LAT(base + ".total",
                                       *s._txns.attribution().totalStat(a)),
                              op)});
            for (int ph = 0; ph < NUM_TXN_PHASES; ++ph)
                add(txn,
                    {withArg(STAT_LAT(base + ".phases." +
                                          toString(static_cast<TxnPhase>(ph)),
                                      *s._txns.attribution().phaseStat(
                                          a / NUM_TXN_PHASES,
                                          a % NUM_TXN_PHASES)),
                             op * NUM_TXN_PHASES + ph)});
        }

        // Fault injection: loss counters only when loss is armed and
        // chaos counters only when a chaos axis is, so legacy and
        // loss-only runs keep their exact JSON shape.
        add(STAT_GATE(c.faults.enabled),
            {STAT_COUNTER("fault.jitter_applied",
                          s._faults.counters().jitter_applied),
             STAT_COUNTER("fault.jitter_cycles",
                          s._faults.counters().jitter_cycles),
             STAT_COUNTER("fault.resv_drops", s._faults.counters().resv_drops),
             STAT_COUNTER("fault.forced_evictions",
                          s._faults.counters().forced_evictions),
             STAT_COUNTER("fault.nacks_injected",
                          s._faults.counters().nacks_injected)});
        add(STAT_GATE(c.faults.lossEnabled()),
            {STAT_COUNTER("fault.msg_drops", s._faults.counters().msg_drops),
             STAT_COUNTER("fault.flaky_drops",
                          s._faults.counters().flaky_drops)});
        add(STAT_GATE(c.faults.chaosEnabled()),
            {STAT_COUNTER("fault.msg_reorders",
                          s._faults.counters().msg_reorders),
             STAT_COUNTER("fault.msg_dups", s._faults.counters().msg_dups),
             STAT_COUNTER("fault.msg_corruptions",
                          s._faults.counters().msg_corruptions)});
        add(STAT_GATE(c.watchdog.enabled),
            {STAT_COUNTER("fault.watchdog_trips",
                          *s._watchdog.tripsCounter())});

        // Loss recovery, with the faulty-channel ledger only when a
        // chaos axis is armed.
        add(STAT_GATE(c.faults.recoveryEnabled()),
            {STAT_COUNTER("recovery.drops", s._recovery.counters().drops),
             STAT_COUNTER("recovery.req_drops",
                          s._recovery.counters().req_drops),
             STAT_COUNTER("recovery.reply_drops",
                          s._recovery.counters().reply_drops),
             STAT_COUNTER("recovery.retransmit_covered",
                          s._recovery.counters().retransmit_covered),
             STAT_COUNTER("recovery.quarantine_covered",
                          s._recovery.counters().quarantine_covered),
             STAT_COUNTER("recovery.pending_drops",
                          s._recovery.pendingDrops()),
             STAT_COUNTER("recovery.retransmits",
                          s._recovery.counters().retransmits),
             STAT_COUNTER("recovery.stale_replies",
                          s._recovery.counters().stale_replies),
             STAT_COUNTER("recovery.nacks_lost",
                          s._recovery.counters().nacks_lost),
             STAT_COUNTER("recovery.nacks_stale",
                          s._recovery.counters().nacks_stale),
             STAT_COUNTER("recovery.nacks_replayed",
                          s._recovery.counters().nacks_replayed),
             STAT_COUNTER("recovery.dup_requests",
                          s._recovery.counters().dup_requests),
             STAT_COUNTER("recovery.dup_replayed",
                          s._recovery.counters().dup_replayed),
             STAT_COUNTER("recovery.dup_reprocessed",
                          s._recovery.counters().dup_reprocessed),
             STAT_COUNTER("recovery.dup_in_progress",
                          s._recovery.counters().dup_in_progress),
             STAT_COUNTER("recovery.dup_stale",
                          s._recovery.counters().dup_stale),
             STAT_COUNTER("recovery.links_quarantined",
                          s._recovery.counters().links_quarantined)});
        add(STAT_GATE(c.faults.recoveryEnabled() && c.faults.chaosEnabled()),
            {STAT_COUNTER("recovery.corrupt_detected",
                          s._recovery.counters().corrupt_detected),
             STAT_COUNTER("recovery.dups_absorbed",
                          s._recovery.counters().dups_absorbed),
             STAT_COUNTER("recovery.reorders_delivered",
                          s._recovery.counters().reorders_delivered)});

        // Open-loop serving, with edge-shed attribution only when the
        // serving layer can throttle.
        add(STAT_GATE(c.openloop.enabled),
            {STAT_COUNTER("openloop.offered", s._admission.stats().offered),
             STAT_COUNTER("openloop.admitted", s._admission.stats().admitted),
             STAT_COUNTER("openloop.rejected", s._admission.stats().rejected),
             STAT_COUNTER("openloop.completed",
                          s._admission.stats().completed),
             STAT_COUNTER("openloop.slo_violations",
                          s._admission.stats().slo_violations),
             STAT_HIST("openloop.depth_on_arrival",
                       s._admission.stats().depth_on_arrival),
             STAT_LAT("openloop.admission_wait",
                      s._admission.stats().admission_wait),
             STAT_LAT("openloop.sojourn", s._admission.stats().sojourn)});
        add(STAT_GATE(c.openloop.enabled && c.serve.enabled),
            {STAT_COUNTER("openloop.rejected_throttled",
                          s._admission.stats().rejected_throttled)});

        // Overload-protection serving.
        add(STAT_GATE(c.serve.enabled),
            {STAT_COUNTER("serve.slots", s._serve_stats.slots),
             STAT_COUNTER("serve.served", s._serve_stats.served),
             STAT_COUNTER("serve.hi_served", s._serve_stats.hi_served),
             STAT_COUNTER("serve.lo_served", s._serve_stats.lo_served),
             STAT_COUNTER("serve.aged", s._serve_stats.aged),
             STAT_COUNTER("serve.batches", s._serve_stats.batches),
             STAT_COUNTER("serve.coalesced", s._serve_stats.coalesced),
             STAT_COUNTER("serve.throttle_events",
                          s._serve_stats.throttle_events),
             STAT_COUNTER("serve.throttle_cycles",
                          s._serve_stats.throttle_cycles),
             STAT_COUNTER("serve.backoff_capped",
                          s._serve_stats.backoff_capped)});

        // Telemetry accounting.
        add(STAT_GATE(c.telemetry.enabled),
            {STAT_COUNTER("timeseries.windows", s._telemetry.windowsSampled()),
             STAT_COUNTER("timeseries.windows_evicted",
                          s._telemetry.windowsEvicted()),
             STAT_COUNTER("timeseries.series", s._telemetry.numSeries()),
             STAT_COUNTER("timeseries.lines_tracked",
                          s._line_prof.linesTracked())});

        // Event-trace ring accounting: the ring silently overwrites its
        // oldest records, so surface how many were lost.
        add(STAT_GATE(c.trace.enabled),
            {STAT_COUNTER("trace.recorded", s._tracer.totalRecorded()),
             STAT_COUNTER("trace.dropped", s._tracer.dropped())});

        // Per-node component counters, read from storage sized once by
        // the constructor.
        std::vector<StatRow> node = {
            STAT_COUNTER("proto.nacks", s._node_stats[i].nacks),
            STAT_COUNTER("proto.retries", s._node_stats[i].retries),
            STAT_COUNTER("proto.invalidations",
                         s._node_stats[i].invalidations),
            STAT_COUNTER("proto.updates", s._node_stats[i].updates),
            STAT_COUNTER("proto.writebacks", s._node_stats[i].writebacks),
            STAT_COUNTER("proto.drop_notifies",
                         s._node_stats[i].drop_notifies),
            STAT_COUNTER("proto.sc_successes", s._node_stats[i].sc_successes),
            STAT_COUNTER("proto.sc_failures", s._node_stats[i].sc_failures),
            STAT_COUNTER("proto.cas_successes",
                         s._node_stats[i].cas_successes),
            STAT_COUNTER("proto.cas_failures", s._node_stats[i].cas_failures),
            STAT_HIST("proto.chain_length", s._node_stats[i].chain_length),
            STAT_COUNTER("cache.hits", s._ctrls[i]->cache().stats().hits),
            STAT_COUNTER("cache.misses", s._ctrls[i]->cache().stats().misses),
            STAT_COUNTER("cache.evictions",
                         s._ctrls[i]->cache().stats().evictions),
            STAT_COUNTER("cache.invalidations_received",
                         s._ctrls[i]->cache().stats().invalidations_received),
            STAT_COUNTER("mem.accesses", s._mems[i].accesses()),
            STAT_COUNTER("mem.queue_cycles", s._mems[i].queueCycles()),
            STAT_COUNTER("mem.busy_cycles", s._mems[i].busyCycles()),
            STAT_HIST("mem.queue_wait", s._mems[i].queueWait()),
            STAT_COUNTER("dir.transitions", s._dirs[i].transitions()),
            STAT_COUNTER("net.inj_msgs", s._mesh.injMsgs(i)),
            STAT_COUNTER("net.ej_msgs", s._mesh.ejMsgs(i)),
            STAT_COUNTER("net.inj_flits", s._mesh.injFlits(i)),
            STAT_COUNTER("proc.ops_issued", s._procs[i]->opsIssued()),
        };
        for (int op = 0; op < NUM_ATOMIC_OPS; ++op)
            node.push_back(withArg(
                STAT_LAT(std::string("proto.ops.") +
                             toString(static_cast<AtomicOp>(op)),
                         s._node_stats[i].op_latency[a]),
                op));
        return StatSchema(std::move(global), std::move(node));
    }();
    return schema;
}

#undef STAT_GATE
#undef STAT_LAT
#undef STAT_HIST
#undef STAT_COUNTER
#undef STAT_READER

void
System::scheduleSpuriousInvalidation()
{
    _eq.scheduleIn(_cfg.machine.spurious_resv_period, [this] {
        for (auto &c : _ctrls)
            c->cache().clearReservation();
        // Keep firing only while work remains; otherwise the event
        // queue could never drain.
        if (tasksPending() > 0)
            scheduleSpuriousInvalidation();
    });
}

void
System::scheduleWatchdogScan()
{
    _eq.scheduleIn(_cfg.watchdog.scan_period, [this] {
        _watchdog.scan(*this);
        // Stop re-arming once tripped or idle so the queue can drain.
        if (tasksPending() > 0 && !_watchdog.tripped())
            scheduleWatchdogScan();
    });
}

Addr
System::alloc(std::size_t bytes, std::size_t align)
{
    dsm_assert(align > 0 && (align & (align - 1)) == 0,
               "alignment must be a power of two");
    Addr a = (_next_alloc + align - 1) & ~static_cast<Addr>(align - 1);
    _next_alloc = a + bytes;
    return a;
}

Addr
System::allocSync()
{
    Addr a = alloc(BLOCK_BYTES, BLOCK_BYTES);
    markSync(a);
    return a;
}

Addr
System::allocAt(NodeId home, std::size_t bytes)
{
    dsm_assert(home >= 0 && home < numProcs(), "bad home node %d", home);
    // Advance to the next block whose home is the requested node.
    Addr a = (_next_alloc + BLOCK_BYTES - 1) &
             ~static_cast<Addr>(BLOCK_BYTES - 1);
    while (homeOf(a) != home)
        a += BLOCK_BYTES;
    _next_alloc = a + bytes;
    return a;
}

Addr
System::allocSyncAt(NodeId home)
{
    Addr a = allocAt(home, BLOCK_BYTES);
    markSync(a);
    return a;
}

Word
System::debugRead(Addr a) const
{
    for (const auto &c : _ctrls) {
        const CacheLine *line = c->cache().peek(a);
        if (line != nullptr && line->state == LineState::EXCLUSIVE)
            return line->readWord(a);
    }
    return _store.readWord(a);
}

void
System::spawn(Task t)
{
    dsm_assert(!t.done(), "spawning a completed task");
    std::coroutine_handle<> h = t.handle();
    _tasks.push_back(std::move(t));
    _eq.schedule(_eq.now(), [h] { h.resume(); });
}

int
System::tasksPending() const
{
    int n = 0;
    for (const Task &t : _tasks)
        if (!t.done())
            ++n;
    return n;
}

void
System::reapTasks()
{
    std::erase_if(_tasks, [](const Task &t) { return t.done(); });
}

std::string
System::report() const
{
    std::string out;
    out += csprintf("machine: %d procs (%dx%d mesh), %u-set %u-way "
                    "caches, mem=%llu cy, hop=%llu cy\n",
                    _cfg.machine.num_procs, _cfg.machine.mesh_x,
                    _cfg.machine.mesh_y, _cfg.machine.cache_sets,
                    _cfg.machine.cache_ways,
                    (unsigned long long)_cfg.machine.mem_service_time,
                    (unsigned long long)_cfg.machine.hop_latency);
    out += csprintf("sync implementation: %s (policy %s)\n",
                    _cfg.sync.label().c_str(),
                    toString(_cfg.sync.policy));
    out += csprintf("time: %llu cycles, %llu events\n",
                    (unsigned long long)_eq.now(),
                    (unsigned long long)_eq.eventsExecuted());

    const MeshStats &ms = _mesh.stats();
    out += csprintf("network: %llu messages (%llu flits, %.1f avg hops)"
                    ", %llu local deliveries\n",
                    (unsigned long long)ms.messages,
                    (unsigned long long)ms.flits,
                    ms.messages ? static_cast<double>(ms.hop_sum) /
                                      static_cast<double>(ms.messages)
                                : 0.0,
                    (unsigned long long)ms.local);

    std::uint64_t mem_acc = 0, mem_queue = 0;
    for (const MemModule &m : _mems) {
        mem_acc += m.accesses();
        mem_queue += m.queueCycles();
    }
    out += csprintf("memory: %llu accesses, %llu queueing cycles\n",
                    (unsigned long long)mem_acc,
                    (unsigned long long)mem_queue);

    std::uint64_t hits = 0, misses = 0, evictions = 0, invs = 0;
    for (const auto &c : _ctrls) {
        const CacheStats &cs = c->cache().stats();
        hits += cs.hits;
        misses += cs.misses;
        evictions += cs.evictions;
        invs += cs.invalidations_received;
    }
    out += csprintf("caches: %llu hits, %llu misses, %llu evictions, "
                    "%llu invalidations received\n",
                    (unsigned long long)hits, (unsigned long long)misses,
                    (unsigned long long)evictions,
                    (unsigned long long)invs);
    out += stats().report();
    return out;
}

std::string
System::telemetryJson()
{
    if (_cfg.telemetry.enabled)
        _telemetry.finalize(_eq.now());
    JsonWriter w;
    w.beginObject();
    w.key("timeseries");
    _telemetry.writeJson(w);
    w.kv("lines_tracked", _line_prof.linesTracked());
    w.key("hot_lines");
    w.beginArray();
    for (const LineProfiler::Ranked &r :
         _line_prof.ranked(_cfg.telemetry.hot_lines)) {
        w.beginObject();
        w.kv("addr", static_cast<std::uint64_t>(r.addr));
        w.kv("home", static_cast<int>(homeOf(r.addr)));
        w.kv("sync", isSync(r.addr));
        w.kv("requests", r.prof.requests);
        w.kv("service_cycles", r.prof.service_cycles);
        w.kv("nacks", r.prof.nacks);
        w.kv("migrations", r.prof.migrations);
        w.kv("sharer_joins", r.prof.sharer_joins);
        w.kv("invalidations", r.prof.invalidations);
        w.kv("score", r.prof.score());
        w.endObject();
    }
    w.endArray();
    // Cumulative offered load per directed link, row-major
    // (src * nodes + dst) — the mesh heatmap of the HTML report.
    w.key("links");
    w.beginObject();
    w.kv("nodes", numProcs());
    w.kv("mesh_x", _cfg.machine.mesh_x);
    w.kv("mesh_y", _cfg.machine.mesh_y);
    w.key("flits");
    w.beginArray();
    for (int a = 0; a < numProcs(); ++a)
        for (int b = 0; b < numProcs(); ++b)
            w.value(_mesh.linkFlits(a, b));
    w.endArray();
    w.endObject();
    // Tail-latency section: conditional p90/p99 phase attribution and
    // the slowest-transaction exemplars, plus the open-loop serving
    // counters when an arrival process drove the run. Present only
    // when transaction tracing is on (the attribution source).
    if (_cfg.txn_trace.enabled) {
        w.key("tail");
        w.beginObject();
        w.key("attribution");
        w.raw(_txns.attribution().tailJson());
        w.key("exemplars");
        w.raw(_txns.exemplarsJson());
        if (_cfg.openloop.enabled) {
            const OpenLoopStats &os = _admission.stats();
            w.key("openloop");
            w.beginObject();
            w.kv("offered", os.offered);
            w.kv("admitted", os.admitted);
            w.kv("rejected", os.rejected);
            w.kv("completed", os.completed);
            w.kv("slo_cycles",
                 static_cast<std::uint64_t>(_cfg.openloop.slo_cycles));
            w.kv("slo_violations", os.slo_violations);
            w.key("sojourn");
            w.beginObject();
            w.kv("count", os.sojourn.count);
            w.kv("mean", os.sojourn.mean());
            w.kv("p50", static_cast<std::uint64_t>(os.sojourn.p50()));
            w.kv("p99", static_cast<std::uint64_t>(os.sojourn.p99()));
            w.kv("p999", static_cast<std::uint64_t>(os.sojourn.p999()));
            w.kv("max", static_cast<std::uint64_t>(os.sojourn.max));
            w.endObject();
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();
    return w.str();
}

RunResult
System::run(Tick max_ticks)
{
    RunResult r;
    Tick deadline = _eq.now() + max_ticks;
    while (tasksPending() > 0) {
        if (_cfg.watchdog.enabled && _watchdog.tripped()) {
            r.livelocked = true;
            r.diagnosis = _watchdog.diagnosis();
            break;
        }
        if (_eq.empty()) {
            r.deadlocked = true;
            r.diagnosis = "deadlock: event queue drained with tasks "
                          "still blocked\n" +
                          Watchdog::blockedTxnDump(*this);
            break;
        }
        if (_eq.now() > deadline)
            break;
        // Step in small chunks so the (O(tasks)) pending check does not
        // dominate event processing.
        for (int i = 0; i < 64 && !_eq.empty(); ++i)
            _eq.step();
    }
    r.completed = tasksPending() == 0;
    if (r.completed) {
        // Quiesce: drain in-flight protocol traffic (write-backs,
        // acknowledgements) so memory reaches its final state.
        _eq.run();
    }
    r.end_tick = _eq.now();
    r.events = _eq.eventsExecuted();
    return r;
}

} // namespace dsm
