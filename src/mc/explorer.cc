/**
 * @file
 * Exhaustive small-configuration model checker (see explorer.hh).
 *
 * The explorer is the second driver of the pure transition functions:
 * where proto/controller.cc commits outcomes against the event-driven
 * System, this file commits them against an explicit World value and
 * enumerates every delivery interleaving by DFS. Nothing here
 * re-implements protocol logic — every state change flows through
 * tf::issue / tf::step / tf::dispatch / tf::retransmit, and every
 * invariant runs through the shared proto/checker.cc entry points
 * (checkCoherenceView, checkChainFacts).
 */

#include "mc/explorer.hh"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mem/home_queue.hh"
#include "proto/checker.hh"
#include "proto/transition.hh"
#include "sim/logging.hh"

namespace dsm {
namespace mc {

namespace {

/** The single synchronization block the explorer models. */
constexpr Addr MC_BLOCK = BLOCK_BYTES;
/** The counter word (first word of the block). */
constexpr Addr MC_ADDR = MC_BLOCK;

/**
 * Per-processor program state: a coroutine-free mirror of
 * LockFreeCounter::fetchAdd's per-primitive loops
 * (sync/lockfree_counter.cc). FAP issues one fetch_and_add; CAS issues
 * LOAD then CAS(old, old+1) until the CAS succeeds; LLSC issues LL
 * then SC(old+1) until the SC succeeds. `temp` holds the loaded/linked
 * value feeding the second micro-op; `observed` collects the old value
 * of each completed fetch&add for the terminal serial-history check.
 */
struct ProcSM
{
    int ops_done = 0;
    /** 0 = issue FAA / LOAD / LL next; 1 = issue CAS / SC next. */
    int micro = 0;
    Word temp = 0;
    std::vector<Word> observed;
};

/** One complete system configuration (the value DFS explores over). */
struct World
{
    std::vector<tf::CtrlState> node;
    std::vector<ProcSM> proc;
    /** chan[src * N + dst]: in-order per-link channels (mesh FIFO). */
    std::vector<std::vector<Msg>> chan;
    /** The single block's directory entry (lives at the home node). */
    DirEntry dir;
    std::array<Word, BLOCK_WORDS> mem{};
    /** NACKed transactions whose driver retry has not yet fired. */
    std::vector<bool> retry_token;
    /** A message owned by node i was lost; its timeout has not fired. */
    std::vector<bool> lost;
    int loss_left = 0;
    int reorder_left = 0;
    int dup_left = 0;
    /** Table 1 facts for each node's in-flight operation. */
    std::vector<ChainFact> fact;
};

/** A choice the scheduler can make in some state. */
struct Transition
{
    /**
     * COMBINE (mc.combining only) models the serving layer's home-node
     * batch: the first channel head addressed to the home that passes
     * the controller's leader rule (HomeQueue::leads) leads, and every
     * head that combines with it is popped in src order and served in
     * one tf::deliverCombined call. Partial batches are covered by
     * DELIVER interleavings (deliver some heads singly, then combine
     * the rest), so one maximal COMBINE per state spans the subset
     * space without blow-up.
     */
    /**
     * REORDER (mc.reorder_budget) delivers a sequence-guarded message
     * sitting *behind* the head of its channel, modeling the mesh's
     * bounded-skew fault that bypasses the FIFO ejection reservation.
     * DUPLICATE (mc.dup_budget) delivers a replayed-flagged copy of a
     * sequence-guarded channel head while the original stays queued —
     * the epoch/sequence guards must absorb the copy regardless of
     * which of the two is processed first.
     */
    enum Kind { ISSUE, DELIVER, RETRY, TIMEOUT, DROP, COMBINE,
                REORDER, DUPLICATE } kind;
    int a = 0; ///< node, or channel src
    int b = 0; ///< channel dst
    int c = 0; ///< in-channel index (REORDER only)
};

/**
 * The node whose recovery machinery owns a message: the requester
 * whose seq it carries. Every request stamps msg.requester
 * (tf buildReq) and every reply echoes it (tf reply), so the fallback
 * is belt and braces for fan-out acknowledgements.
 */
NodeId
seqOwner(const Msg &m)
{
    if (m.requester != INVALID_NODE)
        return m.requester;
    return recoverableReply(m.type) ? m.dst : m.src;
}

void
encU(std::string &k, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        k.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Rename a seq to its per-owner rank (identity for seq 0). */
std::uint64_t
rankOf(const std::vector<std::vector<std::uint64_t>> &ranks,
       NodeId owner, std::uint64_t seq)
{
    if (seq == 0 || owner < 0 ||
        owner >= static_cast<NodeId>(ranks.size()))
        return seq;
    const auto &r = ranks[static_cast<std::size_t>(owner)];
    auto it = std::lower_bound(r.begin(), r.end(), seq);
    dsm_assert(it != r.end() && *it == seq, "mc: unranked seq");
    return static_cast<std::uint64_t>(it - r.begin()) + 1;
}

void
encMsg(std::string &k, const Msg &m,
       const std::vector<std::vector<std::uint64_t>> &ranks)
{
    encU(k, static_cast<std::uint64_t>(m.type));
    encU(k, static_cast<std::uint64_t>(m.src));
    encU(k, static_cast<std::uint64_t>(m.dst));
    encU(k, static_cast<std::uint64_t>(m.requester));
    encU(k, m.addr);
    encU(k, m.word_addr);
    encU(k, static_cast<std::uint64_t>(m.op));
    encU(k, m.value);
    encU(k, m.expected);
    encU(k, m.result);
    encU(k, m.success ? 1 : 0);
    encU(k, m.serial);
    encU(k, static_cast<std::uint64_t>(m.ack_count));
    encU(k, m.has_data ? 1 : 0);
    if (m.has_data)
        for (Word wd : m.data)
            encU(k, wd);
    encU(k, static_cast<std::uint64_t>(m.chain));
    encU(k, rankOf(ranks, seqOwner(m), m.seq));
    encU(k, static_cast<std::uint64_t>(m.attempt));
}

class Explorer : public tf::StepCtx
{
  public:
    explicit Explorer(const Config &user)
    {
        // Build the closed-system configuration: mc.nodes processors,
        // a direct-mapped single-set cache (so LRU state never
        // matters), and — when a loss budget is granted — the recovery
        // layer armed with the explorer itself choosing what gets lost
        // (msg_drop_prob stays 0: drops are transitions, not dice).
        _cfg = user;
        _cfg.machine.num_procs = user.mc.nodes;
        _cfg.machine.mesh_x = user.mc.nodes;
        _cfg.machine.mesh_y = 1;
        _cfg.machine.cache_sets = 1;
        _cfg.machine.cache_ways = 1;
        _cfg.faults = FaultConfig{};
        if (user.mc.loss_budget > 0 || user.mc.reorder_budget > 0 ||
            user.mc.dup_budget > 0) {
            // Reordering and duplication are only observable on
            // sequence-stamped messages, so every faulty-channel budget
            // arms the recovery layer (sequence guards + dedup tables).
            _cfg.faults.enabled = true;
            _cfg.faults.req_timeout = 100;
        }
        if (user.mc.reorder_budget > 0) {
            // Arms FaultConfig::reorderPossible() so the pure
            // transitions track fill races exactly as a chaos run does
            // (no FaultPlan is built here — the probability itself is
            // never drawn).
            _cfg.faults.reorder_prob = 1.0;
        }
        _n = _cfg.machine.num_procs;
        _ops = user.mc.ops_per_proc;
        _prim = user.mc.primitive;
        _max_states = user.mc.max_states;
        _budget = user.mc.loss_budget;
        _reorder_budget = user.mc.reorder_budget;
        _dup_budget = user.mc.dup_budget;
        _combining = user.mc.combining;
        _home = homeOf(MC_BLOCK, _n);
    }

    Result run();

    /** @name tf::StepCtx over the world currently being stepped. @{ */
    bool isSync(Addr a) const override
    {
        return blockBase(a) == MC_BLOCK;
    }

    DirEntry
    dirEntry(Addr block) const override
    {
        dsm_assert(blockBase(block) == MC_BLOCK,
                   "mc: directory access outside the modeled block");
        return _cur->dir;
    }

    Word
    memWord(Addr a) const override
    {
        dsm_assert(blockBase(a) == MC_BLOCK,
                   "mc: memory access outside the modeled block");
        return _cur->mem[wordInBlock(a)];
    }

    std::array<Word, BLOCK_WORDS>
    memBlock(Addr block) const override
    {
        dsm_assert(blockBase(block) == MC_BLOCK,
                   "mc: memory access outside the modeled block");
        return _cur->mem;
    }

    std::uint64_t
    activeTxnId(NodeId n) const override
    {
        return _cur->node[static_cast<std::size_t>(n)].txn.active
                   ? static_cast<std::uint64_t>(n) + 1
                   : 0;
    }
    /** @} */

  private:
    tf::Env
    envFor(NodeId self) const
    {
        tf::Env e;
        e.cfg = &_cfg;
        e.self = self;
        e.ctx = this;
        return e;
    }

    World initialWorld() const;
    std::vector<Transition> enabled(const World &w) const;
    void apply(World &w, const Transition &t);
    void commit(World &w, NodeId self, const tf::Outcome &o);
    void procComplete(World &w, NodeId i, Word value, bool success);

    std::string canonical(const World &w) const;
    std::string dump(const World &w) const;

    void checkEveryState(const World &w);
    void checkQuiescent(const World &w);
    void checkTerminal(const World &w);
    bool quiescent(const World &w) const;
    bool allDone(const World &w) const;

    void
    violation(const World &w, const char *kind, std::string detail)
    {
        if (_result.violations.size() < 32)
            _result.violations.push_back(
                Violation{kind, std::move(detail), dump(w)});
    }

    Config _cfg;
    int _n = 0;
    int _ops = 0;
    Primitive _prim = Primitive::FAP;
    std::uint64_t _max_states = 0;
    int _budget = 0;
    int _reorder_budget = 0;
    int _dup_budget = 0;
    bool _combining = false;
    /** Home node of the modeled block (block-interleaved). */
    NodeId _home = 0;

    /** World the StepCtx callbacks read (set around each tf call). */
    const World *_cur = nullptr;
    Result _result;
};

World
Explorer::initialWorld() const
{
    World w;
    for (int i = 0; i < _n; ++i) {
        w.node.emplace_back(
            static_cast<int>(_cfg.machine.cache_sets),
            static_cast<int>(_cfg.machine.cache_ways));
        if (_cfg.faults.recoveryEnabled())
            w.node.back().dedup.resize(static_cast<std::size_t>(_n));
    }
    w.proc.resize(static_cast<std::size_t>(_n));
    w.chan.resize(static_cast<std::size_t>(_n) * _n);
    w.retry_token.assign(static_cast<std::size_t>(_n), false);
    w.lost.assign(static_cast<std::size_t>(_n), false);
    w.loss_left = _budget;
    w.reorder_left = _reorder_budget;
    w.dup_left = _dup_budget;
    w.fact.resize(static_cast<std::size_t>(_n));
    return w;
}

bool
Explorer::quiescent(const World &w) const
{
    for (const auto &c : w.chan)
        if (!c.empty())
            return false;
    for (int i = 0; i < _n; ++i)
        if (w.node[i].txn.active || w.retry_token[i] || w.lost[i])
            return false;
    return true;
}

bool
Explorer::allDone(const World &w) const
{
    for (int i = 0; i < _n; ++i)
        if (w.proc[i].ops_done < _ops)
            return false;
    return true;
}

std::vector<Transition>
Explorer::enabled(const World &w) const
{
    std::vector<Transition> out;
    for (int i = 0; i < _n; ++i)
        if (!w.node[i].txn.active && w.proc[i].ops_done < _ops)
            out.push_back({Transition::ISSUE, i, 0});
    for (int s = 0; s < _n; ++s)
        for (int d = 0; d < _n; ++d)
            if (!w.chan[static_cast<std::size_t>(s) * _n + d].empty())
                out.push_back({Transition::DELIVER, s, d});
    for (int i = 0; i < _n; ++i)
        if (w.retry_token[i])
            out.push_back({Transition::RETRY, i, 0});
    for (int i = 0; i < _n; ++i)
        if (w.lost[i])
            out.push_back({Transition::TIMEOUT, i, 0});
    if (w.loss_left > 0) {
        for (int s = 0; s < _n; ++s) {
            for (int d = 0; d < _n; ++d) {
                const auto &c =
                    w.chan[static_cast<std::size_t>(s) * _n + d];
                if (c.empty())
                    continue;
                const Msg &m = c.front();
                if (recoverableRequest(m.type) ||
                    recoverableReply(m.type))
                    out.push_back({Transition::DROP, s, d});
            }
        }
    }
    if (w.reorder_left > 0) {
        for (int s = 0; s < _n; ++s) {
            for (int d = 0; d < _n; ++d) {
                const auto &c =
                    w.chan[static_cast<std::size_t>(s) * _n + d];
                for (std::size_t i = 1; i < c.size(); ++i)
                    if (sequenceGuarded(c[i].type) && c[i].seq != 0)
                        out.push_back({Transition::REORDER, s, d,
                                       static_cast<int>(i)});
            }
        }
    }
    if (w.dup_left > 0) {
        for (int s = 0; s < _n; ++s) {
            for (int d = 0; d < _n; ++d) {
                const auto &c =
                    w.chan[static_cast<std::size_t>(s) * _n + d];
                if (!c.empty() && sequenceGuarded(c.front().type) &&
                    c.front().seq != 0)
                    out.push_back({Transition::DUPLICATE, s, d});
            }
        }
    }
    if (_combining) {
        const Msg *lead = nullptr;
        int members = 0;
        for (int s = 0; s < _n; ++s) {
            const auto &c =
                w.chan[static_cast<std::size_t>(s) * _n + _home];
            if (c.empty())
                continue;
            const Msg &m = c.front();
            if (lead == nullptr) {
                if (HomeQueue::leads(m, w.dir)) {
                    lead = &m;
                    members = 1;
                }
            } else if (HomeQueue::combinesWith(*lead, m)) {
                ++members;
            }
        }
        if (members >= 2)
            out.push_back({Transition::COMBINE, 0, 0});
    }
    return out;
}

void
Explorer::procComplete(World &w, NodeId i, Word value, bool success)
{
    // Mirror LockFreeCounter::fetchAdd's control flow for one
    // completed micro-op.
    ProcSM &p = w.proc[static_cast<std::size_t>(i)];
    switch (_prim) {
      case Primitive::FAP:
        p.observed.push_back(value);
        ++p.ops_done;
        break;
      case Primitive::CAS:
      case Primitive::LLSC:
        if (p.micro == 0) {
            p.temp = value;
            p.micro = 1;
        } else {
            if (success) {
                p.observed.push_back(p.temp);
                ++p.ops_done;
            }
            p.micro = 0;
        }
        break;
    }
}

void
Explorer::commit(World &w, NodeId self, const tf::Outcome &o)
{
    for (const tf::MemWrite &mw : o.mem_writes) {
        dsm_assert(blockBase(mw.addr) == MC_BLOCK,
                   "mc: memory write outside the modeled block");
        if (mw.is_block)
            w.mem = mw.block;
        else
            w.mem[wordInBlock(mw.addr)] = mw.word;
    }
    for (const tf::DirWrite &dw : o.dir_writes) {
        dsm_assert(blockBase(dw.addr) == MC_BLOCK,
                   "mc: directory write outside the modeled block");
        w.dir = dw.entry;
    }
    for (const tf::Effect &ef : o.effects) {
        switch (ef.kind) {
          case tf::EffectKind::SEND: {
            const Msg &m = o.msg(ef);
            auto &c = w.chan[static_cast<std::size_t>(self) * _n + m.dst];
            c.push_back(m);
            c.back().src = self;
            break;
          }
          case tf::EffectKind::COMPLETE: {
            // The driver's finishTxn, minus tracers: validate the
            // operation's Table 1 chain fact, retire the transaction,
            // and advance the processor's program.
            ChainFact &f = w.fact[self];
            f.observed_chain = w.node[self].txn.max_chain;
            std::vector<std::string> bad = checkChainFacts({f});
            for (std::string &s : bad)
                violation(w, "chain", std::move(s));
            w.node[self].txn.active = false;
            break;
          }
          case tf::EffectKind::RETRY: {
            // The driver draws a backoff and schedules the dispatch;
            // here the delay is a scheduling choice like any other.
            w.retry_token[self] = true;
            w.fact[self].retry();
            break;
          }
          case tf::EffectKind::TXN_SERVICE:
            if (ef.id != 0)
                w.fact[static_cast<std::size_t>(ef.id - 1)].serve(
                    self, o.facts(ef));
            break;
          case tf::EffectKind::ARM_TIMER:
            // Timeouts are modeled by the lost[] flags: a timer only
            // matters on the branch where its message was dropped.
            break;
          default:
            // Trace / profiler / txn-mark records carry no protocol
            // meaning.
            break;
        }
        // COMPLETE retires the transaction the effect loop may still
        // reference; handle program advancement after the switch so
        // the fact read above sees the pre-completion state.
        if (ef.kind == tf::EffectKind::COMPLETE)
            procComplete(w, self, ef.value, ef.flag);
    }
}

void
Explorer::apply(World &w, const Transition &t)
{
    _cur = &w;
    switch (t.kind) {
      case Transition::ISSUE: {
        tf::OpReq req;
        req.addr = MC_ADDR;
        req.txn_id = static_cast<std::uint64_t>(t.a) + 1;
        const ProcSM &p = w.proc[static_cast<std::size_t>(t.a)];
        switch (_prim) {
          case Primitive::FAP:
            req.op = AtomicOp::FAA;
            req.value = 1;
            break;
          case Primitive::CAS:
            if (p.micro == 0) {
                req.op = AtomicOp::LOAD;
            } else {
                req.op = AtomicOp::CAS;
                req.expected = p.temp;
                req.value = p.temp + 1;
            }
            break;
          case Primitive::LLSC:
            if (p.micro == 0) {
                req.op = AtomicOp::LL;
            } else {
                req.op = AtomicOp::SC;
                req.value = p.temp + 1;
            }
            break;
        }
        ChainFact &f = w.fact[static_cast<std::size_t>(t.a)];
        f = ChainFact{};
        f.op = req.op;
        f.requester = t.a;
        commit(w, t.a, tf::issue(envFor(t.a), w.node[t.a], req));
        break;
      }
      case Transition::DELIVER: {
        auto &c = w.chan[static_cast<std::size_t>(t.a) * _n + t.b];
        Msg m = c.front();
        c.erase(c.begin());
        // The canonical pure step: dedup (when armed) plus delivery.
        tf::StepResult r = tf::step(envFor(t.b), w.node[t.b], m);
        w.node[t.b] = std::move(r.next);
        commit(w, t.b, r.out);
        break;
      }
      case Transition::RETRY: {
        w.retry_token[t.a] = false;
        dsm_assert(w.node[t.a].txn.active,
                   "mc: retry token without an active transaction");
        commit(w, t.a, tf::dispatch(envFor(t.a), w.node[t.a]));
        break;
      }
      case Transition::TIMEOUT: {
        // The driver's recoveryTimeout guards: a timer firing after
        // the response arrived (or the txn retired) simply lapses.
        w.lost[t.a] = false;
        const tf::TxnState &txn = w.node[t.a].txn;
        if (!txn.active || !txn.waiting || txn.resp_seen)
            break;
        commit(w, t.a, tf::retransmit(envFor(t.a), w.node[t.a]));
        break;
      }
      case Transition::DROP: {
        auto &c = w.chan[static_cast<std::size_t>(t.a) * _n + t.b];
        Msg m = c.front();
        c.erase(c.begin());
        --w.loss_left;
        ++_result.losses;
        NodeId owner = seqOwner(m);
        dsm_assert(owner >= 0 && owner < _n,
                   "mc: dropped message with no owner");
        w.lost[static_cast<std::size_t>(owner)] = true;
        break;
      }
      case Transition::REORDER: {
        // Deliver a message from behind the channel head: the mesh's
        // bounded-skew fault lets it bypass the FIFO ejection
        // reservation of everything queued ahead of it.
        auto &c = w.chan[static_cast<std::size_t>(t.a) * _n + t.b];
        Msg m = c[static_cast<std::size_t>(t.c)];
        m.reordered = true;
        c.erase(c.begin() + t.c);
        --w.reorder_left;
        ++_result.reorders;
        tf::StepResult r = tf::step(envFor(t.b), w.node[t.b], m);
        w.node[t.b] = std::move(r.next);
        commit(w, t.b, r.out);
        break;
      }
      case Transition::DUPLICATE: {
        // Deliver a replayed-flagged copy of the head while the
        // original stays queued: the sequence guards must absorb the
        // copy without re-driving the protocol, in either order.
        const auto &c = w.chan[static_cast<std::size_t>(t.a) * _n + t.b];
        Msg dup = c.front();
        dup.replayed = true;
        dup.reordered = false;
        --w.dup_left;
        ++_result.dups;
        tf::StepResult r = tf::step(envFor(t.b), w.node[t.b], dup);
        w.node[t.b] = std::move(r.next);
        commit(w, t.b, r.out);
        break;
      }
      case Transition::COMBINE: {
        // Pop every combinable head in src order, run each member
        // through the home's dedup exactly as the controller does, and
        // serve the survivors in one combined batch.
        std::vector<Msg> batch;
        for (int s = 0; s < _n; ++s) {
            auto &c = w.chan[static_cast<std::size_t>(s) * _n + _home];
            if (c.empty())
                continue;
            const Msg &m = c.front();
            bool take = batch.empty()
                            ? HomeQueue::leads(m, w.dir)
                            : HomeQueue::combinesWith(batch.front(), m);
            if (take) {
                batch.push_back(m);
                c.erase(c.begin());
            }
        }
        dsm_assert(batch.size() >= 2,
                   "mc: COMBINE enabled without a batch");
        ++_result.combines;
        tf::CtrlState &home = w.node[static_cast<std::size_t>(_home)];
        std::vector<Msg> live;
        for (const Msg &m : batch) {
            if (tf::dedupApplies(home, m)) {
                tf::Outcome o;
                bool handled = tf::tryDedup(envFor(_home), home, m, o);
                commit(w, _home, o);
                if (handled)
                    continue;
            }
            live.push_back(m);
        }
        if (live.size() >= 2)
            commit(w, _home,
                   tf::deliverCombined(envFor(_home), home, live));
        else if (live.size() == 1)
            commit(w, _home, tf::deliver(envFor(_home), home, live[0]));
        break;
      }
    }
    _cur = nullptr;
}

std::string
Explorer::canonical(const World &w) const
{
    // Seq rank-renaming: NACK-and-retry cycles mint fresh seqs
    // forever, so raw seq values would make every lap around a retry
    // loop a "new" state. Only the relative order of the live seqs
    // owned by a node matters to the protocol (the dedup table and the
    // stale-reply guard compare with <, >, ==), so each owner's live
    // seqs are renamed to their sorted rank, and next_seq — always the
    // highest assigned — becomes the owner's rank count.
    std::vector<std::vector<std::uint64_t>> ranks(
        static_cast<std::size_t>(_n));
    if (_cfg.faults.recoveryEnabled()) {
        auto note = [&ranks](NodeId owner, std::uint64_t seq) {
            if (seq != 0 && owner >= 0 &&
                owner < static_cast<NodeId>(ranks.size()))
                ranks[static_cast<std::size_t>(owner)].push_back(seq);
        };
        for (int i = 0; i < _n; ++i) {
            const tf::CtrlState &st = w.node[i];
            if (st.txn.active && st.txn.waiting)
                note(i, st.txn.seq);
            for (std::size_t r = 0; r < st.dedup.size(); ++r) {
                note(static_cast<NodeId>(r), st.dedup[r].seq);
                if (st.dedup[r].has_reply)
                    note(static_cast<NodeId>(r),
                         st.dedup[r].reply.seq);
            }
        }
        for (const auto &c : w.chan)
            for (const Msg &m : c)
                note(seqOwner(m), m.seq);
        for (auto &r : ranks) {
            std::sort(r.begin(), r.end());
            r.erase(std::unique(r.begin(), r.end()), r.end());
        }
    }

    std::string k;
    k.reserve(512);
    for (int i = 0; i < _n; ++i) {
        const tf::CtrlState &st = w.node[i];

        // Cache: base/state/data of each valid line. LRU stamps and
        // hit/miss counters never influence a 1-way cache's behavior.
        for (const CacheLine &l : st.cache.lines()) {
            if (!l.valid())
                continue;
            encU(k, l.base);
            encU(k, static_cast<std::uint64_t>(l.state));
            for (Word wd : l.data)
                encU(k, wd);
        }
        encU(k, 0xfeedu); // cache / reservation delimiter
        encU(k, st.cache.reservationValid() ? 1 : 0);
        encU(k, st.cache.reservationValid()
                    ? st.cache.reservationAddr()
                    : 0);

        // Transaction: everything the protocol reads. retries only
        // feeds the driver's backoff draw (and grows without bound in
        // NACK cycles), start/txn_id are fixed here, and seq/attempt/
        // req_type are dead unless a request is outstanding — all
        // excluded so livelock laps fold onto one state.
        const tf::TxnState &t = st.txn;
        encU(k, t.active ? 1 : 0);
        if (t.active) {
            encU(k, static_cast<std::uint64_t>(t.op));
            encU(k, t.addr);
            encU(k, t.value);
            encU(k, t.expected);
            encU(k, t.waiting ? 1 : 0);
            encU(k, t.resp_seen ? 1 : 0);
            encU(k, static_cast<std::uint64_t>(t.acks_needed));
            encU(k, static_cast<std::uint64_t>(t.acks_got));
            encU(k, t.resp_value);
            encU(k, t.resp_success ? 1 : 0);
            encU(k, t.resp_serial);
            encU(k, static_cast<std::uint64_t>(t.max_chain));
            encU(k, static_cast<std::uint64_t>(t.fill_raced));
            if (t.waiting) {
                encU(k, rankOf(ranks, i, t.seq));
                encU(k, static_cast<std::uint64_t>(t.attempt));
                encU(k, static_cast<std::uint64_t>(t.req_type));
            }
        }
        encU(k, ranks[static_cast<std::size_t>(i)].size());
        for (std::size_t r = 0; r < st.dedup.size(); ++r) {
            const tf::DedupEntry &de = st.dedup[r];
            encU(k, rankOf(ranks, static_cast<NodeId>(r), de.seq));
            encU(k, de.has_reply ? 1 : 0);
            if (de.has_reply)
                encMsg(k, de.reply, ranks);
        }
        encU(k, st.resv_denied ? 1 : 0);
        encU(k, st.resv_denied_block);

        // Processor program state.
        const ProcSM &p = w.proc[i];
        encU(k, static_cast<std::uint64_t>(p.ops_done));
        encU(k, static_cast<std::uint64_t>(p.micro));
        encU(k, p.temp);
        for (Word v : p.observed)
            encU(k, v);

        // Active-operation chain fact (checked at COMPLETE, so it is
        // state the checking depends on). The home's dir_state and
        // sharers only feed the divergence text, so they stay out.
        const ChainFact &f = w.fact[i];
        encU(k, static_cast<std::uint64_t>(f.op));
        encU(k, f.serviced ? 1 : 0);
        encU(k, f.service.forwarded ? 1 : 0);
        encU(k, static_cast<std::uint64_t>(f.home));
        encU(k, static_cast<std::uint64_t>(f.service.owner));
        encU(k, f.service.fanout_mask);

        encU(k, w.retry_token[i] ? 1 : 0);
        encU(k, w.lost[i] ? 1 : 0);
    }

    // Directory entry (write serials are bounded by completed writes,
    // so they stay verbatim), memory, channels, loss budget.
    encU(k, static_cast<std::uint64_t>(w.dir.state));
    encU(k, w.dir.sharers);
    encU(k, static_cast<std::uint64_t>(w.dir.owner));
    encU(k, w.dir.busy ? 1 : 0);
    encU(k, static_cast<std::uint64_t>(w.dir.pending_requester));
    encU(k, w.dir.wb_received ? 1 : 0);
    encU(k, w.dir.await_wb ? 1 : 0);
    encU(k, w.dir.reservations);
    encU(k, w.dir.serial);
    for (Word wd : w.mem)
        encU(k, wd);
    for (const auto &c : w.chan) {
        encU(k, c.size());
        for (const Msg &m : c)
            encMsg(k, m, ranks);
    }
    encU(k, static_cast<std::uint64_t>(w.loss_left));
    encU(k, static_cast<std::uint64_t>(w.reorder_left));
    encU(k, static_cast<std::uint64_t>(w.dup_left));
    return k;
}

std::string
Explorer::dump(const World &w) const
{
    std::string out;
    for (int i = 0; i < _n; ++i) {
        out += csprintf("node %d: done %d/%d micro %d temp %llu%s%s\n",
                        i, w.proc[i].ops_done, _ops, w.proc[i].micro,
                        (unsigned long long)w.proc[i].temp,
                        w.retry_token[i] ? " [retry pending]" : "",
                        w.lost[i] ? " [loss outstanding]" : "");
        out += tf::debugString(w.node[i]);
    }
    out += csprintf("dir: state %s sharers %#llx owner %d busy %d "
                    "pending %d wb_received %d await_wb %d resv %#llx\n",
                    toString(w.dir.state),
                    (unsigned long long)w.dir.sharers, w.dir.owner,
                    w.dir.busy ? 1 : 0, w.dir.pending_requester,
                    w.dir.wb_received ? 1 : 0, w.dir.await_wb ? 1 : 0,
                    (unsigned long long)w.dir.reservations);
    out += csprintf("mem[%#llx]:", (unsigned long long)MC_BLOCK);
    for (Word wd : w.mem)
        out += csprintf(" %llu", (unsigned long long)wd);
    out += "\n";
    for (int s = 0; s < _n; ++s)
        for (int d = 0; d < _n; ++d)
            for (const Msg &m :
                 w.chan[static_cast<std::size_t>(s) * _n + d])
                out += csprintf("chan %d->%d: %s", s, d,
                                tf::debugString(m).c_str());
    return out;
}

/** Build the shared-checker snapshot of a world. */
CoherenceView
viewOf(const World &w, const Config &cfg, int n)
{
    CoherenceView v;
    BlockView b;
    b.block = MC_BLOCK;
    b.has_dir = true;
    b.dir = w.dir;
    b.mem = w.mem;
    b.unc_sync = cfg.sync.policy == SyncPolicy::UNC;
    for (NodeId i = 0; i < n; ++i)
        for (const CacheLine &l : w.node[i].cache.lines())
            if (l.valid() && l.base == MC_BLOCK)
                b.copies.push_back(CopyView{i, l.state, l.data});
    v.blocks.push_back(std::move(b));
    return v;
}

void
Explorer::checkEveryState(const World &w)
{
    // Single-writer safety must hold in *every* reachable state, not
    // just quiescent ones: two simultaneous EXCLUSIVE copies would be
    // a real protocol failure mid-flight. (Exclusive-vs-shared overlap
    // is transiently legal while invalidations are in flight, so the
    // full snapshot check waits for quiescence.)
    int exclusives = 0;
    for (int i = 0; i < _n; ++i)
        if (w.node[i].cache.stateOf(MC_ADDR) == LineState::EXCLUSIVE)
            ++exclusives;
    if (exclusives > 1)
        violation(w, "coherence",
                  csprintf("%d exclusive copies coexist", exclusives));
}

void
Explorer::checkQuiescent(const World &w)
{
    for (std::string &s : checkCoherenceView(viewOf(w, _cfg, _n)))
        violation(w, "coherence", std::move(s));
}

void
Explorer::checkTerminal(const World &w)
{
    ++_result.terminals;
    // Value correctness: the completed fetch&adds must form the unique
    // serial history 0, 1, ..., N*ops-1 (each value observed exactly
    // once) and the authoritative copy must hold the total. A
    // lost-then-retransmitted request applied twice (a dedup failure)
    // breaks both.
    std::vector<Word> all;
    for (int i = 0; i < _n; ++i)
        all.insert(all.end(), w.proc[i].observed.begin(),
                   w.proc[i].observed.end());
    std::sort(all.begin(), all.end());
    const std::size_t total = static_cast<std::size_t>(_n) * _ops;
    bool serial_ok = all.size() == total;
    for (std::size_t v = 0; serial_ok && v < all.size(); ++v)
        serial_ok = all[v] == v;
    if (!serial_ok) {
        std::string got;
        for (Word v : all)
            got += csprintf(" %llu", (unsigned long long)v);
        violation(w, "value",
                  csprintf("observed old values {%s } are not the "
                           "serial history {0..%zu}",
                           got.c_str(), total - 1));
    }
    // Under write-invalidate an EXCLUSIVE cached copy — not memory —
    // is the authoritative value (the line is dirty until written
    // back); otherwise every valid copy equals memory (checked by the
    // quiescent snapshot), so memory is authoritative.
    Word final_val = w.mem[wordInBlock(MC_ADDR)];
    for (int i = 0; i < _n; ++i) {
        const CacheLine *l = w.node[i].cache.peek(MC_ADDR);
        if (l != nullptr && l->state == LineState::EXCLUSIVE)
            final_val = l->readWord(MC_ADDR);
    }
    if (final_val != static_cast<Word>(total))
        violation(w, "value",
                  csprintf("final counter value %llu != %zu",
                           (unsigned long long)final_val, total));
}

Result
Explorer::run()
{
    std::unordered_set<std::string> visited;
    // DFS over (world, untried-transition) frames. Worlds are stored
    // by value: small configurations keep them tiny, and explicit
    // frames avoid any recursion-depth concern.
    struct Frame
    {
        World w;
        std::vector<Transition> ts;
        std::size_t next = 0;
    };
    std::vector<Frame> stack;

    World init = initialWorld();
    visited.insert(canonical(init));
    checkEveryState(init);
    stack.push_back(Frame{init, enabled(init), 0});

    while (!stack.empty()) {
        if (visited.size() > _max_states) {
            _result.states = visited.size();
            _result.completed = false;
            return _result;
        }
        Frame &f = stack.back();
        if (f.next == 0) {
            if (f.ts.empty()) {
                if (allDone(f.w))
                    checkTerminal(f.w);
                else
                    violation(f.w, "deadlock",
                              "no enabled transition but programs are "
                              "incomplete");
            } else if (quiescent(f.w)) {
                // No traffic in flight: the full snapshot invariants
                // must hold even though programs will continue.
                checkQuiescent(f.w);
                if (allDone(f.w))
                    checkTerminal(f.w);
            }
        }
        if (f.next >= f.ts.size()) {
            stack.pop_back();
            continue;
        }
        World succ = f.w;
        Transition t = f.ts[f.next++];
        apply(succ, t);
        ++_result.transitions;
        if (visited.insert(canonical(succ)).second) {
            checkEveryState(succ);
            std::vector<Transition> ts = enabled(succ);
            stack.push_back(Frame{std::move(succ), std::move(ts), 0});
            _result.max_depth = std::max<std::uint64_t>(
                _result.max_depth, stack.size());
        }
    }

    _result.states = visited.size();
    _result.completed = true;
    return _result;
}

} // namespace

Result
explore(const Config &cfg)
{
    std::string err = cfg.validate();
    dsm_assert(err.empty(), "mc: invalid configuration: %s",
               err.c_str());
    Explorer e(cfg);
    return e.run();
}

} // namespace mc
} // namespace dsm
