#include "cpu/proc.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

Proc::Proc(System &sys, NodeId id) : _sys(sys), _id(id) {}

void
Proc::issue(AtomicOp op, Addr a, Word v, Word exp, Controller::DoneFn done)
{
    ++_ops_issued;
    bool is_sync = _sys.isSync(a) && op != AtomicOp::DROP_COPY;
    // Contention (Figure 2) counts processors concurrently *attempting
    // an atomic access*; ordinary loads (e.g. test-and-test-and-set
    // spinning on a cached copy) are not attempts. Write-run tracking
    // counts every access: reads by other processors end a run.
    bool is_attempt = is_sync && (isAtomic(op) || op == AtomicOp::LL ||
                                  op == AtomicOp::LLS);
    if (is_attempt)
        _sys.sharing().beginAttempt(a, _id);

    // If previous attempts on an acquire loop failed, tell the
    // transaction tracer how many spin iterations preceded this issue.
    if (_sys.txns().enabled() && _fail_streak > 0)
        _sys.txns().noteLoopIter(_id, _fail_streak);

    NodeId id = _id;
    Addr addr = a;
    AtomicOp the_op = op;
    System *sys = &_sys;
    Proc *self = this;
    _sys.ctrl(_id).cpuRequest(
        op, a, v, exp,
        [sys, id, addr, the_op, is_sync, is_attempt, self,
         done = std::move(done)](OpResult r) {
            if (is_attempt)
                sys->sharing().endAttempt(addr, id);
            if (is_sync)
                sys->sharing().recordAccess(addr, id,
                                            effectiveWrite(the_op, r.success));
            self->noteResult(the_op, r);
            done(r);
        });
}

void
Proc::noteResult(AtomicOp op, const OpResult &r)
{
    switch (op) {
      case AtomicOp::TAS:
        // A test_and_set that reads 1 found the lock held: a spin.
        _fail_streak = r.value != 0 ? _fail_streak + 1 : 0;
        break;
      case AtomicOp::CAS:
      case AtomicOp::SC:
      case AtomicOp::SCS:
        _fail_streak = r.success ? 0 : _fail_streak + 1;
        break;
      case AtomicOp::STORE:
      case AtomicOp::FAA:
      case AtomicOp::FAS:
      case AtomicOp::FAO:
        _fail_streak = 0;
        break;
      default:
        // Loads (incl. LL/LLS) neither succeed nor fail an acquire.
        break;
    }
}

void
Proc::Op::await_suspend(std::coroutine_handle<> h)
{
    proc.issue(op, addr, value, expected,
               [this, h](OpResult r) {
                   result = r;
                   h.resume();
               });
}

void
Proc::spinIssue(SpinLoad &s)
{
    bool is_sync = _sys.isSync(s.addr);
    Word value = 0;
    if (!_sys.ctrl(_id).loadHit(s.addr, is_sync, &value)) {
        issue(AtomicOp::LOAD, s.addr, 0, 0,
              [this, &s](OpResult r) { spinResult(s, r); });
        return;
    }
    // The hit's completion: what issue()'s completion callback and
    // Controller::finishNow() do for a load hit, and nothing else.
    ++_ops_issued;
    _sys.eq().scheduleIn(
        _sys.cfg().machine.cache_hit_latency,
        [this, &s, value, is_sync] {
            _sys.ctrl(_id).finishLoadHit();
            if (is_sync)
                _sys.sharing().recordAccess(s.addr, _id, false);
            spinResult(s, OpResult{value, true, 0});
        });
}

void
Proc::spinResult(SpinLoad &s, const OpResult &r)
{
    if (s.until(r.value)) {
        s.result = r;
        s.waiter.resume();
    } else {
        spinIssue(s);
    }
}

void
Proc::Delay::await_suspend(std::coroutine_handle<> h)
{
    Tick d = cycles > 0 ? cycles : 1;
    proc._sys.eq().scheduleIn(d, [h] { h.resume(); });
}

} // namespace dsm
