#include "cpu/proc.hh"

#include "cpu/system.hh"

namespace dsm {

Proc::Proc(System &sys, NodeId id) : _sys(sys), _id(id) {}

void
Proc::issue(Op &o)
{
    _op = &o;
    _is_sync = _sys.isSync(o.addr) && o.op != AtomicOp::DROP_COPY;
    // Contention (Figure 2) counts processors concurrently *attempting
    // an atomic access*; ordinary loads (e.g. test-and-test-and-set
    // spinning on a cached copy) are not attempts. Write-run tracking
    // counts every access: reads by other processors end a run.
    _is_attempt = _is_sync && (isAtomic(o.op) || o.op == AtomicOp::LL ||
                               o.op == AtomicOp::LLS);
    start();
}

void
Proc::start()
{
    Op &o = *_op;
    ++_ops_issued;
    Controller &ctrl = _sys.ctrl(_id);
    if (o.until.test != nullptr && ctrl.loadHit(o.addr, _is_sync, o.until))
        return;
    if (_is_attempt)
        _sys.sharing().beginAttempt(o.addr, _id);
    ctrl.cpuRequest(o.op, o.addr, o.value, o.expected);
}

std::uint64_t
Proc::opsIssued()
{
    _sys.ctrl(_id).settleSpin();
    return _ops_issued;
}

void
Proc::complete(const OpResult &r)
{
    Op &o = *_op;
    if (_is_attempt)
        _sys.sharing().endAttempt(o.addr, _id);
    if (_is_sync)
        _sys.sharing().recordAccess(o.addr, _id,
                                    effectiveWrite(o.op, r.success));
    if (o.until.test != nullptr && !o.until(r.value)) {
        start();
        return;
    }
    o.result = r;
    // Last: the resumed coroutine may issue its next operation, and so
    // replace _op, before resume() returns.
    o.waiter.resume();
}

void
Proc::Delay::await_suspend(std::coroutine_handle<> h)
{
    Tick d = cycles > 0 ? cycles : 1;
    proc._sys.eq().scheduleIn(d, [h] { h.resume(); });
}

} // namespace dsm
