#include "stats/sharing_tracker.hh"

#include "sim/logging.hh"

namespace dsm {

void
SharingTracker::recordAccess(Addr a, NodeId n, bool is_write)
{
    LocState &loc = _locs[wordBase(a)];
    if (is_write) {
        for (NodeId r : loc.parked)
            if (r != n)
                _wake(r);
    }
    if (loc.run_writer != INVALID_NODE && loc.run_writer != n) {
        // Intervening access by another processor ends the run.
        _write_runs.add(loc.run_len);
        loc.run_writer = INVALID_NODE;
        loc.run_len = 0;
    }
    if (is_write) {
        loc.run_writer = n;
        ++loc.run_len;
    }
    // A read by the running writer does not break its own run.
}

bool
SharingTracker::parkReader(Addr a, NodeId n)
{
    LocState &loc = _locs[wordBase(a)];
    loc.parked.push_back(n);
    return loc.run_writer != INVALID_NODE && loc.run_writer != n;
}

void
SharingTracker::unparkReader(Addr a, NodeId n)
{
    std::vector<NodeId> &v = _locs[wordBase(a)].parked;
    std::erase(v, n);
}

void
SharingTracker::beginAttempt(Addr a, NodeId n)
{
    (void)n;
    LocState &loc = _locs[wordBase(a)];
    ++loc.attempts_open;
    _contention.add(static_cast<std::uint64_t>(loc.attempts_open));
}

void
SharingTracker::endAttempt(Addr a, NodeId n)
{
    (void)n;
    LocState &loc = _locs[wordBase(a)];
    dsm_assert(loc.attempts_open > 0,
               "endAttempt with no open attempt at %#llx",
               static_cast<unsigned long long>(a));
    --loc.attempts_open;
}

void
SharingTracker::finalize()
{
    for (auto &kv : _locs) {
        LocState &loc = kv.second;
        if (loc.run_writer != INVALID_NODE && loc.run_len > 0) {
            _write_runs.add(loc.run_len);
            loc.run_writer = INVALID_NODE;
            loc.run_len = 0;
        }
    }
}

void
SharingTracker::clear()
{
    _locs.clear();
    _write_runs.clear();
    _contention.clear();
}

} // namespace dsm
