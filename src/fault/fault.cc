#include "fault/fault.hh"

namespace dsm {

namespace {

/** Parts-per-million scaling for integer probability draws. */
constexpr std::uint64_t PPM = 1000000;

std::uint64_t
toPpm(double p)
{
    return static_cast<std::uint64_t>(p * static_cast<double>(PPM) + 0.5);
}

/** SplitMix64 finalizer: derive an independent stream from a seed. */
std::uint64_t
mixSeed(std::uint64_t s)
{
    std::uint64_t z = s + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

void
FaultPlan::configure(const FaultConfig &cfg, std::uint64_t machine_seed,
                     const MachineConfig &mc)
{
    _cfg = cfg;
    _seed = cfg.seed != 0 ? cfg.seed : mixSeed(machine_seed);
    _rng = Rng(_seed);
    _draws = 0;
    _jitter_ppm = toPpm(cfg.msg_jitter_prob);
    _resv_drop_ppm = toPpm(cfg.resv_drop_prob);
    _evict_ppm = toPpm(cfg.evict_prob);
    _nack_ppm = toPpm(cfg.nack_prob);
    _drop_ppm = toPpm(cfg.msg_drop_prob);
    _flaky_ppm = toPpm(cfg.flaky_drop_prob);
    _reorder_ppm = toPpm(cfg.reorder_prob);
    _dup_ppm = toPpm(cfg.dup_prob);
    _corrupt_ppm = toPpm(cfg.corrupt_prob);
    _nack_streak.assign(static_cast<std::size_t>(mc.num_procs), 0);
    _ctr = Counters();

    // Flaky-link episodes come off the front of the fault stream, so
    // their placement is independent of the workload's message order.
    _episodes.clear();
    if (cfg.flaky_links > 0 && mc.num_procs > 1) {
        for (int i = 0; i < cfg.flaky_links; ++i) {
            FlakyEpisode ep;
            NodeId a = static_cast<NodeId>(
                draw(static_cast<std::uint64_t>(mc.num_procs)));
            int x = a % mc.mesh_x, y = a / mc.mesh_x;
            // Draw an axis+sign; mirror the sign when the neighbour
            // would fall off the grid (draw count stays fixed).
            std::uint64_t dir = draw(4);
            NodeId b = a;
            if ((dir < 2 && mc.mesh_x > 1) || mc.mesh_y == 1) {
                int dx = dir % 2 == 0 ? 1 : -1;
                if (x + dx < 0 || x + dx >= mc.mesh_x)
                    dx = -dx;
                b = a + dx;
            } else {
                int dy = dir % 2 == 0 ? 1 : -1;
                if (y + dy < 0 || y + dy >= mc.mesh_y)
                    dy = -dy;
                b = a + dy * mc.mesh_x;
            }
            ep.from = a;
            ep.to = b;
            ep.start = draw(cfg.flaky_window);
            ++_draws;
            ep.end = ep.start + _rng.range(1, cfg.flaky_duration);
            _episodes.push_back(ep);
        }
    }
}

std::uint64_t
FaultPlan::draw(std::uint64_t bound)
{
    ++_draws;
    return _rng.below(bound);
}

bool
FaultPlan::drawChance(std::uint64_t ppm)
{
    ++_draws;
    return _rng.chance(ppm, PPM);
}

Tick
FaultPlan::messageJitter()
{
    if (_jitter_ppm == 0 || !drawChance(_jitter_ppm))
        return 0;
    ++_draws;
    Tick j = _rng.range(1, _cfg.msg_jitter_max);
    ++_ctr.jitter_applied;
    _ctr.jitter_cycles += j;
    return j;
}

bool
FaultPlan::dropReservation()
{
    if (_resv_drop_ppm == 0 || !drawChance(_resv_drop_ppm))
        return false;
    ++_ctr.resv_drops;
    return true;
}

bool
FaultPlan::forceEviction()
{
    if (_evict_ppm == 0 || !drawChance(_evict_ppm))
        return false;
    ++_ctr.forced_evictions;
    return true;
}

bool
FaultPlan::injectNack(NodeId requester)
{
    if (_nack_ppm == 0)
        return false;
    int &streak = _nack_streak[static_cast<std::size_t>(requester)];
    if (_cfg.max_extra_nacks > 0 && streak >= _cfg.max_extra_nacks) {
        streak = 0;
        return false;
    }
    if (!drawChance(_nack_ppm)) {
        streak = 0;
        return false;
    }
    ++streak;
    ++_ctr.nacks_injected;
    return true;
}

bool
FaultPlan::dropMessage(Tick now, const NodeId *path, int nodes,
                       NodeId &from, NodeId &to)
{
    // Flaky episodes first, link by link in path order: one draw per
    // link whose episode is active at `now`.
    for (int i = 0; i + 1 < nodes; ++i) {
        for (const FlakyEpisode &ep : _episodes) {
            if (ep.from != path[i] || ep.to != path[i + 1] ||
                now < ep.start || now >= ep.end)
                continue;
            if (drawChance(_flaky_ppm)) {
                ++_ctr.flaky_drops;
                from = path[i];
                to = path[i + 1];
                return true;
            }
            break; // one draw per link even with overlapping episodes
        }
    }
    // Then the random per-message loss draw, attributed to the first
    // link the message would have traversed.
    if (_drop_ppm != 0 && drawChance(_drop_ppm)) {
        ++_ctr.msg_drops;
        from = path[0];
        to = path[1];
        return true;
    }
    return false;
}

Tick
FaultPlan::reorderSkew()
{
    if (_reorder_ppm == 0 || !drawChance(_reorder_ppm))
        return 0;
    ++_draws;
    Tick skew = _rng.range(1, _cfg.reorder_max);
    ++_ctr.msg_reorders;
    return skew;
}

Tick
FaultPlan::duplicateDelay()
{
    if (_dup_ppm == 0 || !drawChance(_dup_ppm))
        return 0;
    ++_draws;
    Tick delay = _rng.range(1, _cfg.dup_delay);
    ++_ctr.msg_dups;
    return delay;
}

bool
FaultPlan::corruptMessage(Msg &m)
{
    if (_corrupt_ppm == 0 || !drawChance(_corrupt_ppm))
        return false;
    // Flip one seeded bit in one seeded protocol-visible word. Every
    // corrupted field is covered by Msg::computeChecksum, so the flip
    // is always detected at ejection. Fixed two draws per hit. The
    // checksum only covers the data block when the message carries
    // one, so payload-less messages redirect the data draw to the
    // value word — a flip must never land outside the checksummed
    // footprint or the ledger would count an undetectable hit.
    std::uint64_t field = draw(4);
    if (field == 3 && !m.has_data)
        field = 0;
    std::uint64_t bit = draw(64);
    std::uint64_t mask = 1ULL << bit;
    switch (field) {
      case 0: m.value ^= mask; break;
      case 1: m.result ^= mask; break;
      case 2: m.addr ^= mask; break;
      default:
        m.data[static_cast<std::size_t>(bit % BLOCK_WORDS)] ^= mask;
        break;
    }
    ++_ctr.msg_corruptions;
    return true;
}

} // namespace dsm
