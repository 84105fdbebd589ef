/**
 * @file
 * Directed failure-path tests for the coherence checker: corrupt
 * directory or cache state on purpose and assert that checkCoherence()
 * reports the specific violation (and likewise the serve ledger for
 * checkServeAccounting()). These guard the checker itself — a
 * checker that silently passes corrupted state would mask protocol
 * bugs in every other test and in the fault-injection campaigns.
 */

#include "helpers.hh"

#include "mem/directory.hh"

using namespace dsm;
using namespace dsmtest;

namespace {

/** True if some violation message contains @p needle. */
bool
hasViolation(const std::vector<std::string> &vs, const std::string &needle)
{
    for (const std::string &v : vs)
        if (v.find(needle) != std::string::npos)
            return true;
    return false;
}

std::string
joined(const std::vector<std::string> &vs)
{
    std::string out;
    for (const std::string &v : vs)
        out += v + "\n";
    return out;
}

} // namespace

TEST(Checker, CleanSystemHasNoViolations)
{
    System sys(smallConfig());
    Addr a = sys.allocAt(0, 8);
    runOp(sys, 1, AtomicOp::STORE, a, 42);
    runOp(sys, 2, AtomicOp::LOAD, a);
    EXPECT_TRUE(checkCoherence(sys).empty());
}

TEST(Checker, BusyEntryAfterQuiesce)
{
    System sys(smallConfig());
    Addr a = sys.allocAt(0, 8);
    runOp(sys, 1, AtomicOp::STORE, a, 7);
    sys.dir(0).entry(a).busy = true;
    std::vector<std::string> vs = checkCoherence(sys);
    EXPECT_TRUE(hasViolation(vs, "left busy after quiesce"))
        << joined(vs);
}

TEST(Checker, WrongDirectoryOwner)
{
    System sys(smallConfig());
    Addr a = sys.allocAt(0, 8);
    runOp(sys, 1, AtomicOp::STORE, a, 7);
    DirEntry &e = sys.dir(0).entry(a);
    ASSERT_EQ(e.state, DirState::EXCLUSIVE);
    ASSERT_EQ(e.owner, 1);
    e.owner = 2;
    std::vector<std::string> vs = checkCoherence(sys);
    EXPECT_TRUE(hasViolation(vs, "directory owner")) << joined(vs);
}

TEST(Checker, SharerBitMissing)
{
    System sys(smallConfig());
    Addr a = sys.allocAt(0, 8);
    runOp(sys, 1, AtomicOp::LOAD, a);
    runOp(sys, 2, AtomicOp::LOAD, a);
    DirEntry &e = sys.dir(0).entry(a);
    ASSERT_EQ(e.state, DirState::SHARED);
    ASSERT_TRUE(e.isSharer(2));
    e.removeSharer(2);
    std::vector<std::string> vs = checkCoherence(sys);
    EXPECT_TRUE(hasViolation(vs, "not a sharer")) << joined(vs);
}

TEST(Checker, SharedCopyDivergesFromMemory)
{
    System sys(smallConfig());
    Addr a = sys.allocAt(0, 8);
    runOp(sys, 1, AtomicOp::LOAD, a);
    runOp(sys, 2, AtomicOp::LOAD, a);
    CacheLine *l = sys.ctrl(2).cache().lookup(a);
    ASSERT_NE(l, nullptr);
    ASSERT_EQ(l->state, LineState::SHARED);
    l->writeWord(a, 0xDEADBEEF);
    std::vector<std::string> vs = checkCoherence(sys);
    EXPECT_TRUE(hasViolation(vs, "differs from memory")) << joined(vs);
}

TEST(Checker, CachedWhileDirectoryUncached)
{
    System sys(smallConfig());
    Addr a = sys.allocAt(0, 8);
    runOp(sys, 1, AtomicOp::STORE, a, 7);
    DirEntry &e = sys.dir(0).entry(a);
    ASSERT_EQ(e.state, DirState::EXCLUSIVE);
    e.state = DirState::UNCACHED;
    e.owner = -1;
    std::vector<std::string> vs = checkCoherence(sys);
    EXPECT_TRUE(hasViolation(vs, "cached while directory says uncached"))
        << joined(vs);
}

TEST(Checker, TwoExclusiveCopies)
{
    System sys(smallConfig());
    Addr a = sys.allocAt(0, 8);
    runOp(sys, 1, AtomicOp::STORE, a, 7);
    // Fabricate a second exclusive copy behind the protocol's back.
    Victim v;
    CacheLine *l = sys.ctrl(3).cache().allocate(a, &v);
    l->base = blockBase(a);
    l->state = LineState::EXCLUSIVE;
    std::vector<std::string> vs = checkCoherence(sys);
    EXPECT_TRUE(hasViolation(vs, "exclusive copies")) << joined(vs);
}

TEST(Checker, TwoExclusiveCopiesInTheLastSet)
{
    // The checker reads caches through their built sets only; a block
    // in the last set (the last bit of the set bitmap) must be seen.
    System sys(smallConfig());
    unsigned sets = sys.cfg().machine.cache_sets;
    Addr a = sys.alloc(sets * BLOCK_BYTES, BLOCK_BYTES);
    while ((a / BLOCK_BYTES) % sets != sets - 1)
        a += BLOCK_BYTES;
    runOp(sys, 1, AtomicOp::STORE, a, 7);
    ASSERT_NE(sys.ctrl(1).cache().peek(a), nullptr);
    EXPECT_TRUE(checkCoherence(sys).empty());
    Victim v;
    CacheLine *l = sys.ctrl(2).cache().allocate(a, &v);
    l->state = LineState::EXCLUSIVE;
    std::vector<std::string> vs = checkCoherence(sys);
    EXPECT_TRUE(hasViolation(vs, "exclusive copies")) << joined(vs);
}

TEST(Checker, CachedWithNoDirectoryEntry)
{
    System sys(smallConfig());
    Addr a = sys.allocAt(0, 8);
    Victim v;
    CacheLine *l = sys.ctrl(3).cache().allocate(a, &v);
    l->base = blockBase(a);
    l->state = LineState::SHARED;
    std::vector<std::string> vs = checkCoherence(sys);
    EXPECT_TRUE(hasViolation(vs, "cached with no directory entry"))
        << joined(vs);
}

TEST(Checker, UncSyncBlockCached)
{
    System sys(smallConfig(SyncPolicy::UNC));
    Addr a = sys.allocSyncAt(0);
    // Fabricate an otherwise-consistent shared copy of the UNC sync
    // block: directory says shared-by-3, node 3 holds matching data.
    DirEntry &e = sys.dir(0).entry(a);
    e.state = DirState::SHARED;
    e.addSharer(3);
    Victim v;
    CacheLine *l = sys.ctrl(3).cache().allocate(a, &v);
    l->base = blockBase(a);
    l->state = LineState::SHARED;
    l->data = sys.store().readBlock(a);
    std::vector<std::string> vs = checkCoherence(sys);
    EXPECT_TRUE(hasViolation(vs, "UNC sync block")) << joined(vs);
}

TEST(Checker, ServeLedger)
{
    Config cfg = smallConfig(SyncPolicy::UNC);
    cfg.serve.enabled = true;
    System sys(cfg);
    Addr a = sys.allocSyncAt(0);
    for (NodeId n = 0; n < 4; ++n)
        sys.spawn(doOp(sys.proc(n), AtomicOp::FAA, a, 1, 0, nullptr));
    runAll(sys);
    ASSERT_GT(sys.serveStats().served, 0u);
    std::vector<std::string> clean = checkServeAccounting(sys);
    EXPECT_TRUE(clean.empty()) << joined(clean);

    // One phantom slot breaks served == slots + coalesced; one phantom
    // foreground serve breaks served == hi + lo.
    ++sys.serveStats().slots;
    ++sys.serveStats().hi_served;
    std::vector<std::string> vs = checkServeAccounting(sys);
    EXPECT_EQ(vs.size(), 2u) << joined(vs);
    EXPECT_TRUE(hasViolation(vs, "!= slots")) << joined(vs);
    EXPECT_TRUE(hasViolation(vs, "!= hi")) << joined(vs);
}
