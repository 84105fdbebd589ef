/**
 * @file
 * Tests of the exhaustive small-config model checker (mc/explorer.hh):
 * every application-matrix implementation explores cleanly on a 2-node
 * configuration, the recovery layer survives a budgeted message loss,
 * and McConfig validation rejects out-of-bounds parameters with
 * descriptive errors.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/experiment.hh"
#include "mc/explorer.hh"
#include "sim/config.hh"

using namespace dsm;

namespace {

Config
mcConfig(SyncPolicy pol, Primitive prim, int nodes = 2, int ops = 1,
         int loss = 0)
{
    Config cfg;
    cfg.sync.policy = pol;
    cfg.mc.primitive = prim;
    cfg.mc.nodes = nodes;
    cfg.mc.ops_per_proc = ops;
    cfg.mc.loss_budget = loss;
    return cfg;
}

void
expectClean(const Config &cfg, const char *what)
{
    mc::Result res = mc::explore(cfg);
    EXPECT_TRUE(res.completed) << what << ": hit the max_states fuse";
    EXPECT_TRUE(res.violations.empty())
        << what << ": " << res.violations.size() << " violations, first: "
        << (res.violations.empty() ? ""
                                   : res.violations[0].kind + ": " +
                                         res.violations[0].detail);
    EXPECT_GT(res.states, 1u) << what;
    EXPECT_GT(res.terminals, 0u) << what;
}

} // namespace

TEST(McExplore, TwoNodeMatrixIsClean)
{
    for (const ImplCase &impl : applicationMatrix()) {
        SCOPED_TRACE(impl.label);
        expectClean(mcConfig(impl.sync.policy, impl.prim),
                    impl.label.c_str());
    }
}

TEST(McExplore, TwoNodeTwoOpsFap)
{
    expectClean(mcConfig(SyncPolicy::INV, Primitive::FAP, 2, 2),
                "INV FAP 2n2op");
}

TEST(McExplore, ThreeNodeCas)
{
    expectClean(mcConfig(SyncPolicy::INV, Primitive::CAS, 3, 1),
                "INV CAS 3n1op");
}

TEST(McExplore, LossBudgetRecovery)
{
    // One budgeted message loss must be recovered by retransmission in
    // every interleaving, and at least one explored path actually
    // spends the budget.
    for (Primitive prim :
         {Primitive::FAP, Primitive::CAS, Primitive::LLSC}) {
        SCOPED_TRACE(toString(prim));
        Config cfg = mcConfig(SyncPolicy::INV, prim, 2, 1, 1);
        mc::Result res = mc::explore(cfg);
        EXPECT_TRUE(res.completed);
        EXPECT_TRUE(res.violations.empty());
        EXPECT_GT(res.losses, 0u)
            << "loss budget present but no DROP transition ever fired";
    }
}

TEST(McExplore, CombiningBatchesAreClean)
{
    // The serving layer's home-node combining as an explicit COMBINE
    // transition: whenever >= 2 combinable fetch&add requests head the
    // home's channels, one branch serves them as a single batch. Every
    // interleaving of the batch with in-flight coherence traffic (the
    // UPD policy's update fan-out in particular) must still deliver
    // exactly one reply per member, produce the serial history, and
    // pass every coherence invariant — no reply lost or duplicated.
    //
    // The counts pin the explored space: mc_explore has no combining
    // point, so no golden report covers these explorations.
    struct Pinned
    {
        SyncPolicy pol;
        std::uint64_t states, transitions, terminals, combines;
    };
    for (const Pinned &p : {Pinned{SyncPolicy::UNC, 102, 163, 6, 5},
                            Pinned{SyncPolicy::UPD, 288, 485, 9, 5}}) {
        SCOPED_TRACE(toString(p.pol));
        Config cfg = mcConfig(p.pol, Primitive::FAP, 2, 2);
        cfg.mc.combining = true;
        mc::Result res = mc::explore(cfg);
        EXPECT_TRUE(res.completed);
        EXPECT_TRUE(res.violations.empty())
            << res.violations.size() << " violations, first: "
            << (res.violations.empty()
                    ? ""
                    : res.violations[0].kind + ": " +
                          res.violations[0].detail);
        EXPECT_GT(res.combines, 0u)
            << "combining armed but no COMBINE transition ever fired";
        EXPECT_EQ(res.states, p.states);
        EXPECT_EQ(res.transitions, p.transitions);
        EXPECT_EQ(res.terminals, p.terminals);
        EXPECT_EQ(res.combines, p.combines);
    }
}

TEST(McExplore, CombiningSurvivesMessageLoss)
{
    // A combined batch member may be a retransmission whose original
    // was dropped (or the original of a duplicate still queued). The
    // per-member dedup in the COMBINE transition must keep the ledger
    // closed: no double-applied fetch&add in any interleaving.
    Config cfg = mcConfig(SyncPolicy::UNC, Primitive::FAP, 2, 1, 1);
    cfg.mc.combining = true;
    mc::Result res = mc::explore(cfg);
    EXPECT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty())
        << (res.violations.empty()
                ? ""
                : res.violations[0].kind + ": " +
                      res.violations[0].detail);
    EXPECT_GT(res.losses, 0u);
    EXPECT_GT(res.combines, 0u);
    EXPECT_EQ(res.states, 106u);
    EXPECT_EQ(res.transitions, 177u);
    EXPECT_EQ(res.terminals, 8u);
    EXPECT_EQ(res.combines, 5u);
    EXPECT_EQ(res.losses, 20u);
}

TEST(McExplore, FuseReportsIncomplete)
{
    Config cfg = mcConfig(SyncPolicy::UPD, Primitive::LLSC, 3, 1);
    cfg.mc.max_states = 100; // far below the ~18k reachable states
    mc::Result res = mc::explore(cfg);
    EXPECT_FALSE(res.completed);
    EXPECT_FALSE(res.ok());
    EXPECT_LE(res.states, 100u + 1);
}

TEST(McConfig, ValidationRejectsOutOfBounds)
{
    struct BadCase
    {
        const char *what;
        void (*mutate)(Config &);
        const char *substr;
    };
    const BadCase cases[] = {
        { "nodes too big", [](Config &c) { c.mc.nodes = 4; },
          "mc.nodes" },
        { "nodes too small", [](Config &c) { c.mc.nodes = 1; },
          "mc.nodes" },
        { "multi-line", [](Config &c) { c.mc.lines = 2; },
          "mc.lines" },
        { "zero ops", [](Config &c) { c.mc.ops_per_proc = 0; },
          "mc.ops_per_proc" },
        { "too many ops", [](Config &c) { c.mc.ops_per_proc = 5; },
          "mc.ops_per_proc" },
        { "loss budget 2", [](Config &c) { c.mc.loss_budget = 2; },
          "mc.loss_budget" },
        { "zero fuse", [](Config &c) { c.mc.max_states = 0; },
          "mc.max_states" },
        { "combining non-FAP",
          [](Config &c) {
              c.mc.combining = true;
              c.mc.primitive = Primitive::CAS;
          },
          "mc.combining" },
    };
    for (const BadCase &bc : cases) {
        SCOPED_TRACE(bc.what);
        Config cfg;
        bc.mutate(cfg);
        std::string err = cfg.validate();
        EXPECT_FALSE(err.empty());
        EXPECT_NE(err.find(bc.substr), std::string::npos)
            << "error text \"" << err << "\" does not name "
            << bc.substr;
    }
}

TEST(McConfig, DefaultsValidate)
{
    Config cfg;
    EXPECT_EQ(cfg.validate(), "");
}
