/** @file Unit tests for the 2-D wormhole mesh model. */

#include <gtest/gtest.h>

#include <vector>

#include "net/mesh.hh"
#include "sim/event_queue.hh"

using namespace dsm;

namespace {

MachineConfig
smallMachine()
{
    MachineConfig mc;
    mc.num_procs = 4;
    mc.mesh_x = 2;
    mc.mesh_y = 2;
    return mc;
}

struct Env
{
    EventQueue eq;
    MachineConfig mc = smallMachine();
    Mesh mesh{eq, mc};
    std::vector<std::pair<Tick, Msg>> delivered;

    Env()
    {
        for (NodeId n = 0; n < mc.num_procs; ++n) {
            mesh.setHandler(n, [this](const Msg &m) {
                delivered.emplace_back(eq.now(), m);
            });
        }
    }

    Msg
    makeMsg(NodeId src, NodeId dst, MsgType t = MsgType::GET_S)
    {
        Msg m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        return m;
    }
};

} // namespace

TEST(Mesh, HopCountIsManhattanDistance)
{
    Env e;
    EXPECT_EQ(e.mesh.hops(0, 0), 0);
    EXPECT_EQ(e.mesh.hops(0, 1), 1);
    EXPECT_EQ(e.mesh.hops(0, 2), 1);
    EXPECT_EQ(e.mesh.hops(0, 3), 2);
    EXPECT_EQ(e.mesh.hops(3, 0), 2);
}

TEST(Mesh, SingleMessageLatency)
{
    Env e;
    // GET_S: 8 payload + 8 header = 16 bytes = 2 flits; ser = 2 cycles.
    // depart 0; head arrives 0 + 2 hops * 2 = 4; deliver 4 + 2 = 6.
    e.mesh.send(e.makeMsg(0, 3));
    e.eq.run();
    ASSERT_EQ(e.delivered.size(), 1u);
    EXPECT_EQ(e.delivered[0].first, 6u);
}

TEST(Mesh, DataMessageTakesLongerToSerialize)
{
    Env e;
    Msg m = e.makeMsg(0, 3, MsgType::DATA_X);
    m.has_data = true; // 8 + 32 + 8 header = 48 bytes = 6 flits
    e.mesh.send(m);
    e.eq.run();
    ASSERT_EQ(e.delivered.size(), 1u);
    EXPECT_EQ(e.delivered[0].first, 4u + 6u);
}

TEST(Mesh, InjectionPortSerializesSameSource)
{
    Env e;
    e.mesh.send(e.makeMsg(0, 3));
    e.mesh.send(e.makeMsg(0, 3));
    e.eq.run();
    ASSERT_EQ(e.delivered.size(), 2u);
    // Second message departs at 2 (after the first's 2 flits), head
    // arrives 2+4=6, ejection free at 6 (first delivered), so 6+2=8.
    EXPECT_EQ(e.delivered[0].first, 6u);
    EXPECT_EQ(e.delivered[1].first, 8u);
}

TEST(Mesh, EjectionPortSerializesSameDestination)
{
    Env e;
    e.mesh.send(e.makeMsg(1, 0)); // 1 hop: head 2, deliver 4
    e.mesh.send(e.makeMsg(2, 0)); // 1 hop: head 2, but port busy to 4
    e.eq.run();
    ASSERT_EQ(e.delivered.size(), 2u);
    EXPECT_EQ(e.delivered[0].first, 4u);
    EXPECT_EQ(e.delivered[1].first, 6u);
}

TEST(Mesh, SameSrcDstPairIsFifo)
{
    Env e;
    for (int i = 0; i < 10; ++i) {
        Msg m = e.makeMsg(0, 3);
        m.value = static_cast<Word>(i);
        e.mesh.send(m);
    }
    e.eq.run();
    ASSERT_EQ(e.delivered.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(e.delivered[static_cast<size_t>(i)].second.value,
                  static_cast<Word>(i));
}

TEST(Mesh, LocalDeliveryBypassesNetwork)
{
    Env e;
    e.mesh.send(e.makeMsg(2, 2));
    e.eq.run();
    ASSERT_EQ(e.delivered.size(), 1u);
    EXPECT_EQ(e.delivered[0].first, LOCAL_LATENCY);
    EXPECT_EQ(e.mesh.stats().messages, 0u);
    EXPECT_EQ(e.mesh.stats().local, 1u);
}

TEST(Mesh, StatsCountMessagesAndFlits)
{
    Env e;
    e.mesh.send(e.makeMsg(0, 3)); // 2 flits
    Msg m = e.makeMsg(0, 1, MsgType::DATA_S);
    m.has_data = true; // 6 flits
    e.mesh.send(m);
    e.eq.run();
    EXPECT_EQ(e.mesh.stats().messages, 2u);
    EXPECT_EQ(e.mesh.stats().flits, 8u);
    EXPECT_EQ(e.mesh.stats().hop_sum, 3u);
}

TEST(Mesh, LaterSendSeesBusyPort)
{
    Env e;
    e.mesh.send(e.makeMsg(0, 3));
    e.eq.schedule(1, [&e] { e.mesh.send(e.makeMsg(0, 1)); });
    e.eq.run();
    ASSERT_EQ(e.delivered.size(), 2u);
    // Second message cannot inject before tick 2.
    // depart 2, head 2+2=4, deliver 4+2=6.
    EXPECT_EQ(e.delivered[1].first, 6u);
}
