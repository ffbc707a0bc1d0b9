// Unit tests for the BCS core primitives: Xfer-And-Signal, Test-Event,
// Compare-And-Write (paper §2).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "bcs/core.hpp"
#include "net/cluster.hpp"

namespace {

using namespace bcs;
using core::BcsCore;
using core::CmpOp;
using sim::usec;

struct CoreFixture : ::testing::Test {
  net::ClusterConfig cfg;
  CoreFixture() { cfg.num_compute_nodes = 8; }
  net::Cluster cluster{cfg};
  BcsCore core{cluster.fabric()};
};

TEST_F(CoreFixture, GlobalVarsAreIndependentPerNode) {
  const auto v = core.allocVar("x", 5);
  for (int n = 0; n < 8; ++n) EXPECT_EQ(core.readVar(n, v), 5);
  core.writeVarLocal(3, v, 42);
  EXPECT_EQ(core.readVar(3, v), 42);
  EXPECT_EQ(core.readVar(2, v), 5);
}

TEST_F(CoreFixture, BadVarAndEventIdsThrow) {
  EXPECT_THROW(core.readVar(0, 99), sim::SimError);
  EXPECT_THROW(core.signalLocal(0, 42), sim::SimError);
}

TEST_F(CoreFixture, TestEventSeesLocalSignals) {
  const auto ev = core.allocEvent("e");
  EXPECT_FALSE(core.testEvent(0, ev));
  core.signalLocal(0, ev);
  EXPECT_TRUE(core.testEvent(0, ev));
  EXPECT_FALSE(core.testEvent(1, ev));  // per-node state
}

TEST_F(CoreFixture, WaitEventAsyncConsumesFifo) {
  const auto ev = core.allocEvent("e");
  std::vector<int> order;
  core.waitEventAsync(0, ev, [&] { order.push_back(1); });
  core.waitEventAsync(0, ev, [&] { order.push_back(2); });
  core.signalLocal(0, ev);
  cluster.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  core.signalLocal(0, ev);
  cluster.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(CoreFixture, SignalBeforeWaitIsNotLost) {
  const auto ev = core.allocEvent("e");
  core.signalLocal(0, ev, 2);
  int fired = 0;
  core.waitEventAsync(0, ev, [&] { ++fired; });
  core.waitEventAsync(0, ev, [&] { ++fired; });
  core.waitEventAsync(0, ev, [&] { ++fired; });
  cluster.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(core.pendingSignals(0, ev), 0);
}

TEST_F(CoreFixture, XferAndSignalMovesDataAndSignalsRemote) {
  const auto ev = core.allocEvent("arrived");
  std::vector<std::byte> src_buf(256, std::byte{7});
  std::vector<std::byte> dst_buf(256);
  const std::vector<int> dests{3};
  core::XferRequest req;
  req.src_node = 0;
  req.dest_nodes = dests;
  req.bytes = src_buf.size();
  req.deliver = [&](int dest) {
    ASSERT_EQ(dest, 3);
    std::memcpy(dst_buf.data(), src_buf.data(), src_buf.size());
  };
  req.remote_event = ev;
  core.xferAndSignal(std::move(req));
  EXPECT_FALSE(core.testEvent(3, ev));  // non-blocking: nothing happened yet
  cluster.run();
  EXPECT_TRUE(core.testEvent(3, ev));
  EXPECT_EQ(dst_buf[100], std::byte{7});
}

TEST_F(CoreFixture, XferAndSignalLocalEventFiresOnCompletion) {
  const auto lev = core.allocEvent("local-done");
  const auto rev = core.allocEvent("remote");
  const std::vector<int> dests{2, 3, 4};
  core::XferRequest req;
  req.src_node = 1;
  req.dest_nodes = dests;
  req.bytes = 1024;
  req.local_event = lev;
  req.remote_event = rev;
  core.xferAndSignal(std::move(req));
  cluster.run();
  EXPECT_EQ(core.pendingSignals(1, lev), 1);
  for (int n : {2, 3, 4}) EXPECT_EQ(core.pendingSignals(n, rev), 1);
}

TEST_F(CoreFixture, XferToEmptySetThrows) {
  core::XferRequest req;
  req.src_node = 0;
  EXPECT_THROW(core.xferAndSignal(std::move(req)), sim::SimError);
}

TEST_F(CoreFixture, CompareAndWriteTrueOnAllNodes) {
  const auto v = core.allocVar("flag", 1);
  const auto w = core.allocVar("out", 0);
  bool result = false;
  core::CompareAndWriteRequest req;
  req.src_node = 0;
  req.nodes = {0, 1, 2, 3};
  req.var = v;
  req.op = CmpOp::kEQ;
  req.value = 1;
  req.do_write = true;
  req.write_var = w;
  req.write_value = 99;
  core.compareAndWriteAsync(std::move(req), [&](bool ok) { result = ok; });
  cluster.run();
  EXPECT_TRUE(result);
  for (int n : {0, 1, 2, 3}) EXPECT_EQ(core.readVar(n, w), 99);
  EXPECT_EQ(core.readVar(4, w), 0);  // outside the destination set
}

TEST_F(CoreFixture, CompareAndWriteFalseOnOneNodeSkipsWrite) {
  const auto v = core.allocVar("flag", 1);
  const auto w = core.allocVar("out", 0);
  core.writeVarLocal(2, v, 0);  // one node disagrees
  bool result = true;
  core::CompareAndWriteRequest req;
  req.src_node = 0;
  req.nodes = {0, 1, 2, 3};
  req.var = v;
  req.op = CmpOp::kEQ;
  req.value = 1;
  req.do_write = true;
  req.write_var = w;
  req.write_value = 99;
  core.compareAndWriteAsync(std::move(req), [&](bool ok) { result = ok; });
  cluster.run();
  EXPECT_FALSE(result);
  for (int n : {0, 1, 2, 3}) EXPECT_EQ(core.readVar(n, w), 0);
}

TEST_F(CoreFixture, CompareAndWriteAllOperators) {
  using core::cmpEval;
  EXPECT_TRUE(cmpEval(CmpOp::kGE, 5, 5));
  EXPECT_TRUE(cmpEval(CmpOp::kGE, 6, 5));
  EXPECT_FALSE(cmpEval(CmpOp::kGE, 4, 5));
  EXPECT_TRUE(cmpEval(CmpOp::kLT, 4, 5));
  EXPECT_FALSE(cmpEval(CmpOp::kLT, 5, 5));
  EXPECT_TRUE(cmpEval(CmpOp::kEQ, 5, 5));
  EXPECT_FALSE(cmpEval(CmpOp::kEQ, 5, 6));
  EXPECT_TRUE(cmpEval(CmpOp::kNE, 5, 6));
  EXPECT_FALSE(cmpEval(CmpOp::kNE, 5, 5));
}

TEST_F(CoreFixture, BlockingPrimitivesWorkFromProcesses) {
  const auto ev = core.allocEvent("e");
  const auto v = core.allocVar("ready", 0);
  bool caw_result = false;
  sim::SimTime woke_at = -1;

  cluster.spawn(0, "waiter", [&](sim::Process& p) {
    core.testEventBlocking(p, ev);
    woke_at = p.now();
    core::CompareAndWriteRequest req;
    req.src_node = 0;
    req.nodes = {0, 1};
    req.var = v;
    req.op = CmpOp::kGE;
    req.value = 1;
    caw_result = core.compareAndWriteBlocking(p, std::move(req));
  });
  cluster.engine().at(usec(50), [&] {
    core.writeVarLocal(0, v, 1);
    core.writeVarLocal(1, v, 1);
    core.signalLocal(0, ev);
  });
  cluster.run();
  EXPECT_TRUE(cluster.allProcessesFinished());
  EXPECT_EQ(woke_at, usec(50));
  EXPECT_TRUE(caw_result);
}

TEST_F(CoreFixture, MicrostrobePattern) {
  // The SS/SR pattern from §4.2: the management node multicasts a strobe
  // (Xfer-And-Signal) and polls completion flags with Compare-And-Write.
  const int mgmt = cluster.managementNode();
  const auto strobe_ev = core.allocEvent("strobe");
  const auto done_var = core.allocVar("phase-done", 0);

  std::vector<int> compute_nodes;
  for (int n = 0; n < cluster.numComputeNodes(); ++n) {
    compute_nodes.push_back(n);
  }

  // Each compute node: when strobed, do "work", then set its done flag.
  for (int n : compute_nodes) {
    core.waitEventAsync(n, strobe_ev, [this, n, done_var] {
      cluster.engine().after(usec(30), [this, n, done_var] {
        core.writeVarLocal(n, done_var, 1);
      });
    });
  }

  core::XferRequest strobe;
  strobe.src_node = mgmt;
  strobe.dest_nodes = compute_nodes;
  strobe.bytes = 8;
  strobe.remote_event = strobe_ev;
  core.xferAndSignal(std::move(strobe));

  // Management node polls until all flags are set.
  bool all_done = false;
  std::function<void()> poll = [&] {
    core::CompareAndWriteRequest req;
    req.src_node = mgmt;
    req.nodes = compute_nodes;
    req.var = done_var;
    req.op = CmpOp::kEQ;
    req.value = 1;
    core.compareAndWriteAsync(std::move(req), [&](bool ok) {
      if (ok) {
        all_done = true;
      } else {
        cluster.engine().after(usec(5), poll);
      }
    });
  };
  poll();
  cluster.run();
  EXPECT_TRUE(all_done);
}

}  // namespace
