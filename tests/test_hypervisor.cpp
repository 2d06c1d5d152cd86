// Hypervisor-substrate tests: flow table CRUD and throughput (paper §V-B.1),
// token wire codec (§V-A/B.2), the pre-copy live-migration model
// (Fig. 5b-d quantities), and the dom0 agent's rejection of malformed probe
// frames.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "hypervisor/agent.hpp"
#include "hypervisor/flow_table.hpp"
#include "hypervisor/live_migration.hpp"
#include "hypervisor/token_codec.hpp"
#include "hypervisor/wire.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using score::hypervisor::decode_hlf_token;
using score::hypervisor::decode_rr_token;
using score::hypervisor::encode_hlf_token;
using score::hypervisor::encode_rr_token;
using score::hypervisor::FlowKey;
using score::hypervisor::FlowTable;
using score::hypervisor::MigrationModelConfig;
using score::hypervisor::MigrationOutcome;
using score::hypervisor::PreCopyMigrationModel;
using score::hypervisor::TokenEntry;
using score::util::Rng;

FlowKey key(std::uint32_t src, std::uint32_t dst, std::uint16_t sport = 1000,
            std::uint16_t dport = 80) {
  FlowKey k;
  k.src_ip = src;
  k.dst_ip = dst;
  k.src_port = sport;
  k.dst_port = dport;
  return k;
}

// ------------------------------------------------------------------ FlowTable

TEST(FlowTable, AddAndLookup) {
  FlowTable table;
  table.update(key(1, 2), 100, 1, 0.0);
  const auto* rec = table.lookup(key(1, 2));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->bytes, 100u);
  EXPECT_EQ(rec->packets, 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(key(2, 1)), nullptr);  // direction matters per flow
}

TEST(FlowTable, UpdateAccumulatesCounters) {
  FlowTable table;
  table.update(key(1, 2), 100, 1, 0.0);
  table.update(key(1, 2), 50, 2, 1.0);
  const auto* rec = table.lookup(key(1, 2));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->bytes, 150u);
  EXPECT_EQ(rec->packets, 3u);
  EXPECT_DOUBLE_EQ(rec->first_seen_s, 0.0);
  EXPECT_DOUBLE_EQ(rec->last_seen_s, 1.0);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, ThroughputFromDuration) {
  FlowTable table;
  table.update(key(1, 2), 1000, 1, 0.0);
  table.update(key(1, 2), 1000, 1, 2.0);
  EXPECT_DOUBLE_EQ(table.lookup(key(1, 2))->throughput_Bps(), 1000.0);
}

TEST(FlowTable, RemoveFlow) {
  FlowTable table;
  table.update(key(1, 2), 10, 1, 0.0);
  EXPECT_TRUE(table.remove(key(1, 2)));
  EXPECT_FALSE(table.remove(key(1, 2)));
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(table.flows_for_ip(1).empty());
}

TEST(FlowTable, FlowsForIpCoversBothDirections) {
  FlowTable table;
  table.update(key(1, 2), 10, 1, 0.0);
  table.update(key(3, 1), 10, 1, 0.0);
  table.update(key(2, 3), 10, 1, 0.0);
  EXPECT_EQ(table.flows_for_ip(1).size(), 2u);
  EXPECT_EQ(table.flows_for_ip(2).size(), 2u);
  EXPECT_EQ(table.flows_for_ip(3).size(), 2u);
  EXPECT_TRUE(table.flows_for_ip(99).empty());
}

TEST(FlowTable, DistinctFiveTuplesAreDistinctFlows) {
  FlowTable table;
  table.update(key(1, 2, 1000, 80), 10, 1, 0.0);
  table.update(key(1, 2, 1001, 80), 20, 1, 0.0);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.flows_for_ip(1).size(), 2u);
  EXPECT_EQ(table.bytes_between(1, 2), 30u);
}

TEST(FlowTable, BytesBetweenSumsBothDirections) {
  FlowTable table;
  table.update(key(1, 2), 100, 1, 0.0);
  table.update(key(2, 1), 40, 1, 0.0);
  table.update(key(1, 3), 999, 1, 0.0);
  EXPECT_EQ(table.bytes_between(1, 2), 140u);
  EXPECT_EQ(table.bytes_between(2, 1), 140u);
  EXPECT_EQ(table.bytes_between(1, 99), 0u);
}

TEST(FlowTable, AggregateRateBetweenEndpoints) {
  FlowTable table;
  table.update(key(1, 2), 1000, 1, 0.0);   // 1000 B over 10 s -> 100 B/s
  table.update(key(2, 1), 500, 1, 5.0);    // 500 B over 5 s -> 100 B/s
  EXPECT_DOUBLE_EQ(table.aggregate_rate_Bps(1, 2, 10.0), 200.0);
}

TEST(FlowTable, PeerRatesGroupsByPeer) {
  FlowTable table;
  table.update(key(1, 2), 1000, 1, 0.0);
  table.update(key(1, 2, 1001), 1000, 1, 0.0);
  table.update(key(3, 1), 500, 1, 0.0);
  auto peers = table.peer_rates_Bps(1, 10.0);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0].first, 2u);
  EXPECT_DOUBLE_EQ(peers[0].second, 200.0);
  EXPECT_EQ(peers[1].first, 3u);
  EXPECT_DOUBLE_EQ(peers[1].second, 50.0);
}

TEST(FlowTable, ClearIpRemovesAllTouchingFlows) {
  FlowTable table;
  table.update(key(1, 2), 10, 1, 0.0);
  table.update(key(3, 1), 10, 1, 0.0);
  table.update(key(2, 3), 10, 1, 0.0);
  EXPECT_EQ(table.clear_ip(1), 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_NE(table.lookup(key(2, 3)), nullptr);
}

TEST(FlowTable, ClearEmptiesEverything) {
  FlowTable table;
  for (std::uint32_t i = 0; i < 100; ++i) table.update(key(i, i + 1), 1, 1, 0.0);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(table.flows_for_ip(5).empty());
}

TEST(FlowTable, EvictIdleRemovesOnlyStaleFlows) {
  FlowTable table;
  table.update(key(1, 2), 100, 1, 0.0);   // idle since t=0
  table.update(key(1, 3), 100, 1, 5.0);   // refreshed at t=5
  table.update(key(4, 1), 100, 1, 9.0);   // fresh
  EXPECT_EQ(table.evict_idle(5.0), 1u);   // strictly-before cutoff
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.lookup(key(1, 2)), nullptr);
  EXPECT_NE(table.lookup(key(1, 3)), nullptr);
  EXPECT_NE(table.lookup(key(4, 1)), nullptr);
  EXPECT_EQ(table.evict_idle(5.0), 0u);  // idempotent
}

TEST(FlowTable, EvictIdleKeepsIpIndexConsistent) {
  FlowTable table;
  table.update(key(1, 2), 80, 1, 0.0);
  table.update(key(1, 3), 80, 1, 0.0);
  table.update(key(1, 3, 1001), 80, 1, 10.0);
  EXPECT_EQ(table.evict_idle(1.0), 2u);
  // The per-IP index must shrink with the table: only the refreshed flow
  // remains visible through every lookup path.
  EXPECT_EQ(table.flows_for_ip(1).size(), 1u);
  EXPECT_TRUE(table.flows_for_ip(2).empty());
  EXPECT_EQ(table.flows_for_ip(3).size(), 1u);
  EXPECT_EQ(table.bytes_between(1, 3), 80u);
  const auto peers = table.peer_rates_Bps(1, 20.0);
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].first, 3u);
}

TEST(FlowTable, EvictIdleUpdateAfterEvictionStartsFresh) {
  FlowTable table;
  table.update(key(1, 2), 1000, 1, 0.0);
  table.update(key(1, 2), 1000, 1, 10.0);
  table.evict_idle(20.0);  // everything idle
  EXPECT_TRUE(table.empty());
  // Re-adding the same 5-tuple starts a new record (fresh first_seen).
  table.update(key(1, 2), 500, 1, 30.0);
  const auto* rec = table.lookup(key(1, 2));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->bytes, 500u);
  EXPECT_DOUBLE_EQ(rec->first_seen_s, 30.0);
}

TEST(FlowTable, EvictIdleScalesOverHubIps) {
  // A hub IP shared by many flows (the Fig. 5a Type-2 shape): evicting the
  // stale half must leave the hub's index exact.
  FlowTable table;
  const std::uint32_t hub = 1u << 30;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    table.update(key(i, hub), 10, 1, i < 500 ? 0.0 : 50.0);
  }
  EXPECT_EQ(table.evict_idle(25.0), 500u);
  EXPECT_EQ(table.size(), 500u);
  EXPECT_EQ(table.flows_for_ip(hub).size(), 500u);
  EXPECT_TRUE(table.flows_for_ip(7).empty());      // evicted spoke
  EXPECT_EQ(table.flows_for_ip(700).size(), 1u);   // surviving spoke
}

TEST(FlowTable, Type1AndType2Populations) {
  // Fig. 5a's two stress populations, scaled down: Type 1 all-unique source
  // IPs; Type 2 groups of 100 flows sharing a source IP.
  FlowTable type1, type2;
  const std::uint32_t n = 10'000;
  for (std::uint32_t i = 0; i < n; ++i) {
    type1.update(key(i, 1u << 30), 10, 1, 0.0);
    type2.update(key(i / 100, 1u << 30, static_cast<std::uint16_t>(i % 100),
                     static_cast<std::uint16_t>(i / 100 % 65535)),
                 10, 1, 0.0);
  }
  EXPECT_EQ(type1.size(), n);
  EXPECT_EQ(type2.size(), n);
  EXPECT_EQ(type1.flows_for_ip(42).size(), 1u);
  EXPECT_EQ(type2.flows_for_ip(42).size(), 100u);
}

// ----------------------------------------------------------------- TokenCodec

TEST(TokenCodec, RrRoundTrip) {
  const std::vector<std::uint32_t> ids{1, 5, 100, 4'000'000'000u};
  EXPECT_EQ(decode_rr_token(encode_rr_token(ids)), ids);
}

TEST(TokenCodec, RrWireSize) {
  const std::vector<std::uint32_t> ids{1, 2, 3};
  EXPECT_EQ(encode_rr_token(ids).size(), score::hypervisor::rr_token_bytes(3));
}

TEST(TokenCodec, RrRejectsUnsortedAndDuplicates) {
  EXPECT_THROW(encode_rr_token({5, 3}), std::invalid_argument);
  EXPECT_THROW(encode_rr_token({5, 5}), std::invalid_argument);
}

TEST(TokenCodec, RrRejectsTruncatedBuffer) {
  auto buf = encode_rr_token({1, 2});
  buf.pop_back();
  EXPECT_THROW(decode_rr_token(buf), std::invalid_argument);
}

TEST(TokenCodec, RrDecodeRejectsUnsorted) {
  std::vector<std::uint8_t> buf{2, 0, 0, 0, 1, 0, 0, 0};  // ids 2 then 1
  EXPECT_THROW(decode_rr_token(buf), std::invalid_argument);
}

TEST(TokenCodec, HlfRoundTrip) {
  const std::vector<TokenEntry> entries{{1, 0}, {7, 3}, {4'294'967'000u, 2}};
  EXPECT_EQ(decode_hlf_token(encode_hlf_token(entries)), entries);
}

TEST(TokenCodec, HlfWireSizeIsFiveBytesPerEntry) {
  const std::vector<TokenEntry> entries{{1, 0}, {2, 1}};
  EXPECT_EQ(encode_hlf_token(entries).size(),
            score::hypervisor::hlf_token_bytes(2));
}

TEST(TokenCodec, HlfRejectsBadInput) {
  EXPECT_THROW(encode_hlf_token({{5, 0}, {3, 0}}), std::invalid_argument);
  auto buf = encode_hlf_token({{1, 2}, {2, 3}});
  buf.pop_back();
  EXPECT_THROW(decode_hlf_token(buf), std::invalid_argument);
}

TEST(TokenCodec, EmptyTokensAreValid) {
  EXPECT_TRUE(decode_rr_token(encode_rr_token({})).empty());
  EXPECT_TRUE(decode_hlf_token(encode_hlf_token({})).empty());
}

TEST(TokenCodec, LargeFleetRoundTrip) {
  std::vector<TokenEntry> entries;
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    entries.push_back({i * 3 + 1, static_cast<std::uint8_t>(i % 4)});
  }
  EXPECT_EQ(decode_hlf_token(encode_hlf_token(entries)), entries);
}

// ------------------------------------------------------------ MigrationModel

TEST(MigrationModel, DowntimeBelowTotalTime) {
  PreCopyMigrationModel model;
  Rng rng(1);
  for (double bg : {0.0, 0.3, 0.7, 1.0}) {
    const MigrationOutcome out = model.simulate(rng, bg);
    EXPECT_LT(out.downtime_ms / 1e3, out.total_time_s);
    EXPECT_GE(out.precopy_rounds, 1);
  }
}

TEST(MigrationModel, MigratedBytesAtLeastWorkingSetBelowRamPlusRecopies) {
  PreCopyMigrationModel model;
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const MigrationOutcome out = model.simulate(rng, 0.0);
    EXPECT_GT(out.migrated_mb, 50.0);
    // Testbed observation: transfers stay below 150 MB for 196 MB guests.
    EXPECT_LT(out.migrated_mb, 160.0);
  }
}

TEST(MigrationModel, MeanMigratedBytesNearPaper) {
  // Fig. 5b: mean 127 MB, stddev 11 MB.
  PreCopyMigrationModel model;
  Rng rng(3);
  score::util::RunningStats stats;
  for (int i = 0; i < 2000; ++i) stats.add(model.simulate(rng, 0.0).migrated_mb);
  EXPECT_NEAR(stats.mean(), 127.0, 8.0);
  EXPECT_NEAR(stats.stddev(), 11.0, 5.0);
}

TEST(MigrationModel, TotalTimeMonotoneInBackgroundLoad) {
  PreCopyMigrationModel model;
  double prev = 0.0;
  for (double bg : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    Rng rng(4);  // same randomness: isolate the load effect
    const double t = model.simulate(rng, bg).total_time_s;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(MigrationModel, TimesMatchPaperEndpoints) {
  // Fig. 5c: ≈2.94 s at idle, ≈9.34 s at full background load.
  PreCopyMigrationModel model;
  score::util::RunningStats idle, full;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    idle.add(model.simulate(rng, 0.0).total_time_s);
    full.add(model.simulate(rng, 1.0).total_time_s);
  }
  EXPECT_NEAR(idle.mean(), 2.94, 0.6);
  EXPECT_NEAR(full.mean(), 9.34, 2.0);
}

TEST(MigrationModel, DowntimeStaysBelow50ms) {
  // Fig. 5d: downtime stays well below 50 ms even at ~100% link load.
  PreCopyMigrationModel model;
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(model.simulate(rng, 1.0).downtime_ms, 50.0);
  }
}

TEST(MigrationModel, DowntimeMonotoneInBackgroundLoad) {
  PreCopyMigrationModel model;
  double prev = 0.0;
  for (double bg : {0.0, 0.5, 1.0}) {
    Rng rng(7);
    const double d = model.simulate(rng, bg).downtime_ms;
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(MigrationModel, BandwidthDegradesWithLoad) {
  PreCopyMigrationModel model;
  EXPECT_GT(model.effective_bandwidth_MBps(0.0),
            model.effective_bandwidth_MBps(0.5));
  EXPECT_GT(model.effective_bandwidth_MBps(0.5),
            model.effective_bandwidth_MBps(1.0));
  // Loads outside [0,1] are clamped.
  EXPECT_DOUBLE_EQ(model.effective_bandwidth_MBps(-1.0),
                   model.effective_bandwidth_MBps(0.0));
  EXPECT_DOUBLE_EQ(model.effective_bandwidth_MBps(2.0),
                   model.effective_bandwidth_MBps(1.0));
}

TEST(MigrationModel, RejectsBadConfig) {
  MigrationModelConfig cfg;
  cfg.vm_ram_mb = 0.0;
  EXPECT_THROW(PreCopyMigrationModel{cfg}, std::invalid_argument);
  cfg = MigrationModelConfig{};
  cfg.max_rounds = 0;
  EXPECT_THROW(PreCopyMigrationModel{cfg}, std::invalid_argument);
}

TEST(MigrationModel, RoundsCappedByConfig) {
  MigrationModelConfig cfg;
  cfg.dirty_rate_min_mbps = 1000.0;  // dirtier than the link can drain
  cfg.dirty_rate_max_mbps = 1001.0;
  cfg.max_rounds = 5;
  PreCopyMigrationModel model(cfg);
  Rng rng(8);
  const MigrationOutcome out = model.simulate(rng, 0.0);
  EXPECT_EQ(out.precopy_rounds, 5);
}

// ------------------------------------------------------------ probe frames

namespace hv = score::hypervisor;

/// Records every send and armed timer instead of delivering them.
class RecordingComm final : public hv::Communicator {
 public:
  double now() const override { return 0.0; }
  void send(hv::CtrlMsg type, score::topo::HostId from, score::topo::HostId to,
            std::vector<std::uint8_t> payload) override {
    sent.push_back({type, from, to, std::move(payload)});
  }
  void send_after(double, hv::CtrlMsg type, score::topo::HostId from,
                  score::topo::HostId to,
                  std::vector<std::uint8_t> payload) override {
    send(type, from, to, std::move(payload));
  }
  void arm_probe_timer(score::topo::HostId, double, std::uint32_t,
                       int) override {
    ++timers;
  }

  struct Sent {
    hv::CtrlMsg type;
    score::topo::HostId from;
    score::topo::HostId to;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Sent> sent;
  std::size_t timers = 0;
};

class RecordingEnv final : public hv::AgentEnv {
 public:
  explicit RecordingEnv(hv::Hypervisor& hypervisor) : hv_(&hypervisor) {}
  hv::Hypervisor& hv() override { return *hv_; }
  hv::Communicator& comm() override { return comm_; }
  bool stopped() const override { return false; }
  bool hold_complete(bool) override {
    ++holds;
    return true;
  }
  void stop_run() override {}
  void token_telemetry(std::uint32_t, std::uint32_t, double) override {}
  void note_probe_retransmits(std::size_t) override {}
  void note_probe_timeout() override {}

  RecordingComm comm_;
  std::size_t holds = 0;

 private:
  hv::Hypervisor* hv_;
};

score::sim::Message frame(hv::CtrlMsg type, score::topo::HostId src,
                          score::topo::HostId dst,
                          std::vector<std::uint8_t> payload) {
  score::sim::Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.type = static_cast<int>(type);
  // Moved, not copied: a truncated payload keeps its original capacity, so a
  // reader that ignores size() would find the cut-off bytes still there.
  msg.payload = std::move(payload);
  return msg;
}

std::vector<std::uint8_t> truncated(std::vector<std::uint8_t> payload,
                                    std::size_t size) {
  payload.resize(size);
  return payload;
}

// Two communicating VMs in different racks; the holder's agent walks one
// decision up to each probe stage, and every probe type is also sent short
// (and a request long). A frame whose length is not its type's exact size
// must produce no send, arm no timer and advance no decision state.
TEST(Dom0AgentProbes, WrongLengthProbesAreDroppedUnanswered) {
  score::topo::CanonicalTree topology(score::testing::tiny_tree_config());
  score::core::ServerCapacity cap;
  cap.vm_slots = 4;
  cap.ram_mb = 4096.0;
  cap.cpu_cores = 4.0;
  score::core::Allocation alloc(topology.num_hosts(), cap);
  const score::topo::HostId kHolderHost = 0;
  const score::topo::HostId kPeerHost = 5;  // another rack
  alloc.add_vm(score::core::VmSpec{}, kHolderHost);
  alloc.add_vm(score::core::VmSpec{}, kPeerHost);
  score::traffic::TrafficMatrix tm(2);
  tm.set(0, 1, 1000.0);
  const score::core::CostModel model(
      topology, score::core::LinkWeights::exponential(topology.max_level()));
  hv::SimHypervisor hypervisor(model, alloc, tm, hv::SimHypervisorConfig{});
  RecordingEnv env(hypervisor);
  RecordingComm& comm = env.comm_;
  const hv::AgentConfig cfg;
  hv::Dom0Agent holder;
  holder.bind(&env, &cfg, kHolderHost);
  hv::Dom0Agent peer;
  peer.bind(&env, &cfg, kPeerHost);

  // Requests: only the exact size is answered.
  std::vector<std::uint8_t> loc_req;
  hv::wire::put_u32(loc_req, hv::addr_of_vm(1));
  hv::wire::put_u32(loc_req, 77);
  for (const std::size_t size : {0u, 4u, 7u}) {
    peer.on_message(frame(hv::CtrlMsg::kLocationRequest, kHolderHost,
                          kPeerHost, truncated(loc_req, size)));
  }
  std::vector<std::uint8_t> long_loc_req = loc_req;
  long_loc_req.push_back(0);
  peer.on_message(frame(hv::CtrlMsg::kLocationRequest, kHolderHost, kPeerHost,
                        long_loc_req));
  std::vector<std::uint8_t> cap_req;
  hv::wire::put_u32(cap_req, 77);
  for (const std::size_t size : {0u, 3u}) {
    peer.on_message(frame(hv::CtrlMsg::kCapacityRequest, kHolderHost,
                          kPeerHost, truncated(cap_req, size)));
  }
  std::vector<std::uint8_t> long_cap_req = cap_req;
  long_cap_req.push_back(0);
  peer.on_message(frame(hv::CtrlMsg::kCapacityRequest, kHolderHost, kPeerHost,
                        long_cap_req));
  EXPECT_TRUE(comm.sent.empty());
  peer.on_message(
      frame(hv::CtrlMsg::kLocationRequest, kHolderHost, kPeerHost, loc_req));
  peer.on_message(
      frame(hv::CtrlMsg::kCapacityRequest, kHolderHost, kPeerHost, cap_req));
  ASSERT_EQ(comm.sent.size(), 2u);
  EXPECT_EQ(comm.sent[0].payload.size(), 12u);
  EXPECT_EQ(comm.sent[1].payload.size(), 24u);
  comm.sent.clear();

  // The holder takes the token and probes its peer's location.
  hv::Token token;
  token.holder = hv::addr_of_vm(0);
  token.entries = {{hv::addr_of_vm(0), 0, false}, {hv::addr_of_vm(1), 0, false}};
  holder.on_message(frame(hv::CtrlMsg::kToken, kHolderHost, kHolderHost,
                          hv::encode_token(token)));
  ASSERT_EQ(comm.sent.size(), 1u);
  ASSERT_EQ(comm.sent[0].type, hv::CtrlMsg::kLocationRequest);
  peer.on_message(frame(hv::CtrlMsg::kLocationRequest, kHolderHost, kPeerHost,
                        comm.sent[0].payload));
  ASSERT_EQ(comm.sent.size(), 2u);
  const std::vector<std::uint8_t> loc_resp = comm.sent[1].payload;
  comm.sent.clear();
  const std::size_t timers = comm.timers;

  // A short location response (its nonce cut off) must not count.
  holder.on_message(frame(hv::CtrlMsg::kLocationResponse, kPeerHost,
                          kHolderHost, truncated(loc_resp, 8)));
  EXPECT_TRUE(comm.sent.empty());
  EXPECT_EQ(comm.timers, timers);
  // The decision still waits for it: the full response starts the
  // capacity stage.
  holder.on_message(
      frame(hv::CtrlMsg::kLocationResponse, kPeerHost, kHolderHost, loc_resp));
  ASSERT_FALSE(comm.sent.empty());
  std::vector<RecordingComm::Sent> cap_reqs = std::move(comm.sent);
  comm.sent.clear();
  for (const RecordingComm::Sent& req : cap_reqs) {
    ASSERT_EQ(req.type, hv::CtrlMsg::kCapacityRequest);
  }

  // Short capacity responses (NIC field cut off) from every candidate must
  // not complete the stage.
  std::vector<std::vector<std::uint8_t>> cap_resps;
  for (const RecordingComm::Sent& req : cap_reqs) {
    // nonce, answering dom0, free slots, RAM MB, milli-CPUs, NIC kbps
    std::vector<std::uint8_t> resp(24);
    std::uint8_t* at = resp.data();
    for (const std::uint32_t field :
         {hv::wire::get_u32(req.payload, 0),
          hypervisor.ipam().host_address(req.to), 4u, 4096u, 4000u, 1000000u}) {
      at = hv::wire::store_u32(at, field);
    }
    cap_resps.push_back(resp);
    holder.on_message(frame(hv::CtrlMsg::kCapacityResponse, req.to,
                            kHolderHost, truncated(resp, 20)));
  }
  EXPECT_TRUE(comm.sent.empty());
  EXPECT_EQ(comm.timers, timers + 1);  // the capacity stage's own timeout
  EXPECT_EQ(env.holds, 0u);
  // The full responses complete the hold and pass the token on.
  for (std::size_t i = 0; i < cap_reqs.size(); ++i) {
    holder.on_message(frame(hv::CtrlMsg::kCapacityResponse, cap_reqs[i].to,
                            kHolderHost, cap_resps[i]));
  }
  EXPECT_EQ(env.holds, 1u);
  ASSERT_FALSE(comm.sent.empty());
  EXPECT_EQ(comm.sent.back().type, hv::CtrlMsg::kToken);
}

TEST(Dom0AgentProbes, UnknownMessageTypeIsRejected) {
  score::topo::CanonicalTree topology(score::testing::tiny_tree_config());
  score::core::Allocation alloc(topology.num_hosts(),
                                score::core::ServerCapacity{});
  alloc.add_vm(score::core::VmSpec{}, 0);
  score::traffic::TrafficMatrix tm(1);
  const score::core::CostModel model(
      topology, score::core::LinkWeights::exponential(topology.max_level()));
  hv::SimHypervisor hypervisor(model, alloc, tm, hv::SimHypervisorConfig{});
  RecordingEnv env(hypervisor);
  const hv::AgentConfig cfg;
  hv::Dom0Agent agent;
  agent.bind(&env, &cfg, 0);
  score::sim::Message msg;
  msg.type = 99;
  msg.payload.assign(8, 0);
  EXPECT_THROW(agent.on_message(msg), std::invalid_argument);
  EXPECT_TRUE(env.comm_.sent.empty());
}

}  // namespace
