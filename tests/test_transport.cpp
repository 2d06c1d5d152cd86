// Transport + reliable-link layer: the byte-dribbling partial-frame
// regression on util::Socket, FaultyTransport determinism, and the
// ReliableLink exactly-once/in-order contract under injected faults.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "address_space_limit.hpp"
#include "util/reliable_link.hpp"
#include "util/socket.hpp"
#include "util/transport.hpp"

namespace score {
namespace {

using util::FaultProfile;
using util::FaultyTransport;
using util::FrameTransport;
using util::LinkConfig;
using util::LinkDown;
using util::ReliableLink;

std::vector<std::uint8_t> pattern_frame(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return out;
}

std::vector<std::uint8_t> raw_wire(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> wire(4 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    wire[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  for (std::size_t i = 0; i < payload.size(); ++i) wire[4 + i] = payload[i];
  return wire;
}

// ---- util::Socket partial-frame handling ------------------------------------

// A peer that dribbles one byte at a time must never corrupt the framing:
// every timed-out read resumes the partial frame where it left off.
TEST(SocketFraming, ByteDribblingPeerDeliversIntactFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::Socket reader(fds[0]);
  const int peer = fds[1];

  const std::vector<std::uint8_t> first = pattern_frame(64, 3);
  const std::vector<std::uint8_t> second = pattern_frame(7, 91);
  std::vector<std::uint8_t> wire = raw_wire(first);
  const std::vector<std::uint8_t> wire2 = raw_wire(second);
  wire.insert(wire.end(), wire2.begin(), wire2.end());

  std::thread dribbler([&]() {
    for (const std::uint8_t byte : wire) {
      ASSERT_EQ(::send(peer, &byte, 1, 0), 1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ::close(peer);
  });

  // Short-timeout reads force many partial returns before each frame
  // completes; the nullopt results must not lose buffered bytes.
  std::vector<std::vector<std::uint8_t>> got;
  int timeouts = 0;
  while (got.size() < 2) {
    std::optional<std::vector<std::uint8_t>> f =
        reader.read_frame_timeout(0.0005);
    if (f) {
      got.push_back(std::move(*f));
    } else {
      ++timeouts;
    }
    ASSERT_LT(timeouts, 100000) << "dribbled frames never completed";
  }
  dribbler.join();
  EXPECT_EQ(got[0], first);
  EXPECT_EQ(got[1], second);
  EXPECT_GT(timeouts, 0) << "test never exercised the partial-frame path";
}

TEST(SocketFraming, TimeoutWithNoDataReturnsNullopt) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::Socket reader(fds[0]);
  EXPECT_EQ(reader.read_frame_timeout(0.01), std::nullopt);
  ::close(fds[1]);
}

TEST(SocketFraming, PeerCloseMidFrameThrows) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::Socket reader(fds[0]);
  // Header promising 16 bytes, then only 3 arrive before EOF.
  const std::uint8_t partial[] = {16, 0, 0, 0, 1, 2, 3};
  ASSERT_EQ(::send(fds[1], partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(fds[1]);
  EXPECT_THROW((void)reader.read_frame_timeout(1.0), std::runtime_error);
}

// A length prefix alone must not size the receive buffer: a header claiming
// the largest legal frame (256 MiB) followed by a few bytes may cost only
// what arrived. The reader runs in a child whose address space may grow by
// 64 MiB, so a buffer sized from the prefix fails on every host.
TEST(SocketFraming, LengthPrefixAloneNeverSizesTheBuffer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::Socket reader(fds[0]);
  util::Socket writer(fds[1]);
  const std::uint32_t claimed = 1u << 28;
  std::vector<std::uint8_t> wire = {
      static_cast<std::uint8_t>(claimed), static_cast<std::uint8_t>(claimed >> 8),
      static_cast<std::uint8_t>(claimed >> 16),
      static_cast<std::uint8_t>(claimed >> 24)};
  for (int i = 0; i < 100; ++i) wire.push_back(static_cast<std::uint8_t>(i));
  ASSERT_EQ(::write(fds[1], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  writer.close();
  const auto outcome = testing::run_with_address_space_headroom(
      64u << 20, [&reader] {
        try {
          reader.read_frame_timeout(1.0);
        } catch (const std::runtime_error&) {
          return true;  // peer closed mid-frame, after buffering 100 bytes
        }
        return false;
      });
  EXPECT_EQ(outcome, testing::LimitedOutcome::kPassed) << testing::to_string(outcome);
}

TEST(SocketFraming, LargeFrameArrivesIntactAcrossBufferGrowth) {
  // A frame several times the first receive chunk, written in one go while
  // the reader grows its buffer with the bytes that arrive.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::Socket reader(fds[0]);
  util::Socket writer(fds[1]);
  const std::vector<std::uint8_t> big = pattern_frame(300000 + 17, 3);
  std::thread t([&writer, &big] {
    writer.write_frame(big);
    writer.write_frame({});
  });
  EXPECT_EQ(reader.read_frame(), big);
  EXPECT_TRUE(reader.read_frame().empty());
  t.join();
}

// ---- FaultyTransport --------------------------------------------------------

/// Records frames instead of sending them; never delivers reads.
class RecordingTransport final : public FrameTransport {
 public:
  void write_frame(const std::vector<std::uint8_t>& bytes) override {
    written.push_back(bytes);
  }
  std::optional<std::vector<std::uint8_t>> read_frame(double) override {
    return std::nullopt;
  }
  std::vector<std::vector<std::uint8_t>> written;
};

TEST(FaultyTransport, SameSeedSameSchedule) {
  const FaultProfile profile = FaultProfile::chaos(0.2);
  RecordingTransport a_inner, b_inner;
  FaultyTransport a(a_inner, 42, profile);
  FaultyTransport b(b_inner, 42, profile);
  for (int i = 0; i < 200; ++i) {
    const std::vector<std::uint8_t> frame = pattern_frame(32, static_cast<std::uint8_t>(i));
    a.write_frame(frame);
    b.write_frame(frame);
  }
  EXPECT_EQ(a_inner.written, b_inner.written);
  EXPECT_GT(a.stats().injected(), 0u);

  RecordingTransport c_inner;
  FaultyTransport c(c_inner, 43, profile);
  for (int i = 0; i < 200; ++i) {
    c.write_frame(pattern_frame(32, static_cast<std::uint8_t>(i)));
  }
  EXPECT_NE(a_inner.written, c_inner.written);
}

TEST(FaultyTransport, CleanProfilePassesThrough) {
  RecordingTransport inner;
  FaultyTransport t(inner, 7, FaultProfile{});
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 50; ++i) {
    sent.push_back(pattern_frame(16, static_cast<std::uint8_t>(i)));
    t.write_frame(sent.back());
  }
  EXPECT_EQ(inner.written, sent);
  EXPECT_EQ(t.stats().injected(), 0u);
}

// ---- ReliableLink -----------------------------------------------------------

/// In-memory bidirectional transport: two endpoints sharing a pair of
/// thread-safe frame queues, with condvar-timed reads.
class PairQueue {
 public:
  void push(std::vector<std::uint8_t> frame) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      frames_.push_back(std::move(frame));
    }
    cv_.notify_all();
  }
  std::optional<std::vector<std::uint8_t>> pop(double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool forever = timeout_s < 0.0;
    const auto pred = [&]() { return !frames_.empty(); };
    if (forever) {
      cv_.wait(lock, pred);
    } else if (!cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                             pred)) {
      return std::nullopt;
    }
    std::vector<std::uint8_t> out = std::move(frames_.front());
    frames_.pop_front();
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::vector<std::uint8_t>> frames_;
};

class PairEndpoint final : public FrameTransport {
 public:
  PairEndpoint(PairQueue& out, PairQueue& in) : out_(&out), in_(&in) {}
  void write_frame(const std::vector<std::uint8_t>& bytes) override {
    out_->push(bytes);
  }
  std::optional<std::vector<std::uint8_t>> read_frame(
      double timeout_s) override {
    return in_->pop(timeout_s);
  }

 private:
  PairQueue* out_;
  PairQueue* in_;
};

LinkConfig fast_link() {
  LinkConfig cfg;
  cfg.retransmit_timeout_s = 0.002;
  cfg.max_backoff_s = 0.02;
  // Generous: a parallel ctest run can starve one endpoint for seconds, and
  // that must look like latency here, not a dead peer.
  cfg.max_retransmit_rounds = 500;
  return cfg;
}

TEST(ReliableLink, ExactlyOnceInOrderUnderChaos) {
  PairQueue a_to_b, b_to_a;
  PairEndpoint a_end(a_to_b, b_to_a), b_end(b_to_a, a_to_b);
  // The adversary sits on A's side only — both directions pass through it,
  // mirroring the scheduler-side injection in the control plane.
  FaultyTransport a_faulty(a_end, 1234, FaultProfile::chaos(0.15));
  ReliableLink a(a_faulty, fast_link());
  ReliableLink b(b_end, fast_link());

  // Both loops use bounded waits and report through error strings so that
  // any failure mode — including a LinkDown on either side — ends in a
  // normal join and a readable assertion, never a joinable-thread abort.
  constexpr int kFrames = 300;
  constexpr double kWait = 30.0;
  std::string receiver_error;
  std::thread receiver([&]() {
    try {
      for (int i = 0; i < kFrames; ++i) {
        std::optional<std::vector<std::uint8_t>> f = b.recv(kWait);
        if (!f.has_value()) {
          receiver_error = "receiver starved at frame " + std::to_string(i);
          return;
        }
        if (*f != pattern_frame(24, static_cast<std::uint8_t>(i))) {
          receiver_error =
              "frame " + std::to_string(i) + " out of order or mangled";
          return;
        }
        // Talk back so A's recv loop has traffic to ack.
        b.send(pattern_frame(8, static_cast<std::uint8_t>(i)));
      }
      // Final-ack grace: keep servicing the link so the last echo is
      // retransmitted if the adversary ate it (A is still blocked on it)
      // and A's retransmitted tail frames keep getting re-acked. Bounded,
      // and reaching the deadline is not a failure: the very last ack of
      // any conversation can always be lost (two generals).
      const auto drain_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      try {
        while (!b.all_acked() &&
               std::chrono::steady_clock::now() < drain_deadline) {
          (void)b.recv(0.05);
        }
      } catch (const std::exception&) {
        // LinkDown here means the peer already got everything and left.
      }
    } catch (const std::exception& e) {
      receiver_error = std::string("receiver link error: ") + e.what();
    }
  });
  std::string sender_error;
  for (int i = 0; i < kFrames && sender_error.empty(); ++i) {
    try {
      a.send(pattern_frame(24, static_cast<std::uint8_t>(i)));
      std::optional<std::vector<std::uint8_t>> echo = a.recv(kWait);
      if (!echo.has_value()) {
        sender_error = "echo starved at frame " + std::to_string(i);
      } else if (*echo != pattern_frame(8, static_cast<std::uint8_t>(i))) {
        sender_error = "echo " + std::to_string(i) + " mangled";
      }
    } catch (const std::exception& e) {
      sender_error = std::string("sender link error: ") + e.what();
    }
  }
  receiver.join();
  EXPECT_EQ(sender_error, "");
  EXPECT_EQ(receiver_error, "");
  EXPECT_GT(a_faulty.stats().injected(), 0u)
      << "chaos profile injected nothing — the test proved nothing";
  EXPECT_EQ(a.stats().data_received, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(b.stats().data_received, static_cast<std::uint64_t>(kFrames));
}

TEST(ReliableLink, SilentPeerExhaustsRetransmissionRounds) {
  PairQueue a_to_b, b_to_a;
  PairEndpoint a_end(a_to_b, b_to_a);
  LinkConfig cfg;
  cfg.retransmit_timeout_s = 0.001;
  cfg.max_backoff_s = 0.004;
  cfg.max_retransmit_rounds = 5;
  ReliableLink a(a_end, cfg);
  a.send(pattern_frame(16, 1));
  EXPECT_FALSE(a.all_acked());
  EXPECT_THROW((void)a.recv(-1.0), LinkDown);
}

TEST(ReliableLink, PeerEofSurfacesAsLinkDown) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::Socket a_sock(fds[0]);
  util::SocketTransport a_trans(a_sock);
  ReliableLink a(a_trans, fast_link());
  ::close(fds[1]);
  EXPECT_THROW((void)a.recv(-1.0), LinkDown);
}

TEST(ReliableLink, RecvTimeoutWithQuietPeerReturnsNullopt) {
  PairQueue a_to_b, b_to_a;
  PairEndpoint a_end(a_to_b, b_to_a);
  ReliableLink a(a_end, fast_link());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(a.recv(0.02), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(15));
}

}  // namespace
}  // namespace score
