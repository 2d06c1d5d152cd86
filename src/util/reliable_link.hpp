// Exactly-once, in-order frame delivery over an adversarial transport.
//
// Every application frame is wrapped in an "SCLK" envelope: kind (DATA/ACK),
// a 32-bit sequence number and an FNV-1a checksum over kind+seq+payload.
// The receiver acks every valid DATA frame with the highest in-order
// sequence it holds (cumulative ack), drops corrupt/truncated envelopes,
// buffers out-of-order arrivals and re-acks duplicates. The sender keeps
// unacked frames and retransmits them with bounded exponential backoff,
// driven from recv() — both ends of the control plane are always inside a
// recv() when they have something outstanding, so no timer thread is needed.
//
// The contract the chaos tier leans on: under any injected fault schedule
// (drop/duplicate/corrupt/truncate/reorder/delay at frame granularity), the
// sequence of payloads recv() yields is exactly the sequence the peer passed
// to send(), or LinkDown is thrown — never a gap, never a duplicate, never a
// mangled frame. Retransmission happens in real time and is invisible to the
// virtual-time scheduler above, which is why fault-free and faulty runs
// produce bit-identical results.
//
// Allocation is bounded by what arrived: the envelope carries no length
// field (the payload is the rest of the transport frame), so every buffer
// the receiver keeps is a copy of bytes it was actually sent, and at most
// 2^16 out-of-order frames (the receive window) are held.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/transport.hpp"

namespace score::util {

struct LinkConfig {
  double retransmit_timeout_s = 0.05;  ///< initial retransmit timer
  double backoff_factor = 2.0;
  double max_backoff_s = 1.0;
  /// Consecutive silent retransmission rounds before the peer is declared
  /// dead. With the defaults this is ~8 s of silence in the worst case.
  std::size_t max_retransmit_rounds = 12;
};

struct LinkStats {
  std::uint64_t data_sent = 0, data_received = 0;
  std::uint64_t acks_sent = 0, acks_received = 0;
  std::uint64_t retransmit_rounds = 0, retransmitted_frames = 0;
  std::uint64_t duplicates_dropped = 0, corrupt_dropped = 0;
  std::uint64_t out_of_order_buffered = 0;
};

/// The peer is unreachable: transport EOF/error, or retransmission rounds
/// exhausted without an ack. The caller decides whether that means recovery
/// (scheduler), reconnect (daemon) or a clean exit.
class LinkDown : public std::runtime_error {
 public:
  explicit LinkDown(const std::string& what)
      : std::runtime_error("link: " + what) {}
};

class ReliableLink {
 public:
  explicit ReliableLink(FrameTransport& transport, LinkConfig config = {});

  /// Queue + transmit one payload. Delivery is confirmed lazily via acks
  /// consumed by recv(); send() itself never blocks on the peer.
  void send(const std::vector<std::uint8_t>& payload);

  /// Next in-order payload, or nullopt if `timeout_s` elapses first
  /// (negative = wait forever). Drives retransmission of unacked outgoing
  /// frames while waiting. Throws LinkDown when the peer is unreachable.
  std::optional<std::vector<std::uint8_t>> recv(double timeout_s);

  /// True when every sent frame has been acked — used by the daemon to
  /// linger until its final result actually reached the scheduler.
  bool all_acked() const { return unacked_.empty(); }

  const LinkStats& stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  double rto() const;
  void transmit(std::uint32_t seq, const std::vector<std::uint8_t>& payload);
  void send_ack();
  void on_frame(std::vector<std::uint8_t> frame);
  void write_or_throw(const std::vector<std::uint8_t>& frame);

  FrameTransport* transport_;
  LinkConfig config_;
  LinkStats stats_;
  std::uint32_t tx_next_ = 1;  ///< next seq to assign
  std::uint32_t rx_next_ = 1;  ///< next seq to deliver
  std::deque<std::pair<std::uint32_t, std::vector<std::uint8_t>>> unacked_;
  std::map<std::uint32_t, std::vector<std::uint8_t>> rx_buffer_;
  std::deque<std::vector<std::uint8_t>> ready_;
  std::size_t backoff_rounds_ = 0;
  Clock::time_point retransmit_at_{};
};

}  // namespace score::util
