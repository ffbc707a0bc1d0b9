#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "sim/stats.hpp"

namespace bcs::net {

namespace {

// Binomial-tree software multicast (networks without hardware multicast).
// Relay order: src, dests[0], dests[1], ...  A position issues its sends
// once its own copy of the payload has arrived, so depth and contention are
// modelled by the chained unicasts themselves, each preceded by one
// software processing step on the relaying NIC.  Every pending closure
// holds the state; nothing in the state refers back to it, so the last
// delivery frees it.
struct SoftwareMulticast {
  struct Issue {
    std::size_t from, to;
  };
  std::vector<int> order;
  std::vector<Issue> schedule;
  NodeCallback per_dest;
  EventCallback all_done;
  std::size_t bytes = 0;
  std::size_t outstanding = 0;
};

// Issues every scheduled send out of position `pos` (whose copy just landed).
void issueSoftwareMulticast(Fabric& fabric,
                            const std::shared_ptr<SoftwareMulticast>& st,
                            std::size_t pos) {
  for (const SoftwareMulticast::Issue& is : st->schedule) {
    if (is.from != pos) continue;
    fabric.engine().after(
        fabric.params().sw_step_latency, [&fabric, st, is] {
          fabric.unicast(st->order[is.from], st->order[is.to], st->bytes,
                         [&fabric, st, to = is.to] {
                           if (st->per_dest) st->per_dest(st->order[to]);
                           issueSoftwareMulticast(fabric, st, to);
                           if (--st->outstanding == 0 && st->all_done) {
                             st->all_done();
                           }
                         });
        });
  }
}

}  // namespace

Fabric::Fabric(sim::Engine& engine, NetworkParams params, int num_nodes,
               sim::Trace* trace)
    : engine_(engine),
      params_(std::move(params)),
      num_nodes_(num_nodes),
      tree_(num_nodes, params_.radix),
      endpoints_(static_cast<std::size_t>(num_nodes)),
      trace_(trace) {}

void Fabric::checkNode(int node) const {
  if (node < 0 || node >= num_nodes_) {
    throw sim::SimError("Fabric: node index " + std::to_string(node) +
                        " out of range [0, " + std::to_string(num_nodes_) +
                        ")");
  }
}

Duration Fabric::baseLatency(int src, int dst) const {
  if (src == dst) return params_.pci_latency;
  return params_.wire_latency +
         static_cast<Duration>(tree_.hops(src, dst)) * params_.hop_latency;
}

void Fabric::unicast(int src, int dst, std::size_t bytes,
                     EventCallback on_delivered, EventCallback on_injected,
                     SendOptions opts) {
  checkNode(src);
  checkNode(dst);
  ++stats_.unicasts;
  stats_.payload_bytes += static_cast<std::uint64_t>(bytes);

  const SimTime now = engine_.now();

  // A down source NIC cannot inject anything: report failure after the ack
  // timeout without occupying the wire.
  if (fault_ && fault_->nodeDown(src, now)) {
    ++stats_.failed_sends;
    sim::traceRecord(trace_, now, sim::TraceCategory::kFault, src, [&] {
      return "unicast -> n" + std::to_string(dst) + " failed: source down";
    });
    if (opts.on_failed) {
      engine_.at(now + params_.ack_timeout, std::move(opts.on_failed));
    }
    return;
  }

  if (src == dst) {
    // NIC loopback: payload crosses the host bus twice but never the wire.
    const double bw =
        params_.pci_bandwidth > 0 ? params_.pci_bandwidth : params_.link_bandwidth;
    const auto xfer = static_cast<Duration>(static_cast<double>(bytes) / bw);
    const Duration total = params_.nic_tx_overhead + params_.nic_rx_overhead +
                           params_.pci_latency + xfer;
    if (on_injected) engine_.at(now + params_.nic_tx_overhead, std::move(on_injected));
    engine_.at(now + total, std::move(on_delivered));
    return;
  }

  const double bw = params_.effectiveBandwidth();
  const auto serial =
      static_cast<Duration>(std::ceil(static_cast<double>(bytes) / bw));

  Endpoint& e_src = endpoints_[static_cast<std::size_t>(src)];
  Endpoint& e_dst = endpoints_[static_cast<std::size_t>(dst)];

  const SimTime inject = now + params_.nic_tx_overhead + params_.pci_latency;
  const SimTime start_tx = std::max(inject, e_src.egress_free);
  setFree(e_src.egress_free, start_tx + serial);

  // Fault decisions: the packet occupies the source egress either way (it
  // was injected), but a lost packet never occupies the destination ingress
  // and never delivers.  The drop draw happens before the degrade draw so
  // the randomness stream is consumed in a fixed order.
  bool lost = false;
  Duration degrade = 0;
  if (fault_) {
    const bool dropped = opts.droppable && fault_->shouldDrop(src, dst);
    const bool dst_down = fault_->nodeDown(dst, now);
    lost = dropped || dst_down;
    if (dropped) {
      ++stats_.drops;
    } else if (dst_down) {
      ++stats_.failed_sends;
    }
    if (!lost && opts.droppable) degrade = fault_->degradeExtra();
  }

  const SimTime arrival = start_tx + baseLatency(src, dst) + serial + degrade;

  if (lost) {
    sim::traceRecord(trace_, now, sim::TraceCategory::kFault, src, [&] {
      return "unicast -> n" + std::to_string(dst) + " " +
             std::to_string(bytes) + "B lost";
    });
    if (on_injected) engine_.at(e_src.egress_free, std::move(on_injected));
    if (opts.on_failed) {
      engine_.at(arrival + params_.nic_rx_overhead + params_.ack_timeout,
                 std::move(opts.on_failed));
    }
    return;
  }

  const SimTime deliver_end =
      std::max(arrival, e_dst.ingress_free + serial);
  setFree(e_dst.ingress_free, deliver_end);

  const SimTime completion = deliver_end + params_.nic_rx_overhead;

  sim::traceRecord(trace_, now, sim::TraceCategory::kNet, src, [&] {
    return "unicast -> n" + std::to_string(dst) + " " +
           std::to_string(bytes) + "B, delivers at " +
           sim::formatTime(completion);
  });
  if (on_injected) engine_.at(e_src.egress_free, std::move(on_injected));
  engine_.at(completion, std::move(on_delivered));
}

void Fabric::multicast(int src, std::span<const int> dest_set,
                       std::size_t bytes, NodeCallback on_delivered_at,
                       EventCallback on_all) {
  checkNode(src);
  if (!dest_set.empty()) {
    const auto [lo, hi] =
        std::minmax_element(dest_set.begin(), dest_set.end());
    checkNode(*lo);
    checkNode(*hi);
  }
  const sim::Slots<Legs>::Ref legs = legs_.acquire();
  std::vector<int>& dests = legs->dests;
  dests.assign(dest_set.begin(), dest_set.end());
  // Most sets come sorted and duplicate-free (the runtime's live compute
  // nodes); only the source needs removing from those.
  if (!std::is_sorted(dests.begin(), dests.end())) {
    std::sort(dests.begin(), dests.end());
  }
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  const auto self = std::lower_bound(dests.begin(), dests.end(), src);
  if (self != dests.end() && *self == src) dests.erase(self);

  ++stats_.multicasts;
  stats_.payload_bytes +=
      static_cast<std::uint64_t>(bytes) *
      static_cast<std::uint64_t>(std::max<std::size_t>(dests.size(), 1));

  if (dests.empty()) {
    if (on_all) engine_.at(engine_.now(), std::move(on_all));
    return;
  }

  if (!params_.hw_multicast) {
    softwareMulticast(src, dests, bytes, std::move(on_delivered_at),
                      std::move(on_all));
    return;
  }

  const SimTime now = engine_.now();
  const double bw = params_.effectiveBandwidth();
  const auto serial =
      static_cast<Duration>(std::ceil(static_cast<double>(bytes) / bw));
  const double mbw = params_.mcast_bandwidth > 0 ? params_.mcast_bandwidth : bw;
  const auto dserial =
      static_cast<Duration>(std::ceil(static_cast<double>(bytes) / mbw));

  Endpoint& e_src = endpoints_[static_cast<std::size_t>(src)];
  const SimTime inject = now + params_.nic_tx_overhead + params_.pci_latency;
  const SimTime start_tx = std::max(inject, e_src.egress_free);
  setFree(e_src.egress_free, start_tx + serial);

  // The switch fans out; the fixed part is the depth of the tree.
  const Duration fanout_latency =
      params_.mcast_base_latency +
      static_cast<Duration>(tree_.levels()) * params_.hop_latency;

  // Legs to down destinations (or the whole fan-out, if the source is down)
  // are suppressed: the hardware multicast is reliable for live endpoints,
  // so live destinations still receive even when siblings are dead.  The
  // live ones are compacted to the front of `dests`, still ascending.
  const std::size_t fanout = dests.size();
  const bool src_down = fault_ && fault_->nodeDown(src, now);
  const SimTime arrival = start_tx + fanout_latency + dserial;
  SimTime last = start_tx + fanout_latency;  // fallback if no live dest
  std::size_t live = 0;
  for (const int d : dests) {
    if (src_down || (fault_ && fault_->nodeDown(d, now))) {
      ++stats_.suppressed_deliveries;
      sim::traceRecord(trace_, now, sim::TraceCategory::kFault, src, [&] {
        return "multicast leg -> n" + std::to_string(d) +
               " suppressed (endpoint down)";
      });
      continue;
    }
    Endpoint& e_dst = endpoints_[static_cast<std::size_t>(d)];
    setFree(e_dst.ingress_free,
            std::max(arrival, e_dst.ingress_free + dserial));
    last = std::max(last, e_dst.ingress_free + params_.nic_rx_overhead);
    dests[live++] = d;
  }
  dests.resize(live);
  sim::traceRecord(trace_, now, sim::TraceCategory::kNet, src, [&] {
    return "hw-multicast to " + std::to_string(fanout) + " nodes, " +
           std::to_string(bytes) + "B";
  });
  if (on_delivered_at && live > 0) {
    legs->per_dest = std::move(on_delivered_at);
    scheduleLegs(legs);
  }
  if (on_all) engine_.at(last, std::move(on_all));
}

// One engine event per distinct completion instant delivers every leg that
// lands then, in ascending destination order.  That is the order one event
// per leg would fire in: their keys would be drawn back to back in this
// call, so no other event could fall between two legs of one instant, and
// anything a leg schedules at that instant draws a later key and runs after
// the last leg.  A live leg's completion is its endpoint's fresh
// ingress_free plus the rx overhead (each destination appears once).  Each
// event holds the legs' slot, and the last one done frees it, also when a
// leg throws (the rest of its instant's legs are lost with the event, as
// with any event that throws).
void Fabric::scheduleLegs(const sim::Slots<Legs>::Ref& legs) {
  std::vector<int>& dests = legs->dests;
  const auto completion = [this](int d) {
    return endpoints_[static_cast<std::size_t>(d)].ingress_free +
           params_.nic_rx_overhead;
  };
  const auto by_instant = [&completion](int a, int b) {
    const SimTime ta = completion(a);
    const SimTime tb = completion(b);
    return ta != tb ? ta < tb : a < b;
  };
  // Uncontended legs all land at once and are already in order.
  if (!std::is_sorted(dests.begin(), dests.end(), by_instant)) {
    std::sort(dests.begin(), dests.end(), by_instant);
  }
  const auto n = static_cast<std::uint32_t>(dests.size());
  for (std::uint32_t begin = 0; begin < n;) {
    const SimTime t = completion(dests[begin]);
    std::uint32_t end = begin + 1;
    while (end < n && completion(dests[end]) == t) ++end;
    engine_.at(t, [legs, begin, end] {
      for (std::uint32_t i = begin; i < end; ++i) {
        legs->per_dest(legs->dests[i]);
      }
    });
    begin = end;
  }
}

void Fabric::softwareMulticast(int src, std::span<const int> dests,
                               std::size_t bytes, NodeCallback on_delivered_at,
                               EventCallback on_all) {
  auto st = std::make_shared<SoftwareMulticast>();
  st->order.reserve(dests.size() + 1);
  st->order.push_back(src);
  st->order.insert(st->order.end(), dests.begin(), dests.end());
  st->per_dest = std::move(on_delivered_at);
  st->all_done = std::move(on_all);
  st->bytes = bytes;
  st->outstanding = dests.size();

  // Doubling schedule: in round r (r = 1, 2, 4, ...), every position p < r
  // with p + r < n sends to position p + r.
  const std::size_t n = st->order.size();
  for (std::size_t r = 1; r < 2 * n; r <<= 1) {
    for (std::size_t p = 0; p < r && p + r < n; ++p) {
      st->schedule.push_back({p, p + r});
    }
  }
  issueSoftwareMulticast(*this, st, 0);
}

void Fabric::addStats(const FabricStats& delta) {
  stats_ = sim::zipCounters(stats_, delta, std::plus<>());
}

Duration Fabric::conditionalLatency(int n) const {
  if (n <= 1) return params_.hw_conditional ? params_.cond_base_latency
                                            : params_.sw_step_latency;
  if (params_.hw_conditional) {
    // Query broadcast down + combine up, pipelined in the switches.
    const int levels = tree_.levels();
    return params_.cond_base_latency +
           static_cast<Duration>(levels) * params_.cond_hop_latency;
  }
  // Software tree: one step per level of a binary reduction.
  const int steps =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(n))));
  return static_cast<Duration>(steps) * params_.sw_step_latency;
}

void Fabric::conditional(int src, const std::vector<int>& nodes,
                         sim::InlineFunction<bool(int)> eval,
                         NodeCallback write,
                         sim::InlineFunction<void(bool)> on_result) {
  checkNode(src);
  for (int d : nodes) checkNode(d);
  ++stats_.conditionals;

  sim::Slots<Round>::Ref round = rounds_.acquire();
  round->src = src;
  round->nodes.assign(nodes.begin(), nodes.end());
  round->eval = std::move(eval);
  round->write = std::move(write);
  round->on_result = std::move(on_result);
  engine_.after(conditionalLatency(static_cast<int>(nodes.size())),
                [this, round = std::move(round)]() mutable {
                  evaluate(std::move(round));
                });
}

void Fabric::evaluate(sim::Slots<Round>::Ref held) {
  const SimTime now = engine_.now();
  sim::InlineFunction<void(bool)> on_result;
  bool all = true;
  {
    // The round's slot is free again before its result runs, which may
    // issue the next round, and also when an evaluation or write throws.
    const sim::Slots<Round>::Ref slot = std::move(held);
    Round& round = *slot;
    on_result = std::move(round.on_result);
    // A round whose issuing NIC died before the combine returns delivers
    // its result to no one: the poll chain of a dead Strobe Sender ends
    // here instead of keeping a ghost SS alive.  (Down *participants*
    // merely evaluate false, below — the issuer is special.)
    if (fault_ && fault_->nodeDown(round.src, now)) {
      ++stats_.suppressed_conditionals;
      sim::traceRecord(
          trace_, now, sim::TraceCategory::kFault, round.src,
          [] { return "conditional result suppressed: issuer down"; });
      return;
    }
    for (int n : round.nodes) {
      // A down node never answers the query broadcast, so the combine
      // reports false — the conditional cannot hang, it just fails.
      if ((fault_ && fault_->nodeDown(n, now)) || !round.eval(n)) {
        all = false;
        break;
      }
    }
    if (all && round.write) {
      for (int n : round.nodes) round.write(n);
    }
  }
  if (on_result) on_result(all);
}

}  // namespace bcs::net
