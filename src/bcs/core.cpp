#include "bcs/core.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace bcs::core {

const char* cmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kGE: return ">=";
    case CmpOp::kLT: return "<";
    case CmpOp::kEQ: return "==";
    case CmpOp::kNE: return "!=";
  }
  return "?";
}

bool cmpEval(CmpOp op, std::int64_t lhs, std::int64_t rhs) {
  switch (op) {
    case CmpOp::kGE: return lhs >= rhs;
    case CmpOp::kLT: return lhs < rhs;
    case CmpOp::kEQ: return lhs == rhs;
    case CmpOp::kNE: return lhs != rhs;
  }
  return false;
}

BcsCore::BcsCore(net::Fabric& fabric, sim::Trace* trace)
    : fabric_(fabric), trace_(trace) {}

GlobalVarId BcsCore::allocVar(std::string name, std::int64_t initial) {
  vars_.emplace_back(static_cast<std::size_t>(numNodes()), initial);
  var_names_.push_back(std::move(name));
  return static_cast<GlobalVarId>(vars_.size()) - 1;
}

void BcsCore::checkVar(GlobalVarId var) const {
  if (var < 0 || static_cast<std::size_t>(var) >= vars_.size()) {
    throw sim::SimError("BcsCore: bad global variable id " +
                        std::to_string(var));
  }
}

void BcsCore::checkEvent(GlobalEventId ev) const {
  if (ev < 0 || static_cast<std::size_t>(ev) >= events_.size()) {
    throw sim::SimError("BcsCore: bad event id " + std::to_string(ev));
  }
}

std::int64_t BcsCore::readVar(int node, GlobalVarId var) const {
  checkVar(var);
  return vars_[static_cast<std::size_t>(var)].at(static_cast<std::size_t>(node));
}

void BcsCore::writeVarLocal(int node, GlobalVarId var, std::int64_t value) {
  checkVar(var);
  vars_[static_cast<std::size_t>(var)].at(static_cast<std::size_t>(node)) =
      value;
}

void BcsCore::fillVarLocal(int first, int count, GlobalVarId var,
                           std::int64_t value) {
  checkVar(var);
  std::vector<std::int64_t>& copies = vars_[static_cast<std::size_t>(var)];
  if (first < 0 || count < 0 ||
      static_cast<std::size_t>(first) + static_cast<std::size_t>(count) >
          copies.size()) {
    throw sim::SimError("BcsCore: node range out of bounds");
  }
  std::fill_n(copies.begin() + first, count, value);
}

GlobalEventId BcsCore::allocEvent(std::string name) {
  events_.emplace_back(static_cast<std::size_t>(numNodes()));
  event_names_.push_back(std::move(name));
  return static_cast<GlobalEventId>(events_.size()) - 1;
}

BcsCore::EventState& BcsCore::eventState(int node, GlobalEventId ev) {
  checkEvent(ev);
  return events_[static_cast<std::size_t>(ev)].at(
      static_cast<std::size_t>(node));
}

const BcsCore::EventState& BcsCore::eventState(int node,
                                               GlobalEventId ev) const {
  checkEvent(ev);
  return events_[static_cast<std::size_t>(ev)].at(
      static_cast<std::size_t>(node));
}

void BcsCore::signalLocal(int node, GlobalEventId ev, int count) {
  EventState& st = eventState(node, ev);
  st.pending += count;
  // Release waiters FIFO, one pending signal each.  Callbacks are deferred
  // through the engine so a waiter can re-arm without re-entrancy surprises.
  while (st.pending > 0 && !st.waiters.empty()) {
    --st.pending;
    std::function<void()> cb = std::move(st.waiters.front());
    st.waiters.pop_front();
    fabric_.engine().at(fabric_.engine().now(), std::move(cb));
  }
}

bool BcsCore::testEvent(int node, GlobalEventId ev) const {
  return eventState(node, ev).pending > 0;
}

int BcsCore::pendingSignals(int node, GlobalEventId ev) const {
  return eventState(node, ev).pending;
}

void BcsCore::waitEventAsync(int node, GlobalEventId ev,
                             std::function<void()> cb) {
  EventState& st = eventState(node, ev);
  if (st.pending > 0 && st.waiters.empty()) {
    --st.pending;
    fabric_.engine().at(fabric_.engine().now(), std::move(cb));
    return;
  }
  st.waiters.push_back(std::move(cb));
}

void BcsCore::testEventBlocking(sim::Process& proc, GlobalEventId ev) {
  waitEventAsync(proc.node(), ev, [&proc] { proc.wake(); });
  proc.block();
}

void BcsCore::xferAndSignal(XferRequest req) {
  const std::span<const int> dests = req.dest_nodes;
  sim::traceRecord(trace_, fabric_.engine().now(), sim::TraceCategory::kBcsCore,
                   req.src_node, [&] {
                     return "Xfer-And-Signal " + std::to_string(req.bytes) +
                            "B to " + std::to_string(dests.size()) +
                            " node(s)";
                   });
  if (dests.empty()) {
    throw sim::SimError("Xfer-And-Signal: empty destination set");
  }

  // A multicast that signals no event needs no shared state: the fabric
  // holds `deliver` and `on_all` itself.  A request with no `deliver`
  // either gives the fabric no per-destination callback, so the multicast
  // schedules no per-destination engine events at all, only the aggregate
  // `on_all` completion — one event per fan-out, however wide.
  const bool events = req.remote_event >= 0 || req.local_event >= 0;
  if (dests.size() > 1 && !events) {
    fabric_.multicast(req.src_node, dests, req.bytes, std::move(req.deliver),
                      std::move(req.on_all));
    return;
  }

  // Every other shape shares the request itself (one allocation); each
  // closure below is a pointer pair that fits the inline callback slot.
  // The shared copy keeps no view of the caller's destination set.
  req.dest_nodes = {};
  auto st = std::make_shared<XferRequest>(std::move(req));
  if (dests.size() == 1) {
    const int dest = dests.front();
    net::SendOptions opts;
    opts.droppable = st->droppable;
    if (st->on_failed) {
      opts.on_failed = [st, dest] { st->on_failed(dest); };
    }
    fabric_.unicast(
        st->src_node, dest, st->bytes,
        [this, st, dest] {
          deliverXfer(*st, dest);
          completeXfer(*st);
        },
        /*on_injected=*/{}, std::move(opts));
    return;
  }
  net::NodeCallback per_dest_cb;
  if (st->deliver || st->remote_event >= 0) {
    per_dest_cb = [this, st](int dest) { deliverXfer(*st, dest); };
  }
  fabric_.multicast(st->src_node, dests, st->bytes, std::move(per_dest_cb),
                    [this, st] { completeXfer(*st); });
}

void BcsCore::deliverXfer(const XferRequest& req, int dest) {
  if (req.deliver) req.deliver(dest);
  if (req.remote_event >= 0) signalLocal(dest, req.remote_event);
}

void BcsCore::completeXfer(const XferRequest& req) {
  if (req.local_event >= 0) signalLocal(req.src_node, req.local_event);
  if (req.on_all) req.on_all();
}

void BcsCore::traceCompareAndWrite(const CompareAndWriteRequest& req,
                                   sim::SimTime at) {
  sim::traceRecord(trace_, at, sim::TraceCategory::kBcsCore, req.src_node, [&] {
    return "Compare-And-Write " +
           var_names_[static_cast<std::size_t>(req.var)] + " " +
           cmpOpName(req.op) + " " + std::to_string(req.value) + " on " +
           std::to_string(req.nodes.size()) + " node(s)";
  });
}

void BcsCore::compareAndWriteAsync(const CompareAndWriteRequest& req,
                                   sim::InlineFunction<void(bool)> on_result) {
  checkVar(req.var);
  if (req.do_write) checkVar(req.write_var);
  if (req.nodes.empty()) {
    throw sim::SimError("Compare-And-Write: empty node set");
  }
  traceCompareAndWrite(req, fabric_.engine().now());
  // The evaluation and the write capture the fields they read by value, so
  // the round holds no reference to the request.
  net::NodeCallback write;
  if (req.do_write) {
    write = [this, var = req.write_var, value = req.write_value](int node) {
      writeVarLocal(node, var, value);
    };
  }
  fabric_.conditional(
      req.src_node, req.nodes,
      [this, op = req.op, var = req.var, value = req.value](int node) {
        return cmpEval(op, readVar(node, var), value);
      },
      std::move(write), std::move(on_result));
}

void BcsCore::countFailedCompareAndWrite(const CompareAndWriteRequest& req,
                                         sim::SimTime at) {
  traceCompareAndWrite(req, at);
  fabric_.countConditional();
}

bool BcsCore::compareAndWriteBlocking(sim::Process& proc,
                                      const CompareAndWriteRequest& req) {
  bool result = false;
  compareAndWriteAsync(req, [&proc, &result](bool ok) {
    result = ok;
    proc.wake();
  });
  proc.block();
  return result;
}

}  // namespace bcs::core
