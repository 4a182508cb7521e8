#include "routing/neighbor_table.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace wmn::routing {

NeighborTable::NeighborTable(sim::Simulator& simulator, sim::Time hello_interval,
                             std::uint32_t allowed_loss)
    : sim_(simulator),
      lifetime_(hello_interval * static_cast<std::int64_t>(allowed_loss) +
                hello_interval / 2) {
  WMN_CHECK_GT(lifetime_.ns(), std::int64_t{0},
               "neighbour lifetime must be positive or nothing ever expires");
  // Sweep at half the lifetime: detection latency is bounded by
  // lifetime * 1.5 while keeping the timer cheap.
  sweep_timer_ = sim_.schedule(lifetime_ / 2, [this] { sweep(); });
}

NeighborTable::~NeighborTable() { sim_.cancel(sweep_timer_); }

void NeighborTable::heard(net::Address addr, std::uint32_t seqno,
                          double load_index, std::uint16_t degree) {
  const std::size_t i = position(addr);
  if (i == neighbors_.size() || neighbors_[i].addr != addr) {
    neighbors_.insert(neighbors_.begin() + static_cast<std::ptrdiff_t>(i),
                      NeighborInfo{.addr = addr});
  }
  NeighborInfo& n = neighbors_[i];
  // TTL ordering: liveness timestamps never move backwards — the
  // simulator clock is monotone, so a regression means a stale entry
  // escaped a sweep or an event fired out of order.
  WMN_CHECK_GE(sim_.now(), n.last_heard, "neighbour liveness went backwards");
  n.last_heard = sim_.now();
  n.last_seqno = seqno;
  n.load_index = load_index;
  n.degree = degree;
  mean_load_stale_ = true;
}

void NeighborTable::refresh(net::Address addr) {
  const std::size_t i = position(addr);
  if (i != neighbors_.size() && neighbors_[i].addr == addr) {
    neighbors_[i].last_heard = sim_.now();
  }
}

const NeighborInfo* NeighborTable::info(net::Address addr) const {
  const std::size_t i = position(addr);
  return i != neighbors_.size() && neighbors_[i].addr == addr ? &neighbors_[i]
                                                              : nullptr;
}

double NeighborTable::mean_neighbor_load() const {
  if (!mean_load_stale_) return mean_load_;
  mean_load_stale_ = false;
  double sum = 0.0;
  for (const NeighborInfo& n : neighbors_) sum += n.load_index;
  mean_load_ = neighbors_.empty()
                   ? 0.0
                   : sum / static_cast<double>(neighbors_.size());
  return mean_load_;
}

void NeighborTable::pause() {
  sim_.cancel(sweep_timer_);
  neighbors_.clear();
  mean_load_stale_ = true;
}

void NeighborTable::resume() {
  if (sim_.pending(sweep_timer_)) return;  // already running
  sweep_timer_ = sim_.schedule(lifetime_ / 2, [this] { sweep(); });
}

void NeighborTable::sweep() {
  const sim::Time now = sim_.now();
  std::vector<net::Address> lost;
  std::erase_if(neighbors_, [&](const NeighborInfo& n) {
    if (n.last_heard + lifetime_ > now) {
      WMN_CHECK_LE(n.last_heard, now, "surviving neighbour heard in the future");
      return false;
    }
    lost.push_back(n.addr);
    return true;
  });
  mean_load_stale_ = true;
  // Loss callbacks tear down routes and can emit RERRs; they fire in
  // address order, after every lost neighbour has left the table.
  for (net::Address a : lost) {
    if (loss_cb_) loss_cb_(a);
  }
  sweep_timer_ = sim_.schedule(lifetime_ / 2, [this] { sweep(); });
}

}  // namespace wmn::routing
