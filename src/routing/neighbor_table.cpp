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
  NeighborInfo& n = neighbors_[addr];
  // TTL ordering: liveness timestamps never move backwards — the
  // simulator clock is monotone, so a regression means a stale entry
  // escaped a sweep or an event fired out of order.
  WMN_CHECK_GE(sim_.now(), n.last_heard, "neighbour liveness went backwards");
  n.addr = addr;
  n.last_heard = sim_.now();
  n.last_seqno = seqno;
  n.load_index = load_index;
  n.degree = degree;
}

void NeighborTable::refresh(net::Address addr) {
  auto it = neighbors_.find(addr);
  if (it != neighbors_.end()) it->second.last_heard = sim_.now();
}

const NeighborInfo* NeighborTable::info(net::Address addr) const {
  auto it = neighbors_.find(addr);
  return it == neighbors_.end() ? nullptr : &it->second;
}

std::vector<NeighborInfo> NeighborTable::snapshot() const {
  std::vector<NeighborInfo> out;
  out.reserve(neighbors_.size());
  // Unordered iteration is safe here by construction: the snapshot is
  // sorted by address before it escapes, so callers never observe
  // bucket layout. (Allowlist policy: every NOLINT on this check must
  // state *why* hash order cannot leak — see docs/TOOLING.md.)
  // NOLINTNEXTLINE(wmn-unordered-iteration)
  for (const auto& [addr, info] : neighbors_) out.push_back(info);
  std::sort(out.begin(), out.end(),
            [](const NeighborInfo& a, const NeighborInfo& b) {
              return a.addr < b.addr;
            });
  return out;
}

double NeighborTable::mean_neighbor_load() const {
  if (neighbors_.empty()) return 0.0;
  double sum = 0.0;
  // Commutative-by-construction for the determinism contract: this is
  // a load-index sum whose operands come from one node's serial event
  // stream, so for a given (binary, seed) the visit order — and hence
  // the floating-point rounding — is a pure function of the insertion
  // history. No event or packet is emitted per element.
  // NOLINTNEXTLINE(wmn-unordered-iteration)
  for (const auto& [addr, info] : neighbors_) sum += info.load_index;
  return sum / static_cast<double>(neighbors_.size());
}

void NeighborTable::pause() {
  sim_.cancel(sweep_timer_);
  neighbors_.clear();
}

void NeighborTable::resume() {
  if (sim_.pending(sweep_timer_)) return;  // already running
  sweep_timer_ = sim_.schedule(lifetime_ / 2, [this] { sweep(); });
}

void NeighborTable::sweep() {
  const sim::Time now = sim_.now();
  std::vector<net::Address> lost;
  // Expiry is judged per entry against `now`, so the visit order cannot
  // change *which* neighbours are lost, and the collection is sorted
  // below before any callback fires.
  // NOLINTNEXTLINE(wmn-unordered-iteration)
  for (auto it = neighbors_.begin(); it != neighbors_.end();) {
    if (it->second.last_heard + lifetime_ <= now) {
      lost.push_back(it->first);
      it = neighbors_.erase(it);
    } else {
      WMN_CHECK_LE(it->second.last_heard, now,
                   "surviving neighbour heard in the future");
      ++it;
    }
  }
  // Loss callbacks tear down routes and can emit RERRs; firing them in
  // hash order would leak unordered_map bucket layout into the event
  // stream. Sort so the fan-out order is a function of logical content.
  std::sort(lost.begin(), lost.end());
  for (net::Address a : lost) {
    if (loss_cb_) loss_cb_(a);
  }
  sweep_timer_ = sim_.schedule(lifetime_ / 2, [this] { sweep(); });
}

}  // namespace wmn::routing
