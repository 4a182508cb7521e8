#include "phy/spatial_index.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"

namespace wmn::phy {

namespace {

// Minimum separation between two axis-aligned boxes along one axis;
// zero when the intervals overlap.
double axis_gap(double lo_a, double hi_a, double lo_b, double hi_b) {
  if (hi_a < lo_b) return lo_b - hi_a;
  if (hi_b < lo_a) return lo_a - hi_b;
  return 0.0;
}

// Lower bound on the distance between any point of `a` and any point
// of `b` — the provable cull test for a whole movement epoch.
double min_box_distance(const mobility::TrajectoryBounds& a,
                        const mobility::TrajectoryBounds& b) {
  const double gx = axis_gap(a.lo.x, a.hi.x, b.lo.x, b.hi.x);
  const double gy = axis_gap(a.lo.y, a.hi.y, b.lo.y, b.hi.y);
  return std::hypot(gx, gy);
}

}  // namespace

SpatialIndex::SpatialIndex(double area_width_m, double area_height_m,
                           double cell_size_m)
    : cell_size_m_(cell_size_m) {
  WMN_CHECK(area_width_m > 0.0 && area_height_m > 0.0 && cell_size_m > 0.0,
            "spatial index needs a positive area and cell size");
  nx_ = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(area_width_m / cell_size_m)));
  ny_ = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(area_height_m / cell_size_m)));
  cells_.resize(static_cast<std::size_t>(nx_) * ny_);
}

SpatialIndex::~SpatialIndex() {
  // Detach from models that may outlive the index (test fixtures own
  // them separately); a bump after our death must not touch us.
  for (const Node& n : nodes_) {
    if (n.model != nullptr) n.model->set_motion_listener(nullptr, 0);
  }
}

std::uint32_t SpatialIndex::cell_x(double x) const {
  const double c = std::floor(x / cell_size_m_);
  if (!(c > 0.0)) return 0;  // also catches NaN
  return std::min(static_cast<std::uint32_t>(c), nx_ - 1);
}

std::uint32_t SpatialIndex::cell_y(double y) const {
  const double c = std::floor(y / cell_size_m_);
  if (!(c > 0.0)) return 0;
  return std::min(static_cast<std::uint32_t>(c), ny_ - 1);
}

void SpatialIndex::add_node(const mobility::MobilityModel* model) {
  WMN_CHECK_NOTNULL(model, "add_node(nullptr)");
  const auto i = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[i].model = model;
  stamp_.push_back(0);
  model->set_motion_listener(this, i);
  bin(i);
  ++version_;
}

void SpatialIndex::on_motion_epoch(std::uint32_t token) {
  Node& n = nodes_[token];
  if (n.dirty) return;
  n.dirty = true;
  dirty_.push_back(token);
}

void SpatialIndex::refresh() {
  if (dirty_.empty()) return;
  for (const std::uint32_t i : dirty_) {
    unbin(i);
    bin(i);
    nodes_[i].dirty = false;
  }
  dirty_.clear();
  ++version_;
}

void SpatialIndex::bin(std::uint32_t i) {
  Node& n = nodes_[i];
  n.bounds = n.model->trajectory_bounds();
  if (!n.bounds.is_bounded()) {
    n.roamer = true;
    roamers_.insert(
        std::lower_bound(roamers_.begin(), roamers_.end(), i), i);
    return;
  }
  const std::uint32_t cx0 = cell_x(n.bounds.lo.x);
  const std::uint32_t cx1 = cell_x(n.bounds.hi.x);
  const std::uint32_t cy0 = cell_y(n.bounds.lo.y);
  const std::uint32_t cy1 = cell_y(n.bounds.hi.y);
  const std::uint64_t span = static_cast<std::uint64_t>(cx1 - cx0 + 1) *
                             static_cast<std::uint64_t>(cy1 - cy0 + 1);
  if (span > kRoamerCellLimit) {
    // A leg crossing much of the area: cheaper as an always-candidate
    // than splatted over dozens of cells. Bounds stay valid for the
    // per-pair distance test.
    n.roamer = true;
    roamers_.insert(
        std::lower_bound(roamers_.begin(), roamers_.end(), i), i);
    return;
  }
  n.roamer = false;
  n.cx0 = cx0;
  n.cx1 = cx1;
  n.cy0 = cy0;
  n.cy1 = cy1;
  for (std::uint32_t cy = cy0; cy <= cy1; ++cy) {
    for (std::uint32_t cx = cx0; cx <= cx1; ++cx) {
      cells_[static_cast<std::size_t>(cy) * nx_ + cx].push_back(i);
    }
  }
}

void SpatialIndex::unbin(std::uint32_t i) {
  Node& n = nodes_[i];
  if (n.roamer) {
    const auto it = std::lower_bound(roamers_.begin(), roamers_.end(), i);
    if (it != roamers_.end() && *it == i) roamers_.erase(it);
    return;
  }
  for (std::uint32_t cy = n.cy0; cy <= n.cy1; ++cy) {
    for (std::uint32_t cx = n.cx0; cx <= n.cx1; ++cx) {
      auto& cell = cells_[static_cast<std::size_t>(cy) * nx_ + cx];
      const auto it = std::find(cell.begin(), cell.end(), i);
      if (it != cell.end()) cell.erase(it);
    }
  }
}

void SpatialIndex::gather(std::uint32_t src, double range_m,
                          std::vector<std::uint32_t>& out) {
  out.clear();
  const Node& s = nodes_[src];
  const bool cullable = std::isfinite(range_m) && !s.roamer;
  if (!cullable) {
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      if (i != src) out.push_back(i);
    }
    return;
  }

  if (++query_id_ == 0) {  // stamp wraparound: reset and restart
    std::fill(stamp_.begin(), stamp_.end(), 0);
    query_id_ = 1;
  }

  const std::uint32_t cx0 = cell_x(s.bounds.lo.x - range_m);
  const std::uint32_t cx1 = cell_x(s.bounds.hi.x + range_m);
  const std::uint32_t cy0 = cell_y(s.bounds.lo.y - range_m);
  const std::uint32_t cy1 = cell_y(s.bounds.hi.y + range_m);
  for (std::uint32_t cy = cy0; cy <= cy1; ++cy) {
    for (std::uint32_t cx = cx0; cx <= cx1; ++cx) {
      for (const std::uint32_t i :
           cells_[static_cast<std::size_t>(cy) * nx_ + cx]) {
        if (i == src || stamp_[i] == query_id_) continue;
        stamp_[i] = query_id_;
        // Exact epoch-level test: skip only when the two bounds are
        // provably farther apart than the range for the whole epoch.
        if (min_box_distance(s.bounds, nodes_[i].bounds) > range_m) continue;
        out.push_back(i);
      }
    }
  }
  for (const std::uint32_t i : roamers_) {
    if (i == src || stamp_[i] == query_id_) continue;
    stamp_[i] = query_id_;
    if (min_box_distance(s.bounds, nodes_[i].bounds) > range_m) continue;
    out.push_back(i);
  }
  std::sort(out.begin(), out.end());
}

}  // namespace wmn::phy
