// Spatial neighbourhood index for the channel broadcast hot path.
//
// A uniform grid over the deployment area, cell size derived from the
// radios' detection range. Every attached node is binned by its
// mobility model's trajectory_bounds() — a region that provably
// contains the node for the lifetime of its current movement epoch —
// so a range query ("who could possibly be within R of this
// transmitter?") touches only the cells the query disk overlaps
// instead of walking all N radios. Nodes whose bounds are unbounded
// (or span too many cells to be worth binning) are *roamers*: they are
// included in every query, which makes the index transparently
// conservative — over-inclusion costs a little work, never
// correctness.
//
// Invalidation is push-based: the index registers itself as each
// model's MotionListener, so an epoch bump (new RWP leg, explicit
// set_position) marks just that node dirty. refresh() re-bins dirty
// nodes and bumps a structure version; the channel keys its per-source
// candidate caches on that version. An all-static mesh therefore pays
// for binning exactly once per run.
//
// Determinism contract: gather() returns candidate indices in
// ascending attach order, and only ever *excludes* a node when its
// epoch bounds are provably farther than the query range — so the
// caller's delivered sets, drop counters, and event order are
// bit-identical to the channel's per-pair scan (see docs/TOOLING.md).
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "mobility/vec2.hpp"

namespace wmn::phy {

class SpatialIndex final : public mobility::MotionListener {
 public:
  // Grid over [0, area_width] x [0, area_height]; positions outside
  // the area are clamped into the boundary cells (still correct, just
  // coarser there). cell_size_m > 0.
  SpatialIndex(double area_width_m, double area_height_m, double cell_size_m);
  ~SpatialIndex() override;

  SpatialIndex(const SpatialIndex&) = delete;
  SpatialIndex& operator=(const SpatialIndex&) = delete;

  // Register the next node (attach order = index order). Registers the
  // index as the model's motion listener and bins the node.
  void add_node(const mobility::MobilityModel* model);

  // Re-bin every node whose movement epoch changed since the last
  // refresh. Cheap no-op when nothing moved.
  void refresh();

  // Bumped whenever any node is (re)binned; callers cache derived
  // structures keyed on this value.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  // Bounds captured at the last (re)bin of node i. A *point* bound
  // means the node's position is pinned until its next epoch bump —
  // the precondition for caching link budgets against it.
  [[nodiscard]] const mobility::TrajectoryBounds& bounds(std::uint32_t i) const {
    return nodes_[i].bounds;
  }
  [[nodiscard]] bool pinned(std::uint32_t i) const {
    return nodes_[i].bounds.is_point();
  }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t roamer_count() const { return roamers_.size(); }

  // Dynamic footprint (grid bins + per-node records + scratch) — feeds
  // the channel's bytes_per_node accounting.
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = sizeof(*this) +
                        nodes_.capacity() * sizeof(Node) +
                        roamers_.capacity() * sizeof(std::uint32_t) +
                        dirty_.capacity() * sizeof(std::uint32_t) +
                        stamp_.capacity() * sizeof(std::uint32_t) +
                        cells_.capacity() * sizeof(std::vector<std::uint32_t>);
    for (const auto& c : cells_) bytes += c.capacity() * sizeof(std::uint32_t);
    return bytes;
  }

  // Candidate receivers for a transmission from node `src` that can
  // reach at most `range_m` metres: every node (except src, ascending
  // index order) whose bounds lie within `range_m` of src's bounds,
  // plus all roamers. An infinite/NaN range, or a roaming source,
  // degrades to "everyone": no cull, still correct.
  // Exclusion guarantee: a node left out is, for the entire current
  // epoch of both endpoints, strictly farther than range_m from src.
  void gather(std::uint32_t src, double range_m,
              std::vector<std::uint32_t>& out);

  // MotionListener: mark the node dirty; re-binned on next refresh().
  void on_motion_epoch(std::uint32_t token) override;

 private:
  struct Node {
    const mobility::MobilityModel* model = nullptr;
    mobility::TrajectoryBounds bounds{};
    // Cell rectangle this node is binned into (inclusive); unused for
    // roamers.
    std::uint32_t cx0 = 0, cx1 = 0, cy0 = 0, cy1 = 0;
    bool roamer = false;
    bool dirty = false;
  };

  // A bound spanning more cells than this is cheaper to treat as a
  // roamer than to splat across the grid (long RWP legs).
  static constexpr std::uint32_t kRoamerCellLimit = 64;

  [[nodiscard]] std::uint32_t cell_x(double x) const;
  [[nodiscard]] std::uint32_t cell_y(double y) const;
  void bin(std::uint32_t i);
  void unbin(std::uint32_t i);

  double cell_size_m_;
  std::uint32_t nx_ = 1;
  std::uint32_t ny_ = 1;
  std::vector<std::vector<std::uint32_t>> cells_;  // cell -> node indices
  std::vector<std::uint32_t> roamers_;             // ascending
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> dirty_;
  std::uint64_t version_ = 0;

  // Query-local dedup stamps (a node can occupy several visited cells).
  std::vector<std::uint32_t> stamp_;
  std::uint32_t query_id_ = 0;
};

}  // namespace wmn::phy
