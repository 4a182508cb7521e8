// Fixture: NOLINT entries for wmn-* checks that suppress nothing. A
// suppression outliving the code it excused would silently excuse the
// next finding on its line.
#include <map>
#include <vector>

struct LoadTable {
  std::map<int, long> load_;  // ordered: nothing for the check to find

  long total() const {
    long sum = 0;
    // The container used to be unordered; the excuse stayed behind.
    // NOLINTNEXTLINE(wmn-unordered-iteration)  // EXPECT: wmn-stale-suppression
    for (const auto& [id, load] : load_) {
      sum += load;
    }
    return sum;
  }

  long first() const {
    return load_.begin()->second;  // NOLINT(wmn-no-raw-assert) // EXPECT: wmn-stale-suppression
  }
};

// A glob counts as used only if it matched a finding: here the line
// has none at all.
int size_of(const std::vector<int>& v) {
  // NOLINTNEXTLINE(wmn-*)  // EXPECT: wmn-stale-suppression
  return static_cast<int>(v.size());
}
