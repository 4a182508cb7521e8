// wmn-nondeterminism: simulation code may not read entropy the seed
// does not control. Banned: std::random_device, rand()/srand(),
// time(), getenv(), and the std::chrono wall clocks — plus hashing on
// pointer values (unordered containers keyed by pointers) and ordering
// comparisons between raw pointers, both of which leak allocator
// layout into results. Also banned: raw threading primitives
// (std::thread, std::mutex, ...) anywhere outside src/exp/ — ad-hoc
// threads touching simulation state break the determinism contract
// even when race-free. The one
// legitimate wall-clock perf timer (exp::Scenario::run) carries a
// NOLINT with its justification.
#pragma once

#include "clang-tidy/ClangTidyCheck.h"

namespace wmn_tidy {

class NondeterminismCheck : public clang::tidy::ClangTidyCheck {
 public:
  NondeterminismCheck(llvm::StringRef Name,
                      clang::tidy::ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}

  void registerMatchers(clang::ast_matchers::MatchFinder *Finder) override;
  void check(const clang::ast_matchers::MatchFinder::MatchResult &Result) override;
};

}  // namespace wmn_tidy
