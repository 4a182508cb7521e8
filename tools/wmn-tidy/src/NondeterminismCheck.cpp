#include "NondeterminismCheck.h"

#include <algorithm>

#include "clang/Basic/SourceManager.h"
#include "llvm/ADT/SmallString.h"

namespace wmn_tidy {

using namespace clang;
using namespace clang::ast_matchers;

namespace {

// The one place allowed to hold raw threading primitives: the sweep
// concurrency layer (exp::SweepEngine and its worker threads).
// Everywhere else a std::thread or std::mutex means simulation state
// is about to be touched from an unsanctioned thread — which breaks
// the determinism contract even when it happens to be race-free.
bool isSanctionedThreadingFile(llvm::StringRef path) {
  llvm::SmallString<256> norm(path);
  std::replace(norm.begin(), norm.end(), '\\', '/');
  const llvm::StringRef p(norm);
  return p.contains("src/exp/");
}

AST_MATCHER_FUNCTION(ast_matchers::internal::Matcher<QualType>,
                     unorderedContainerKeyedByPointer) {
  return qualType(hasUnqualifiedDesugaredType(recordType(hasDeclaration(
      classTemplateSpecializationDecl(
          hasAnyName("::std::unordered_map", "::std::unordered_set",
                     "::std::unordered_multimap", "::std::unordered_multiset"),
          hasTemplateArgument(0, refersToType(isAnyPointer())))))));
}

}  // namespace

void NondeterminismCheck::registerMatchers(MatchFinder *Finder) {
  // Entropy sources the seed does not own.
  Finder->addMatcher(
      varDecl(hasType(hasUnqualifiedDesugaredType(recordType(hasDeclaration(
                  namedDecl(hasName("::std::random_device")))))))
          .bind("random-device"),
      this);
  Finder->addMatcher(
      callExpr(callee(functionDecl(hasAnyName(
                   "::rand", "::std::rand", "::srand", "::std::srand",
                   "::time", "::std::time", "::getenv", "::std::getenv"))))
          .bind("libc-entropy"),
      this);
  Finder->addMatcher(
      callExpr(callee(functionDecl(
                   hasName("now"),
                   hasDeclContext(recordDecl(hasAnyName(
                       "::std::chrono::system_clock",
                       "::std::chrono::steady_clock",
                       "::std::chrono::high_resolution_clock"))))))
          .bind("wall-clock"),
      this);
  // Pointer-derived ordering/hashing: bit patterns of addresses depend
  // on the allocator and ASLR, so any order they induce is not a
  // function of (config, seed).
  Finder->addMatcher(
      valueDecl(hasType(unorderedContainerKeyedByPointer())).bind("ptr-key"),
      this);
  Finder->addMatcher(
      binaryOperator(hasAnyOperatorName("<", ">", "<=", ">="),
                     hasLHS(expr(hasType(isAnyPointer()))),
                     hasRHS(expr(hasType(isAnyPointer()))))
          .bind("ptr-order"),
      this);
  // Raw threading primitives outside the sanctioned concurrency
  // layers (see isSanctionedThreadingFile above).
  Finder->addMatcher(
      valueDecl(hasType(hasUnqualifiedDesugaredType(recordType(hasDeclaration(
                    namedDecl(hasAnyName(
                        "::std::thread", "::std::jthread", "::std::mutex",
                        "::std::timed_mutex", "::std::recursive_mutex",
                        "::std::recursive_timed_mutex", "::std::shared_mutex",
                        "::std::shared_timed_mutex",
                        "::std::condition_variable",
                        "::std::condition_variable_any")))))))
          .bind("raw-thread"),
      this);
}

void NondeterminismCheck::check(const MatchFinder::MatchResult &Result) {
  if (const auto *D = Result.Nodes.getNodeAs<VarDecl>("random-device")) {
    diag(D->getBeginLoc(),
         "std::random_device draws hardware entropy; all randomness must "
         "come from the seeded sim::RngStream");
    return;
  }
  if (const auto *C = Result.Nodes.getNodeAs<CallExpr>("libc-entropy")) {
    diag(C->getBeginLoc(),
         "%0 injects host state into simulation results; derive everything "
         "from (config, seed) instead")
        << (C->getDirectCallee() != nullptr
                ? C->getDirectCallee()->getNameAsString()
                : std::string("this call"));
    return;
  }
  if (const auto *C = Result.Nodes.getNodeAs<CallExpr>("wall-clock")) {
    diag(C->getBeginLoc(),
         "wall-clock reads are invisible to the seed; use sim::Simulator "
         "time, or NOLINT with a justification if this measures host "
         "performance only");
    return;
  }
  if (const auto *D = Result.Nodes.getNodeAs<ValueDecl>("ptr-key")) {
    diag(D->getBeginLoc(),
         "unordered container keyed by pointer values: iteration order "
         "would follow the allocator, not the seed; key by a stable id");
    return;
  }
  if (const auto *B = Result.Nodes.getNodeAs<BinaryOperator>("ptr-order")) {
    diag(B->getOperatorLoc(),
         "ordering raw pointers compares allocator-assigned addresses; "
         "order by a stable id (or NOLINT a same-array scan)");
    return;
  }
  if (const auto *D = Result.Nodes.getNodeAs<ValueDecl>("raw-thread")) {
    const SourceManager &SM = *Result.SourceManager;
    const llvm::StringRef file =
        SM.getFilename(SM.getExpansionLoc(D->getLocation()));
    if (isSanctionedThreadingFile(file)) return;
    diag(D->getBeginLoc(),
         "raw threading primitive outside the sanctioned concurrency "
         "layer (src/exp/): ad-hoc threads can reorder simulation "
         "events; use exp::SweepEngine across runs");
  }
}

}  // namespace wmn_tidy
