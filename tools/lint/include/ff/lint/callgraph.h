#pragma once

// Call-graph determinism reachability for ff-lint. The directory-scoped
// determinism rules (rules.h) only see files under src/; helpers in
// bench/ and examples/ that execute *inside* simulator dispatch -- via a
// lambda handed to Simulator::schedule_in, a timer callback, a boundary
// post -- escaped them entirely. This pass closes that gap:
//
//   1. A cross-TU function index: every function definition in the tree
//      (token-level recognition: `qualified name (params) ... {`), with
//      its body token range.
//   2. Name-resolved call edges. A call site resolves to definitions of
//      the same name in the caller's file, the caller's module, or any
//      module in the caller's transitive ff-include closure -- never to
//      an unrelated file that happens to reuse the name.
//   3. Dispatch roots: Simulator::execute_next, EventQueue::visit_pop,
//      and every lambda passed to a scheduling call (schedule,
//      schedule_in, schedule_at, schedule_delivery, post, arm,
//      PeriodicTimer).
//
// Every function reachable from a root is scanned for the banned
// constructs (wall-clock, ambient-entropy, unordered-iteration --
// directly or through a macro expansion). Findings are reported only
// for files *outside* the directory scopes, where the per-file rules
// would not already have fired; rule name `determinism-reachability`.
//
// Escape hatch at the hazard site: allow(determinism-reachability) or
// allow(<base rule>) both silence it.

#include <cstddef>
#include <string>
#include <vector>

#include "ff/lint/rules.h"
#include "ff/lint/tree.h"

namespace ff::lint {

/// One function definition (or rooted lambda body) in the index.
struct FunctionDef {
  std::string name;       ///< unqualified, or "<lambda>"
  std::string qualified;  ///< "Class::name", "name", or "lambda@file:line"
  std::size_t file{0};    ///< index into tree.files()
  int line{1};
  std::size_t body_begin{0};  ///< token index of the body '{'
  std::size_t body_end{0};    ///< token index of the matching '}'
  bool dispatch_root{false};
};

/// Builds the function index for the whole tree (exposed for tests).
[[nodiscard]] std::vector<FunctionDef> index_functions(const SourceTree& tree);

/// Runs the determinism-reachability rule over the whole tree. allow()
/// directives are already applied; findings they dropped are appended
/// to `suppressed` (when non-null) for the stale-allow rule.
[[nodiscard]] std::vector<Finding> check_reachability(
    const SourceTree& tree, std::vector<Finding>* suppressed = nullptr);

}  // namespace ff::lint
