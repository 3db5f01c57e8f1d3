#include "ff/lint/callgraph.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace ff::lint {
namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

/// Keywords that look like `name (...)` but never name a function.
bool is_control_keyword(const std::string& s) {
  static const std::set<std::string> kKw = {
      "if",     "for",    "while",  "switch",   "catch",  "return",
      "sizeof", "alignof", "decltype", "static_assert", "new", "delete",
      "throw",  "assert", "noexcept", "alignas", "co_await", "co_return"};
  return kKw.count(s) > 0;
}

bool is_annotation_or_spec(const std::string& s) {
  return s.rfind("FF_", 0) == 0 || s == "noexcept" || s == "const" ||
         s == "override" || s == "final" || s == "mutable";
}

/// Calls that hand a callable to simulator dispatch: lambdas in their
/// argument lists run inside execute_next and are reachability roots.
bool is_scheduling_name(const std::string& s) {
  static const std::set<std::string> kNames = {
      "schedule", "schedule_in", "schedule_at", "schedule_delivery",
      "post",     "arm",         "PeriodicTimer"};
  return kNames.count(s) > 0;
}

std::size_t match_brace(const std::vector<Token>& toks, std::size_t open,
                        const char* opener, const char* closer) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (toks[j].text == opener) ++depth;
    if (toks[j].text == closer && --depth == 0) return j;
  }
  return toks.size() - 1;
}

/// Per-file function recognizer: a linear scan tracking statement
/// boundaries and brace scopes. On each '{' it classifies the statement
/// before it as a class head, a function definition header, or neither,
/// and maintains the class-context stack used to qualify inline methods.
class FunctionScanner {
 public:
  FunctionScanner(const SourceTree& tree, std::size_t file_index,
                  std::vector<FunctionDef>* out)
      : tree_(tree),
        file_(tree.files()[file_index]),
        file_index_(file_index),
        toks_(file_.lex.tokens),
        out_(out) {}

  void run() {
    int depth = 0;
    std::size_t stmt_start = 0;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const std::string& s = toks_[i].text;
      if (s == "{") {
        classify_open(stmt_start, i, depth);
        ++depth;
        stmt_start = i + 1;
      } else if (s == "}") {
        --depth;
        while (!classes_.empty() && classes_.back().depth > depth) {
          classes_.pop_back();
        }
        stmt_start = i + 1;
      } else if (s == ";") {
        stmt_start = i + 1;
      }
    }
  }

 private:
  struct ClassCtx {
    int depth;
    std::string name;
  };

  void classify_open(std::size_t stmt_start, std::size_t open, int depth) {
    // Class head?
    std::string cls;
    bool in_class_head = false;
    int paren = 0;
    bool assign_before_paren = false;
    std::size_t first_paren = 0;       // token index of the first '('
    bool have_first_paren = false;
    for (std::size_t k = stmt_start; k < open; ++k) {
      const Token& t = toks_[k];
      if (t.text == "(") {
        if (paren == 0 && !have_first_paren) {
          first_paren = k;
          have_first_paren = true;
        }
        ++paren;
      }
      if (t.text == ")" && paren > 0) --paren;
      if (t.text == "=" && paren == 0 && !have_first_paren) {
        assign_before_paren = true;
      }
      if ((is_ident(t, "class") || is_ident(t, "struct")) &&
          !(k > 0 && is_ident(toks_[k - 1], "enum"))) {
        in_class_head = true;
        cls.clear();
        continue;
      }
      if (in_class_head && paren == 0) {
        if (t.text == ":") in_class_head = false;  // base clause
        else if (t.kind == TokKind::kIdentifier && t.text != "final" &&
                 !is_annotation_or_spec(t.text)) {
          cls = t.text;
        }
      }
    }
    if (!cls.empty()) {
      // Record the *inside* depth so the context pops exactly when the
      // class body's brace closes.
      classes_.push_back({depth + 1, cls});
      return;
    }
    if (paren > 0) return;  // '{' inside an argument list: a lambda body
    if (!have_first_paren || assign_before_paren) return;

    // Function header: name is the identifier before the first '(',
    // with an optional `Qual::` chain before it.
    if (first_paren == stmt_start) return;
    const Token& nm = toks_[first_paren - 1];
    if (nm.kind != TokKind::kIdentifier || is_control_keyword(nm.text) ||
        is_annotation_or_spec(nm.text)) {
      return;
    }
    std::string qual;
    for (std::size_t k = first_paren - 1; k >= stmt_start + 2; k -= 2) {
      if (toks_[k - 1].text != "::" ||
          toks_[k - 2].kind != TokKind::kIdentifier) {
        break;
      }
      qual = toks_[k - 2].text + (qual.empty() ? "" : "::") + qual;
      if (k < stmt_start + 4) break;
    }
    if (qual.empty() && !classes_.empty()) qual = classes_.back().name;

    FunctionDef def;
    def.name = nm.text;
    def.qualified = qual.empty() ? nm.text : qual + "::" + nm.text;
    def.file = file_index_;
    def.line = nm.line;
    def.body_begin = open;
    def.body_end = match_brace(toks_, open, "{", "}");
    out_->push_back(std::move(def));
  }

  const SourceTree& tree_;
  const SourceFile& file_;
  std::size_t file_index_;
  const std::vector<Token>& toks_;
  std::vector<FunctionDef>* out_;
  std::vector<ClassCtx> classes_;
};

/// Extracts lambdas passed to scheduling calls as synthetic dispatch
/// roots: anything inside `schedule*(...)`, `post(...)`, `arm(...)` or
/// a PeriodicTimer construction that looks like `[...](...) {...}`.
void extract_scheduled_lambdas(const SourceTree& tree,
                               std::size_t file_index,
                               std::vector<FunctionDef>* out) {
  const SourceFile& file = tree.files()[file_index];
  const std::vector<Token>& toks = file.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier ||
        !is_scheduling_name(toks[i].text)) {
      continue;
    }
    // Accept `name(`, `name var(` (declaration) and `name>(` (template
    // argument, e.g. make_unique<PeriodicTimer>(...)).
    std::size_t open = 0;
    for (std::size_t j = i + 1; j < toks.size() && j <= i + 3; ++j) {
      if (toks[j].text == "(") {
        open = j;
        break;
      }
      if (toks[j].kind != TokKind::kIdentifier && toks[j].text != ">") break;
    }
    if (open == 0) continue;
    const std::size_t close = match_brace(toks, open, "(", ")");
    for (std::size_t j = open + 1; j < close; ++j) {
      if (toks[j].text != "[") continue;
      // Lambda introducer: capture list, optional params/specifiers,
      // then the body. A '[' whose ']' is not followed by '(' / '{' /
      // a specifier is a subscript; skip it.
      const std::size_t cap_close = match_brace(toks, j, "[", "]");
      std::size_t k = cap_close + 1;
      if (k < close && toks[k].text == "(") {
        k = match_brace(toks, k, "(", ")") + 1;
      }
      while (k < close && (is_ident(toks[k], "mutable") ||
                           is_ident(toks[k], "noexcept") ||
                           toks[k].text == "->" ||
                           (toks[k].kind == TokKind::kIdentifier &&
                            toks[k - 1].text == "->") ||
                           toks[k].text == "::")) {
        ++k;
      }
      if (k >= close || toks[k].text != "{") {
        j = cap_close;
        continue;
      }
      const std::size_t body_end = match_brace(toks, k, "{", "}");
      FunctionDef def;
      def.name = "<lambda>";
      def.qualified = "lambda@" + file.rel + ":" +
                      std::to_string(toks[j].line) + " (passed to " +
                      toks[i].text + ")";
      def.file = file_index;
      def.line = toks[j].line;
      def.body_begin = k;
      def.body_end = body_end;
      def.dispatch_root = true;
      out->push_back(std::move(def));
      j = body_end;
    }
    i = open;
  }
}

/// Modules whose functions `file` may legitimately call: its own plus
/// every module providing a header in its transitive ff-include
/// closure.
std::set<std::string> visible_modules(const SourceTree& tree,
                                      const SourceFile& file) {
  std::set<std::string> modules;
  if (!file.module.empty()) modules.insert(file.module);
  std::set<std::string> seen;
  std::vector<const SourceFile*> work{&file};
  while (!work.empty()) {
    const SourceFile* cur = work.back();
    work.pop_back();
    for (const IncludeDirective& inc : cur->lex.includes) {
      if (!seen.insert(inc.path).second) continue;
      const SourceFile* next = tree.resolve(inc.path);
      if (next == nullptr) continue;
      if (!next->module.empty()) modules.insert(next->module);
      work.push_back(next);
    }
  }
  return modules;
}

struct Hazard {
  int line;
  std::string rule;     ///< base rule the construct violates
  std::string message;  ///< base rule message
};

/// Scans one function body for banned constructs that the directory
/// rules would not already have reported for this file.
std::vector<Hazard> body_hazards(const SourceTree& tree,
                                 const SourceFile& file,
                                 const FunctionDef& fn) {
  std::vector<Hazard> out;
  const std::vector<Token> body(
      file.lex.tokens.begin() + static_cast<std::ptrdiff_t>(fn.body_begin),
      file.lex.tokens.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(fn.body_end + 1, file.lex.tokens.size())));

  if (!in_dirs(file.rel, deterministic_dirs())) {
    for (const Finding& f : scan_determinism_tokens(body)) {
      if (f.rule != "wall-clock" && f.rule != "ambient-entropy") continue;
      out.push_back({f.line, f.rule, f.message});
    }
    // Macro expansion sites inside the body.
    for (const Token& t : body) {
      if (t.kind != TokKind::kIdentifier) continue;
      const MacroDef* def = tree.macro(t.text);
      if (def == nullptr) continue;
      for (const std::string& rule : macro_hazards(tree, *def)) {
        if (rule != "wall-clock" && rule != "ambient-entropy") continue;
        out.push_back({t.line, rule,
                       "expansion of macro '" + def->name +
                           "' contains a banned construct (" + rule + ")"});
      }
    }
  }
  if (!in_dirs(file.rel, scheduling_dirs())) {
    for (const Finding& f : scan_unordered_iteration_tokens(
             body, tree.visible_unordered_decls(file))) {
      out.push_back({f.line, f.rule, f.message});
    }
  }
  return out;
}

}  // namespace

std::vector<FunctionDef> index_functions(const SourceTree& tree) {
  std::vector<FunctionDef> out;
  for (std::size_t i = 0; i < tree.files().size(); ++i) {
    FunctionScanner(tree, i, &out).run();
    extract_scheduled_lambdas(tree, i, &out);
  }
  for (FunctionDef& def : out) {
    if (def.qualified == "Simulator::execute_next" ||
        def.qualified == "EventQueue::visit_pop") {
      def.dispatch_root = true;
    }
  }
  return out;
}

std::vector<Finding> check_reachability(const SourceTree& tree,
                                        std::vector<Finding>* suppressed) {
  const std::vector<FunctionDef> funcs = index_functions(tree);

  // Name index for call resolution.
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    by_name[funcs[i].name].push_back(i);
  }
  std::vector<std::set<std::string>> file_modules;
  file_modules.reserve(tree.files().size());
  for (const SourceFile& f : tree.files()) {
    file_modules.push_back(visible_modules(tree, f));
  }

  // Call edges: identifiers followed by '(' inside each body, resolved
  // to same-file / same-module / included-module definitions.
  std::vector<std::vector<std::size_t>> edges(funcs.size());
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const FunctionDef& fn = funcs[i];
    const SourceFile& file = tree.files()[fn.file];
    const std::vector<Token>& toks = file.lex.tokens;
    const std::set<std::string>& visible = file_modules[fn.file];
    for (std::size_t j = fn.body_begin; j < fn.body_end; ++j) {
      const Token& t = toks[j];
      if (t.kind != TokKind::kIdentifier || j + 1 >= toks.size() ||
          toks[j + 1].text != "(" || is_control_keyword(t.text)) {
        continue;
      }
      const auto it = by_name.find(t.text);
      if (it == by_name.end()) continue;
      for (const std::size_t target : it->second) {
        if (target == i) continue;
        const FunctionDef& callee = funcs[target];
        const SourceFile& callee_file = tree.files()[callee.file];
        const bool in_scope =
            callee.file == fn.file ||
            (!callee_file.module.empty() &&
             visible.count(callee_file.module) > 0);
        if (in_scope) edges[i].push_back(target);
      }
    }
  }

  // BFS from dispatch roots, recording one parent per function for the
  // reported chain.
  std::vector<std::size_t> parent(funcs.size(), funcs.size());
  std::vector<char> reached(funcs.size(), 0);
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    if (funcs[i].dispatch_root) {
      reached[i] = 1;
      queue.push_back(i);
    }
  }
  while (!queue.empty()) {
    const std::size_t cur = queue.front();
    queue.pop_front();
    for (const std::size_t next : edges[cur]) {
      if (reached[next] != 0) continue;
      reached[next] = 1;
      parent[next] = cur;
      queue.push_back(next);
    }
  }

  std::vector<Finding> out;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    if (reached[i] == 0) continue;
    const FunctionDef& fn = funcs[i];
    const SourceFile& file = tree.files()[fn.file];
    const std::vector<Hazard> hazards = body_hazards(tree, file, fn);
    if (hazards.empty()) continue;

    // Chain from the root down to this function, for the message.
    std::vector<const std::string*> chain;
    for (std::size_t n = i; n < funcs.size(); n = parent[n]) {
      chain.push_back(&funcs[n].qualified);
      if (parent[n] >= funcs.size()) break;
    }
    std::reverse(chain.begin(), chain.end());
    std::string path;
    for (std::size_t n = 0; n < chain.size(); ++n) {
      if (n > 0) path += " -> ";
      path += *chain[n];
    }

    for (const Hazard& h : hazards) {
      Finding found{file.rel, h.line, "determinism-reachability",
                    h.message + " [" + h.rule +
                        " reachable from dispatch: " + path + "]"};
      const std::set<std::string> allows = allowed_rules_for(file, h.line);
      if (allows.count("determinism-reachability") > 0 ||
          allows.count(h.rule) > 0) {
        if (suppressed != nullptr) {
          // A directive naming either the reachability rule or the base
          // rule suppressed this; record both spellings as live.
          Finding base = found;
          base.rule = h.rule;
          suppressed->push_back(std::move(base));
          suppressed->push_back(std::move(found));
        }
        continue;
      }
      out.push_back(std::move(found));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace ff::lint
