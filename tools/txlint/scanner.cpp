#include "scanner.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace txlint {
namespace {

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

constexpr std::string_view kSharedField = "shared-field";
constexpr std::string_view kCatchSwallow = "catch-swallow";
constexpr std::string_view kTraceHook = "trace-hook";
constexpr std::string_view kHotPathContainer = "hot-path-container";
constexpr std::string_view kHandlerClosure = "handler-closure";

const std::vector<RuleInfo> kRules = {
    {kSharedField,
     "mutable primitive or raw-pointer member of a jstd:: node/collection type "
     "not wrapped in Shared<T>"},
    {kCatchSwallow,
     "catch (...) or catch (Violated) block that can swallow the TM unwind "
     "(no rethrow/abort in body)"},
    {kTraceHook,
     "heap allocation or transactional (Shared<T>) access inside a trace-hook "
     "body (namespace trace, function on_*) — hooks run on the simulated hot "
     "path and must be raw fixed-buffer stores"},
    {kHotPathContainer,
     "node-based std:: container (std::unordered_*, std::set/map) in a "
     "hot-path header (flat_map.h, reader_dir.h, cpu_mask.h, line_table.h, "
     "memsys.h) — these headers are the per-access data path and must stay "
     "on flat, SIMD-probeable layouts"},
    {kHandlerClosure,
     "transaction-body lambda (atomically/open_atomically argument) captures "
     "by value a local holding a shared-collection read (get/poll/take/peek) "
     "— the snapshot is outside the read set, so a violated transaction "
     "replays with stale data instead of re-reading"},
};

// Collection observer methods whose result, captured by copy into a later
// transaction body, is a stale snapshot (the handler-closure rule).
const std::unordered_set<std::string_view> kCollectionReads = {
    "get", "poll", "take", "peek", "try_dequeue"};

// Headers on the per-access data path: every tm_read/tm_write, every plain
// load/store and every commit broadcast goes through these.  A node-based
// standard container here reintroduces exactly the pointer-chasing the
// FlatMap/CpuMask rewrite and the per-line tables removed, so its
// appearance is a discipline violation, not a style choice.
const std::unordered_set<std::string_view> kHotPathHeaders = {
    "flat_map.h", "reader_dir.h", "cpu_mask.h", "line_table.h", "memsys.h"};
const std::unordered_set<std::string_view> kNodeContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "set", "multiset", "map", "multimap"};

// ---------------------------------------------------------------------------
// Suppression directives (parsed from the RAW text, comments included)
// ---------------------------------------------------------------------------

struct Suppressions {
  // rule -> set of suppressed lines ("*" entries recorded under each rule).
  std::unordered_map<std::string, std::unordered_set<int>> lines;
  std::unordered_set<std::string> whole_file;
  bool all_file = false;

  bool suppressed(std::string_view rule, int line) const {
    if (all_file || whole_file.count(std::string(rule)) != 0) return true;
    auto it = lines.find(std::string(rule));
    return it != lines.end() && it->second.count(line) != 0;
  }
};

std::vector<std::string> split_rule_list(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',' || c == ' ' || c == '\t') {
      if (!cur.empty()) out.push_back(std::move(cur)), cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

Suppressions parse_suppressions(std::string_view content) {
  Suppressions sup;
  // region state: rule -> line the begin-allow appeared on (-1 = closed)
  std::unordered_map<std::string, int> open_regions;
  int line = 1;
  std::size_t pos = 0;
  auto mark = [&sup](const std::string& rule, int l) {
    sup.lines[rule].insert(l);
    sup.lines[rule].insert(l + 1);
  };
  while (pos < content.size()) {
    const std::size_t eol = content.find('\n', pos);
    const std::string_view ln =
        content.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    const std::size_t tag = ln.find("txlint:");
    if (tag != std::string_view::npos) {
      const std::string_view rest = ln.substr(tag + 7);
      auto grab = [&rest](std::string_view verb) -> std::optional<std::string_view> {
        const std::size_t v = rest.find(verb);
        if (v == std::string_view::npos) return std::nullopt;
        const std::size_t open = rest.find('(', v + verb.size());
        if (open == std::string_view::npos) return std::nullopt;
        const std::size_t close = rest.find(')', open);
        if (close == std::string_view::npos) return std::nullopt;
        return rest.substr(open + 1, close - open - 1);
      };
      // Order matters: "allow(" is a substring of the other verbs' names, so
      // probe the longer verbs first.
      if (auto args = grab("allow-file")) {
        for (const auto& r : split_rule_list(*args)) {
          if (r == "*") {
            sup.all_file = true;
          } else {
            sup.whole_file.insert(r);
          }
        }
      } else if (auto args2 = grab("begin-allow")) {
        for (const auto& r : split_rule_list(*args2)) open_regions[r] = line;
      } else if (auto args3 = grab("end-allow")) {
        for (const auto& r : split_rule_list(*args3)) {
          auto it = open_regions.find(r);
          if (it != open_regions.end() && it->second >= 0) {
            for (int l = it->second; l <= line; ++l) sup.lines[r].insert(l);
            it->second = -1;
          }
        }
      } else if (auto args4 = grab("allow")) {
        for (const auto& r : split_rule_list(*args4)) {
          if (r == "*") {
            for (const auto& info : kRules) mark(std::string(info.name), line);
          } else {
            mark(r, line);
          }
        }
      }
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
    ++line;
  }
  // Unterminated regions run to EOF.
  for (auto& [rule, start] : open_regions) {
    if (start >= 0) {
      for (int l = start; l <= line; ++l) sup.lines[rule].insert(l);
    }
  }
  return sup;
}

// ---------------------------------------------------------------------------
// Cleaning: blank comments, string/char literals and preprocessor lines so
// the tokenizer sees pure code.  Newlines are preserved for line numbers.
// ---------------------------------------------------------------------------

std::string clean_source(std::string_view in) {
  std::string out(in);
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  St st = St::kCode;
  std::string raw_delim;  // for raw strings: ")delim\""
  bool line_is_pp = false;
  bool line_has_code = false;

  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char n = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '\n') {
          line_is_pp = false;
          line_has_code = false;
          continue;
        }
        if (!line_has_code && !line_is_pp && c == '#') {
          line_is_pp = true;
        }
        if (line_is_pp) {
          // Blank the whole preprocessor line (and its continuations).
          if (c == '\\' && n == '\n') {
            out[i] = ' ';
            continue;  // keep line_is_pp across the continuation
          }
          out[i] = ' ';
          continue;
        }
        if (!std::isspace(static_cast<unsigned char>(c))) line_has_code = true;
        if (c == '/' && n == '/') {
          st = St::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && n == '*') {
          st = St::kBlockComment;
          out[i] = ' ';
        } else if (c == 'R' && n == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(in[i - 1])) &&
                               in[i - 1] != '_'))) {
          // Raw string R"delim( ... )delim"
          std::size_t p = i + 2;
          std::string delim;
          while (p < in.size() && in[p] != '(' && delim.size() < 16) delim += in[p++];
          if (p < in.size() && in[p] == '(') {
            raw_delim = ")" + delim + "\"";
            st = St::kRawString;
            out[i] = ' ';
          }
        } else if (c == '"') {
          st = St::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          st = St::kChar;
          out[i] = ' ';
        }
        break;
      case St::kLineComment:
        if (c == '\n') {
          st = St::kCode;
          line_is_pp = false;
          line_has_code = false;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlockComment:
        if (c == '*' && n == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kString:
        if (c == '\\' && n != '\n') {
          out[i] = ' ';
          if (i + 1 < in.size() && n != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < in.size() && n != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRawString:
        if (in.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) {
            if (out[i + k] != '\n') out[i + k] = ' ';
          }
          i += raw_delim.size() - 1;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind;
  std::string_view text;
  int line;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<Token> tokenize(std::string_view s) {
  std::vector<Token> toks;
  int line = 1;
  std::size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < s.size() && ident_char(s[j])) ++j;
      toks.push_back({Token::Kind::kIdent, s.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      while (j < s.size() && (ident_char(s[j]) || s[j] == '.' || s[j] == '\'')) ++j;
      toks.push_back({Token::Kind::kNumber, s.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Multi-char punctuators we rely on.  `<<`/`>>`/`<=`/`>=` are left as
    // single chars so template-angle matching stays simple.
    static constexpr std::array<std::string_view, 6> kTwo = {"::", "->", "&&",
                                                             "||", "==", "!="};
    if (s.compare(i, 3, "...") == 0) {
      toks.push_back({Token::Kind::kPunct, s.substr(i, 3), line});
      i += 3;
      continue;
    }
    bool matched = false;
    for (const auto& op : kTwo) {
      if (s.compare(i, 2, op) == 0) {
        toks.push_back({Token::Kind::kPunct, s.substr(i, 2), line});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    toks.push_back({Token::Kind::kPunct, s.substr(i, 1), line});
    ++i;
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Scanner proper
// ---------------------------------------------------------------------------

const std::unordered_set<std::string_view> kPrimitiveTypes = {
    "bool",     "char",     "short",    "int",      "long",        "unsigned",
    "signed",   "float",    "double",   "size_t",   "uintptr_t",   "intptr_t",
    "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "int8_t",      "int16_t",
    "int32_t",  "int64_t",  "ptrdiff_t"};

const std::unordered_set<std::string_view> kMemberSkipLead = {
    "static", "constexpr", "using",     "typedef", "friend",    "template",
    "enum",   "struct",    "class",     "public",  "private",   "protected",
    "operator", "virtual", "explicit",  "inline",  "const"};

const std::unordered_set<std::string_view> kControlKeywords = {
    "if", "for", "while", "switch", "catch", "constexpr"};

const std::unordered_set<std::string_view> kBodyEscapes = {
    "throw", "abort", "terminate", "_Exit", "exit", "quick_exit", "rethrow_exception"};

// Identifiers forbidden inside trace-hook bodies (namespace trace, function
// name on_*): allocating calls would perturb hot-path wall-clock and malloc
// state; transactional accesses would recurse into the runtime being traced.
const std::unordered_set<std::string_view> kTraceHookAlloc = {
    "new",       "delete", "malloc",       "calloc",      "realloc",
    "push_back", "emplace_back", "emplace", "insert",     "resize",
    "reserve",   "make_unique",  "make_shared"};
const std::unordered_set<std::string_view> kTraceHookTmAccess = {
    "Shared", "atomically", "open_atomically", "tm_read", "tm_write",
    "unsafe_peek"};

class Scanner {
 public:
  Scanner(const std::string& path, std::string_view content, const Options& opts)
      : path_(path), opts_(opts), sup_(parse_suppressions(content)),
        cleaned_(clean_source(content)) {
    // Tokens are string_views into cleaned_, which must outlive them.
    toks_ = tokenize(cleaned_);
  }

  std::vector<Finding> run() {
    walk();
    catch_pass();
    hot_path_container_pass();
    std::sort(findings_.begin(), findings_.end(), [](const Finding& a, const Finding& b) {
      return a.line != b.line ? a.line < b.line : a.rule < b.rule;
    });
    return std::move(findings_);
  }

 private:
  struct Frame {
    enum class Kind { kNamespace, kClass, kEnum, kFunction, kLambda, kBlock };
    Kind kind;
    std::string name;
    // Function frames only:
    // locals assigned from a shared-collection read (handler-closure).
    std::unordered_set<std::string> collection_locals;
    // Class frames only: token index where the current member stmt begins.
    std::size_t stmt_start = 0;
  };

  void emit(std::string_view rule, int line, std::string msg) {
    if (!opts_.only_rules.empty() &&
        std::find(opts_.only_rules.begin(), opts_.only_rules.end(), rule) ==
            opts_.only_rules.end()) {
      return;
    }
    if (sup_.suppressed(rule, line)) return;
    findings_.push_back(Finding{path_, line, std::string(rule), std::move(msg)});
  }

  const Token& tok(std::size_t i) const { return toks_[i]; }
  bool is(std::size_t i, std::string_view t) const {
    return i < toks_.size() && toks_[i].text == t;
  }
  bool is_ident(std::size_t i) const {
    return i < toks_.size() && toks_[i].kind == Token::Kind::kIdent;
  }

  /// Index of the matching closer for the opener at `i` ('(', '{' or '[');
  /// toks_.size() if unterminated.
  std::size_t match(std::size_t i) const {
    const std::string_view open = toks_[i].text;
    const std::string_view close = open == "(" ? ")" : open == "{" ? "}" : "]";
    int depth = 0;
    for (std::size_t j = i; j < toks_.size(); ++j) {
      if (toks_[j].text == open) ++depth;
      if (toks_[j].text == close && --depth == 0) return j;
    }
    return toks_.size();
  }

  bool in_namespace(std::string_view name) const {
    for (const auto& f : stack_) {
      if (f.kind == Frame::Kind::kNamespace && f.name == name) return true;
    }
    return false;
  }

  Frame* nearest_function() {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Frame::Kind::kFunction) return &*it;
    }
    return nullptr;
  }

  bool collection_local_visible(std::string_view name) const {
    for (const auto& f : stack_) {
      if (f.collection_locals.count(std::string(name)) != 0) return true;
    }
    return false;
  }

  // ---- main structural walk ----

  void walk() {
    std::vector<std::size_t> paren_head;  // token index before each open '('
    struct Pending {
      Frame::Kind kind;
      std::string name;
    };
    std::optional<Pending> pending;

    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];

      if (t.text == "namespace" && t.kind == Token::Kind::kIdent) {
        std::string name;
        std::size_t j = i + 1;
        while (is_ident(j) || is(j, "::")) {
          name += toks_[j].text;
          ++j;
        }
        if (is(j, "=")) {  // namespace alias
          while (j < toks_.size() && !is(j, ";")) ++j;
          i = j;
          continue;
        }
        if (is(j, "{")) pending = Pending{Frame::Kind::kNamespace, name};
        i = j - 1;
        continue;
      }

      if ((t.text == "class" || t.text == "struct") && t.kind == Token::Kind::kIdent) {
        std::size_t j = i + 1;
        std::string name;
        if (is_ident(j)) {
          name = toks_[j].text;
          ++j;
        }
        if (is(j, "final")) ++j;
        if (is(j, ";") || (is_ident(j) && name.empty())) continue;  // fwd decl / elaborated use
        if (is(j, ":")) {  // base clause: scan to the body brace
          int angle = 0;
          while (j < toks_.size() && !(angle == 0 && is(j, "{")) && !is(j, ";")) {
            if (is(j, "<")) ++angle;
            if (is(j, ">")) angle = std::max(0, angle - 1);
            ++j;
          }
        }
        if (is(j, "{")) {
          pending = Pending{Frame::Kind::kClass, name};
          i = j - 1;
        }
        continue;
      }

      if (t.text == "enum" && t.kind == Token::Kind::kIdent) {
        std::size_t j = i + 1;
        while (j < toks_.size() && !is(j, "{") && !is(j, ";")) ++j;
        if (is(j, "{")) {
          pending = Pending{Frame::Kind::kEnum, ""};
          i = j - 1;
        }
        continue;
      }

      if (t.text == "(") {
        paren_head.push_back(i == 0 ? toks_.size() : i - 1);
        continue;
      }
      if (t.text == ")") {
        if (!paren_head.empty()) {
          last_paren_head_ = paren_head.back();
          paren_head.pop_back();
        }
        continue;
      }

      if (t.text == "{") {
        Frame f;
        if (pending.has_value()) {
          f.kind = pending->kind;
          f.name = pending->name;
          pending.reset();
        } else {
          f = classify_brace(i);
        }
        f.stmt_start = i + 1;
        stack_.push_back(std::move(f));
        continue;
      }
      if (t.text == "}") {
        if (!stack_.empty()) {
          stack_.pop_back();
          if (!stack_.empty()) stack_.back().stmt_start = i + 1;
        }
        continue;
      }

      // Statement boundaries at class scope (member declarations).
      if (!stack_.empty() && stack_.back().kind == Frame::Kind::kClass) {
        Frame& cls = stack_.back();
        if (t.text == ";") {
          check_member_stmt(cls, cls.stmt_start, i);
          cls.stmt_start = i + 1;
          continue;
        }
        if (t.text == ":" && i > 0 &&
            (toks_[i - 1].text == "public" || toks_[i - 1].text == "private" ||
             toks_[i - 1].text == "protected")) {
          cls.stmt_start = i + 1;
          continue;
        }
      }

      if (t.kind == Token::Kind::kIdent) ident_checks(i);
      if (t.text == "[") lambda_check(i);
    }

    stack_.clear();
  }

  /// Classifies a `{` with no pending namespace/class/enum header.
  Frame classify_brace(std::size_t i) {
    Frame f;
    f.kind = Frame::Kind::kBlock;
    // Walk back over trailing function modifiers to find what introduced us.
    std::size_t p = i;
    while (p > 0) {
      --p;
      const std::string_view x = toks_[p].text;
      if (x == "const" || x == "noexcept" || x == "override" || x == "final" ||
          x == "mutable") {
        continue;
      }
      // trailing return type: skip back to the `)` heuristically
      if (toks_[p].kind == Token::Kind::kIdent && p >= 2 && toks_[p - 1].text == "->" ) {
        p -= 1;
        continue;
      }
      if (x == "->") continue;
      break;
    }
    const Token& prev = toks_[p];
    if (prev.text == ")") {
      const std::size_t h = last_paren_head_;
      if (h < toks_.size()) {
        const Token& head = toks_[h];
        if (head.text == "]") {
          f.kind = Frame::Kind::kLambda;
        } else if (head.kind == Token::Kind::kIdent &&
                   kControlKeywords.count(head.text) == 0) {
          f.kind = Frame::Kind::kFunction;
          f.name = head.text;
        }
      }
    } else if (prev.text == "]") {
      f.kind = Frame::Kind::kLambda;
    }
    return f;
  }

  // ---- per-identifier checks (trace-hook, handler-closure) ----

  void ident_checks(std::size_t i) {
    const std::string_view id = toks_[i].text;

    if (in_namespace("trace")) {
      Frame* fn = nearest_function();
      if (fn != nullptr && fn->name.rfind("on_", 0) == 0) {
        if (kTraceHookAlloc.count(id) != 0) {
          emit(kTraceHook, toks_[i].line,
               "heap-allocating call '" + std::string(id) + "' inside trace hook '" +
                   fn->name + "' — hooks run on the simulated hot path; store "
                   "into the preallocated per-CPU event buffer instead");
        } else if (kTraceHookTmAccess.count(id) != 0) {
          emit(kTraceHook, toks_[i].line,
               "transactional access '" + std::string(id) + "' inside trace hook '" +
                   fn->name + "' — a hook must not re-enter the runtime it is "
                   "tracing");
        }
      }
    }

    // `x = <expr involving .get(/->poll(/...>`: x now holds a snapshot of a
    // shared collection's state.  Recorded so lambda_check can flag a later
    // transaction body capturing the snapshot by value (handler-closure).
    if (is(i + 1, "=") &&
        (i == 0 || (toks_[i - 1].text != "." && toks_[i - 1].text != "->"))) {
      Frame* fn = nearest_function();
      if (fn != nullptr) {
        const std::size_t limit = std::min(toks_.size(), i + 60);
        for (std::size_t j = i + 2; j < limit && !is(j, ";"); ++j) {
          if ((toks_[j].text == "." || toks_[j].text == "->") &&
              is_ident(j + 1) && kCollectionReads.count(toks_[j + 1].text) != 0 &&
              is(j + 2, "(")) {
            fn->collection_locals.insert(std::string(id));
            break;
          }
        }
      }
    }
  }

  // ---- class-member statement analysis (shared-field) ----

  void check_member_stmt(const Frame& cls, std::size_t begin, std::size_t end) {
    if (begin >= end) return;
    if (!in_namespace("jstd")) return;
    // Iterators and RAII guards are transaction-local by design.
    if (cls.name.find("Iter") != std::string::npos ||
        cls.name.find("Guard") != std::string::npos) {
      return;
    }
    std::size_t b = begin;
    if (is(b, "mutable")) ++b;  // mutable members get no exemption
    if (b >= end) return;
    if (toks_[b].kind == Token::Kind::kIdent && kMemberSkipLead.count(toks_[b].text) != 0) {
      return;
    }
    bool has_paren = false, has_star = false, has_cell = false, has_prim = false;
    int first_prim_line = toks_[b].line;
    for (std::size_t j = b; j < end; ++j) {
      const Token& t = toks_[j];
      if (t.text == "(") has_paren = true;
      if (t.text == "=") break;  // default initializer: type tokens are before it
      if (t.text == "*") has_star = true;
      if (t.text == "const") return;  // `T* const x` / east-const: immutable member
      if (t.kind == Token::Kind::kIdent) {
        if (t.text == "Shared" || t.text == "Mutex" || t.text == "atomic") has_cell = true;
        if (kPrimitiveTypes.count(t.text) != 0 && !has_prim) {
          has_prim = true;
          first_prim_line = t.line;
        }
        if (t.text == "operator") return;
      }
    }
    if (has_paren || has_cell) return;
    if (has_star) {
      emit(kSharedField, toks_[b].line,
           "raw-pointer member of jstd::" + cls.name +
               " is shared mutable state — wrap it in atomos::Shared<T*> or make it const");
      return;
    }
    if (has_prim) {
      emit(kSharedField, first_prim_line,
           "mutable primitive member of jstd::" + cls.name +
               " is shared mutable state — wrap it in atomos::Shared<T> or make it const");
    }
  }

  // ---- transaction-body capture analysis (handler-closure) ----

  /// A lambda passed directly to atomically()/open_atomically() is a
  /// transaction body: retries re-run it, so by-value captures of
  /// collection snapshots replay stale observations.
  void lambda_check(std::size_t i) {
    const bool tx_body =
        i >= 2 && is(i - 1, "(") &&
        (toks_[i - 2].text == "atomically" || toks_[i - 2].text == "open_atomically");
    if (!tx_body) return;
    const std::size_t close = match(i);
    if (close >= toks_.size()) return;

    bool default_copy = false;
    std::vector<std::pair<std::string_view, int>> stale_captures;  // (name, line)
    std::size_t j = i + 1;
    while (j < close) {
      if (is(j, "&")) {  // by-reference (default or named): fine
        ++j;
        if (is_ident(j)) ++j;
      } else if (is(j, "=")) {
        default_copy = true;
        ++j;
      } else if (is_ident(j) && is(j + 1, "=")) {
        // init-capture `x = expr`: flag when expr names a tracked local
        std::size_t k = j + 2;
        while (k < close && !is(k, ",")) {
          if (is_ident(k) && !is(k - 1, "&") && collection_local_visible(toks_[k].text)) {
            stale_captures.emplace_back(toks_[k].text, toks_[k].line);
          }
          ++k;
        }
        j = k;
      } else {
        if (is_ident(j) && collection_local_visible(toks_[j].text)) {
          stale_captures.emplace_back(toks_[j].text, toks_[j].line);
        }
        ++j;
      }
    }

    for (const auto& [name, line] : stale_captures) {
      emit(kHandlerClosure, line,
           "transaction body captures collection snapshot '" + std::string(name) +
               "' by value — the read is outside the transaction's read set; "
               "re-read it inside the body (or capture by reference)");
    }

    if (default_copy) {
      // `[=]`: flag only if the body actually uses a tracked local.
      std::size_t b = close + 1;
      if (is(b, "(")) b = match(b) + 1;
      while (b < toks_.size() && !is(b, "{") && !is(b, ";")) ++b;
      if (!is(b, "{")) return;
      const std::size_t bend = match(b);
      for (std::size_t k = b + 1; k < bend && k < toks_.size(); ++k) {
        if (!is_ident(k) ||
            (k > 0 && (toks_[k - 1].text == "." || toks_[k - 1].text == "->"))) {
          continue;
        }
        if (collection_local_visible(toks_[k].text)) {
          emit(kHandlerClosure, toks_[i].line,
               "default by-value capture [=] copies collection snapshot '" +
                   std::string(toks_[k].text) +
                   "' into a transaction body — re-read it inside the body");
          return;
        }
      }
    }
  }

  // ---- hot-path-container pass ----

  /// In the data-path headers (kHotPathHeaders, matched by file basename),
  /// flags any `std::<node container>` type use.  Token-level: `std` `::`
  /// followed by a forbidden identifier.  `#include <set>` lines are not
  /// tokens that match this shape (no `std ::` prefix), so includes pulled in
  /// for unrelated reasons do not fire; actual declarations do.
  void hot_path_container_pass() {
    const std::size_t slash = path_.find_last_of('/');
    const std::string base = slash == std::string::npos ? path_ : path_.substr(slash + 1);
    if (kHotPathHeaders.count(base) == 0) return;
    for (std::size_t i = 0; i + 2 < toks_.size(); ++i) {
      if (toks_[i].text != "std" || toks_[i].kind != Token::Kind::kIdent) continue;
      if (!is(i + 1, "::")) continue;
      if (!is_ident(i + 2) || kNodeContainers.count(toks_[i + 2].text) == 0) continue;
      emit(kHotPathContainer, toks_[i].line,
           "std::" + std::string(toks_[i + 2].text) + " in hot-path header " + base +
               " — the TM data path must use the flat SIMD-probeable structures "
               "(sim::FlatMap, sim::CpuMask, flat arrays), not node-based "
               "standard containers");
    }
  }

  // ---- catch-swallow pass ----

  void catch_pass() {
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].text != "catch" || toks_[i].kind != Token::Kind::kIdent) continue;
      if (!is(i + 1, "(")) continue;
      const std::size_t pclose = match(i + 1);
      if (pclose >= toks_.size()) continue;
      bool dangerous = false;
      bool is_violated = false;
      for (std::size_t j = i + 2; j < pclose; ++j) {
        if (toks_[j].text == "...") dangerous = true;
        if (toks_[j].text == "Violated") dangerous = is_violated = true;
      }
      if (!dangerous) continue;
      std::size_t b = pclose + 1;
      if (!is(b, "{")) continue;
      const std::size_t bend = match(b);
      bool escapes = false;
      for (std::size_t j = b + 1; j < bend && j < toks_.size(); ++j) {
        if (toks_[j].kind == Token::Kind::kIdent && kBodyEscapes.count(toks_[j].text) != 0) {
          escapes = true;
          break;
        }
      }
      if (!escapes) {
        emit(kCatchSwallow, toks_[i].line,
             std::string(is_violated ? "catch of atomos::Violated" : "catch (...)") +
                 " neither rethrows nor aborts — it can swallow the TM violation "
                 "unwind and corrupt transaction state");
      }
    }
  }

  std::string path_;
  Options opts_;
  Suppressions sup_;
  std::string cleaned_;  // backing storage for every token's string_view
  std::vector<Token> toks_;
  std::vector<Frame> stack_;
  std::size_t last_paren_head_ = static_cast<std::size_t>(-1);
  std::vector<Finding> findings_;
};

}  // namespace

const std::vector<RuleInfo>& rules() { return kRules; }

std::vector<Finding> scan_source(const std::string& path, std::string_view content,
                                 const Options& opts) {
  Scanner s(path, content, opts);
  return s.run();
}

}  // namespace txlint
