#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

namespace faasnap {
namespace lint {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader for the restricted shape of layers.json: one top-level
// object whose values are either arrays of strings or one object of arrays of
// strings. No numbers, booleans, nesting beyond that, or escapes other than
// \" and \\. Strictness is a feature: a malformed config fails the lint run
// loudly instead of silently enforcing nothing.
// ---------------------------------------------------------------------------
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  char Peek() {
    SkipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  Status Consume(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return InvalidArgumentError(std::string("layers.json: expected '") + c + "' at offset " +
                                  std::to_string(pos_));
    }
    ++pos_;
    return OkStatus();
  }

  Result<std::string> ParseString() {
    RETURN_IF_ERROR(Consume('"'));
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        c = text_[pos_++];  // only \" and \\ occur in this config
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) {
      return InvalidArgumentError("layers.json: unterminated string");
    }
    ++pos_;  // closing quote
    return out;
  }

  Result<std::vector<std::string>> ParseStringArray() {
    RETURN_IF_ERROR(Consume('['));
    std::vector<std::string> out;
    if (Peek() == ']') {
      RETURN_IF_ERROR(Consume(']'));
      return out;
    }
    while (true) {
      ASSIGN_OR_RETURN(std::string item, ParseString());
      out.push_back(std::move(item));
      if (Peek() == ',') {
        RETURN_IF_ERROR(Consume(','));
        continue;
      }
      RETURN_IF_ERROR(Consume(']'));
      return out;
    }
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

bool PathAllowed(const std::vector<std::string>& prefixes, std::string_view path) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& p) { return path.rfind(p, 0) == 0; });
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Identifiers banned outright in simulation code: ambient time and ambient
// randomness both make traces non-reproducible (determinism_test requires
// bit-identical output across runs).
bool IsBannedIdentifier(std::string_view ident) {
  return ident == "system_clock" || ident == "high_resolution_clock" ||
         ident == "steady_clock" || ident == "random_device" || ident == "gettimeofday" ||
         ident == "clock_gettime" || ident == "timespec_get";
}

// Identifiers banned only as calls (`name(`): these are common enough words
// that a field like `fetch_time_` must not trip the rule.
bool IsBannedCall(std::string_view ident) {
  return ident == "rand" || ident == "srand" || ident == "time" || ident == "clock";
}

// First directory component after "src/", or "" when not under src/.
std::string SrcDirOf(std::string_view path) {
  constexpr std::string_view kSrc = "src/";
  if (path.rfind(kSrc, 0) != 0) {
    return "";
  }
  const size_t slash = path.find('/', kSrc.size());
  if (slash == std::string_view::npos) {
    return "";  // file directly under src/ belongs to no layer
  }
  return std::string(path.substr(kSrc.size(), slash - kSrc.size()));
}

// Lowercase dotted identifier: '.'-joined segments of [a-z0-9_]+, at least
// `min_segments` of them. This is the naming convention for every metric and
// span name (metrics additionally need a subsystem prefix, i.e. >= 2
// segments); hyphens and uppercase are banned so names survive round-trips
// through JSON keys, Prometheus-style tooling, and shell pipelines unquoted.
bool IsLowerDottedName(std::string_view name, size_t min_segments) {
  size_t segments = 0;
  size_t seg_len = 0;
  for (const char c : name) {
    if (c == '.') {
      if (seg_len == 0) {
        return false;  // empty segment ("a..b", ".a")
      }
      ++segments;
      seg_len = 0;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
      ++seg_len;
    } else {
      return false;
    }
  }
  if (seg_len == 0) {
    return false;  // empty name or trailing '.'
  }
  ++segments;
  return segments >= min_segments;
}

// First double-quoted literal in `raw` at or after `from`. Returns true and
// sets *out / *next (one past the closing quote) when found.
bool FirstLiteral(std::string_view raw, size_t from, std::string_view* out, size_t* next) {
  const size_t open = raw.find('"', from);
  if (open == std::string_view::npos) {
    return false;
  }
  const size_t close = raw.find('"', open + 1);
  if (close == std::string_view::npos) {
    return false;
  }
  *out = raw.substr(open + 1, close - open - 1);
  *next = close + 1;
  return true;
}

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Tokenizer for the semantic passes. Runs on the stripped text (comments and
// literals are already spaces) and — because the stripper is length-preserving
// — every token's `begin` offset is also valid in the raw text, which is how
// blanked string literals are recovered at call sites.
//
// Preprocessor lines (and their backslash-continuations) are skipped entirely:
// macro bodies and #if/#else alternatives would otherwise unbalance the brace
// tracking. The layering rule reads #include lines separately from the raw
// text, so nothing is lost.
// ---------------------------------------------------------------------------
struct Token {
  std::string_view text;
  size_t begin = 0;  // byte offset into the stripped (== raw) text
  int line = 1;      // 1-based
  bool ident = false;
};

std::vector<Token> Tokenize(std::string_view stripped) {
  const std::vector<std::string_view> lines = SplitLines(stripped);
  std::vector<char> skip(lines.size(), 0);
  bool continuation = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const size_t first = lines[i].find_first_not_of(" \t");
    const bool preproc = first != std::string_view::npos && lines[i][first] == '#';
    skip[i] = (continuation || preproc) ? 1 : 0;
    const size_t last = lines[i].find_last_not_of(" \t\r");
    continuation = skip[i] != 0 && last != std::string_view::npos && lines[i][last] == '\\';
  }
  std::vector<Token> toks;
  size_t offset = 0;
  for (size_t li = 0; li < lines.size(); ++li) {
    const std::string_view line = lines[li];
    if (skip[li] == 0) {
      size_t p = 0;
      while (p < line.size()) {
        const char c = line[p];
        if (c == ' ' || c == '\t' || c == '\r') {
          ++p;
          continue;
        }
        Token t;
        t.begin = offset + p;
        t.line = static_cast<int>(li) + 1;
        if (IsIdentChar(c)) {
          size_t e = p;
          while (e < line.size() && IsIdentChar(line[e])) {
            ++e;
          }
          t.text = line.substr(p, e - p);
          t.ident = true;
          p = e;
        } else {
          size_t len = 1;
          if (p + 1 < line.size() &&
              ((c == ':' && line[p + 1] == ':') || (c == '-' && line[p + 1] == '>'))) {
            len = 2;
          }
          t.text = line.substr(p, len);
          p += len;
        }
        toks.push_back(t);
      }
    }
    offset += line.size() + 1;
  }
  return toks;
}

// --- raw-unit helpers -------------------------------------------------------

bool IsRawIntType(std::string_view t) {
  return t == "uint64_t" || t == "int64_t" || t == "uint32_t" || t == "int32_t";
}

// The unit suffix carried by `ident` (after stripping one trailing '_' for
// member names), or empty. Bare names like `bytes` or `ns` are not suffixed:
// they are the sanctioned spelling for raw index/offset arithmetic.
std::string_view UnitSuffixOf(std::string_view ident) {
  if (!ident.empty() && ident.back() == '_') {
    ident.remove_suffix(1);
  }
  static constexpr std::string_view kSuffixes[] = {"_us", "_ns", "_ms", "_bytes", "_pages"};
  for (const std::string_view s : kSuffixes) {
    if (ident.size() > s.size() && ident.substr(ident.size() - s.size()) == s) {
      return s;
    }
  }
  return {};
}

const char* UnitTypeSuggestion(std::string_view suffix) {
  if (suffix == "_bytes") {
    return "ByteCount";
  }
  if (suffix == "_pages") {
    return "PageCount";
  }
  return "Duration (or SimTime for absolute times)";
}

// Ubiquitous STL container/iterator method names: member calls to these are
// overwhelmingly `field_.size()`-style container operations, so resolving
// them against same-named lock-acquiring methods by unqualified name alone
// would fabricate edges (e.g. MetricsRegistry::size() holds mu_ and calls
// entries_.size() — a std::list call, not recursion). Qualified calls still
// resolve exactly.
bool IsCommonContainerMethod(std::string_view t) {
  return t == "size" || t == "empty" || t == "begin" || t == "end" || t == "clear" ||
         t == "count" || t == "find" || t == "insert" || t == "erase" ||
         t == "push_back" || t == "pop_back" || t == "front" || t == "back" ||
         t == "reserve" || t == "at" || t == "emplace" || t == "emplace_back" ||
         t == "get" || t == "reset" || t == "data" || t == "c_str";
}

// Identifiers that look like calls (`name(`) but never are, or that open
// constructs the function detector must not mistake for definitions.
bool IsNonCallKeyword(std::string_view t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" || t == "catch" ||
         t == "return" || t == "sizeof" || t == "alignof" || t == "decltype" ||
         t == "static_assert" || t == "noexcept" || t == "throw" || t == "alignas" ||
         t == "new" || t == "delete" || t == "case" || t == "requires" || t == "assert";
}

}  // namespace

Result<Config> ParseConfig(std::string_view json) {
  JsonCursor cur(json);
  Config config;
  RETURN_IF_ERROR(cur.Consume('{'));
  if (cur.Peek() == '}') {
    RETURN_IF_ERROR(cur.Consume('}'));
    if (!cur.AtEnd()) {
      return InvalidArgumentError("layers.json: trailing content after top-level object");
    }
    return config;
  }
  while (true) {
    ASSIGN_OR_RETURN(std::string key, cur.ParseString());
    RETURN_IF_ERROR(cur.Consume(':'));
    if (!key.empty() && key[0] == '_') {
      // Comment key: value must still be a string array; discard it.
      RETURN_IF_ERROR(cur.ParseStringArray().status());
    } else if (key == "layers") {
      RETURN_IF_ERROR(cur.Consume('{'));
      while (cur.Peek() != '}') {
        ASSIGN_OR_RETURN(std::string dir, cur.ParseString());
        RETURN_IF_ERROR(cur.Consume(':'));
        ASSIGN_OR_RETURN(std::vector<std::string> deps, cur.ParseStringArray());
        config.layers[dir] = std::set<std::string>(deps.begin(), deps.end());
        if (cur.Peek() == ',') {
          RETURN_IF_ERROR(cur.Consume(','));
        }
      }
      RETURN_IF_ERROR(cur.Consume('}'));
    } else if (key == "determinism_allow") {
      ASSIGN_OR_RETURN(config.determinism_allow, cur.ParseStringArray());
    } else if (key == "container_allow") {
      ASSIGN_OR_RETURN(config.container_allow, cur.ParseStringArray());
    } else if (key == "tracer_allow") {
      ASSIGN_OR_RETURN(config.tracer_allow, cur.ParseStringArray());
    } else if (key == "raw_unit_allow") {
      ASSIGN_OR_RETURN(config.raw_unit_allow, cur.ParseStringArray());
    } else if (key == "lock_order_allow") {
      ASSIGN_OR_RETURN(config.lock_order_allow, cur.ParseStringArray());
    } else {
      return InvalidArgumentError("layers.json: unknown key \"" + key + "\"");
    }
    if (cur.Peek() == ',') {
      RETURN_IF_ERROR(cur.Consume(','));
      continue;
    }
    RETURN_IF_ERROR(cur.Consume('}'));
    break;
  }
  if (!cur.AtEnd()) {
    return InvalidArgumentError("layers.json: trailing content after top-level object");
  }
  // Reject cycles up front: a cyclic "DAG" would make the layering rule
  // meaningless. Kahn's algorithm over the declared edges.
  {
    std::map<std::string, int> indegree;
    for (const auto& [dir, deps] : config.layers) {
      indegree.emplace(dir, 0);
      for (const std::string& d : deps) {
        indegree.emplace(d, 0);
      }
    }
    for (const auto& [dir, deps] : config.layers) {
      (void)dir;  // only the edge targets matter for in-degree
      for (const std::string& d : deps) {
        ++indegree[d];
      }
    }
    std::vector<std::string> ready;
    for (const auto& [dir, deg] : indegree) {
      if (deg == 0) {
        ready.push_back(dir);
      }
    }
    size_t removed = 0;
    while (!ready.empty()) {
      const std::string dir = ready.back();
      ready.pop_back();
      ++removed;
      auto it = config.layers.find(dir);
      if (it == config.layers.end()) {
        continue;
      }
      for (const std::string& d : it->second) {
        if (--indegree[d] == 0) {
          ready.push_back(d);
        }
      }
    }
    if (removed != indegree.size()) {
      return InvalidArgumentError("layers.json: layering graph has a cycle");
    }
  }
  return config;
}

std::string StripCommentsAndStrings(std::string_view content) {
  std::string out(content);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  char prev_code = '\0';  // last code character kept (for digit-separator detection)
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'' && !IsIdentChar(prev_code)) {
          // `'` after an identifier character is a digit separator
          // (1'000'000) or a user-defined literal, not a character literal.
          state = State::kChar;
          out[i] = ' ';
        } else {
          prev_code = c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          prev_code = '\0';
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
          prev_code = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0' && next != '\n') {
          out[i] = ' ';
          if (next != '\n') {
            out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          prev_code = ' ';
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0' && next != '\n') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          prev_code = ' ';
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<Violation> LintFile(const Config& config, std::string_view path,
                                std::string_view content) {
  std::vector<Violation> out;
  const std::string stripped = StripCommentsAndStrings(content);
  const std::vector<std::string_view> lines = SplitLines(stripped);
  const std::vector<std::string_view> raw_lines = SplitLines(content);
  const std::string own_dir = SrcDirOf(path);

  auto add = [&](int line, const char* rule, std::string message) {
    out.push_back(Violation{std::string(path), line, rule, std::move(message)});
  };

  // --- layering: every #include "src/<dir>/..." must be a declared edge. ---
  // Includes are parsed from the stripped text so commented-out includes
  // don't count.
  if (!own_dir.empty()) {
    const auto allowed_it = config.layers.find(own_dir);
    for (size_t i = 0; i < lines.size(); ++i) {
      std::string_view line = lines[i];
      const size_t hash = line.find_first_not_of(" \t");
      if (hash == std::string_view::npos || line[hash] != '#') {
        continue;
      }
      // The stripper blanked the quoted path, so re-read it from the raw line.
      std::string_view raw = raw_lines[i];
      const size_t inc = raw.find("#include");
      if (inc == std::string_view::npos) {
        continue;
      }
      const size_t open = raw.find('"', inc);
      if (open == std::string_view::npos) {
        continue;  // <system> include
      }
      const size_t close = raw.find('"', open + 1);
      if (close == std::string_view::npos) {
        continue;
      }
      const std::string_view target = raw.substr(open + 1, close - open - 1);
      const std::string dep_dir = SrcDirOf(target);
      if (dep_dir.empty() || dep_dir == own_dir) {
        continue;
      }
      const bool allowed =
          allowed_it != config.layers.end() && allowed_it->second.count(dep_dir) > 0;
      if (!allowed) {
        add(static_cast<int>(i + 1), "layering",
            "src/" + own_dir + "/ may not include src/" + dep_dir +
                "/ (edge not in tools/lint/layers.json)");
      }
    }
  }

  const bool determinism_exempt = PathAllowed(config.determinism_allow, path);
  const bool container_exempt = PathAllowed(config.container_allow, path);

  // --- determinism + container: scan identifier tokens line by line. ---
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    size_t p = 0;
    while (p < line.size()) {
      if (!IsIdentChar(line[p])) {
        ++p;
        continue;
      }
      size_t end = p;
      while (end < line.size() && IsIdentChar(line[end])) {
        ++end;
      }
      const std::string_view ident = line.substr(p, end - p);
      // Skip pure numbers (IsIdentChar admits digits).
      if (std::isdigit(static_cast<unsigned char>(ident[0])) == 0) {
        const bool preceded_by_scope_or_dot =
            p >= 1 && (line[p - 1] == '.' ||
                       (p >= 2 && line[p - 1] == ':' && line[p - 2] == ':'));
        size_t after = end;
        while (after < line.size() && (line[after] == ' ' || line[after] == '\t')) {
          ++after;
        }
        const bool is_call = after < line.size() && line[after] == '(';
        if (!determinism_exempt) {
          if (IsBannedIdentifier(ident)) {
            add(static_cast<int>(i + 1), "determinism",
                "banned non-deterministic source '" + std::string(ident) +
                    "' (use the sim clock / seeded RNG, or allowlist in layers.json)");
          } else if (IsBannedCall(ident) && is_call && !preceded_by_scope_or_dot) {
            add(static_cast<int>(i + 1), "determinism",
                "banned non-deterministic call '" + std::string(ident) +
                    "()' (use the sim clock / seeded RNG, or allowlist in layers.json)");
          }
        }
        if (!container_exempt &&
            (ident == "unordered_map" || ident == "unordered_set")) {
          add(static_cast<int>(i + 1), "container",
              "std::" + std::string(ident) +
                  " has implementation-defined iteration order; use std::map/std::set or "
                  "allowlist lookup-only uses in layers.json");
        }
      }
      p = end;
    }
  }

  // --- tracer-pairing: a file that opens spans must also close them. ---
  if (!PathAllowed(config.tracer_allow, path)) {
    const bool begins = stripped.find("->Begin(") != std::string::npos ||
                        stripped.find(".Begin(") != std::string::npos;
    const bool ends = stripped.find("->End(") != std::string::npos ||
                      stripped.find(".End(") != std::string::npos ||
                      stripped.find("->Complete(") != std::string::npos ||
                      stripped.find(".Complete(") != std::string::npos;
    if (begins && !ends) {
      int first_line = 1;
      for (size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].find("Begin(") != std::string_view::npos) {
          first_line = static_cast<int>(i + 1);
          break;
        }
      }
      add(first_line, "tracer-pairing",
          "file opens tracer spans (Begin) but never closes one (End/Complete); unclosed "
          "spans corrupt critical-path analysis");
    }
  }

  // --- void-comment: `(void)` discards need a same-line justification. ---
  for (size_t i = 0; i < lines.size(); ++i) {
    const size_t pos = lines[i].find("(void)");
    if (pos == std::string_view::npos) {
      continue;
    }
    // `(void)` immediately followed by an identifier/`(` is a discard cast;
    // in a declaration like `f(void)` the next token is `)` or `;`.
    size_t after = pos + 6;
    std::string_view line = lines[i];
    while (after < line.size() && (line[after] == ' ' || line[after] == '\t')) {
      ++after;
    }
    if (after >= line.size() || (!IsIdentChar(line[after]) && line[after] != '(')) {
      continue;
    }
    // The justification lives in a comment, which the stripper removed — so
    // look for `//` in the raw line after the cast.
    if (raw_lines[i].find("//", pos) == std::string_view::npos) {
      add(static_cast<int>(i + 1), "void-comment",
          "discarding a value with (void) requires a same-line '// why' comment");
    }
  }

  // --- obs-naming: metric/span names are lowercase dotted identifiers. ---
  // Markers are matched on the stripped line (so commented-out calls don't
  // count) and must be preceded by '.' or '>' (a member call — this excludes
  // declarations and unrelated identifiers like BeginObject/BeginTrack, which
  // never have '(' directly after "Begin"). The name itself was blanked by
  // the stripper, so the first literal is re-read from the raw line; a call
  // whose name argument is a variable (replay paths) has no literal on the
  // line and is skipped. Known limitation: a literal wrapped to the next
  // line escapes the check.
  struct ObsMarker {
    std::string_view token;
    size_t min_segments;
    const char* what;
  };
  static constexpr ObsMarker kObsMarkers[] = {
      {"Begin(", 1, "span"},          {"Instant(", 1, "span"},
      {"Complete(", 1, "span"},       {"InternName(", 1, "span"},
      {"GetCounter(", 2, "metric"},   {"GetGauge(", 2, "metric"},
      {"GetHistogram(", 2, "metric"},
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    const std::string_view raw = raw_lines[i];
    for (const ObsMarker& marker : kObsMarkers) {
      size_t pos = line.find(marker.token);
      while (pos != std::string_view::npos) {
        const bool member_call = pos >= 1 && (line[pos - 1] == '.' || line[pos - 1] == '>');
        if (member_call) {
          std::string_view name;
          size_t next = 0;
          if (FirstLiteral(raw, pos + marker.token.size(), &name, &next) &&
              !IsLowerDottedName(name, marker.min_segments)) {
            add(static_cast<int>(i + 1), "obs-naming",
                std::string(marker.what) + " name \"" + std::string(name) +
                    "\" is not a lowercase dotted identifier" +
                    (marker.min_segments > 1 ? " with a subsystem prefix (need >= 2 segments)"
                                             : "") +
                    "; see docs/observability.md");
          }
        }
        pos = line.find(marker.token, pos + 1);
      }
    }
    // Named observability constants get the same treatment: every literal on
    // a `constexpr std::string_view` line must be a valid (single-segment ok)
    // dotted name. src/ only: that is where span/metric name constants live —
    // report tooling legitimately tables operator tokens and JSON fragments.
    if (path.rfind("src/", 0) == 0 &&
        line.find("constexpr") != std::string_view::npos &&
        line.find("string_view") != std::string_view::npos) {
      std::string_view name;
      size_t from = 0;
      while (FirstLiteral(raw, from, &name, &from)) {
        if (!IsLowerDottedName(name, 1)) {
          add(static_cast<int>(i + 1), "obs-naming",
              "constexpr std::string_view literal \"" + std::string(name) +
                  "\" is not a lowercase dotted identifier; see docs/observability.md");
        }
      }
    }
  }

  // --- raw-unit: declarations typed u?int{32,64}_t whose identifier carries a
  // unit suffix. A token-pair scan (type directly before the name, allowing
  // '*'/'&') catches parameters, fields, locals, and function return types.
  // Scoped to src/: bench drivers and report tooling talk to raw JSON and OS
  // counters where raw integers are the honest representation.
  // Known limitation: a suffixed name whose type is wrapped in a template
  // (std::atomic<uint64_t> total_bytes_) escapes the pair scan.
  if (path.rfind("src/", 0) == 0 && !PathAllowed(config.raw_unit_allow, path)) {
    const std::vector<Token> toks = Tokenize(stripped);
    for (size_t t = 0; t + 1 < toks.size(); ++t) {
      if (!toks[t].ident || !IsRawIntType(toks[t].text)) {
        continue;
      }
      size_t n = t + 1;
      while (n < toks.size() && !toks[n].ident &&
             (toks[n].text == "*" || toks[n].text == "&")) {
        ++n;
      }
      if (n >= toks.size() || !toks[n].ident ||
          std::isdigit(static_cast<unsigned char>(toks[n].text[0])) != 0) {
        continue;
      }
      const std::string_view suffix = UnitSuffixOf(toks[n].text);
      if (suffix.empty()) {
        continue;
      }
      add(toks[n].line, "raw-unit",
          "'" + std::string(toks[t].text) + " " + std::string(toks[n].text) +
              "' carries unit suffix '" + std::string(suffix) + "'; use " +
              UnitTypeSuggestion(suffix) +
              " from src/common/units.h — call sites escape via .value()/.nanos()");
    }
  }

  return out;
}

FileFacts ExtractFacts(const Config& config, std::string_view path, std::string_view content) {
  FileFacts facts;
  facts.path = std::string(path);
  const bool lock_exempt = PathAllowed(config.lock_order_allow, path);
  const std::string stripped = StripCommentsAndStrings(content);
  const std::vector<Token> toks = Tokenize(stripped);

  // Free functions get the file stem as their "class" so same-named statics
  // in two files stay distinct in the lock graph.
  std::string stem(path);
  if (const size_t slash = stem.rfind('/'); slash != std::string::npos) {
    stem = stem.substr(slash + 1);
  }
  if (const size_t dot = stem.rfind('.'); dot != std::string::npos) {
    stem = stem.substr(0, dot);
  }

  struct Scope {
    enum Kind { kNamespace, kClass, kFunction, kBlock };
    Kind kind = kBlock;
    std::string name;      // class name (kClass) / qualified fn (kFunction)
    std::string fn_class;  // kFunction: resolved class context ("" = free)
    std::vector<std::string> locks;  // mutex keys declared directly in this scope
  };
  std::vector<Scope> scopes;

  auto innermost_class = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == Scope::kClass) {
        return it->name;
      }
    }
    return "";
  };
  auto function_scope = [&]() -> Scope* {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == Scope::kFunction) {
        return &*it;
      }
      if (it->kind != Scope::kBlock) {
        break;  // a class/namespace boundary ends the function context
      }
    }
    return nullptr;
  };
  auto held_locks = [&]() {
    std::vector<std::string> held;
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind != Scope::kFunction && it->kind != Scope::kBlock) {
        break;
      }
      held.insert(held.end(), it->locks.begin(), it->locks.end());
      if (it->kind == Scope::kFunction) {
        break;
      }
    }
    return held;
  };
  // An `IDENT (` group whose matching `)` has not closed yet. When it closes
  // at class/namespace scope it becomes the pending function candidate.
  struct Candidate {
    std::string name;       // unqualified
    std::string qualifier;  // "Foo" for Foo::Bar( and Foo::~Foo(
    int paren_depth = 0;    // depth before the '('
  };
  std::vector<Candidate> candidates;
  int paren_depth = 0;

  // pending_fn survives `const`/`noexcept`/`override`/trailing-return tokens
  // between the prototype's `)` and the body `{`; `locked` pins it across a
  // constructor initializer list (whose member initializers look like calls).
  struct PendingFn {
    Candidate c;
    bool armed = false;
    bool locked = false;
  };
  PendingFn pending_fn;
  std::string pending_class;
  bool pending_namespace = false;
  std::string prev_ident;

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    const std::string_view t = tok.text;
    if (tok.ident && std::isdigit(static_cast<unsigned char>(t[0])) != 0) {
      prev_ident = std::string(t);
      continue;
    }
    if (tok.ident) {
      const std::string_view prev = i > 0 ? toks[i - 1].text : std::string_view();
      const std::string_view next = i + 1 < toks.size() ? toks[i + 1].text : std::string_view();

      if (t == "namespace") {
        pending_namespace = true;
      } else if ((t == "class" || t == "struct") && prev_ident != "enum") {
        if (i + 1 < toks.size() && toks[i + 1].ident) {
          pending_class = std::string(toks[i + 1].text);
        }
      } else if (t == "MutexLock" && !lock_exempt && i + 2 < toks.size() && toks[i + 1].ident &&
                 toks[i + 2].text == "(") {
        // `MutexLock guard(<mutex-expr>);` — collect the constructor argument.
        size_t j = i + 3;
        int depth = 1;
        std::string joined;
        std::string single;
        size_t arg_tokens = 0;
        while (j < toks.size() && depth > 0) {
          if (toks[j].text == "(") {
            ++depth;
          } else if (toks[j].text == ")") {
            if (--depth == 0) {
              break;
            }
          }
          joined += toks[j].text;
          if (arg_tokens == 0 && toks[j].ident) {
            single = std::string(toks[j].text);
          }
          ++arg_tokens;
          ++j;
        }
        if (Scope* fn = function_scope(); fn != nullptr && !scopes.empty()) {
          const std::string ctx = fn->fn_class.empty() ? stem : fn->fn_class;
          const std::string key =
              ctx + "::" + (arg_tokens == 1 && !single.empty() ? single : joined);
          for (const std::string& h : held_locks()) {
            facts.lock_edges.push_back(FileFacts::LockEdge{h, key, fn->name, tok.line});
          }
          facts.method_locks[fn->name].insert(key);
          scopes.back().locks.push_back(key);
        }
      }

      if (next == "(") {
        if (!IsNonCallKeyword(t) && t != "MutexLock" && prev_ident != "MutexLock") {
          Candidate c;
          c.name = std::string(t);
          c.paren_depth = paren_depth;
          if (prev == "::" && i >= 2 && toks[i - 2].ident) {
            c.qualifier = std::string(toks[i - 2].text);
          } else if (prev == "~" && i >= 3 && toks[i - 2].text == "::" && toks[i - 3].ident) {
            c.qualifier = std::string(toks[i - 3].text);
          }
          candidates.push_back(std::move(c));
          // A call made while holding locks feeds the one-level indirection of
          // the lock graph.
          if (Scope* fn = function_scope()) {
            std::vector<std::string> held = held_locks();
            if (!held.empty()) {
              FileFacts::HeldCall hc;
              hc.held = std::move(held);
              hc.line = tok.line;
              if (prev == "." || prev == "->") {
                hc.member_call = !(i >= 2 && toks[i - 2].text == "this");
                hc.callee = std::string(t);
              } else if (prev == "::" && i >= 2 && toks[i - 2].ident) {
                hc.callee = std::string(toks[i - 2].text) + "::" + std::string(t);
              } else {
                hc.callee = std::string(t);
              }
              hc.enclosing_class = fn->fn_class.empty() ? stem : fn->fn_class;
              facts.held_calls.push_back(std::move(hc));
            }
          }
        }
      }
      prev_ident = std::string(t);
      continue;
    }

    // Punctuation.
    if (t == "(") {
      ++paren_depth;
    } else if (t == ")") {
      --paren_depth;
      if (!candidates.empty() && candidates.back().paren_depth == paren_depth) {
        Candidate c = std::move(candidates.back());
        candidates.pop_back();
        if (function_scope() == nullptr && !pending_fn.locked) {
          pending_fn.c = std::move(c);
          pending_fn.armed = true;
        }
      }
    } else if (t == ":") {
      if (pending_fn.armed) {
        pending_fn.locked = true;  // constructor initializer list begins
      }
    } else if (t == ";" || t == "=") {
      pending_fn = PendingFn{};
      pending_class.clear();
      pending_namespace = false;
    } else if (t == "{") {
      Scope s;
      if (pending_namespace) {
        s.kind = Scope::kNamespace;
      } else if (!pending_class.empty()) {
        s.kind = Scope::kClass;
        s.name = pending_class;
      } else if (pending_fn.armed && function_scope() == nullptr) {
        s.kind = Scope::kFunction;
        s.fn_class =
            !pending_fn.c.qualifier.empty() ? pending_fn.c.qualifier : innermost_class();
        s.name = (s.fn_class.empty() ? stem : s.fn_class) + "::" + pending_fn.c.name;
      }
      scopes.push_back(std::move(s));
      pending_fn = PendingFn{};
      pending_class.clear();
      pending_namespace = false;
    } else if (t == "}") {
      if (!scopes.empty()) {
        scopes.pop_back();
      }
      pending_fn = PendingFn{};
      pending_class.clear();
      pending_namespace = false;
    }
  }
  return facts;
}

std::vector<Violation> LintProject(const Config& /*config*/,
                                   const std::vector<FileFacts>& facts) {
  // Lock allowlists were already applied during fact extraction; the project
  // pass only merges and resolves.
  std::vector<Violation> out;

  // --- lock-order: merge every TU's nesting facts into one graph. ---
  // Direct edges come from observed nesting; indirect edges from calling a
  // lock-acquiring method while holding a lock. Bare calls resolve against
  // the caller's own class; member calls (x->F()) conservatively resolve
  // against every class's F — over-approximate, but deadlock detection should
  // over- rather than under-approximate.
  std::map<std::string, std::set<std::string>> method_locks;
  std::map<std::string, std::set<std::string>> unqual_locks;
  for (const FileFacts& f : facts) {
    for (const auto& [method, keys] : f.method_locks) {
      method_locks[method].insert(keys.begin(), keys.end());
      const size_t sep = method.rfind("::");
      const std::string unq = sep == std::string::npos ? method : method.substr(sep + 2);
      unqual_locks[unq].insert(keys.begin(), keys.end());
    }
  }

  struct EdgeInfo {
    std::string file;
    int line = 0;
    std::string via;
  };
  std::map<std::string, std::map<std::string, EdgeInfo>> graph;
  auto add_edge = [&](const std::string& a, const std::string& b, EdgeInfo info) {
    graph[a].emplace(b, std::move(info));  // first observation wins for reporting
    graph.emplace(b, std::map<std::string, EdgeInfo>{});
  };

  for (const FileFacts& f : facts) {
    for (const FileFacts::LockEdge& e : f.lock_edges) {
      add_edge(e.outer, e.inner, EdgeInfo{f.path, e.line, e.function});
    }
    for (const FileFacts::HeldCall& hc : f.held_calls) {
      const std::set<std::string>* targets = nullptr;
      std::string resolved;
      if (hc.callee.find("::") != std::string::npos) {
        if (auto it = method_locks.find(hc.callee); it != method_locks.end()) {
          targets = &it->second;
          resolved = hc.callee;
        }
      } else if (hc.member_call) {
        if (!IsCommonContainerMethod(hc.callee)) {
          if (auto it = unqual_locks.find(hc.callee); it != unqual_locks.end()) {
            targets = &it->second;
            resolved = "*::" + hc.callee;
          }
        }
      } else {
        const std::string qualified = hc.enclosing_class + "::" + hc.callee;
        if (auto it = method_locks.find(qualified); it != method_locks.end()) {
          targets = &it->second;
          resolved = qualified;
        }
      }
      if (targets == nullptr) {
        continue;
      }
      for (const std::string& h : hc.held) {
        for (const std::string& target : *targets) {
          add_edge(h, target, EdgeInfo{f.path, hc.line, "call to " + resolved});
        }
      }
    }
  }

  // DFS over the sorted node set: every distinct cycle (normalized by rotating
  // its smallest key first) is reported once, at the edge that closes it. A
  // self-edge is a re-acquisition deadlock (the Mutex is non-reentrant).
  enum Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  for (const auto& [node, edges] : graph) {
    (void)edges;  // nodes only; edge rows are revisited in the DFS
    color[node] = kWhite;
  }
  std::vector<std::string> path_stack;
  std::set<std::vector<std::string>> reported;
  std::function<void(const std::string&)> dfs = [&](const std::string& n) {
    color[n] = kGray;
    path_stack.push_back(n);
    for (const auto& [m, info] : graph[n]) {
      if (color[m] == kGray) {
        auto it = std::find(path_stack.begin(), path_stack.end(), m);
        std::vector<std::string> cycle(it, path_stack.end());
        const auto min_it = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), min_it, cycle.end());
        if (reported.insert(cycle).second) {
          std::string desc;
          for (const std::string& x : cycle) {
            desc += x;
            desc += " -> ";
          }
          desc += cycle.front();
          out.push_back(Violation{
              info.file, info.line, "lock-order",
              "lock-order cycle: " + desc + " (closing edge " + n + " -> " + m + " via " +
                  info.via + "); acquire these mutexes in one global order"});
        }
      } else if (color[m] == kWhite) {
        dfs(m);
      }
    }
    path_stack.pop_back();
    color[n] = kBlack;
  };
  for (const auto& [node, c] : color) {
    if (c == kWhite) {
      dfs(node);
    }
  }

  return out;
}

Result<std::vector<Violation>> LintTree(const Config& config, const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path src = fs::path(root) / "src";
  std::error_code ec;
  if (!fs::is_directory(src, ec)) {
    return NotFoundError("no src/ directory under " + root);
  }
  // bench/ and tools/report/ are optional so fixture trees with only src/
  // still lint. tools/lint/ itself is never walked: testdata/ holds
  // deliberate violations.
  const fs::path roots[] = {src, fs::path(root) / "bench", fs::path(root) / "tools" / "report"};
  std::vector<fs::path> files;
  for (const fs::path& dir : roots) {
    if (!fs::is_directory(dir, ec)) {
      continue;
    }
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end; it.increment(ec)) {
      if (ec) {
        return IoError("walking " + dir.string() + ": " + ec.message());
      }
      if (!it->is_regular_file()) {
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".cc") {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Violation> all;
  std::vector<FileFacts> facts;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      return IoError("reading " + file.string());
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string rel = fs::relative(file, root, ec).generic_string();
    const std::string path = ec ? file.generic_string() : rel;
    const std::string content = text.str();
    std::vector<Violation> file_violations = LintFile(config, path, content);
    all.insert(all.end(), std::make_move_iterator(file_violations.begin()),
               std::make_move_iterator(file_violations.end()));
    // The semantic symbol table covers src/ only: lock discipline and metric
    // gating are properties of the library, not of benchmark drivers.
    if (path.rfind("src/", 0) == 0) {
      facts.push_back(ExtractFacts(config, path, content));
    }
  }
  std::vector<Violation> project = LintProject(config, facts);
  all.insert(all.end(), std::make_move_iterator(project.begin()),
             std::make_move_iterator(project.end()));
  return all;
}

}  // namespace lint
}  // namespace faasnap
