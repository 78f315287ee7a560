#include "lint/src/source_model.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <regex>
#include <string_view>
#include <utility>

namespace epp::lint::srcmodel {
namespace {

/// The token view of the source: comments and string/char literal
/// contents blanked, so scans never match quoted or commented-out code.
/// Line structure is preserved exactly.
std::string strip(const std::string& text) {
  std::string pure = text;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          pure[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          pure[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n')
          state = State::kCode;
        else
          pure[i] = ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          pure[i] = pure[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          pure[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          pure[i] = ' ';
          if (next != '\n' && next != '\0') pure[i + 1] = ' ';
          ++i;
        } else if (c == (state == State::kString ? '"' : '\'')) {
          state = State::kCode;
        } else if (c != '\n') {
          pure[i] = ' ';
        }
        break;
    }
  }
  return pure;
}

std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] == '\n') starts.push_back(i + 1);
  return starts;
}

int line_of(const std::vector<std::size_t>& starts, std::size_t pos) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return static_cast<int>(it - starts.begin());
}

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Find the keyword owning the block opened at `brace` (skipping back
/// over an optional parenthesized head), or "" when the block belongs
/// to a function body, class, lambda, initializer, etc.
std::string block_keyword(const std::string& pure, std::size_t brace) {
  std::size_t i = brace;
  while (i > 0 &&
         std::isspace(static_cast<unsigned char>(pure[i - 1])))
    --i;
  if (i == 0) return "";
  if (pure[i - 1] == ')') {
    int depth = 0;
    std::size_t j = i;  // j-1 is ')'
    while (j > 0) {
      --j;
      if (pure[j] == ')') ++depth;
      if (pure[j] == '(') {
        --depth;
        if (depth == 0) break;
      }
    }
    if (depth != 0) return "";
    i = j;
    while (i > 0 &&
           std::isspace(static_cast<unsigned char>(pure[i - 1])))
      --i;
  }
  std::size_t end = i;
  while (i > 0 && is_ident(pure[i - 1])) --i;
  return pure.substr(i, end - i);
}

/// Count the top-level arguments of a call whose opening parenthesis is
/// at `open`; returns -1 when the parens never balance.
int count_call_args(const std::string& pure, std::size_t open) {
  int depth = 0;
  int commas = 0;
  bool any_token = false;
  for (std::size_t i = open; i < pure.size(); ++i) {
    const char c = pure[i];
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) return any_token ? commas + 1 : 0;
    } else if (depth == 1) {
      if (c == ',')
        ++commas;
      else if (!std::isspace(static_cast<unsigned char>(c)))
        any_token = true;
    }
  }
  return -1;
}

/// Read the argument text of a call/init whose opening '(' or '{' is at
/// `open`, up to the matching close bracket; "" when never balanced.
std::string bracket_args(const std::string& pure, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < pure.size(); ++i) {
    const char c = pure[i];
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}' || c == '>') {
      --depth;
      if (depth == 0) return pure.substr(open + 1, i - open - 1);
    }
  }
  return "";
}

/// The identifier assigned on this line (`seed = time(nullptr)` ->
/// "seed"), or "" when the line has no simple top-level assignment.
std::string assign_target(const std::string& line_text) {
  for (std::size_t i = 1; i < line_text.size(); ++i) {
    if (line_text[i] != '=') continue;
    if (i + 1 < line_text.size() && line_text[i + 1] == '=') {
      ++i;
      continue;
    }
    const char before = line_text[i - 1];
    if (before == '=' || before == '!' || before == '<' || before == '>' ||
        before == '+' || before == '-' || before == '*' || before == '/' ||
        before == '%' || before == '&' || before == '|' || before == '^')
      continue;
    std::size_t end = i;
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(line_text[end - 1])))
      --end;
    std::size_t begin = end;
    while (begin > 0 && is_ident(line_text[begin - 1])) --begin;
    return line_text.substr(begin, end - begin);
  }
  return "";
}

/// One active guard scope (or statement-form bare .lock()).
struct GuardScope {
  std::vector<std::string> names;
  int depth = 0;
  bool bare = false;  // released by .unlock(), not by scope exit
};

const std::regex& guard_pattern() {
  static const std::regex pattern(
      R"((?:std::)?(lock_guard|unique_lock|scoped_lock)\s*(?:<[^;{}<>]*>)?\s+[A-Za-z_]\w*\s*[({]([^;]*?)[)}]\s*;)"
      R"(|(?:util::)?(MutexLock)\s+[A-Za-z_]\w*\s*[({]([^;]*?)[)}]\s*;)");
  return pattern;
}

const std::regex& bare_lock_pattern() {
  static const std::regex pattern(
      R"(^\s*([A-Za-z_][\w.\->\[\]]*?)(?:\.|->)(lock|unlock)\(\)\s*;\s*$)");
  return pattern;
}

std::vector<std::string> split_guard_args(const std::string& args) {
  std::vector<std::string> names;
  std::string current;
  int depth = 0;
  for (const char c : args) {
    if (c == '(' || c == '<' || c == '[') ++depth;
    if (c == ')' || c == '>' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      names.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  names.push_back(current);
  std::vector<std::string> normalized;
  for (std::string& name : names) {
    std::string n = normalize_mutex_name(std::move(name));
    // Lock-tag arguments are not mutexes.
    if (n.empty() || n == "adopt_lock" || n == "defer_lock" ||
        n == "try_to_lock")
      continue;
    normalized.push_back(std::move(n));
  }
  return normalized;
}

}  // namespace

std::string normalize_mutex_name(std::string expr) {
  // Trim whitespace and address-of.
  std::size_t begin = 0;
  std::size_t end = expr.size();
  while (begin < end &&
         (std::isspace(static_cast<unsigned char>(expr[begin])) ||
          expr[begin] == '&' || expr[begin] == '*'))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(expr[end - 1])))
    --end;
  expr = expr.substr(begin, end - begin);
  // Take the last member-access component: "this->pool.mutex_" -> "mutex_".
  std::size_t cut = 0;
  for (std::size_t i = 0; i + 1 < expr.size(); ++i) {
    if (expr[i] == '.')
      cut = i + 1;
    else if (expr[i] == '-' && expr[i + 1] == '>')
      cut = i + 2;
  }
  expr = expr.substr(cut);
  // Drop trailing array / call decoration.
  const std::size_t decoration = expr.find_first_of("([");
  if (decoration != std::string::npos) expr = expr.substr(0, decoration);
  return expr;
}

FileModel scan_file(const std::string& path, const std::string& text) {
  FileModel model;
  model.path = path;

  const std::string pure = strip(text);
  const std::vector<std::size_t> starts = line_starts(text);
  model.line_count = static_cast<int>(starts.size());

  // --- declarations -------------------------------------------------
  {
    static const std::regex ranked(
        R"((?:util::)?RankedMutex\s+([A-Za-z_]\w*)\s*([{(]))");
    static const std::regex rank_macro(R"(EPP_LOCK_RANK\(\s*(\d+)\s*\))");
    for (auto it = std::sregex_iterator(pure.begin(), pure.end(), ranked);
         it != std::sregex_iterator(); ++it) {
      MutexDecl decl;
      decl.file = path;
      decl.line = line_of(starts, static_cast<std::size_t>(it->position(1)));
      decl.name = (*it)[1];
      decl.ranked_type = true;
      // The initializer runs to the statement end; read the rank macro
      // out of it.
      const std::size_t init_begin =
          static_cast<std::size_t>(it->position(2));
      const std::size_t init_end = pure.find(';', init_begin);
      const std::string init = pure.substr(
          init_begin, init_end == std::string::npos
                          ? std::string::npos
                          : init_end - init_begin);
      std::smatch m;
      if (std::regex_search(init, m, rank_macro)) decl.rank = std::stoi(m[1]);
      model.decls.push_back(std::move(decl));
    }
    static const std::regex std_mutex(
        R"(std::(recursive_timed_mutex|recursive_mutex|timed_mutex|shared_mutex|mutex)\s+([A-Za-z_]\w*)\s*[;{(=])");
    for (auto it = std::sregex_iterator(pure.begin(), pure.end(), std_mutex);
         it != std::sregex_iterator(); ++it) {
      MutexDecl decl;
      decl.file = path;
      decl.line = line_of(starts, static_cast<std::size_t>(it->position(2)));
      decl.name = (*it)[2];
      decl.std_type = true;
      model.decls.push_back(std::move(decl));
    }
  }

  // --- guarded-field bindings ---------------------------------------
  {
    static const std::regex guarded(
        R"(([A-Za-z_]\w*)\s+EPP_GUARDED_BY\(\s*([^)]+?)\s*\))");
    for (auto it = std::sregex_iterator(pure.begin(), pure.end(), guarded);
         it != std::sregex_iterator(); ++it) {
      GuardedField field;
      field.name = (*it)[1];
      if (field.name == "define") continue;  // the macro's own definition
      field.file = path;
      field.line = line_of(starts, static_cast<std::size_t>(it->position(1)));
      field.mutex_name = normalize_mutex_name((*it)[2]);
      model.guarded.push_back(std::move(field));
    }
  }

  // --- determinism declarations (EPP-DET) ---------------------------
  {
    // util::Rng declarations. `Rng name(seed, stream);` seeds at the
    // declaration; `Rng name;` may still be seeded by a constructor
    // init list (`: name(seed, stream)`) elsewhere in the TU — only
    // when neither exists is the declaration default-seeded.
    static const std::regex rng_decl(R"(\bRng\s+([A-Za-z_]\w*)\s*([;({=]))");
    for (auto it = std::sregex_iterator(pure.begin(), pure.end(), rng_decl);
         it != std::sregex_iterator(); ++it) {
      RngDecl decl;
      decl.line = line_of(starts, static_cast<std::size_t>(it->position(1)));
      decl.name = (*it)[1];
      const char term = pure[static_cast<std::size_t>(it->position(2))];
      if (term == '(' || term == '{') {
        const std::string args = bracket_args(
            pure, static_cast<std::size_t>(it->position(2)));
        bool any = false;
        for (const char c : args)
          if (!std::isspace(static_cast<unsigned char>(c))) any = true;
        if (!any) continue;  // `Rng spawn() noexcept;` — a function
        model.seed_sinks.push_back(SeedSink{decl.line, args});
      } else if (term == ';') {
        // Seeded by a constructor init list? Match `: name(...)` or
        // `, name(...)` anywhere in the TU.
        const std::regex ctor_init("[:,]\\s*" + decl.name + "\\s*[({]");
        std::smatch m;
        std::string::const_iterator search = pure.cbegin();
        bool seeded = false;
        while (std::regex_search(search, pure.cend(), m, ctor_init)) {
          const std::size_t open = static_cast<std::size_t>(
              (search - pure.cbegin()) + m.position(0) + m.length(0) -
              1);
          const std::string args = bracket_args(pure, open);
          bool any = false;
          for (const char c : args)
            if (!std::isspace(static_cast<unsigned char>(c))) any = true;
          if (any) {
            seeded = true;
            model.seed_sinks.push_back(
                SeedSink{line_of(starts, open), args});
          }
          search += m.position(0) + m.length(0);
        }
        decl.default_seeded = !seeded;
      }
      // `=` means an initializer expression; the per-line entropy scan
      // covers what flows into it.
      model.rngs.push_back(std::move(decl));
    }

    // Associative containers whose key/iteration order matters. Angle
    // brackets are balanced by hand because template arguments nest
    // (`std::unordered_map<K, std::list<V>::iterator>`).
    static const std::regex assoc(
        R"(std::(unordered_)?(?:multi)?(?:map|set)\s*<)");
    for (auto it = std::sregex_iterator(pure.begin(), pure.end(), assoc);
         it != std::sregex_iterator(); ++it) {
      const std::size_t open =
          static_cast<std::size_t>(it->position(0)) +
          static_cast<std::size_t>(it->length(0)) - 1;
      int angle = 1;
      std::string first_arg;
      std::size_t i = open + 1;
      for (; i < pure.size() && angle > 0; ++i) {
        const char c = pure[i];
        if (c == '<') ++angle;
        if (c == '>') --angle;
        if (angle == 1 && c == ',' && first_arg.empty())
          first_arg = pure.substr(open + 1, i - open - 1);
        if (c == ';' || c == '{') break;  // never balanced; bail out
      }
      if (angle != 0) continue;
      if (first_arg.empty())
        first_arg = pure.substr(open + 1, i - 1 - open - 1);
      // The declared identifier follows the closing '>' (possibly a
      // reference/pointer parameter); anything else (`::iterator`, a
      // function name before '(') is not a variable.
      std::size_t p = i;
      while (p < pure.size() &&
             (std::isspace(static_cast<unsigned char>(pure[p])) ||
              pure[p] == '&' || pure[p] == '*'))
        ++p;
      std::size_t name_begin = p;
      while (p < pure.size() && is_ident(pure[p])) ++p;
      if (p == name_begin) continue;
      const std::string name = pure.substr(name_begin, p - name_begin);
      while (p < pure.size() &&
             std::isspace(static_cast<unsigned char>(pure[p])))
        ++p;
      if (p < pure.size() && pure[p] == '(')
        continue;  // a function returning the container
      ContainerDecl decl;
      decl.line = line_of(starts, name_begin);
      decl.name = name;
      decl.unordered = (*it)[1].matched;
      decl.pointer_key = first_arg.find('*') != std::string::npos;
      model.containers.push_back(std::move(decl));
    }
  }

  // --- scope walk over `pure` ---------------------------------------
  model.held_by_line.resize(static_cast<std::size_t>(model.line_count));
  model.tokens.resize(static_cast<std::size_t>(model.line_count));

  int depth = 0;
  std::vector<GuardScope> guards;
  std::vector<int> loop_blocks;  // depth values of active loop bodies
  std::vector<bool> loop_keyword_line(
      static_cast<std::size_t>(model.line_count) + 1, false);

  // Determinism walk state: a loop head / lambda introduction arms a
  // pending record that the next matching '{' turns into an open scope;
  // the matching '}' closes it into the model.
  struct OpenContainerLoop {
    std::string container;
    int head_line = 0;
    int body_begin = 0;
    int depth = 0;
  };
  std::vector<OpenContainerLoop> open_container_loops;
  std::string pending_loop_container;
  int pending_loop_line = 0;
  struct OpenLambda {
    std::string name;
    int intro_line = 0;
    int body_begin = 0;
    int depth = 0;
  };
  std::vector<OpenLambda> open_lambdas;
  bool pending_lambda = false;
  std::string pending_lambda_name;
  int pending_lambda_line = 0;

  static const std::regex loop_kw(R"(\b(while|for|do)\b)");
  static const std::regex blocking_kw(
      R"((\.join|\bsleep_for|\bsleep_until|\brecv|\bpoll|\baccept|\bconnect|\bsystem|\bgetline)\s*\()");
  static const std::regex wait_kw(R"(\.(wait|wait_for|wait_until)\s*(\())");
  static const std::regex detach_kw(R"(\.detach\s*\()");
  static const std::regex cas_kw(R"(\bcompare_exchange_weak\b)");
  static const std::regex hot_kw(R"(EPP_HOT_(BEGIN|END)\(\s*(\w+)\s*\))");
  static const std::regex range_for_kw(
      R"(\bfor\s*\([^;)]*:\s*([A-Za-z_][\w.\->\[\]]*)\s*\))");
  static const std::regex iter_for_kw(
      R"(\bfor\s*\([^;]*=\s*([A-Za-z_][\w.\->]*)\.c?begin\s*\()");
  static const std::regex named_ref_lambda_kw(
      R"(\bauto\s+([A-Za-z_]\w*)\s*=\s*\[[^\]\n]*&)");
  static const std::regex inline_pool_lambda_kw(
      R"(\b(?:parallel_for|for_each_index|submit)\s*\([^;[]*\[[^\]\n]*&)");
  static const std::regex entropy_device_kw(R"(std::random_device)");
  static const std::regex entropy_time_kw(R"(\btime\s*\(\s*(?:nullptr|NULL|0|&)\s*)");
  static const std::regex entropy_clock_kw(
      R"(\b([A-Za-z_][\w:]*[Cc]lock)::now\s*\()");
  static const std::regex float_decl_kw(
      R"(\b(?:double|float|std::atomic<\s*(?:double|float)\s*>)\s+([A-Za-z_]\w*)\s*[;={])");
  static const std::regex seed_call_kw(R"((?:\.seed|\bsrand)\s*(\())");
  static const std::regex rng_temp_kw(R"(::Rng\s*(\())");

  for (int line = 1; line <= model.line_count; ++line) {
    const std::size_t begin = starts[static_cast<std::size_t>(line - 1)];
    const std::size_t end = static_cast<std::size_t>(line) < starts.size()
                                ? starts[static_cast<std::size_t>(line)]
                                : pure.size();
    const std::string line_text = pure.substr(begin, end - begin);
    model.tokens[static_cast<std::size_t>(line - 1)] = line_text;

    if (std::regex_search(line_text, loop_kw))
      loop_keyword_line[static_cast<std::size_t>(line)] = true;

    // Arm pending determinism scopes; a pending record that never meets
    // its '{' within two lines is stale (braceless statement) and drops.
    if (!pending_loop_container.empty() && line - pending_loop_line > 2)
      pending_loop_container.clear();
    if (pending_lambda && line - pending_lambda_line > 2)
      pending_lambda = false;
    {
      std::smatch m;
      if (std::regex_search(line_text, m, range_for_kw) ||
          std::regex_search(line_text, m, iter_for_kw)) {
        pending_loop_container = normalize_mutex_name(m[1]);
        pending_loop_line = line;
      }
      if (std::regex_search(line_text, m, named_ref_lambda_kw)) {
        pending_lambda = true;
        pending_lambda_name = m[1];
        pending_lambda_line = line;
      } else if (std::regex_search(line_text, m, inline_pool_lambda_kw)) {
        pending_lambda = true;
        pending_lambda_name.clear();
        pending_lambda_line = line;
      }
    }

    // Events on this line, in positional order: brace depth changes and
    // guard constructions (a guard guards everything after it).
    struct Event {
      std::size_t pos;
      int kind;  // 0 = '{', 1 = '}', 2 = guard, 3 = bare lock/unlock
      std::vector<std::string> names;
      bool unlock = false;
      bool loop_head = false;
      bool plain = false;  // keyword-less block: lambda body, init list
    };
    std::vector<Event> events;
    for (std::size_t i = 0; i < line_text.size(); ++i) {
      if (line_text[i] == '{') {
        Event event{i, 0, {}, false, false, false};
        const std::string kw = block_keyword(pure, begin + i);
        event.loop_head = kw == "while" || kw == "for" || kw == "do";
        event.plain = kw.empty();
        events.push_back(std::move(event));
      } else if (line_text[i] == '}') {
        events.push_back(Event{i, 1, {}, false, false, false});
      }
    }
    for (auto it = std::sregex_iterator(line_text.begin(), line_text.end(),
                                        guard_pattern());
         it != std::sregex_iterator(); ++it) {
      const std::string args = (*it)[2].matched ? (*it)[2] : (*it)[4];
      if (args.find("defer_lock") != std::string::npos)
        continue;  // constructed unlocked
      Event event{static_cast<std::size_t>(it->position(0)), 2,
                  split_guard_args(args), false, false};
      if (!event.names.empty()) events.push_back(std::move(event));
    }
    {
      std::smatch m;
      if (std::regex_match(line_text, m, bare_lock_pattern())) {
        const std::string op = m[2];
        Event event{static_cast<std::size_t>(m.position(1)), 3,
                    {normalize_mutex_name(m[1])},
                    op == "unlock", false};
        events.push_back(std::move(event));
      }
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.pos < b.pos; });

    for (Event& event : events) {
      switch (event.kind) {
        case 0:
          ++depth;
          if (event.loop_head) {
            loop_blocks.push_back(depth);
            if (!pending_loop_container.empty()) {
              open_container_loops.push_back(OpenContainerLoop{
                  pending_loop_container, pending_loop_line, line, depth});
              pending_loop_container.clear();
            }
          } else if (event.plain && pending_lambda) {
            open_lambdas.push_back(OpenLambda{pending_lambda_name,
                                              pending_lambda_line, line,
                                              depth});
            pending_lambda = false;
          }
          break;
        case 1:
          --depth;
          while (!guards.empty() && guards.back().depth > depth)
            guards.pop_back();
          while (!loop_blocks.empty() && loop_blocks.back() > depth)
            loop_blocks.pop_back();
          while (!open_container_loops.empty() &&
                 open_container_loops.back().depth > depth) {
            const OpenContainerLoop& open = open_container_loops.back();
            model.container_loops.push_back(ContainerLoop{
                open.head_line, open.body_begin, line, open.container});
            open_container_loops.pop_back();
          }
          while (!open_lambdas.empty() && open_lambdas.back().depth > depth) {
            const OpenLambda& open = open_lambdas.back();
            model.pool_lambdas.push_back(PoolLambda{
                open.intro_line, open.body_begin, line, open.name});
            open_lambdas.pop_back();
          }
          break;
        case 2:
        case 3: {
          if (event.kind == 3 && event.unlock) {
            // Release the most recent matching bare acquisition.
            for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
              if (it->bare && it->names.size() == 1 &&
                  it->names[0] == event.names[0]) {
                guards.erase(std::next(it).base());
                break;
              }
            }
            break;
          }
          for (const std::string& name : event.names)
            model.acquisitions.push_back(Acquisition{line, name});
          GuardScope scope;
          scope.names = std::move(event.names);
          scope.depth = depth;
          scope.bare = event.kind == 3;
          guards.push_back(std::move(scope));
          break;
        }
        default:
          break;
      }
    }

    std::vector<std::string>& held_now =
        model.held_by_line[static_cast<std::size_t>(line - 1)];
    for (const GuardScope& guard : guards)
      held_now.insert(held_now.end(), guard.names.begin(), guard.names.end());

    // --- per-line call sites ----------------------------------------
    if (!held_now.empty()) {
      for (auto it = std::sregex_iterator(line_text.begin(), line_text.end(),
                                          blocking_kw);
           it != std::sregex_iterator(); ++it) {
        std::string token = (*it)[1];
        while (!token.empty() && !is_ident(token.front()))
          token.erase(token.begin());
        model.blocking.push_back(BlockingCall{line, token});
      }
    }
    for (auto it = std::sregex_iterator(line_text.begin(), line_text.end(),
                                        wait_kw);
         it != std::sregex_iterator(); ++it) {
      WaitCall wait;
      wait.line = line;
      wait.token = (*it)[1];
      wait.args = count_call_args(
          pure, begin + static_cast<std::size_t>(it->position(2)));
      model.waits.push_back(std::move(wait));
    }
    if (std::regex_search(line_text, detach_kw))
      model.detaches.push_back(DetachCall{line});
    if (std::regex_search(line_text, cas_kw)) {
      CasCall cas;
      cas.line = line;
      cas.in_loop = !loop_blocks.empty();
      // A CAS in a loop *head* sits before the body's '{' — accept a
      // loop keyword within the previous few lines as evidence too.
      for (int back = std::max(1, line - 3); !cas.in_loop && back <= line;
           ++back)
        cas.in_loop = loop_keyword_line[static_cast<std::size_t>(back)];
      model.cas.push_back(cas);
    }
    for (auto it = std::sregex_iterator(line_text.begin(), line_text.end(),
                                        hot_kw);
         it != std::sregex_iterator(); ++it) {
      HotMarker marker;
      marker.line = line;
      marker.begin = (*it)[1] == "BEGIN";
      marker.label = (*it)[2];
      model.hot_markers.push_back(std::move(marker));
    }

    // --- determinism per-line facts ---------------------------------
    {
      std::smatch m;
      std::string token;
      if (std::regex_search(line_text, m, entropy_device_kw))
        token = "std::random_device";
      else if (std::regex_search(line_text, m, entropy_clock_kw))
        token = std::string(m[1]) + "::now";
      else if (std::regex_search(line_text, m, entropy_time_kw))
        token = "time";
      if (!token.empty())
        model.entropy.push_back(
            EntropyUse{line, token, assign_target(line_text)});
    }
    for (auto it = std::sregex_iterator(line_text.begin(), line_text.end(),
                                        float_decl_kw);
         it != std::sregex_iterator(); ++it)
      model.floats.push_back(FloatDecl{line, (*it)[1]});
    for (auto it = std::sregex_iterator(line_text.begin(), line_text.end(),
                                        seed_call_kw);
         it != std::sregex_iterator(); ++it)
      model.seed_sinks.push_back(SeedSink{
          line, bracket_args(
                    pure, begin + static_cast<std::size_t>(it->position(1)))});
    for (auto it = std::sregex_iterator(line_text.begin(), line_text.end(),
                                        rng_temp_kw);
         it != std::sregex_iterator(); ++it) {
      const std::string args = bracket_args(
          pure, begin + static_cast<std::size_t>(it->position(1)));
      bool any = false;
      for (const char c : args)
        if (!std::isspace(static_cast<unsigned char>(c))) any = true;
      if (any) model.seed_sinks.push_back(SeedSink{line, args});
    }
  }

  return model;
}

}  // namespace epp::lint::srcmodel
