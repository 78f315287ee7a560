// epp_check — the one front end for EPP's checks.
//
//   epp_check verify [--json] [--fault-spec SPEC]... [--no-fallback]
//                    [--max-clients-factor F] FILE...
//   epp_check src    [--json] [--no-suppress] [--rules=LIST] PATH...
//   epp_check replay [--artifact NAME]... [--check-stdout]
//                    [--vary-threads N] [--threads-flag F]
//                    [--out-dir DIR] [--diff-out FILE] -- CMD ARG...
//
// verify — the artifact pre-flight. FILEs are `.epp` bundles, `.lqn`
//   models, `.wkl` workload grids or `.fspec` fault specs (sniffed by
//   extension, then content); --fault-spec checks a fault-spec string in
//   place of a file. Every structural lint rule runs first, then the
//   EPP-SEM analyzers (interval-proven HYDRA curve sanity, LQN
//   convergence pre-check, fallback-chain coverage) on everything that
//   parsed cleanly; see src/lint/lint.hpp and src/lint/verify.hpp for the
//   rule catalogs. Refutations carry concrete witnesses (the client count
//   where a curve goes negative, the chain that dead-ends) in the fix-it
//   hint. --no-fallback describes the serving configuration the chain
//   analyzer proves coverage for; --max-clients-factor widens or narrows
//   the verified client range.
//
// src — the concurrency, hot-path and determinism analyzer for the
//   tree's own C++ sources (src/lint/src/srclint.hpp has the catalog).
//   PATHs are files or directories (directories recurse over
//   .hpp/.h/.hh/.cpp/.cc/.cxx). --rules narrows the run to rule-ID
//   prefixes ("EPP-DET", "EPP-CONC-003", ...); a prefix that matches no
//   rule in the catalog is a usage error, not a silently clean run.
//   EPP-META-002 input errors always report. `// epp-lint:
//   ignore(<RULE>)` comments suppress a finding on the next line (or
//   their own line when trailing code); stale suppressions report as
//   EPP-META-001. --no-suppress shows everything.
//
// verify and src print findings in compiler style ("file:line:
// severity: [RULE] message"), or as a JSON array with --json, and exit
// with the maximum severity found: 0 clean or notes only, 1 warnings,
// 2 errors — so `epp_check verify artifact.epp && epp_sweep ...` gates a
// run the way a compiler gates a build.
//
// replay — the runtime half of the determinism contract. Runs CMD twice,
//   in OUT/run-a and OUT/run-b, and byte-compares what it produced:
//     --artifact NAME   compare the file NAME (relative to each run
//                       directory; repeatable). CMD runs with its cwd in
//                       the run directory, so relative outputs land there.
//     --check-stdout    compare CMD's captured stdout as well.
//     --vary-threads N  append "<threads-flag> 1" to the first run and
//                       "<threads-flag> N" to the second, turning the
//                       dual run into a thread-count-invariance check.
//     --threads-flag F  the flag --vary-threads appends ("--threads").
//     --out-dir DIR     where run-a/run-b live ("./epp_replay_runs").
//                       Only run-a/, run-b/ and the default diff file are
//                       replaced; nothing else in DIR is touched.
//     --diff-out FILE   divergence report (default DIR/replay_diff.txt).
//   Artifacts are canonicalized before comparison (lint/canon.hpp): JSON
//   artifacts lose their wall-time fields, everything else must match
//   verbatim. CMD and any input paths in ARG must be absolute. Exit code:
//   0 byte-identical, 1 divergence (report written), 2 run failure.
//
// Usage errors exit 2 for every subcommand.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/canon.hpp"
#include "lint/diagnostic.hpp"
#include "lint/src/srclint.hpp"
#include "lint/verify.hpp"
#include "svc/fault.hpp"
#include "util/cli.hpp"

namespace {

namespace cli = epp::util::cli;
namespace fs = std::filesystem;
namespace lint = epp::lint;

// --- the shared argument loop and renderer ---------------------------------

/// One flag of a subcommand. Value flags take the next argument or an
/// inline `--flag=value`; switches ignore `value`.
struct Flag {
  std::string_view name;
  bool takes_value;
  std::function<void(const std::string& value)> apply;
};

/// Thrown by parse_flags on --help / -h.
struct HelpRequested {};

/// The argument loop every subcommand shares: applies each flag and
/// returns the operands in order. "--" ends the flags; everything after
/// it is an operand.
std::vector<std::string> parse_flags(const std::vector<std::string>& args,
                                     const std::vector<Flag>& flags) {
  std::vector<std::string> operands;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--") {
      operands.insert(operands.end(), args.begin() + i + 1, args.end());
      break;
    }
    if (arg == "--help" || arg == "-h") throw HelpRequested{};
    if (arg.size() < 2 || arg[0] != '-') {
      operands.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = std::string_view(arg).substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags)
      if (candidate.name == name) flag = &candidate;
    if (flag == nullptr || (eq != std::string::npos && !flag->takes_value))
      throw cli::UsageError("unknown flag '" + arg + "'");
    if (!flag->takes_value) {
      flag->apply({});
    } else if (eq != std::string::npos) {
      flag->apply(arg.substr(eq + 1));
    } else if (i + 1 < args.size()) {
      flag->apply(args[++i]);
    } else {
      throw cli::UsageError(arg + ": missing value");
    }
  }
  return operands;
}

/// Print findings the way verify and src both do — a JSON array, the
/// compiler-style list, or `clean_line` when there are none — and map
/// them to the exit code.
int render(lint::Diagnostics& diagnostics, bool json,
           const std::string& clean_line) {
  diagnostics.sort_by_location();
  if (json) {
    std::fputs(lint::render_json(diagnostics).c_str(), stdout);
    std::fputc('\n', stdout);
  } else if (diagnostics.empty()) {
    std::printf("%s\n", clean_line.c_str());
  } else {
    std::fputs(lint::render_text(diagnostics).c_str(), stdout);
  }
  return lint::exit_code(diagnostics);
}

// --- verify ----------------------------------------------------------------

int run_verify(const std::vector<std::string>& args) {
  bool json = false;
  std::vector<std::string> fault_specs;
  lint::VerifyOptions options;
  const std::vector<std::string> files = parse_flags(
      args,
      {{"--json", false, [&](const std::string&) { json = true; }},
       {"--fault-spec", true,
        [&](const std::string& v) { fault_specs.push_back(v); }},
       {"--no-fallback", false,
        [&](const std::string&) {
          options.resilience.fallback_enabled = false;
        }},
       {"--max-clients-factor", true, [&](const std::string& v) {
          options.max_clients_factor =
              cli::parse_positive_double("--max-clients-factor", v);
        }}});
  if (files.empty() && fault_specs.empty())
    throw cli::UsageError("nothing to verify: pass FILE or --fault-spec SPEC");

  lint::Diagnostics diagnostics;
  for (const std::string& file : files)
    lint::verify_artifact_file(file, options, diagnostics);
  for (const std::string& spec : fault_specs)
    epp::svc::lint_fault_spec(spec, {"<fault-spec>", 0}, diagnostics);
  return render(diagnostics, json,
                "verified: " +
                    std::to_string(files.size() + fault_specs.size()) +
                    " artifact(s), no findings");
}

// --- src -------------------------------------------------------------------

/// Split a --rules list and check every element against the catalog: it
/// must be a prefix of at least one rule ID lint_sources can report.
std::vector<std::string> parse_rule_prefixes(const std::string& spec) {
  std::vector<std::string> prefixes;
  std::istringstream elements(spec + ",");
  std::string prefix;
  while (std::getline(elements, prefix, ',')) {
    if (prefix.empty())
      throw cli::UsageError("--rules: empty element in '" + spec + "'");
    bool known = false;
    for (const std::string_view rule : lint::srclint_rule_ids())
      known = known || rule.starts_with(prefix);
    if (!known)
      throw cli::UsageError("--rules: '" + prefix +
                            "' matches no rule family or rule ID (EPP-CONC, "
                            "EPP-HOT, EPP-DET, EPP-META; see "
                            "src/lint/src/srclint.hpp)");
    prefixes.push_back(prefix);
  }
  return prefixes;
}

int run_src(const std::vector<std::string>& args) {
  bool json = false;
  lint::SrclintOptions options;
  const std::vector<std::string> paths = parse_flags(
      args, {{"--json", false, [&](const std::string&) { json = true; }},
             {"--no-suppress", false,
              [&](const std::string&) { options.use_suppressions = false; }},
             {"--rules", true, [&](const std::string& v) {
                options.rule_prefixes = parse_rule_prefixes(v);
              }}});
  if (paths.empty()) throw cli::UsageError("nothing to analyze: pass PATH");

  lint::Diagnostics diagnostics;
  lint::lint_sources(paths, diagnostics, options);
  return render(diagnostics, json,
                "clean: " + std::to_string(paths.size()) +
                    " path(s), no findings");
}

// --- replay ----------------------------------------------------------------

std::string shell_quote(const std::string& arg) {
  std::string out = "'";
  for (const char c : arg) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) return false;
  std::ostringstream content;
  content << stream.rdbuf();
  out = content.str();
  return true;
}

/// First line (1-based) where two texts differ, with the differing
/// lines themselves; 0 when identical.
struct LineDiff {
  int line = 0;
  std::string a;
  std::string b;
};

LineDiff first_difference(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  int line = 0;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(sa, la));
    const bool more_b = static_cast<bool>(std::getline(sb, lb));
    ++line;
    if (!more_a && !more_b) return {};
    if (!more_a) return {line, "<end of file>", lb};
    if (!more_b) return {line, la, "<end of file>"};
    if (la != lb) return {line, la, lb};
  }
}

/// Run `command` (plus "<threads_flag> <thread_value>" when a value is
/// given) with its cwd in `dir`, capturing stdout and stderr there.
int run_once(const std::vector<std::string>& command, const fs::path& dir,
             const std::string& threads_flag,
             const std::string& thread_value) {
  std::string shell = "cd " + shell_quote(dir.string()) + " &&";
  for (const std::string& arg : command) shell += ' ' + shell_quote(arg);
  if (!thread_value.empty())
    shell += ' ' + shell_quote(threads_flag) + ' ' + shell_quote(thread_value);
  shell += " > stdout.txt 2> stderr.txt";
  return std::system(shell.c_str());
}

int run_replay(const std::vector<std::string>& args) {
  std::vector<std::string> artifacts;
  bool check_stdout = false;
  std::size_t vary_threads = 0;  // 0 = plain dual run
  std::string threads_flag = "--threads";
  std::string out_dir = "epp_replay_runs";
  std::string diff_out;
  const std::vector<std::string> command = parse_flags(
      args,
      {{"--artifact", true,
        [&](const std::string& v) { artifacts.push_back(v); }},
       {"--check-stdout", false,
        [&](const std::string&) { check_stdout = true; }},
       {"--vary-threads", true,
        [&](const std::string& v) {
          vary_threads = cli::parse_size("--vary-threads", v, 1);
        }},
       {"--threads-flag", true,
        [&](const std::string& v) { threads_flag = v; }},
       {"--out-dir", true, [&](const std::string& v) { out_dir = v; }},
       {"--diff-out", true, [&](const std::string& v) { diff_out = v; }}});
  if (command.empty())
    throw cli::UsageError(
        "missing command: pass `-- CMD ARG...` after the flags");
  if (artifacts.empty() && !check_stdout)
    throw cli::UsageError(
        "nothing to compare: pass --artifact NAME and/or --check-stdout");

  // Replace only what a replay writes: DIR may hold anything else.
  const fs::path base(out_dir);
  const fs::path run_a = base / "run-a";
  const fs::path run_b = base / "run-b";
  const fs::path default_diff = base / "replay_diff.txt";
  if (diff_out.empty()) diff_out = default_diff.string();
  std::error_code ec;
  for (const fs::path& stale : {run_a, run_b, default_diff})
    if (!ec) fs::remove_all(stale, ec);
  if (!ec) fs::create_directories(run_a, ec);
  if (!ec) fs::create_directories(run_b, ec);
  if (ec) {
    std::fprintf(stderr, "epp_check replay: cannot prepare %s: %s\n",
                 base.string().c_str(), ec.message().c_str());
    return 2;
  }

  const std::string threads_a = vary_threads > 0 ? "1" : "";
  const std::string threads_b =
      vary_threads > 0 ? std::to_string(vary_threads) : "";
  for (const auto& [dir, threads] :
       {std::pair(run_a, threads_a), std::pair(run_b, threads_b)}) {
    const int status = run_once(command, dir, threads_flag, threads);
    if (status != 0) {
      std::string stderr_text;
      read_file(dir / "stderr.txt", stderr_text);
      std::fprintf(stderr,
                   "epp_check replay: command failed (status %d) in %s\n%s",
                   status, dir.string().c_str(), stderr_text.c_str());
      return 2;
    }
  }

  std::vector<std::string> names = artifacts;
  if (check_stdout) names.push_back("stdout.txt");
  std::string report;
  for (const std::string& name : names) {
    std::string text_a;
    std::string text_b;
    if (!read_file(run_a / name, text_a) || !read_file(run_b / name, text_b)) {
      std::fprintf(stderr,
                   "epp_check replay: artifact '%s' missing from a run "
                   "directory (did the command write it?)\n",
                   name.c_str());
      return 2;
    }
    const std::string canon_a = lint::canonicalize_artifact(name, text_a);
    const std::string canon_b = lint::canonicalize_artifact(name, text_b);
    if (canon_a == canon_b) {
      std::printf("epp_check replay: %s identical (%zu canonical bytes)\n",
                  name.c_str(), canon_a.size());
      continue;
    }
    const LineDiff diff = first_difference(canon_a, canon_b);
    report += "artifact: " + name + "\n";
    report += "first divergence at canonical line " +
              std::to_string(diff.line) + "\n";
    report += "  run-a: " + diff.a + "\n";
    report += "  run-b: " + diff.b + "\n\n";
  }

  if (report.empty()) {
    const char* mode = vary_threads > 0 ? "thread-count invariant"
                                        : "dual-run reproducible";
    std::printf("epp_check replay: %s — %zu comparison(s) byte-identical\n",
                mode, names.size());
    return 0;
  }

  std::ofstream diff_stream(diff_out, std::ios::binary);
  diff_stream << report;
  diff_stream.close();
  std::fprintf(stderr,
               "epp_check replay: DIVERGENCE — the runs disagree; report in "
               "%s\n%s",
               diff_out.c_str(), report.c_str());
  return 1;
}

// --- dispatch --------------------------------------------------------------

struct Subcommand {
  std::string_view name;
  const char* usage;
  int (*run)(const std::vector<std::string>& args);
};

constexpr Subcommand kSubcommands[] = {
    {"verify",
     "verify [--json] [--fault-spec SPEC]... [--no-fallback]\n"
     "                 [--max-clients-factor F] FILE...\n"
     "  FILEs: .epp bundles, .lqn models, .wkl workload grids,\n"
     "         .fspec fault specs\n"
     "  --json                  machine-readable findings on stdout\n"
     "  --fault-spec SPEC       check a fault-injection spec string\n"
     "  --no-fallback           analyze chains with fallback disabled\n"
     "  --max-clients-factor F  verified client range, x clients-at-max\n"
     "  exit code: 0 clean/notes, 1 warnings, 2 errors\n",
     run_verify},
    {"src",
     "src [--json] [--no-suppress] [--rules=PREFIX[,PREFIX...]] PATH...\n"
     "  PATHs: C++ files or directories (recursive)\n"
     "  --json         machine-readable findings on stdout\n"
     "  --no-suppress  ignore epp-lint suppression comments\n"
     "  --rules=LIST   only report rules matching these ID prefixes\n"
     "                 (families: EPP-CONC, EPP-HOT, EPP-DET, EPP-META)\n"
     "  exit code: 0 clean/notes, 1 warnings, 2 errors\n",
     run_src},
    {"replay",
     "replay [--artifact NAME]... [--check-stdout] [--vary-threads N]\n"
     "                 [--threads-flag FLAG] [--out-dir DIR] "
     "[--diff-out FILE]\n"
     "                 -- CMD ARG...\n"
     "  runs CMD twice and byte-compares canonicalized artifacts\n"
     "  exit code: 0 identical, 1 divergence, 2 usage/run failure\n",
     run_replay},
};

int usage(const Subcommand* only) {
  for (const Subcommand& sub : kSubcommands)
    if (only == nullptr || only == &sub)
      std::fprintf(stderr, "usage: epp_check %s", sub.usage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc > 1 ? argv[1] : "";
  if (name == "--help" || name == "-h") {
    usage(nullptr);
    return 0;
  }
  const Subcommand* sub = nullptr;
  for (const Subcommand& candidate : kSubcommands)
    if (candidate.name == name) sub = &candidate;
  if (sub == nullptr) {
    if (!name.empty())
      std::fprintf(stderr, "epp_check: unknown subcommand '%s'\n", argv[1]);
    return usage(nullptr);
  }

  try {
    return sub->run(std::vector<std::string>(argv + 2, argv + argc));
  } catch (const HelpRequested&) {
    usage(sub);
    return 0;
  } catch (const cli::UsageError& error) {
    std::fprintf(stderr, "epp_check %s: %s\n", argv[1], error.what());
    return usage(sub);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "epp_check %s: %s\n", argv[1], error.what());
    return 2;
  }
}
