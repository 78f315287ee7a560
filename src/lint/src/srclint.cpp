#include "lint/src/srclint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/src/rules.hpp"
#include "lint/src/source_model.hpp"
#include "lint/suppress.hpp"

namespace epp::lint {
namespace {

constexpr std::string_view kRuleIds[] = {
    "EPP-CONC-003", "EPP-CONC-004", "EPP-CONC-005", "EPP-CONC-006",
    "EPP-CONC-007", "EPP-CONC-008", "EPP-HOT-001",  "EPP-HOT-002",
    "EPP-HOT-003",  "EPP-HOT-004",  "EPP-HOT-005",  "EPP-DET-001",
    "EPP-DET-002",  "EPP-DET-003",  "EPP-DET-004",  "EPP-DET-005",
    "EPP-DET-006",  "EPP-META-001", "EPP-META-002"};

bool lintable_extension(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".cpp" ||
         ext == ".cc" || ext == ".cxx";
}

/// Expand files/directories into a deterministic, deduplicated file
/// list. Unreadable or missing inputs become EPP-META-002 errors.
std::vector<std::string> expand_paths(const std::vector<std::string>& paths,
                                      Diagnostics& out) {
  std::set<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    const std::filesystem::path fs_path(path);
    if (std::filesystem::is_directory(fs_path, ec)) {
      for (std::filesystem::recursive_directory_iterator it(fs_path, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && lintable_extension(it->path()))
          files.insert(it->path().generic_string());
      }
      if (ec)
        out.error("EPP-META-002", {path, 0},
                  "cannot walk directory: " + ec.message());
    } else if (std::filesystem::is_regular_file(fs_path, ec)) {
      files.insert(fs_path.generic_string());
    } else {
      out.error("EPP-META-002", {path, 0},
                "input is neither a readable file nor a directory",
                "check the path (srclint lints C++ sources: "
                ".hpp/.h/.hh/.cpp/.cc/.cxx)");
    }
  }
  return {files.begin(), files.end()};
}

}  // namespace

std::span<const std::string_view> srclint_rule_ids() { return kRuleIds; }

void lint_sources(const std::vector<std::string>& paths, Diagnostics& out,
                  const SrclintOptions& options) {
  Diagnostics findings;
  const std::vector<std::string> files = expand_paths(paths, findings);

  std::vector<srcmodel::FileModel> models;
  std::vector<Suppression> suppressions;
  models.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream stream(file, std::ios::binary);
    if (!stream) {
      findings.error("EPP-META-002", {file, 0}, "cannot open file");
      continue;
    }
    std::ostringstream content;
    content << stream.rdbuf();
    const std::string text = content.str();
    models.push_back(srcmodel::scan_file(file, text));
    if (options.use_suppressions) {
      std::vector<Suppression> found = find_suppressions(file, text);
      suppressions.insert(suppressions.end(),
                          std::make_move_iterator(found.begin()),
                          std::make_move_iterator(found.end()));
    }
  }

  srcrules::check_concurrency(models, findings);
  srcrules::check_hot_regions(models, findings);
  srcrules::check_determinism(models, findings);

  if (!options.rule_prefixes.empty()) {
    const auto enabled = [&options](const std::string& rule) {
      for (const std::string& prefix : options.rule_prefixes)
        if (rule.compare(0, prefix.size(), prefix) == 0) return true;
      return false;
    };
    Diagnostics filtered;
    for (const Diagnostic& diagnostic : findings.all()) {
      // Unreadable inputs are reported regardless of the filter: a
      // "clean" run that silently read nothing proves nothing.
      if (diagnostic.rule == "EPP-META-002" || enabled(diagnostic.rule))
        filtered.add(diagnostic);
    }
    findings = std::move(filtered);
    // A suppression of a disabled rule must not go stale (EPP-META-001)
    // just because this run never evaluated the rule.
    for (Suppression& suppression : suppressions) {
      suppression.rules.erase(
          std::remove_if(suppression.rules.begin(), suppression.rules.end(),
                         [&enabled](const std::string& rule) {
                           return !enabled(rule);
                         }),
          suppression.rules.end());
    }
    suppressions.erase(
        std::remove_if(suppressions.begin(), suppressions.end(),
                       [](const Suppression& suppression) {
                         return suppression.rules.empty();
                       }),
        suppressions.end());
  }

  if (options.use_suppressions)
    findings = apply_suppressions(findings, suppressions);

  for (const Diagnostic& diagnostic : findings.all()) out.add(diagnostic);
  out.sort_by_location();
}

}  // namespace epp::lint
