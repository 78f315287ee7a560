#include "lint/diagnostic.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

namespace epp::lint {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";  // unreachable
}

Diagnostic& Diagnostics::add(Diagnostic diagnostic) {
  diagnostics_.push_back(std::move(diagnostic));
  return diagnostics_.back();
}

Diagnostic& Diagnostics::error(std::string rule, SourceLocation location,
                               std::string message, std::string hint) {
  return add({std::move(rule), Severity::kError, std::move(location),
              std::move(message), std::move(hint)});
}

Diagnostic& Diagnostics::warning(std::string rule, SourceLocation location,
                                 std::string message, std::string hint) {
  return add({std::move(rule), Severity::kWarning, std::move(location),
              std::move(message), std::move(hint)});
}

Diagnostic& Diagnostics::note(std::string rule, SourceLocation location,
                              std::string message, std::string hint) {
  return add({std::move(rule), Severity::kNote, std::move(location),
              std::move(message), std::move(hint)});
}

std::size_t Diagnostics::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& diagnostic : diagnostics_)
    if (diagnostic.severity == severity) ++n;
  return n;
}

const Diagnostic* Diagnostics::first_at_least(Severity severity) const {
  for (const Diagnostic& diagnostic : diagnostics_)
    if (diagnostic.severity >= severity) return &diagnostic;
  return nullptr;
}

void Diagnostics::sort_by_location() {
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.location.file != b.location.file)
                       return a.location.file < b.location.file;
                     if (a.location.line != b.location.line)
                       return a.location.line < b.location.line;
                     return a.rule < b.rule;
                   });
}

std::string fmt_value(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

int exit_code(const Diagnostics& diagnostics) {
  if (diagnostics.has_errors()) return 2;
  if (diagnostics.count(Severity::kWarning) > 0) return 1;
  return 0;
}

std::string render_text(const Diagnostics& diagnostics) {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics.all()) {
    if (!d.location.file.empty()) os << d.location.file << ':';
    if (d.location.line > 0) os << d.location.line << ':';
    if (!d.location.file.empty() || d.location.line > 0) os << ' ';
    os << severity_name(d.severity) << ": [" << d.rule << "] " << d.message
       << '\n';
    if (!d.hint.empty()) os << "    fix-it: " << d.hint << '\n';
  }
  return os.str();
}

namespace {

void append_json_string(std::ostringstream& os, const std::string& text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]
             << kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string render_json(const Diagnostics& diagnostics) {
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  for (const Diagnostic& d : diagnostics.all()) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"file\": ";
    append_json_string(os, d.location.file);
    os << ", \"line\": " << d.location.line << ", \"severity\": \""
       << severity_name(d.severity) << "\", \"rule\": ";
    append_json_string(os, d.rule);
    os << ", \"message\": ";
    append_json_string(os, d.message);
    os << ", \"hint\": ";
    append_json_string(os, d.hint);
    os << '}';
  }
  os << "\n]\n";
  return os.str();
}

bool report_findings(const Diagnostics& findings, std::ostream& out) {
  Diagnostics sorted = findings;
  sorted.sort_by_location();
  if (!sorted.empty()) out << render_text(sorted);
  return sorted.has_errors();
}

}  // namespace epp::lint
