#include <cstddef>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "lint/src/rules.hpp"

namespace epp::lint::srcrules {
namespace {

using srcmodel::FileModel;
using srcmodel::MutexDecl;

std::string stem_of(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return path;
  return path.substr(0, dot);
}

/// Cross-file mutex-name resolution: guard expressions are bare member
/// names after normalization, so a name is resolved same-file first,
/// then to the file's header/source twin (same path stem), then
/// globally when the name is unique across the whole model. Anything
/// else stays unresolved and is skipped — EPP-CONC-008 on declarations
/// keeps coverage honest regardless.
class Resolver {
 public:
  explicit Resolver(const std::vector<FileModel>& files) {
    for (const FileModel& file : files)
      for (const MutexDecl& decl : file.decls)
        by_name_[decl.name].push_back(&decl);
  }

  const MutexDecl* resolve(const std::string& file,
                           const std::string& name) const {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return nullptr;
    const std::vector<const MutexDecl*>& candidates = it->second;
    for (const MutexDecl* decl : candidates)
      if (decl->file == file) return decl;
    const std::string stem = stem_of(file);
    for (const MutexDecl* decl : candidates)
      if (stem_of(decl->file) == stem) return decl;
    return candidates.size() == 1 ? candidates.front() : nullptr;
  }

 private:
  std::map<std::string, std::vector<const MutexDecl*>> by_name_;
};

void check_guarded_fields(const std::vector<FileModel>& files,
                          const Resolver& resolver, Diagnostics& out) {
  for (const FileModel& file : files) {
    for (const srcmodel::GuardedField& field : file.guarded) {
      const MutexDecl* mutex = resolver.resolve(field.file, field.mutex_name);
      if (mutex == nullptr) continue;
      const std::regex use(R"(\b)" + field.name + R"(\b)");
      const std::string stem = stem_of(field.file);
      for (const FileModel& candidate : files) {
        if (stem_of(candidate.path) != stem) continue;
        for (int line = 1; line <= candidate.line_count; ++line) {
          if (candidate.path == field.file && line == field.line) continue;
          const std::string& tokens =
              candidate.tokens[static_cast<std::size_t>(line - 1)];
          if (!std::regex_search(tokens, use)) continue;
          bool held = false;
          for (const std::string& held_name :
               candidate.held_by_line[static_cast<std::size_t>(line - 1)]) {
            if (resolver.resolve(candidate.path, held_name) == mutex) {
              held = true;
              break;
            }
          }
          if (held) continue;
          out.warning(
              "EPP-CONC-005",
              {candidate.path, line},
              "field '" + field.name + "' is declared EPP_GUARDED_BY(" +
                  field.mutex_name + ") but accessed here without the lock",
              "take the lock around this access, or suppress with the "
              "reason the access is safe");
        }
      }
    }
  }
}

}  // namespace

void check_concurrency(const std::vector<FileModel>& files,
                       Diagnostics& out) {
  const Resolver resolver(files);

  for (const FileModel& file : files) {
    for (const MutexDecl& decl : file.decls) {
      if (decl.std_type) {
        out.warning(
            "EPP-CONC-008",
            {file.path, decl.line},
            "mutex '" + decl.name +
                "' is outside the lock-rank order (plain std type)",
            "declare it as a util::RankedMutex with EPP_LOCK_RANK(n) and a "
            "\"component.name\" label so the lock-rank tracker checks "
            "its order");
      } else if (decl.ranked_type && decl.rank < 0) {
        out.warning(
            "EPP-CONC-008",
            {file.path, decl.line},
            "RankedMutex '" + decl.name +
                "' has no EPP_LOCK_RANK in its initializer",
            "spell the rank with the macro — the static analyzer reads "
            "the macro, not the integer");
      }
    }

    for (const srcmodel::BlockingCall& call : file.blocking) {
      out.warning("EPP-CONC-003",
                  {file.path, call.line},
                  "blocking call '" + call.token +
                      "' while holding a lock — every waiter on that "
                      "lock stalls for the full blocking duration",
                  "move the call outside the critical section, or "
                  "suppress with the reason the block is intended");
    }

    for (const srcmodel::WaitCall& wait : file.waits) {
      const int required = wait.token == "wait" ? 2 : 3;
      if (wait.args < 0 || wait.args >= required) continue;
      out.warning("EPP-CONC-004",
                  {file.path, wait.line},
                  "condition-variable " + wait.token +
                      " without a predicate — spurious wakeups and lost "
                      "notifications silently corrupt the protocol",
                  "pass the condition as the final argument so the wait "
                  "rechecks it");
    }

    for (const srcmodel::DetachCall& detach : file.detaches) {
      out.warning("EPP-CONC-006",
                  {file.path, detach.line},
                  "detached thread: it cannot be joined, so it races "
                  "with static destruction at shutdown",
                  "keep the std::thread owned and join it on the "
                  "shutdown path");
    }

    for (const srcmodel::CasCall& cas : file.cas) {
      if (cas.in_loop) continue;
      out.warning("EPP-CONC-007",
                  {file.path, cas.line},
                  "compare_exchange_weak outside a retry loop — weak CAS "
                  "may fail spuriously even when the comparison holds",
                  "retry in a loop, or use compare_exchange_strong for "
                  "one-shot updates");
    }
  }

  check_guarded_fields(files, resolver, out);
}

}  // namespace epp::lint::srcrules
