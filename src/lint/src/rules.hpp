// Internal seam between the epp_srclint driver and its rule libraries.
// Each entry point consumes the whole model set, because resolution is
// cross-file: a guard in server.cpp locks a mutex declared in
// server.hpp, and a loop in a .cpp walks a container its header
// declares.
#pragma once

#include <vector>

#include "lint/diagnostic.hpp"
#include "lint/src/source_model.hpp"

namespace epp::lint::srcrules {

/// EPP-CONC-003..008 over the merged lock model.
void check_concurrency(const std::vector<srcmodel::FileModel>& files,
                       Diagnostics& out);

/// EPP-HOT-001..005 over each file's hot regions.
void check_hot_regions(const std::vector<srcmodel::FileModel>& files,
                       Diagnostics& out);

/// EPP-DET-001..006 over the determinism value-flow facts.
void check_determinism(const std::vector<srcmodel::FileModel>& files,
                       Diagnostics& out);

}  // namespace epp::lint::srcrules
