// Text serialisation of LQN models.
//
// A small line-oriented format (one declaration per line, '#' comments)
// playing the role of LQNS's model files, so models can be stored beside
// experiment configurations and round-tripped:
//
//   processor app_cpu ps speed=1.0
//   processor db_disk fifo
//   task clients ref processor=client_box population=500 think=7.0
//   task app processor=app_cpu multiplicity=50
//   entry browse task=app demand=0.004505
//   entry request task=clients
//   call request browse 1.0
#pragma once

#include <iosfwd>
#include <string>

#include "lqn/model.hpp"

namespace epp::lqn {

/// Parse a model from text. Throws std::invalid_argument with a
/// line-numbered message on syntax or reference errors. `lines`, when
/// given, receives each declaration's line for locating findings.
Model parse_model(const std::string& text, DeclarationLines* lines = nullptr);
Model parse_model(std::istream& input, DeclarationLines* lines = nullptr);

/// Serialise a model to the same format parse_model reads.
std::string to_text(const Model& model);

}  // namespace epp::lqn
