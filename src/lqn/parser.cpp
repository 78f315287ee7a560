#include "lqn/parser.hpp"

#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace epp::lqn {
namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::invalid_argument("lqn parse error, line " + std::to_string(line) +
                              ": " + message);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    if (token[0] == '#') break;
    tokens.push_back(token);
  }
  return tokens;
}

/// Split "key=value" tokens into a map; bare tokens become flags ("" value).
std::map<std::string, std::string> keyvals(
    const std::vector<std::string>& tokens, std::size_t from, int line) {
  std::map<std::string, std::string> out;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      out[token] = "";
    } else {
      if (eq == 0) fail(line, "empty key in '" + token + "'");
      out[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return out;
}

double to_double(const std::string& value, int line) {
  try {
    std::size_t used = 0;
    const double d = std::stod(value, &used);
    if (used != value.size()) fail(line, "bad number '" + value + "'");
    return d;
  } catch (const std::invalid_argument&) {
    fail(line, "bad number '" + value + "'");
  } catch (const std::out_of_range&) {
    fail(line, "number out of range '" + value + "'");
  }
}

std::size_t to_size(const std::string& value, int line) {
  const double d = to_double(value, line);
  if (d < 0.0 || d != static_cast<double>(static_cast<std::size_t>(d)))
    fail(line, "expected a non-negative integer, got '" + value + "'");
  return static_cast<std::size_t>(d);
}

}  // namespace

Model parse_model(std::istream& input, DeclarationLines* lines) {
  Model model;
  DeclarationLines declared;
  struct PendingCall {
    std::string from, to;
    double mean;
    int line;
  };
  std::vector<PendingCall> pending_calls;

  std::string line;
  int line_no = 0;
  while (std::getline(input, line)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& kind = tokens[0];

    if (kind == "processor") {
      if (tokens.size() < 2) fail(line_no, "processor needs a name");
      Processor processor;
      processor.name = tokens[1];
      std::size_t opts_from = 2;
      if (tokens.size() > 2 && tokens[2].find('=') == std::string::npos) {
        const std::string& sched = tokens[2];
        if (sched == "ps") processor.scheduling = Scheduling::kProcessorSharing;
        else if (sched == "fifo") processor.scheduling = Scheduling::kFifo;
        else if (sched == "delay") processor.scheduling = Scheduling::kDelay;
        else fail(line_no, "unknown scheduling '" + sched + "'");
        opts_from = 3;
      }
      for (const auto& [key, value] : keyvals(tokens, opts_from, line_no)) {
        if (key == "speed") processor.speed = to_double(value, line_no);
        else if (key == "multiplicity") processor.multiplicity = to_size(value, line_no);
        else fail(line_no, "unknown processor option '" + key + "'");
      }
      if (model.find_processor(processor.name))
        fail(line_no, "duplicate processor '" + processor.name + "'");
      model.add_processor(processor);
      declared.processors.push_back(line_no);
    } else if (kind == "task") {
      if (tokens.size() < 2) fail(line_no, "task needs a name");
      Task task;
      task.name = tokens[1];
      bool have_processor = false;
      for (const auto& [key, value] : keyvals(tokens, 2, line_no)) {
        if (key == "ref") task.is_reference = true;
        else if (key == "open") task.open_arrivals = true;
        else if (key == "processor") {
          const auto pid = model.find_processor(value);
          if (!pid) fail(line_no, "unknown processor '" + value + "'");
          task.processor = *pid;
          have_processor = true;
        } else if (key == "multiplicity") task.multiplicity = to_size(value, line_no);
        else if (key == "population") task.population = to_double(value, line_no);
        else if (key == "think") task.think_time_s = to_double(value, line_no);
        else if (key == "rate") task.arrival_rate_rps = to_double(value, line_no);
        else if (key == "priority") task.priority = static_cast<int>(to_size(value, line_no));
        else fail(line_no, "unknown task option '" + key + "'");
      }
      if (!have_processor) fail(line_no, "task needs processor=<name>");
      if (model.find_task(task.name))
        fail(line_no, "duplicate task '" + task.name + "'");
      model.add_task(task);
      declared.tasks.push_back(line_no);
    } else if (kind == "entry") {
      if (tokens.size() < 2) fail(line_no, "entry needs a name");
      Entry entry;
      entry.name = tokens[1];
      bool have_task = false;
      for (const auto& [key, value] : keyvals(tokens, 2, line_no)) {
        if (key == "task") {
          const auto tid = model.find_task(value);
          if (!tid) fail(line_no, "unknown task '" + value + "'");
          entry.task = *tid;
          have_task = true;
        } else if (key == "demand") entry.service_demand_s = to_double(value, line_no);
        else fail(line_no, "unknown entry option '" + key + "'");
      }
      if (!have_task) fail(line_no, "entry needs task=<name>");
      if (model.find_entry(entry.name))
        fail(line_no, "duplicate entry '" + entry.name + "'");
      model.add_entry(entry);
      declared.entries.push_back(line_no);
    } else if (kind == "call") {
      if (tokens.size() != 4) fail(line_no, "call needs: call <from> <to> <mean>");
      pending_calls.push_back(
          {tokens[1], tokens[2], to_double(tokens[3], line_no), line_no});
    } else {
      fail(line_no, "unknown declaration '" + kind + "'");
    }
  }

  for (const PendingCall& call : pending_calls) {
    const auto from = model.find_entry(call.from);
    if (!from) fail(call.line, "unknown entry '" + call.from + "'");
    const auto to = model.find_entry(call.to);
    if (!to) fail(call.line, "unknown entry '" + call.to + "'");
    // Checked here rather than left to Model::add_call so the error
    // carries the declaring line.
    if (call.mean < 0.0)
      fail(call.line, "call mean must be non-negative, got " +
                          std::to_string(call.mean));
    model.add_call(*from, *to, call.mean);
  }
  if (lines != nullptr) *lines = std::move(declared);
  return model;
}

Model parse_model(const std::string& text, DeclarationLines* lines) {
  std::istringstream is(text);
  return parse_model(is, lines);
}

std::string to_text(const Model& model) {
  std::ostringstream os;
  os.precision(12);
  for (const Processor& p : model.processors()) {
    os << "processor " << p.name << ' ';
    switch (p.scheduling) {
      case Scheduling::kProcessorSharing: os << "ps"; break;
      case Scheduling::kFifo: os << "fifo"; break;
      case Scheduling::kDelay: os << "delay"; break;
    }
    os << " speed=" << p.speed;
    if (p.multiplicity != 1) os << " multiplicity=" << p.multiplicity;
    os << '\n';
  }
  for (const Task& t : model.tasks()) {
    os << "task " << t.name << " processor=" << model.processor(t.processor).name;
    if (t.multiplicity != 1) os << " multiplicity=" << t.multiplicity;
    if (t.is_reference) {
      os << " ref";
      if (t.open_arrivals) {
        os << " open rate=" << t.arrival_rate_rps;
      } else {
        os << " population=" << t.population;
      }
      os << " think=" << t.think_time_s;
    }
    if (t.priority != 0) os << " priority=" << t.priority;
    os << '\n';
  }
  for (const Entry& e : model.entries()) {
    os << "entry " << e.name << " task=" << model.task(e.task).name;
    if (e.service_demand_s != 0.0) os << " demand=" << e.service_demand_s;
    os << '\n';
  }
  for (const Entry& e : model.entries())
    for (const Call& c : e.calls)
      os << "call " << e.name << ' ' << model.entry(c.target).name << ' '
         << c.mean_calls << '\n';
  return os.str();
}

}  // namespace epp::lqn
