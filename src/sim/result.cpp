#include "sim/result.hpp"

#include "base/error.hpp"

namespace vls {

TransientResult::TransientResult(std::vector<std::string> node_names, size_t num_unknowns)
    : node_names_(std::move(node_names)), num_unknowns_(num_unknowns) {
  for (size_t i = 0; i < node_names_.size(); ++i) node_index_.emplace(node_names_[i], i);
}

void TransientResult::append(double time, const std::vector<double>& x) {
  time_.push_back(time);
  data_.push_back(x);
}

std::vector<double>& TransientResult::appendStep(double time) {
  time_.push_back(time);
  return data_.emplace_back(num_unknowns_, 0.0);
}

void TransientResult::reserve(size_t steps) {
  time_.reserve(steps);
  data_.reserve(steps);
}

Signal TransientResult::node(const std::string& name) const {
  Signal s;
  s.time = time_;
  if (name == "0") {
    s.value.assign(time_.size(), 0.0);
    return s;
  }
  auto it = node_index_.find(name);
  if (it == node_index_.end()) {
    throw InvalidInputError("TransientResult::node: unknown node '" + name + "'");
  }
  s.value.reserve(time_.size());
  for (const auto& x : data_) s.value.push_back(x[it->second]);
  return s;
}

Signal TransientResult::unknown(size_t index) const {
  if (index >= num_unknowns_) throw InvalidInputError("TransientResult::unknown: bad index");
  Signal s;
  s.time = time_;
  s.value.reserve(time_.size());
  for (const auto& x : data_) s.value.push_back(x[index]);
  return s;
}

bool DcSweepResult::allConverged() const {
  for (bool ok : converged) {
    if (!ok) return false;
  }
  return true;
}

std::vector<double> DcSweepResult::node(const std::string& name) const {
  if (name == "0") return std::vector<double>(sweep.size(), 0.0);
  for (size_t i = 0; i < node_names.size(); ++i) {
    if (node_names[i] == name) {
      std::vector<double> out;
      out.reserve(solutions.size());
      for (const auto& x : solutions) out.push_back(x[i]);
      return out;
    }
  }
  throw InvalidInputError("DcSweepResult::node: unknown node '" + name + "'");
}

}  // namespace vls
