#include "circuit/mna.hpp"

#include <algorithm>
#include <numeric>

#include "base/error.hpp"
#include "numeric/lanes.hpp"

namespace vls {
namespace {

/// Enumerates the writes of one op in Direct-mode call order:
/// fn(is_rhs, target, constant, sign). A constant write adds `sign`
/// itself (the unit entries of a voltage branch), any other write adds
/// sign * the op's value. Always inlined: an out-of-line call takes a
/// capture block that GCC builds in a ymm register without a following
/// vzeroupper, which leaves the caller's libm calls (scalar device
/// models) paying AVX-SSE transition stalls.
template <typename Fn>
[[gnu::always_inline]] inline void forEachWrite(const TapeOp& op, Fn&& fn) {
  const auto m = [&](size_t k, double sign, bool constant) {
    if (op.m[k] != TapeOp::kNone) fn(false, op.m[k], constant, sign);
  };
  const auto r = [&](size_t k, double sign) {
    if (op.r[k] != TapeOp::kNone) fn(true, op.r[k], false, sign);
  };
  switch (op.kind) {
    case TapeOp::Kind::Conductance:
      m(0, 1.0, false);
      m(1, 1.0, false);
      m(2, -1.0, false);
      m(3, -1.0, false);
      break;
    case TapeOp::Kind::CurrentSource:
      r(0, -1.0);
      r(1, 1.0);
      break;
    case TapeOp::Kind::Transconductance:
      m(0, 1.0, false);
      m(1, -1.0, false);
      m(2, -1.0, false);
      m(3, 1.0, false);
      break;
    case TapeOp::Kind::VoltageBranch:
      m(0, 1.0, true);
      m(1, -1.0, true);
      m(2, 1.0, true);
      m(3, -1.0, true);
      r(0, 1.0);  // the branch row always exists
      break;
    case TapeOp::Kind::Matrix:
      m(0, 1.0, false);
      break;
    case TapeOp::Kind::Rhs:
      r(0, 1.0);
      break;
  }
}

[[noreturn]] void tapeDivergence() {
  throw Error("Stamper: stamp call sequence diverged from the recorded tape "
              "(stale tape not invalidated?)");
}

}  // namespace

void applyOpWrites(const TapeOp& op, const double* value, size_t lanes, double* matrix,
                   double* rhs) {
  forEachWrite(op, [&](bool is_rhs, uint32_t target, bool constant, double sign) {
    double* dst = (is_rhs ? rhs : matrix) + size_t{target} * lanes;
    for (size_t l = 0; l < lanes; ++l) dst[l] += constant ? sign : sign * value[l];
  });
}

void MnaSystem::clear() {
  matrix_.clearValues();
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
}

void AssemblyTape::reset() { *this = AssemblyTape(); }

void AssemblyTape::beginRecording(const void* system_key, uint64_t revision, size_t lanes) {
  if (lanes == 0 || lanes > kMaxLanes) {
    throw InvalidInputError("AssemblyTape: lane count must be in [1, " +
                            std::to_string(kMaxLanes) + "]");
  }
  reset();
  system_key_ = system_key;
  revision_ = revision;
  lanes_ = lanes;
  slab_.assign(lanes, 1.0);  // slot 0: the constant 1.0 run
}

void AssemblyTape::beginDevice() {
  Span span;
  span.op_begin = static_cast<uint32_t>(ops_.size());
  span.op_end = span.op_begin;
  span.volt_begin = static_cast<uint32_t>(v_last_.size() / lanes_);
  span.volt_end = span.volt_begin;
  spans_.push_back(span);
}

void AssemblyTape::endDevice() {
  spans_.back().op_end = static_cast<uint32_t>(ops_.size());
  spans_.back().volt_end = static_cast<uint32_t>(v_last_.size() / lanes_);
}

double* AssemblyTape::pushOp(const TapeOp& op) {
  ops_.push_back(op);
  for (size_t l = 0; l < lanes_; ++l) slab_.push_back(0.0);
  return opValues(ops_.size() - 1);
}

void AssemblyTape::compile(std::span<const uint32_t> device_group, size_t parts,
                           size_t matrix_targets, size_t rhs_targets) {
  // A stable counting sort buckets the writes by target key (matrix
  // handles, then RHS rows). Generating them device by device in
  // (group, circuit) order leaves every bucket in (group, op, write)
  // order.
  const auto group = [&](uint32_t d) { return device_group.empty() ? 0u : device_group[d]; };
  std::vector<uint32_t> devices(spans_.size());
  std::iota(devices.begin(), devices.end(), 0u);
  if (!device_group.empty()) {
    std::stable_sort(devices.begin(), devices.end(),
                     [&](uint32_t x, uint32_t y) { return group(x) < group(y); });
  }
  const auto forEachProgramWrite = [&](auto&& fn) {
    for (const uint32_t d : devices) {
      for (uint32_t i = spans_[d].op_begin; i < spans_[d].op_end; ++i) {
        forEachWrite(ops_[i], [&](bool is_rhs, uint32_t target, bool constant, double sign) {
          fn(group(d), (is_rhs ? matrix_targets : 0) + target, Entry{sign, constant ? 0 : i + 1});
        });
      }
    }
  };
  std::vector<uint32_t> next(matrix_targets + rhs_targets + 1, 0);
  forEachProgramWrite([&](uint32_t, size_t key, const Entry&) { ++next[key + 1]; });
  std::partial_sum(next.begin(), next.end(), next.begin());
  entries_.resize(next.back());
  std::vector<uint32_t> entry_group(entries_.size());
  forEachProgramWrite([&](uint32_t g, size_t key, const Entry& entry) {
    const uint32_t pos = next[key]++;
    entries_[pos] = entry;
    entry_group[pos] = g;
  });

  // next[key] is now the end of bucket key; cut it into one run per
  // group.
  runs_.clear();
  matrix_runs_ = 0;
  uint32_t begin = 0;
  for (size_t key = 0; key < matrix_targets + rhs_targets; ++key) {
    const auto target = static_cast<uint32_t>(key < matrix_targets ? key : key - matrix_targets);
    for (uint32_t e = begin; e < next[key]; ++e) {
      if (e + 1 == next[key] || entry_group[e + 1] != entry_group[e]) runs_.push_back({target, e + 1});
    }
    begin = next[key];
    if (key + 1 == matrix_targets) matrix_runs_ = runs_.size();
  }

  // Parts of about equal entry count; a target's runs never straddle
  // two parts, so every target is summed by exactly one worker.
  part_begin_.assign(1, 0);
  for (size_t r = 1; r < runs_.size() && part_begin_.size() < parts; ++r) {
    const bool same_target =
        runs_[r].target == runs_[r - 1].target && (r < matrix_runs_) == (r - 1 < matrix_runs_);
    if (!same_target && runs_[r - 1].end * parts >= entries_.size() * part_begin_.size()) {
      part_begin_.push_back(static_cast<uint32_t>(r));
    }
  }
  part_begin_.push_back(static_cast<uint32_t>(runs_.size()));
}

void AssemblyTape::scatter(size_t part, double* matrix, double* rhs) const {
  const size_t K = lanes_;
  const double* slab = slab_.data();
  const size_t first = part_begin_[part];
  uint32_t e = first == 0 ? 0 : runs_[first - 1].end;
  for (size_t r = first; r < part_begin_[part + 1]; ++r) {
    const Run& run = runs_[r];
    double* dst = (r < matrix_runs_ ? matrix : rhs) + size_t{run.target} * K;
    if (K == 1) {
      double sum = 0.0;
      for (; e < run.end; ++e) sum += entries_[e].sign * slab[entries_[e].slot];
      *dst += sum;
      continue;
    }
    double sum[kMaxLanes];
    std::fill_n(sum, K, 0.0);
    for (; e < run.end; ++e) {
      const double sign = entries_[e].sign;
      const double* v = slab + size_t{entries_[e].slot} * K;
      for (size_t l = 0; l < K; ++l) sum[l] += sign * v[l];
    }
    for (size_t l = 0; l < K; ++l) dst[l] += sum[l];
  }
}

void AssemblyTape::addGmin(double* matrix, double gmin) const {
  for (const size_t h : gmin_handles_) {
    for (size_t l = 0; l < lanes_; ++l) matrix[h * lanes_ + l] += gmin;
  }
}

void Stamper::startRecording(AssemblyTape& tape) {
  tape_ = &tape;
  mode_ = Mode::Record;
  cursor_ = 0;
}

void Stamper::startReplay(AssemblyTape& tape) {
  tape_ = &tape;
  mode_ = Mode::Replay;
  cursor_ = 0;
}

void Stamper::stamp(TapeOp::Kind kind, double value, int a, int b, int c, int d) {
  if (mode_ == Mode::Replay) {
    if (cursor_ >= tape_->opCount() || tape_->op(cursor_).kind != kind) tapeDivergence();
    *tape_->opValues(cursor_++) = value;
    return;
  }
  const TapeOp op = resolveOp(kind, sys_.matrix(), a, b, c, d);
  if (mode_ == Mode::Record) *tape_->pushOp(op) = value;
  applyOpWrites(op, &value, 1, sys_.matrix().values(), sys_.rhs().data());
}

void ReactiveStamper::capacitance(NodeId a, NodeId b, double c) {
  const bool ga = isGround(a);
  const bool gb = isGround(b);
  if (!ga) c_.add(static_cast<size_t>(a), static_cast<size_t>(a), c);
  if (!gb) c_.add(static_cast<size_t>(b), static_cast<size_t>(b), c);
  if (!ga && !gb) {
    c_.add(static_cast<size_t>(a), static_cast<size_t>(b), -c);
    c_.add(static_cast<size_t>(b), static_cast<size_t>(a), -c);
  }
}

void ReactiveStamper::branchInductance(size_t branch_index, double inductance) {
  c_.add(branch_index, branch_index, -inductance);
}

}  // namespace vls
