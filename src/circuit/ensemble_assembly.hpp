// Ensemble (lane-batched) MNA assembly. One EnsembleSystem holds the
// shared sparsity pattern plus K lanes of numeric values (SoA: each
// matrix entry and RHS row is a contiguous double[K] run). Every device
// stamps all K Monte-Carlo variants of itself in one pass through the
// LaneStamper.
//
// The LaneStamper reuses the scalar TapeOp record/replay protocol with
// lane stride: record mode resolves LaneMatrix handles once per
// topology revision, replay mode applies double[K] value runs through
// the cached handles — no hash lookups or ground checks in the ensemble
// Newton inner loop.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/assembly.hpp"
#include "circuit/circuit.hpp"
#include "circuit/device.hpp"
#include "circuit/mna.hpp"
#include "numeric/lane_matrix.hpp"

namespace vls {

class EnsembleSystem {
 public:
  EnsembleSystem(size_t num_nodes, size_t num_branches, size_t lanes)
      : num_nodes_(num_nodes),
        num_branches_(num_branches),
        lanes_(lanes),
        matrix_(num_nodes + num_branches, lanes),
        rhs_((num_nodes + num_branches) * lanes, 0.0) {}

  size_t numNodes() const { return num_nodes_; }
  size_t numBranches() const { return num_branches_; }
  size_t size() const { return num_nodes_ + num_branches_; }
  size_t lanes() const { return lanes_; }

  LaneMatrix& matrix() { return matrix_; }
  const LaneMatrix& matrix() const { return matrix_; }
  std::vector<double>& rhs() { return rhs_; }
  const std::vector<double>& rhs() const { return rhs_; }
  double* rhsLanes(size_t row) { return rhs_.data() + row * lanes_; }

  void clear() {
    matrix_.clearValues();
    std::fill(rhs_.begin(), rhs_.end(), 0.0);
  }

 private:
  size_t num_nodes_;
  size_t num_branches_;
  size_t lanes_;
  LaneMatrix matrix_;
  std::vector<double> rhs_;
};

/// Recorded lane-stamp sequence for one (system, topology revision,
/// analysis mode). Besides the resolved TapeOps it keeps the bypass
/// bookkeeping of the scalar AssemblyTape, widened to lane stride:
/// per-device op/terminal spans, each op's last fully-evaluated
/// double[lanes] value run, and per-terminal double[lanes] voltage
/// snapshots — enough to re-apply a quiet device's contribution
/// without re-evaluating its model in any lane.
class LaneTape {
 public:
  /// Per-device slice of the tape (indexed by circuit device order).
  struct Span {
    uint32_t op_begin = 0;
    uint32_t op_end = 0;
    uint32_t volt_begin = 0;
    uint32_t volt_end = 0;
  };

  bool matches(const void* system_key, uint64_t revision, size_t device_count) const {
    return recorded_ && system_key_ == system_key && revision_ == revision &&
           device_count_ == device_count;
  }
  void beginRecording(const void* system_key, uint64_t revision, size_t device_count,
                      size_t lanes) {
    ops_.clear();
    op_values_.clear();
    spans_.clear();
    v_last_.clear();
    gmin_handles_.clear();
    system_key_ = system_key;
    revision_ = revision;
    device_count_ = device_count;
    lanes_ = lanes;
    recorded_ = false;
  }
  void finishRecording(LaneMatrix& matrix, size_t num_nodes) {
    gmin_handles_.resize(num_nodes);
    for (size_t n = 0; n < num_nodes; ++n) gmin_handles_[n] = matrix.entryHandle(n, n);
    recorded_ = true;
  }
  void beginDevice() {
    current_.op_begin = static_cast<uint32_t>(ops_.size());
    current_.volt_begin = static_cast<uint32_t>(v_last_.size() / lanes_);
  }
  void endDevice() {
    current_.op_end = static_cast<uint32_t>(ops_.size());
    current_.volt_end = static_cast<uint32_t>(v_last_.size() / lanes_);
    spans_.push_back(current_);
  }
  /// Snapshot one terminal's double[lanes] voltage run.
  void recordTerminalVoltages(const double* v) { v_last_.insert(v_last_.end(), v, v + lanes_); }
  void pushOp(const TapeOp& op) {
    ops_.push_back(op);
    op_values_.resize(op_values_.size() + lanes_, 0.0);
  }
  size_t opCount() const { return ops_.size(); }
  size_t lanes() const { return lanes_; }
  const TapeOp& op(size_t i) const { return ops_[i]; }
  const Span& span(size_t device) const { return spans_[device]; }
  /// Op i's effective per-lane values as of the last full evaluation.
  double* opLanes(size_t i) { return op_values_.data() + i * lanes_; }
  const double* opLanes(size_t i) const { return op_values_.data() + i * lanes_; }
  /// Terminal snapshot k's double[lanes] run (k in a device's volt span).
  double* vLast(size_t k) { return v_last_.data() + k * lanes_; }
  const double* vLast(size_t k) const { return v_last_.data() + k * lanes_; }
  const std::vector<size_t>& gminHandles() const { return gmin_handles_; }

 private:
  std::vector<TapeOp> ops_;
  std::vector<double> op_values_;  ///< opCount * lanes effective values
  std::vector<Span> spans_;        ///< one per device, circuit order
  std::vector<double> v_last_;     ///< terminal snapshots * lanes
  Span current_{};
  std::vector<size_t> gmin_handles_;
  const void* system_key_ = nullptr;
  uint64_t revision_ = 0;
  size_t device_count_ = 0;
  size_t lanes_ = 1;
  bool recorded_ = false;
};

/// Device-facing lane stamping interface. Value parameters are either
/// contiguous double[lanes] arrays (one value per Monte-Carlo variant)
/// or uniform scalars broadcast to every lane (lane-invariant stamps:
/// sources, linear resistors, topology constants). Sign conventions
/// match the scalar Stamper exactly.
class LaneStamper {
 public:
  explicit LaneStamper(EnsembleSystem& system) : sys_(system) {}

  void conductance(NodeId a, NodeId b, const double* g);
  void conductanceUniform(NodeId a, NodeId b, double g);
  void currentSource(NodeId a, NodeId b, const double* i);
  void currentSourceUniform(NodeId a, NodeId b, double i);
  void voltageBranch(size_t branch_index, NodeId plus, NodeId minus, const double* v_values);
  void voltageBranchUniform(size_t branch_index, NodeId plus, NodeId minus, double v_value);
  /// Raw entry accumulation: value[l] * scale into (row, col) lane l.
  void addMatrix(int row, int col, const double* value, double scale = 1.0);
  void addMatrixUniform(int row, int col, double value);
  void addRhs(int row, const double* value, double scale = 1.0);
  void addRhsUniform(int row, double value);

  int nodeIndex(NodeId n) const { return isGround(n) ? -1 : n; }
  size_t lanes() const { return sys_.lanes(); }
  size_t numNodes() const { return sys_.numNodes(); }

  // --- tape protocol (driven by the EnsembleAssembler) ---------------
  void startRecording(LaneTape& tape);
  /// store_values mirrors the per-lane effective value of every replayed
  /// op into the tape — required whenever replayStored may later re-apply
  /// them (bypass), pure overhead otherwise.
  void startReplay(LaneTape& tape, bool store_values = false);
  /// Jump the replay cursor to an absolute op index (bypass skips).
  void seek(size_t op_index) { cursor_ = op_index; }
  /// Re-apply ops [op_begin, op_end) from their stored per-lane values
  /// (no device evaluation) and leave the cursor at op_end.
  void replayStored(size_t op_begin, size_t op_end);
  size_t cursor() const { return cursor_; }

 private:
  enum class Mode : uint8_t { Direct, Record, Replay };

  /// m[0..1] += v, m[2..3] -= v (per lane; scale applied).
  void applyConductance(const TapeOp& op, const double* g, double uniform, double scale);
  void applyCurrentSource(const TapeOp& op, const double* i, double uniform, double scale);
  void applyVoltageBranch(const TapeOp& op, const double* v, double uniform);
  void applyMatrix(const TapeOp& op, const double* v, double uniform, double scale);
  void applyRhs(const TapeOp& op, const double* v, double uniform, double scale);
  const TapeOp& nextOp(TapeOp::Kind kind);
  /// Write op_index's effective per-lane values (scale * v[l], or the
  /// broadcast scale * uniform) into the tape and return the slot.
  const double* fillSlot(size_t op_index, const double* v, double uniform, double scale);
  /// True when this stamp call must mirror values into the tape.
  bool storing() const { return mode_ == Mode::Record || store_values_; }

  EnsembleSystem& sys_;
  LaneTape* tape_ = nullptr;
  Mode mode_ = Mode::Direct;
  bool store_values_ = false;
  size_t cursor_ = 0;
};

/// Assembles every device of a circuit into an EnsembleSystem for one
/// lane context through the LaneStamper, with per-mode record/replay
/// tapes. Adds ctx.gmin on every node diagonal (all lanes).
///
/// With AssemblyOptions bypass enabled, a replay skips the model
/// evaluation of any bypass-capable device whose terminal voltages
/// moved at most bypass_tol in EVERY lane since its last full
/// linearization, re-applying its stored per-lane op values instead —
/// the scalar Assembler's bypass fast path, lane-widened.
class EnsembleAssembler {
 public:
  EnsembleAssembler(const Circuit& circuit, EnsembleSystem& system);

  /// states[i] belongs to circuit.devices()[i] (null for devices
  /// without lane state).
  void assemble(const LaneContext& ctx, const std::vector<DeviceLaneState*>& states,
                const AssemblyOptions& options = {});

  /// Devices whose model evaluation was skipped by bypass (all lanes
  /// quiet), summed over every replay.
  size_t bypassedEvaluations() const { return bypassed_; }

 private:
  const Circuit& circuit_;
  EnsembleSystem& sys_;
  LaneTape tape_dc_;
  LaneTape tape_tran_;
  size_t bypassed_ = 0;
};

}  // namespace vls
