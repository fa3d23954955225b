// Ensemble (lane-batched) MNA assembly. One EnsembleSystem holds the
// shared sparsity pattern plus K lanes of numeric values (SoA: each
// matrix entry and RHS row is a contiguous double[K] run). Every device
// stamps all K Monte-Carlo variants of itself in one pass through the
// LaneStamper.
//
// The lane engine runs the scalar engine's stamp program K lanes wide:
// the AssemblyTape is recorded with lane stride (record mode resolves
// LaneMatrix handles once per topology revision), replay mode only
// fills each op's double[K] run of the value slab, and one scatter
// pass writes the matrix and RHS — no hash lookups or ground checks in
// the ensemble Newton inner loop.
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

/// Device-facing lane stamping interface. Value parameters are either
/// contiguous double[lanes] arrays (one value per Monte-Carlo variant)
/// or uniform scalars broadcast to every lane (lane-invariant stamps:
/// sources, linear resistors, topology constants). Sign conventions
/// match the scalar Stamper exactly.
class LaneStamper {
 public:
  explicit LaneStamper(EnsembleSystem& system) : sys_(system) {}

  void conductance(NodeId a, NodeId b, const double* g) {
    stamp(TapeOp::Kind::Conductance, g, 0.0, 1.0, nodeIndex(a), nodeIndex(b));
  }
  void conductanceUniform(NodeId a, NodeId b, double g) {
    stamp(TapeOp::Kind::Conductance, nullptr, g, 1.0, nodeIndex(a), nodeIndex(b));
  }
  void currentSource(NodeId a, NodeId b, const double* i) {
    stamp(TapeOp::Kind::CurrentSource, i, 0.0, 1.0, nodeIndex(a), nodeIndex(b));
  }
  void currentSourceUniform(NodeId a, NodeId b, double i) {
    stamp(TapeOp::Kind::CurrentSource, nullptr, i, 1.0, nodeIndex(a), nodeIndex(b));
  }
  void voltageBranch(size_t branch_index, NodeId plus, NodeId minus, const double* v_values) {
    stamp(TapeOp::Kind::VoltageBranch, v_values, 0.0, 1.0, nodeIndex(plus), nodeIndex(minus),
          static_cast<int>(branch_index));
  }
  void voltageBranchUniform(size_t branch_index, NodeId plus, NodeId minus, double v_value) {
    stamp(TapeOp::Kind::VoltageBranch, nullptr, v_value, 1.0, nodeIndex(plus), nodeIndex(minus),
          static_cast<int>(branch_index));
  }
  /// Raw entry accumulation: value[l] * scale into (row, col) lane l.
  void addMatrix(int row, int col, const double* value, double scale = 1.0) {
    stamp(TapeOp::Kind::Matrix, value, 0.0, scale, row, col);
  }
  void addMatrixUniform(int row, int col, double value) {
    stamp(TapeOp::Kind::Matrix, nullptr, value, 1.0, row, col);
  }
  void addRhs(int row, const double* value, double scale = 1.0) {
    stamp(TapeOp::Kind::Rhs, value, 0.0, scale, row);
  }
  void addRhsUniform(int row, double value) { stamp(TapeOp::Kind::Rhs, nullptr, value, 1.0, row); }

  int nodeIndex(NodeId n) const { return isGround(n) ? -1 : n; }
  size_t lanes() const { return sys_.lanes(); }
  size_t numNodes() const { return sys_.numNodes(); }

  // --- tape protocol (driven by the EnsembleAssembler) ---------------
  /// Record mode: every call resolves handles once, appends a TapeOp to
  /// `tape` (recorded with lanes() stride) and writes through.
  void startRecording(AssemblyTape& tape);
  /// Replay mode: calls consume ops from `tape` at the cursor and only
  /// fill their value runs in its slab.
  void startReplay(AssemblyTape& tape);
  /// Jump the replay cursor to an absolute op index.
  void seek(size_t op_index) { cursor_ = op_index; }
  size_t cursor() const { return cursor_; }

 private:
  /// The one path of every stamp call: the value run is v[l] * scale,
  /// or the broadcast uniform * scale when v is null. Node arguments as
  /// in resolveOp.
  void stamp(TapeOp::Kind kind, const double* v, double uniform, double scale, int a,
             int b = -1, int c = -1);

  EnsembleSystem& sys_;
  AssemblyTape* tape_ = nullptr;
  bool recording_ = false;
  size_t cursor_ = 0;
};

/// Assembles every device of a circuit into an EnsembleSystem for one
/// lane context through the LaneStamper, with per-mode record/replay
/// tapes. Adds ctx.gmin on every node diagonal (all lanes).
///
/// With AssemblyOptions bypass enabled, a replay skips the model
/// evaluation of any bypass-capable device whose terminal voltages
/// moved at most bypass_tol in EVERY lane since its last full
/// linearization; its slab runs keep their last values — the scalar
/// Assembler's bypass fast path, lane-widened.
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
  /// Cumulative wall time of the device-evaluation pass across all
  /// replays.
  double modelEvalSeconds() const { return model_eval_sec_; }

 private:
  const Circuit& circuit_;
  EnsembleSystem& sys_;
  AssemblyTape tape_dc_;
  AssemblyTape tape_tran_;
  size_t bypassed_ = 0;
  double model_eval_sec_ = 0.0;
};

}  // namespace vls
