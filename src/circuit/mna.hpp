// Modified Nodal Analysis system and the Stamper facade devices write
// through. Unknown ordering: node voltages [0, numNodes) followed by
// branch currents [numNodes, numNodes + numBranches).
//
// The Stamper has three modes. Direct (default) resolves every write
// by coordinates through the matrix's hash index. Record additionally
// captures each high-level call as a TapeOp — the resolved entry
// handles and RHS slots — into an AssemblyTape, writing through in
// call order. Replay consumes the tape: each call only checks its op
// kind and stores its value into the tape's value slab. The tape's
// compiled scatter program then writes the matrix and RHS in one loop,
// so the steady-state Newton inner loop contains zero hash lookups,
// zero ground checks, and zero allocation — and devices evaluated
// concurrently (disjoint op spans) never touch shared state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/node.hpp"
#include "numeric/sparse_matrix.hpp"

namespace vls {

class MnaSystem {
 public:
  MnaSystem(size_t num_nodes, size_t num_branches)
      : num_nodes_(num_nodes),
        num_branches_(num_branches),
        matrix_(num_nodes + num_branches),
        rhs_(num_nodes + num_branches, 0.0) {}

  size_t numNodes() const { return num_nodes_; }
  size_t numBranches() const { return num_branches_; }
  size_t size() const { return num_nodes_ + num_branches_; }

  SparseMatrix& matrix() { return matrix_; }
  const SparseMatrix& matrix() const { return matrix_; }
  std::vector<double>& rhs() { return rhs_; }
  const std::vector<double>& rhs() const { return rhs_; }

  /// Zero the values (pattern retained) and the RHS.
  void clear();

 private:
  size_t num_nodes_;
  size_t num_branches_;
  SparseMatrix matrix_;
  std::vector<double> rhs_;
};

/// One recorded high-level Stamper call. `m` holds matrix value
/// handles, `r` absolute RHS indices; kNone marks a write dropped on
/// ground at record time. Every Stamper call records exactly one op —
/// including fully-dropped ones — so record and replay stay in step.
struct TapeOp {
  enum class Kind : uint8_t {
    Conductance,       ///< m(aa,bb,ab,ba) += (+g,+g,-g,-g)
    CurrentSource,     ///< r(a,b) += (-i,+i)
    Transconductance,  ///< m(ac,ad,bc,bd) += (+gm,-gm,-gm,+gm)
    VoltageBranch,     ///< m((p,row),(m,row),(row,p),(row,m)) += (+1,-1,+1,-1); r(row) += v
    Matrix,            ///< m[0] += v
    Rhs,               ///< r[0] += v
  };
  static constexpr uint32_t kNone = 0xffffffffu;

  Kind kind = Kind::Matrix;
  std::array<uint32_t, 4> m = {kNone, kNone, kNone, kNone};
  std::array<uint32_t, 2> r = {kNone, kNone};
};

/// Resolves the targets of one op. Node arguments are absolute unknown
/// indices, negative = ground: (a, b) for Conductance / CurrentSource /
/// Matrix (row, col); (a, b, c, d) for Transconductance; (plus, minus,
/// row) for VoltageBranch; (row) for Rhs. Handles are requested in the
/// Direct mode's write order, so every mode grows the pattern alike.
/// `Matrix` is SparseMatrix or LaneMatrix.
template <class Matrix>
TapeOp resolveOp(TapeOp::Kind kind, Matrix& matrix, int a, int b = -1, int c = -1, int d = -1) {
  TapeOp op;
  op.kind = kind;
  const auto entry = [&](size_t k, int row, int col) {
    if (row >= 0 && col >= 0) {
      op.m[k] = static_cast<uint32_t>(
          matrix.entryHandle(static_cast<size_t>(row), static_cast<size_t>(col)));
    }
  };
  const auto rhs = [&](size_t k, int row) {
    if (row >= 0) op.r[k] = static_cast<uint32_t>(row);
  };
  switch (kind) {
    case TapeOp::Kind::Conductance:
      entry(0, a, a);
      entry(1, b, b);
      entry(2, a, b);
      entry(3, b, a);
      break;
    case TapeOp::Kind::CurrentSource:
      rhs(0, a);
      rhs(1, b);
      break;
    case TapeOp::Kind::Transconductance:
      entry(0, a, c);
      entry(1, a, d);
      entry(2, b, c);
      entry(3, b, d);
      break;
    case TapeOp::Kind::VoltageBranch:
      entry(0, a, c);
      entry(1, b, c);
      entry(2, c, a);
      entry(3, c, b);
      rhs(0, c);
      break;
    case TapeOp::Kind::Matrix:
      entry(0, a, b);
      break;
    case TapeOp::Kind::Rhs:
      rhs(0, a);
      break;
  }
  return op;
}

/// Adds one op's writes, in call order, from its `lanes`-wide value run
/// into matrix values / RHS stored `lanes` doubles per entry and row.
void applyOpWrites(const TapeOp& op, const double* value, size_t lanes, double* matrix,
                   double* rhs);

/// Recorded assembly of one circuit into one MNA system (scalar, or K
/// lanes wide for the ensemble engine) for one analysis mode, compiled
/// into a scatter program.
///
/// The value slab holds one `lanes`-wide run per op (slot i + 1 for op
/// i) plus slot 0, fixed at 1.0, which the constant ±1 entries of
/// voltage branches read. Each program entry is one write of one op:
/// (source slot, sign), grouped into runs that add their sum into one
/// target. Entries are ordered by (target, device group, op, write
/// within op), so a target's runs are its device groups in group order,
/// each summed in op order — with one group that is exactly the
/// call-order accumulation of Direct mode.
///
/// Per device the tape also keeps its op span and its terminal voltages
/// at the last evaluation (bypass bookkeeping). Valid as long as the
/// circuit topology revision and target system are unchanged — matrix
/// handles are append-only stable, so pattern growth by a later-recorded
/// tape never invalidates an earlier one.
class AssemblyTape {
 public:
  struct Span {
    uint32_t op_begin = 0, op_end = 0;
    uint32_t volt_begin = 0, volt_end = 0;
  };

  bool matches(const void* system_key, uint64_t revision, size_t device_count) const {
    return recorded_ && system_key_ == system_key && revision_ == revision &&
           spans_.size() == device_count;
  }
  void reset();

  // --- recording protocol (driven by the assemblers + stampers) ------
  void beginRecording(const void* system_key, uint64_t revision, size_t lanes = 1);
  void beginDevice();
  /// Snapshot one terminal's `lanes`-wide voltage run.
  void recordTerminalVoltages(const double* v) { v_last_.insert(v_last_.end(), v, v + lanes_); }
  void endDevice();
  /// Appends one op and returns its (zeroed) value run in the slab.
  double* pushOp(const TapeOp& op);
  /// Seals the tape: resolves the per-node gmin diagonal handles and
  /// compiles the scatter program. `device_group` (empty = one group)
  /// labels each device's group; `parts` splits the program into that
  /// many target ranges for a parallel scatter.
  template <class Matrix>
  void finishRecording(Matrix& matrix, size_t num_nodes,
                       std::span<const uint32_t> device_group = {}, size_t parts = 1) {
    gmin_handles_.resize(num_nodes);
    for (size_t n = 0; n < num_nodes; ++n) gmin_handles_[n] = matrix.entryHandle(n, n);
    compile(device_group, parts, matrix.nonZeros(), matrix.size());
    recorded_ = true;
  }

  // --- replay access -------------------------------------------------
  size_t lanes() const { return lanes_; }
  const Span& span(size_t device) const { return spans_[device]; }
  size_t opCount() const { return ops_.size(); }
  const TapeOp& op(size_t i) const { return ops_[i]; }
  /// Op i's `lanes`-wide value run, as of its device's last evaluation.
  double* opValues(size_t i) { return slab_.data() + (i + 1) * lanes_; }
  const double* opValues(size_t i) const { return slab_.data() + (i + 1) * lanes_; }
  /// Terminal snapshot k's `lanes`-wide run (k in a device's volt span).
  double* vLast(size_t k) { return v_last_.data() + k * lanes_; }
  const double* vLast(size_t k) const { return v_last_.data() + k * lanes_; }

  /// Target ranges of the scatter program (`parts` at compile time,
  /// fewer when there are fewer targets).
  size_t scatterParts() const { return part_begin_.size() - 1; }
  /// Adds the slab into every target of one part. `matrix` / `rhs`
  /// hold `lanes` doubles per entry / row and must be zeroed; parts
  /// write disjoint targets, so they may run concurrently.
  void scatter(size_t part, double* matrix, double* rhs) const;
  /// Adds gmin on every node diagonal, all lanes.
  void addGmin(double* matrix, double gmin) const;

 private:
  struct Entry {
    double sign;
    uint32_t slot;
  };
  /// Entries [end of the previous run, end) sum into `target`.
  struct Run {
    uint32_t target;
    uint32_t end;
  };

  void compile(std::span<const uint32_t> device_group, size_t parts, size_t matrix_targets,
               size_t rhs_targets);

  std::vector<TapeOp> ops_;
  std::vector<double> slab_;    ///< (1 + opCount) * lanes values
  std::vector<double> v_last_;  ///< terminal snapshots * lanes
  std::vector<Span> spans_;     ///< per device, in circuit order
  std::vector<size_t> gmin_handles_;
  std::vector<Entry> entries_;
  std::vector<Run> runs_;        ///< matrix targets first, then RHS rows
  size_t matrix_runs_ = 0;
  std::vector<uint32_t> part_begin_ = {0, 0};  ///< first run of each part, then runs_.size()
  const void* system_key_ = nullptr;
  uint64_t revision_ = 0;
  size_t lanes_ = 1;
  bool recorded_ = false;
};

/// Device-facing stamping interface. All methods silently drop ground
/// rows/columns. Sign conventions:
///   * conductance g between a and b: current g*(va-vb) leaves a.
///   * current source i from a to b (through the element): i leaves a.
///   * branch rows enforce element equations for voltage-defined parts.
class Stamper {
 public:
  explicit Stamper(MnaSystem& system) : sys_(system) {}

  /// Two-terminal conductance.
  void conductance(NodeId a, NodeId b, double g) {
    stamp(TapeOp::Kind::Conductance, g, nodeIndex(a), nodeIndex(b));
  }

  /// Independent/companion current source: `i` flows from a to b.
  void currentSource(NodeId a, NodeId b, double i) {
    stamp(TapeOp::Kind::CurrentSource, i, nodeIndex(a), nodeIndex(b));
  }

  /// Transconductance: current gm*(vc - vd) flows from a to b.
  void transconductance(NodeId a, NodeId b, NodeId c, NodeId d, double gm) {
    stamp(TapeOp::Kind::Transconductance, gm, nodeIndex(a), nodeIndex(b), nodeIndex(c),
          nodeIndex(d));
  }

  /// Voltage-defined branch (V source, inductor, VCVS):
  ///   KCL: branch current `ib` leaves `plus`, enters `minus`;
  ///   branch row: v(plus) - v(minus) - sum(coeffs) = v_value.
  /// Call branchVoltageRow then add extra dependencies via addMatrix.
  void voltageBranch(size_t branch_index, NodeId plus, NodeId minus, double v_value) {
    stamp(TapeOp::Kind::VoltageBranch, v_value, nodeIndex(plus), nodeIndex(minus),
          static_cast<int>(branch_index));
  }

  /// Raw access for exotic stamps. Indices are absolute unknown indices;
  /// negative = ground (dropped).
  void addMatrix(int row, int col, double value) {
    stamp(TapeOp::Kind::Matrix, value, row, col);
  }
  void addRhs(int row, double value) { stamp(TapeOp::Kind::Rhs, value, row); }

  /// Absolute unknown index of node n (or -1 for ground).
  int nodeIndex(NodeId n) const { return isGround(n) ? -1 : n; }

  size_t numNodes() const { return sys_.numNodes(); }

  // --- tape protocol (used by the assemblers) ------------------------
  /// Switch to record mode: every call resolves handles once and
  /// appends a TapeOp to `tape` while writing through.
  void startRecording(AssemblyTape& tape);
  /// Switch to replay mode: calls consume ops from `tape` at the cursor
  /// and only store their values into its slab — nothing is written to
  /// the matrix or RHS. Safe to run concurrently on disjoint op spans.
  void startReplay(AssemblyTape& tape);
  size_t cursor() const { return cursor_; }
  void seek(size_t op_cursor) { cursor_ = op_cursor; }

 private:
  enum class Mode : uint8_t { Direct, Record, Replay };

  void stamp(TapeOp::Kind kind, double value, int a, int b = -1, int c = -1, int d = -1);

  MnaSystem& sys_;
  AssemblyTape* tape_ = nullptr;
  Mode mode_ = Mode::Direct;
  size_t cursor_ = 0;
};

/// Collects the frequency-proportional (capacitive/inductive) part of
/// the MNA system for AC analysis. Devices stamp their small-signal
/// capacitances here; the AC engine scales the collected matrix by
/// j*omega per frequency point.
class ReactiveStamper {
 public:
  ReactiveStamper(SparseMatrix& c_matrix, size_t num_nodes)
      : c_(c_matrix), num_nodes_(num_nodes) {}

  /// Two-terminal capacitance between nodes a and b.
  void capacitance(NodeId a, NodeId b, double c);

  /// Inductance on a branch row: contributes -jwL to the branch
  /// equation (pass the absolute branch index).
  void branchInductance(size_t branch_index, double inductance);

  size_t numNodes() const { return num_nodes_; }

 private:
  SparseMatrix& c_;
  size_t num_nodes_;
};

}  // namespace vls
