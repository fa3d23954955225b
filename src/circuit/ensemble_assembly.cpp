#include "circuit/ensemble_assembly.hpp"

#include <algorithm>
#include <cmath>

#include "base/error.hpp"

namespace vls {

namespace {
[[noreturn]] void laneTapeDivergence() {
  throw Error("LaneStamper: stamp call sequence diverged from the recorded lane tape "
              "(stale tape not invalidated?)");
}

/// True when every terminal voltage of the device moved at most `tol`
/// in every lane since its last full linearization — the lane-widened
/// bypass qualification test.
bool lanesQuiet(const Device& dev, const LaneTape& tape, const LaneTape::Span& sp,
                const LaneContext& ctx, double tol) {
  const size_t K = ctx.lanes;
  for (uint32_t t = 0, k = sp.volt_begin; k < sp.volt_end; ++t, ++k) {
    const double* v = ctx.v(dev.terminalNode(t));
    const double* last = tape.vLast(k);
    for (size_t l = 0; l < K; ++l) {
      if (std::fabs(v[l] - last[l]) > tol) return false;
    }
  }
  return true;
}
}  // namespace

void LaneStamper::startRecording(LaneTape& tape) {
  tape_ = &tape;
  mode_ = Mode::Record;
  store_values_ = true;
  cursor_ = 0;
}

void LaneStamper::startReplay(LaneTape& tape, bool store_values) {
  tape_ = &tape;
  mode_ = Mode::Replay;
  store_values_ = store_values;
  cursor_ = 0;
}

const double* LaneStamper::fillSlot(size_t op_index, const double* v, double uniform,
                                    double scale) {
  double* slot = tape_->opLanes(op_index);
  const size_t K = sys_.lanes();
  if (v != nullptr) {
    for (size_t l = 0; l < K; ++l) slot[l] = scale * v[l];
  } else {
    const double u = scale * uniform;
    for (size_t l = 0; l < K; ++l) slot[l] = u;
  }
  return slot;
}

void LaneStamper::replayStored(size_t op_begin, size_t op_end) {
  for (size_t i = op_begin; i < op_end; ++i) {
    const TapeOp& op = tape_->op(i);
    const double* v = tape_->opLanes(i);
    switch (op.kind) {
      case TapeOp::Kind::Conductance:
        applyConductance(op, v, 0.0, 1.0);
        break;
      case TapeOp::Kind::CurrentSource:
        applyCurrentSource(op, v, 0.0, 1.0);
        break;
      case TapeOp::Kind::VoltageBranch:
        applyVoltageBranch(op, v, 0.0);
        break;
      case TapeOp::Kind::Matrix:
        applyMatrix(op, v, 0.0, 1.0);
        break;
      case TapeOp::Kind::Rhs:
        applyRhs(op, v, 0.0, 1.0);
        break;
      default:
        laneTapeDivergence();
    }
  }
  cursor_ = op_end;
}

const TapeOp& LaneStamper::nextOp(TapeOp::Kind kind) {
  if (cursor_ >= tape_->opCount()) laneTapeDivergence();
  const TapeOp& op = tape_->op(cursor_);
  if (op.kind != kind) laneTapeDivergence();
  ++cursor_;
  return op;
}

void LaneStamper::applyConductance(const TapeOp& op, const double* g, double uniform,
                                   double scale) {
  constexpr uint32_t kNone = TapeOp::kNone;
  const size_t K = sys_.lanes();
  LaneMatrix& mat = sys_.matrix();
  auto addRun = [&](uint32_t handle, double sign) {
    if (handle == kNone) return;
    double* v = mat.laneValues(handle);
    if (g != nullptr) {
      const double s = sign * scale;
      for (size_t l = 0; l < K; ++l) v[l] += s * g[l];
    } else {
      const double s = sign * uniform;
      for (size_t l = 0; l < K; ++l) v[l] += s;
    }
  };
  addRun(op.m[0], 1.0);
  addRun(op.m[1], 1.0);
  addRun(op.m[2], -1.0);
  addRun(op.m[3], -1.0);
}

void LaneStamper::applyCurrentSource(const TapeOp& op, const double* i, double uniform,
                                     double scale) {
  constexpr uint32_t kNone = TapeOp::kNone;
  const size_t K = sys_.lanes();
  auto addRun = [&](uint32_t row, double sign) {
    if (row == kNone) return;
    double* r = sys_.rhsLanes(row);
    if (i != nullptr) {
      const double s = sign * scale;
      for (size_t l = 0; l < K; ++l) r[l] += s * i[l];
    } else {
      const double s = sign * uniform;
      for (size_t l = 0; l < K; ++l) r[l] += s;
    }
  };
  addRun(op.r[0], -1.0);
  addRun(op.r[1], 1.0);
}

void LaneStamper::applyVoltageBranch(const TapeOp& op, const double* v, double uniform) {
  constexpr uint32_t kNone = TapeOp::kNone;
  const size_t K = sys_.lanes();
  LaneMatrix& mat = sys_.matrix();
  auto addOnes = [&](uint32_t handle, double sign) {
    if (handle == kNone) return;
    double* m = mat.laneValues(handle);
    for (size_t l = 0; l < K; ++l) m[l] += sign;
  };
  addOnes(op.m[0], 1.0);
  addOnes(op.m[1], -1.0);
  addOnes(op.m[2], 1.0);
  addOnes(op.m[3], -1.0);
  double* r = sys_.rhsLanes(op.r[0]);  // the branch row always exists
  if (v != nullptr) {
    for (size_t l = 0; l < K; ++l) r[l] += v[l];
  } else {
    for (size_t l = 0; l < K; ++l) r[l] += uniform;
  }
}

void LaneStamper::applyMatrix(const TapeOp& op, const double* v, double uniform, double scale) {
  if (op.m[0] == TapeOp::kNone) return;
  const size_t K = sys_.lanes();
  double* dst = sys_.matrix().laneValues(op.m[0]);
  if (v != nullptr) {
    for (size_t l = 0; l < K; ++l) dst[l] += scale * v[l];
  } else {
    for (size_t l = 0; l < K; ++l) dst[l] += uniform;
  }
}

void LaneStamper::applyRhs(const TapeOp& op, const double* v, double uniform, double scale) {
  if (op.r[0] == TapeOp::kNone) return;
  const size_t K = sys_.lanes();
  double* dst = sys_.rhsLanes(op.r[0]);
  if (v != nullptr) {
    for (size_t l = 0; l < K; ++l) dst[l] += scale * v[l];
  } else {
    for (size_t l = 0; l < K; ++l) dst[l] += uniform;
  }
}

void LaneStamper::conductance(NodeId a, NodeId b, const double* g) {
  if (mode_ == Mode::Replay) {
    const size_t idx = cursor_;
    const TapeOp& op = nextOp(TapeOp::Kind::Conductance);
    applyConductance(op, store_values_ ? fillSlot(idx, g, 0.0, 1.0) : g, 0.0, 1.0);
    return;
  }
  const int ia = nodeIndex(a);
  const int ib = nodeIndex(b);
  TapeOp op;
  op.kind = TapeOp::Kind::Conductance;
  LaneMatrix& mat = sys_.matrix();
  if (ia >= 0) op.m[0] = static_cast<uint32_t>(mat.entryHandle(ia, ia));
  if (ib >= 0) op.m[1] = static_cast<uint32_t>(mat.entryHandle(ib, ib));
  if (ia >= 0 && ib >= 0) {
    op.m[2] = static_cast<uint32_t>(mat.entryHandle(ia, ib));
    op.m[3] = static_cast<uint32_t>(mat.entryHandle(ib, ia));
  }
  if (mode_ == Mode::Record) {
    tape_->pushOp(op);
    applyConductance(op, fillSlot(tape_->opCount() - 1, g, 0.0, 1.0), 0.0, 1.0);
    return;
  }
  applyConductance(op, g, 0.0, 1.0);
}

void LaneStamper::conductanceUniform(NodeId a, NodeId b, double g) {
  if (mode_ == Mode::Replay) {
    const size_t idx = cursor_;
    const TapeOp& op = nextOp(TapeOp::Kind::Conductance);
    if (store_values_) {
      applyConductance(op, fillSlot(idx, nullptr, g, 1.0), 0.0, 1.0);
    } else {
      applyConductance(op, nullptr, g, 1.0);
    }
    return;
  }
  const int ia = nodeIndex(a);
  const int ib = nodeIndex(b);
  TapeOp op;
  op.kind = TapeOp::Kind::Conductance;
  LaneMatrix& mat = sys_.matrix();
  if (ia >= 0) op.m[0] = static_cast<uint32_t>(mat.entryHandle(ia, ia));
  if (ib >= 0) op.m[1] = static_cast<uint32_t>(mat.entryHandle(ib, ib));
  if (ia >= 0 && ib >= 0) {
    op.m[2] = static_cast<uint32_t>(mat.entryHandle(ia, ib));
    op.m[3] = static_cast<uint32_t>(mat.entryHandle(ib, ia));
  }
  if (mode_ == Mode::Record) {
    tape_->pushOp(op);
    applyConductance(op, fillSlot(tape_->opCount() - 1, nullptr, g, 1.0), 0.0, 1.0);
    return;
  }
  applyConductance(op, nullptr, g, 1.0);
}

void LaneStamper::currentSource(NodeId a, NodeId b, const double* i) {
  if (mode_ == Mode::Replay) {
    const size_t idx = cursor_;
    const TapeOp& op = nextOp(TapeOp::Kind::CurrentSource);
    applyCurrentSource(op, store_values_ ? fillSlot(idx, i, 0.0, 1.0) : i, 0.0, 1.0);
    return;
  }
  const int ia = nodeIndex(a);
  const int ib = nodeIndex(b);
  TapeOp op;
  op.kind = TapeOp::Kind::CurrentSource;
  if (ia >= 0) op.r[0] = static_cast<uint32_t>(ia);
  if (ib >= 0) op.r[1] = static_cast<uint32_t>(ib);
  if (mode_ == Mode::Record) {
    tape_->pushOp(op);
    applyCurrentSource(op, fillSlot(tape_->opCount() - 1, i, 0.0, 1.0), 0.0, 1.0);
    return;
  }
  applyCurrentSource(op, i, 0.0, 1.0);
}

void LaneStamper::currentSourceUniform(NodeId a, NodeId b, double i) {
  if (mode_ == Mode::Replay) {
    const size_t idx = cursor_;
    const TapeOp& op = nextOp(TapeOp::Kind::CurrentSource);
    if (store_values_) {
      applyCurrentSource(op, fillSlot(idx, nullptr, i, 1.0), 0.0, 1.0);
    } else {
      applyCurrentSource(op, nullptr, i, 1.0);
    }
    return;
  }
  const int ia = nodeIndex(a);
  const int ib = nodeIndex(b);
  TapeOp op;
  op.kind = TapeOp::Kind::CurrentSource;
  if (ia >= 0) op.r[0] = static_cast<uint32_t>(ia);
  if (ib >= 0) op.r[1] = static_cast<uint32_t>(ib);
  if (mode_ == Mode::Record) {
    tape_->pushOp(op);
    applyCurrentSource(op, fillSlot(tape_->opCount() - 1, nullptr, i, 1.0), 0.0, 1.0);
    return;
  }
  applyCurrentSource(op, nullptr, i, 1.0);
}

void LaneStamper::voltageBranch(size_t branch_index, NodeId plus, NodeId minus,
                                const double* v_values) {
  if (mode_ == Mode::Replay) {
    const size_t idx = cursor_;
    const TapeOp& op = nextOp(TapeOp::Kind::VoltageBranch);
    applyVoltageBranch(op, store_values_ ? fillSlot(idx, v_values, 0.0, 1.0) : v_values, 0.0);
    return;
  }
  const int row = static_cast<int>(branch_index);
  const int ip = nodeIndex(plus);
  const int im = nodeIndex(minus);
  TapeOp op;
  op.kind = TapeOp::Kind::VoltageBranch;
  LaneMatrix& mat = sys_.matrix();
  if (ip >= 0) op.m[0] = static_cast<uint32_t>(mat.entryHandle(ip, row));
  if (im >= 0) op.m[1] = static_cast<uint32_t>(mat.entryHandle(im, row));
  if (ip >= 0) op.m[2] = static_cast<uint32_t>(mat.entryHandle(row, ip));
  if (im >= 0) op.m[3] = static_cast<uint32_t>(mat.entryHandle(row, im));
  op.r[0] = static_cast<uint32_t>(row);
  if (mode_ == Mode::Record) {
    tape_->pushOp(op);
    applyVoltageBranch(op, fillSlot(tape_->opCount() - 1, v_values, 0.0, 1.0), 0.0);
    return;
  }
  applyVoltageBranch(op, v_values, 0.0);
}

void LaneStamper::voltageBranchUniform(size_t branch_index, NodeId plus, NodeId minus,
                                       double v_value) {
  if (mode_ == Mode::Replay) {
    const size_t idx = cursor_;
    const TapeOp& op = nextOp(TapeOp::Kind::VoltageBranch);
    if (store_values_) {
      applyVoltageBranch(op, fillSlot(idx, nullptr, v_value, 1.0), 0.0);
    } else {
      applyVoltageBranch(op, nullptr, v_value);
    }
    return;
  }
  const int row = static_cast<int>(branch_index);
  const int ip = nodeIndex(plus);
  const int im = nodeIndex(minus);
  TapeOp op;
  op.kind = TapeOp::Kind::VoltageBranch;
  LaneMatrix& mat = sys_.matrix();
  if (ip >= 0) op.m[0] = static_cast<uint32_t>(mat.entryHandle(ip, row));
  if (im >= 0) op.m[1] = static_cast<uint32_t>(mat.entryHandle(im, row));
  if (ip >= 0) op.m[2] = static_cast<uint32_t>(mat.entryHandle(row, ip));
  if (im >= 0) op.m[3] = static_cast<uint32_t>(mat.entryHandle(row, im));
  op.r[0] = static_cast<uint32_t>(row);
  if (mode_ == Mode::Record) {
    tape_->pushOp(op);
    applyVoltageBranch(op, fillSlot(tape_->opCount() - 1, nullptr, v_value, 1.0), 0.0);
    return;
  }
  applyVoltageBranch(op, nullptr, v_value);
}

void LaneStamper::addMatrix(int row, int col, const double* value, double scale) {
  if (mode_ == Mode::Replay) {
    const size_t idx = cursor_;
    const TapeOp& op = nextOp(TapeOp::Kind::Matrix);
    if (store_values_) {
      applyMatrix(op, fillSlot(idx, value, 0.0, scale), 0.0, 1.0);
    } else {
      applyMatrix(op, value, 0.0, scale);
    }
    return;
  }
  TapeOp op;
  op.kind = TapeOp::Kind::Matrix;
  if (row >= 0 && col >= 0) {
    op.m[0] = static_cast<uint32_t>(
        sys_.matrix().entryHandle(static_cast<size_t>(row), static_cast<size_t>(col)));
  }
  if (mode_ == Mode::Record) {
    tape_->pushOp(op);
    applyMatrix(op, fillSlot(tape_->opCount() - 1, value, 0.0, scale), 0.0, 1.0);
    return;
  }
  applyMatrix(op, value, 0.0, scale);
}

void LaneStamper::addMatrixUniform(int row, int col, double value) {
  if (mode_ == Mode::Replay) {
    const size_t idx = cursor_;
    const TapeOp& op = nextOp(TapeOp::Kind::Matrix);
    if (store_values_) {
      applyMatrix(op, fillSlot(idx, nullptr, value, 1.0), 0.0, 1.0);
    } else {
      applyMatrix(op, nullptr, value, 1.0);
    }
    return;
  }
  TapeOp op;
  op.kind = TapeOp::Kind::Matrix;
  if (row >= 0 && col >= 0) {
    op.m[0] = static_cast<uint32_t>(
        sys_.matrix().entryHandle(static_cast<size_t>(row), static_cast<size_t>(col)));
  }
  if (mode_ == Mode::Record) {
    tape_->pushOp(op);
    applyMatrix(op, fillSlot(tape_->opCount() - 1, nullptr, value, 1.0), 0.0, 1.0);
    return;
  }
  applyMatrix(op, nullptr, value, 1.0);
}

void LaneStamper::addRhs(int row, const double* value, double scale) {
  if (mode_ == Mode::Replay) {
    const size_t idx = cursor_;
    const TapeOp& op = nextOp(TapeOp::Kind::Rhs);
    if (store_values_) {
      applyRhs(op, fillSlot(idx, value, 0.0, scale), 0.0, 1.0);
    } else {
      applyRhs(op, value, 0.0, scale);
    }
    return;
  }
  TapeOp op;
  op.kind = TapeOp::Kind::Rhs;
  if (row >= 0) op.r[0] = static_cast<uint32_t>(row);
  if (mode_ == Mode::Record) {
    tape_->pushOp(op);
    applyRhs(op, fillSlot(tape_->opCount() - 1, value, 0.0, scale), 0.0, 1.0);
    return;
  }
  applyRhs(op, value, 0.0, scale);
}

void LaneStamper::addRhsUniform(int row, double value) {
  if (mode_ == Mode::Replay) {
    const size_t idx = cursor_;
    const TapeOp& op = nextOp(TapeOp::Kind::Rhs);
    if (store_values_) {
      applyRhs(op, fillSlot(idx, nullptr, value, 1.0), 0.0, 1.0);
    } else {
      applyRhs(op, nullptr, value, 1.0);
    }
    return;
  }
  TapeOp op;
  op.kind = TapeOp::Kind::Rhs;
  if (row >= 0) op.r[0] = static_cast<uint32_t>(row);
  if (mode_ == Mode::Record) {
    tape_->pushOp(op);
    applyRhs(op, fillSlot(tape_->opCount() - 1, nullptr, value, 1.0), 0.0, 1.0);
    return;
  }
  applyRhs(op, nullptr, value, 1.0);
}

EnsembleAssembler::EnsembleAssembler(const Circuit& circuit, EnsembleSystem& system)
    : circuit_(circuit), sys_(system) {}

void EnsembleAssembler::assemble(const LaneContext& ctx,
                                 const std::vector<DeviceLaneState*>& states,
                                 const AssemblyOptions& options) {
  sys_.clear();
  const auto& devices = circuit_.devices();
  LaneTape& tape = ctx.method == IntegrationMethod::None ? tape_dc_ : tape_tran_;
  LaneStamper stamper(sys_);
  const bool record = !tape.matches(&sys_, circuit_.revision(), devices.size());
  if (record) {
    tape.beginRecording(&sys_, circuit_.revision(), devices.size(), sys_.lanes());
    stamper.startRecording(tape);
    for (size_t i = 0; i < devices.size(); ++i) {
      Device* dev = devices[i].get();
      tape.beginDevice();
      dev->stampLanes(stamper, ctx, states[i]);
      for (size_t t = 0; t < dev->terminalCount(); ++t) {
        tape.recordTerminalVoltages(ctx.v(dev->terminalNode(t)));
      }
      tape.endDevice();
    }
    tape.finishRecording(sys_.matrix(), sys_.numNodes());
  } else {
    // Stored op values only feed replayStored (bypass); with bypass off
    // the replay loop stays read-only over the tape.
    stamper.startReplay(tape, /*store_values=*/options.enable_bypass);
    const bool bypass_active = options.enable_bypass && options.allow_bypass_now;
    const bool track_voltages = options.enable_bypass;
    for (size_t i = 0; i < devices.size(); ++i) {
      Device* dev = devices[i].get();
      const LaneTape::Span& sp = tape.span(i);
      if (bypass_active && dev->supportsBypass() &&
          lanesQuiet(*dev, tape, sp, ctx, options.bypass_tol)) {
        ++bypassed_;
        stamper.replayStored(sp.op_begin, sp.op_end);
        continue;
      }
      stamper.seek(sp.op_begin);
      dev->stampLanes(stamper, ctx, states[i]);
      if (stamper.cursor() != sp.op_end) laneTapeDivergence();
      if (track_voltages) {
        const size_t K = ctx.lanes;
        for (size_t t = 0, k = sp.volt_begin; k < sp.volt_end; ++t, ++k) {
          const double* v = ctx.v(dev->terminalNode(t));
          std::copy(v, v + K, tape.vLast(k));
        }
      }
    }
    if (stamper.cursor() != tape.opCount()) laneTapeDivergence();
  }
  // Convergence-aid gmin on every node diagonal, all lanes.
  const size_t K = sys_.lanes();
  for (size_t handle : tape.gminHandles()) {
    double* v = sys_.matrix().laneValues(handle);
    for (size_t l = 0; l < K; ++l) v[l] += ctx.gmin;
  }
}

}  // namespace vls
