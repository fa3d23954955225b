#include "circuit/ensemble_assembly.hpp"

#include <chrono>

#include "base/error.hpp"

namespace vls {

namespace {
[[noreturn]] void laneTapeDivergence() {
  throw Error("LaneStamper: stamp call sequence diverged from the recorded lane tape "
              "(stale tape not invalidated?)");
}

/// The slab fill: slot[l] = scale * v[l], or scale * uniform in every
/// lane when v is null.
void fillSlot(double* slot, size_t K, const double* v, double uniform, double scale) {
  if (v != nullptr) {
    for (size_t l = 0; l < K; ++l) slot[l] = scale * v[l];
  } else {
    const double u = scale * uniform;
    for (size_t l = 0; l < K; ++l) slot[l] = u;
  }
}

}  // namespace

void LaneStamper::startRecording(AssemblyTape& tape) {
  tape_ = &tape;
  recording_ = true;
  cursor_ = 0;
}

void LaneStamper::startReplay(AssemblyTape& tape) {
  tape_ = &tape;
  recording_ = false;
  cursor_ = 0;
}

void LaneStamper::stamp(TapeOp::Kind kind, const double* v, double uniform, double scale, int a,
                        int b, int c) {
  const size_t K = sys_.lanes();
  if (!recording_) {
    if (cursor_ >= tape_->opCount() || tape_->op(cursor_).kind != kind) laneTapeDivergence();
    fillSlot(tape_->opValues(cursor_++), K, v, uniform, scale);
    return;
  }
  const TapeOp op = resolveOp(kind, sys_.matrix(), a, b, c);
  double* slot = tape_->pushOp(op);
  fillSlot(slot, K, v, uniform, scale);
  applyOpWrites(op, slot, K, sys_.matrix().laneValues(0), sys_.rhs().data());
}

EnsembleAssembler::EnsembleAssembler(const Circuit& circuit, EnsembleSystem& system)
    : circuit_(circuit), sys_(system) {}

void EnsembleAssembler::assemble(const LaneContext& ctx,
                                 const std::vector<DeviceLaneState*>& states,
                                 const AssemblyOptions& options) {
  sys_.clear();
  const auto& devices = circuit_.devices();
  AssemblyTape& tape = ctx.method == IntegrationMethod::None ? tape_dc_ : tape_tran_;
  LaneStamper stamper(sys_);
  if (!tape.matches(&sys_, circuit_.revision(), devices.size())) {
    tape.beginRecording(&sys_, circuit_.revision(), sys_.lanes());
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
    const auto t0 = std::chrono::steady_clock::now();
    stamper.startReplay(tape);
    for (size_t i = 0; i < devices.size(); ++i) {
      Device* dev = devices[i].get();
      const AssemblyTape::Span& sp = tape.span(i);
      if (bypassDevice(*dev, tape, sp, options, [&](NodeId n) { return ctx.v(n); })) {
        ++bypassed_;
        continue;
      }
      stamper.seek(sp.op_begin);
      dev->stampLanes(stamper, ctx, states[i]);
      if (stamper.cursor() != sp.op_end) laneTapeDivergence();
    }
    model_eval_sec_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    tape.scatter(0, sys_.matrix().laneValues(0), sys_.rhs().data());
  }
  // Convergence-aid gmin on every node diagonal, all lanes.
  tape.addGmin(sys_.matrix().laneValues(0), ctx.gmin);
}

}  // namespace vls
