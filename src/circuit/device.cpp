#include "circuit/device.hpp"

#include "base/error.hpp"
#include "circuit/mna.hpp"

namespace vls {

void Device::stampDeviceBatch(std::span<Device* const> devs, std::span<const uint32_t> op_begin,
                              std::span<const uint32_t> op_end, Stamper& stamper,
                              const EvalContext& ctx) {
  for (size_t i = 0; i < devs.size(); ++i) {
    stamper.seek(op_begin[i]);
    devs[i]->stamp(stamper, ctx);
    if (stamper.cursor() != op_end[i]) {
      throw Error("Device " + devs[i]->name() +
                  " changed its stamp sequence without a topology revision bump");
    }
  }
}

void Device::stampLanes(LaneStamper&, const LaneContext&, DeviceLaneState*) {
  throw InvalidInputError("Device " + name() +
                          " has no lane evaluation; run this circuit through the scalar "
                          "Simulator");
}

ChargeCompanion integrateCharge(IntegrationMethod method, double dt, double q, double c,
                                const ChargeHistory& history) {
  ChargeCompanion out;
  switch (method) {
    case IntegrationMethod::None:
      // DC: capacitors are open circuits.
      out.geq = 0.0;
      out.i_now = 0.0;
      return out;
    case IntegrationMethod::BackwardEuler:
      out.geq = c / dt;
      out.i_now = (q - history.q) / dt;
      return out;
    case IntegrationMethod::Trapezoidal:
      out.geq = 2.0 * c / dt;
      out.i_now = 2.0 * (q - history.q) / dt - history.i;
      return out;
  }
  throw NumericalError("integrateCharge: unknown method");
}

}  // namespace vls
