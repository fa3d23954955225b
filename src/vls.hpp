// Umbrella header: everything a downstream user needs to build and
// characterize voltage-level-shifter circuits with this library.
//
//   #include "vls.hpp"
//
// Layered structure (each header can also be included individually):
//   base/     units, errors, logging
//   numeric/  linear algebra, AD, RNG, statistics
//   circuit/  nodes, devices, MNA
//   devices/  R/C/L, sources, diode, MOSFET + model cards
//   sim/      OP, DC sweep, transient, AC
//   cells/    gates, the SS-TVS, all comparison shifters, interconnect
//   analysis/ measurements, harness, Monte-Carlo, corners, sweeps, area
//   io/       netlist parser/writer, CSV/JSON/Liberty, tables
#pragma once

#include "base/error.hpp"
#include "base/logging.hpp"
#include "base/units.hpp"

#include "numeric/dual.hpp"
#include "numeric/interpolation.hpp"
#include "numeric/rng.hpp"
#include "numeric/statistics.hpp"

#include "circuit/circuit.hpp"

#include "devices/diode.hpp"
#include "devices/model_library.hpp"
#include "devices/mosfet.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"

#include "sim/simulator.hpp"

#include "cells/gates.hpp"
#include "cells/interconnect.hpp"
#include "cells/lcff.hpp"
#include "cells/level_shifters.hpp"
#include "cells/related_work.hpp"
#include "cells/sstvs.hpp"

#include "analysis/area.hpp"
#include "analysis/corners.hpp"
#include "analysis/measure.hpp"
#include "analysis/monte_carlo.hpp"
#include "analysis/routing_cost.hpp"
#include "analysis/sensitivity.hpp"
#include "analysis/static_margins.hpp"
#include "analysis/shifter_harness.hpp"
#include "analysis/sweep.hpp"

#include "io/ascii_plot.hpp"
#include "io/csv.hpp"
#include "io/json_writer.hpp"
#include "io/liberty_writer.hpp"
#include "io/netlist_parser.hpp"
#include "io/netlist_writer.hpp"
#include "io/table.hpp"
