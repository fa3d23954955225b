// Benchmark runner: one repetition of one workload per process. It
// derives the workload's inputs from the seed, runs the timed body
// through the library's public entry points, and writes the raw
// clocks, resource usage, counters, spans and outputs as one JSON
// object. perfbench/run.py does the arithmetic and the output checks.
//
// Usage:
//   perfbench_runner --workload paper_tables|nldm_farm|fabric_chain
//                    --seed N --trace 0|1 --spawn-ns T --out FILE
//                    [--trace-out FILE] [--mc-samples N]
//
// --spawn-ns is the CLOCK_MONOTONIC time at which the parent started
// this process; set-up time runs from there to the start of the body.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "analysis/fabric_bootstrap.hpp"
#include "analysis/measure.hpp"
#include "analysis/monte_carlo.hpp"
#include "analysis/shifter_harness.hpp"
#include "base/parallel.hpp"
#include "cells/fabric.hpp"
#include "circuit/assembly.hpp"
#include "io/liberty_validate.hpp"
#include "io/liberty_writer.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace vls;

int64_t monotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------
// JSON output: numbers keep every digit (%.17g), so exact reference
// comparisons and nanosecond clocks survive the round trip.

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string num(int64_t v) { return std::to_string(v); }
std::string num(size_t v) { return std::to_string(v); }
std::string num(int v) { return std::to_string(v); }
std::string boolean(bool b) { return b ? "true" : "false"; }

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

template <typename T>
std::string array(const std::vector<T>& xs) {
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) out += (i ? "," : "") + num(xs[i]);
  return out + "]";
}

std::string array(const std::vector<std::string>& items) {  // pre-rendered JSON values
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + items[i];
  return out + "]";
}

class Obj {
 public:
  Obj& add(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------
// Spans: (name, start, end, parent, thread), kept in memory and written
// out at exit as Chrome trace-event JSON. A disabled tracer records
// nothing and reads no clock.

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int thread = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int begin(const char* name, int parent, int thread) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, monotonicNs(), 0, parent, thread});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    const int64_t t = monotonicNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = t;
  }

  std::string chromeTraceJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> events;
    events.reserve(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      events.push_back(Obj()
                           .add("name", quote(s.name))
                           .add("cat", quote(layer))
                           .add("ph", quote("X"))
                           .add("ts", num(static_cast<double>(s.start_ns) / 1e3))
                           .add("dur", num(static_cast<double>(s.end_ns - s.start_ns) / 1e3))
                           .add("pid", "1")
                           .add("tid", num(s.thread))
                           .add("args", Obj().add("id", num(i)).add("parent", num(s.parent)).str())
                           .str());
    }
    return Obj().add("traceEvents", array(events)).add("displayTimeUnit", quote("ms")).str();
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

std::atomic<int> g_next_thread{0};
thread_local int t_thread = -1;      // small per-thread id for the trace
thread_local int t_open_span = -1;   // innermost open span on this thread

/// RAII span. Its parent is the innermost span open on this thread, or
/// `fallback_parent` on a pool worker that has none open.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int fallback_parent = -1) : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    if (t_thread < 0) t_thread = g_next_thread++;
    saved_ = t_open_span;
    id_ = tracer_.begin(name, t_open_span >= 0 ? t_open_span : fallback_parent, t_thread);
    t_open_span = id_;
  }
  ~ScopedSpan() {
    if (id_ < 0) return;
    tracer_.end(id_);
    t_open_span = saved_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_ = -1;
  int saved_ = -1;
};

// ---------------------------------------------------------------------
// Workload plumbing.

struct Usage {
  int64_t utime_us = 0;
  int64_t stime_us = 0;
  int64_t maxrss_kib = 0;
};

Usage usageNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {int64_t{ru.ru_utime.tv_sec} * 1000000 + ru.ru_utime.tv_usec,
          int64_t{ru.ru_stime.tv_sec} * 1000000 + ru.ru_stime.tv_usec, int64_t{ru.ru_maxrss}};
}

std::string usageJson(const Usage& u) {
  return Obj()
      .add("utime_us", num(u.utime_us))
      .add("stime_us", num(u.stime_us))
      .add("maxrss_kib", num(u.maxrss_kib))
      .str();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  int64_t spawn_ns = 0;
  std::string out;
  std::string trace_out;
  int mc_samples = 24;
};

/// What a workload hands back: units, outputs and counters (JSON
/// objects), and the clock marks bracketing its timed body.
struct Report {
  size_t attempted = 0;
  size_t failed = 0;
  Obj outputs;
  Obj counters;
  int64_t body_start_ns = 0;
  int64_t body_end_ns = 0;
  Usage usage_start;
  Usage usage_end;
};

/// Brackets the timed body: clocks and resource usage at both ends.
template <typename Body>
void timedBody(Report& r, Tracer& tracer, Body&& body) {
  r.usage_start = usageNow();
  r.body_start_ns = monotonicNs();
  {
    ScopedSpan span(tracer, "bench.body");
    body();
  }
  r.body_end_ns = monotonicNs();
  r.usage_end = usageNow();
}

/// splitmix64: a portable, fully specified generator, so one seed gives
/// the same inputs with every standard library.
uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string metricsJson(const ShifterMetrics& m) {
  return Obj()
      .add("delay_rise", num(m.delay_rise))
      .add("delay_fall", num(m.delay_fall))
      .add("power_rise", num(m.power_rise))
      .add("power_fall", num(m.power_fall))
      .add("leakage_high", num(m.leakage_high))
      .add("leakage_low", num(m.leakage_low))
      .add("functional", boolean(m.functional))
      .str();
}

std::string simCountersJson(const std::vector<const Simulator*>& sims,
                            const std::vector<const TransientResult*>& runs, size_t devices) {
  SimPhaseTimes ph;
  size_t lu_fill = 0, symbolic = 0, numeric = 0, bbd_refactors = 0, bbd_skips = 0;
  size_t replays = 0, bypassed = 0, batched = 0;
  for (const Simulator* s : sims) {
    const SimPhaseTimes p = s->phaseTimes();
    ph.assembly_sec += p.assembly_sec;
    ph.model_eval_sec += p.model_eval_sec;
    ph.factor_sec += p.factor_sec;
    ph.solve_sec += p.solve_sec;
    if (const BbdLu* bbd = s->bbdSolver()) {
      lu_fill = std::max(lu_fill, bbd->fillCount());
      bbd_refactors += bbd->blockRefactors();
      bbd_skips += bbd->blockRefactorsSkipped();
    } else {
      lu_fill = std::max(lu_fill, s->flatLu().fillCount());
      symbolic += s->flatLu().symbolicFactorizations();
      numeric += s->flatLu().numericRefactorizations();
    }
    if (const ShardedAssembler* sa = s->shardedAssembler()) {
      replays += sa->replays();
      bypassed += sa->bypassedEvaluations();
      batched += sa->batchedEvaluations();
    }
  }
  size_t newton = 0, steps = 0, rejected = 0, events = 0, stages = 0;
  for (const TransientResult* tr : runs) {
    newton += tr->total_newton_iterations;
    steps += tr->steps();
    rejected += tr->rejected_steps;
    events += tr->recovery_events.size();
    for (const ConvergenceDiagnostics& d : tr->recovery_events) stages += d.stages.size();
  }
  return Obj()
      .add("newton_iters", num(newton))
      .add("steps", num(steps))
      .add("rejected_steps", num(rejected))
      .add("recovery_events", num(events))
      .add("recovery_stages", num(stages))
      .add("assembly_sec", num(ph.assembly_sec))
      .add("model_eval_sec", num(ph.model_eval_sec))
      .add("factor_sec", num(ph.factor_sec))
      .add("solve_sec", num(ph.solve_sec))
      .add("lu_fill", num(lu_fill))
      .add("symbolic_factorizations", num(symbolic))
      .add("numeric_refactorizations", num(numeric))
      .add("bbd_block_refactors", num(bbd_refactors))
      .add("bbd_block_skips", num(bbd_skips))
      .add("assembly_replays", num(replays))
      .add("bypassed_evals", num(bypassed))
      .add("batched_evals", num(batched))
      .add("devices", num(devices))
      .str();
}

/// Standalone SparseLu refactor and solve on the Jacobian assembled at
/// the converged solution `x` (traced runs only, after the body).
std::string luProbe(Tracer& tracer, Simulator& sim, Circuit& c, const std::vector<double>& x) {
  const EvalContext ctx = sim.contextFor(x, 0.0);
  MnaSystem sys(c.nodeCount(), c.assignBranchIndices());
  {
    ScopedSpan span(tracer, "circuit.assembleDirect");
    assembleDirect(sys, c, ctx);
  }
  SparseLu lu;
  lu.setOrdering(sim.options().lu_ordering);
  {
    ScopedSpan span(tracer, "numeric.factor");
    lu.factor(sys.matrix());
  }
  // Enough repetitions for about 20 ms of refactors on this matrix.
  int64_t t0 = monotonicNs();
  lu.refactor(sys.matrix());
  const int64_t one = std::max<int64_t>(monotonicNs() - t0, 1000);
  const int reps = static_cast<int>(std::clamp<int64_t>(20000000 / one, 5, 20000));
  double refactor_ns = 0.0, solve_ns = 0.0;
  {
    ScopedSpan span(tracer, "numeric.refactor");
    t0 = monotonicNs();
    for (int i = 0; i < reps; ++i) lu.refactor(sys.matrix());
    refactor_ns = static_cast<double>(monotonicNs() - t0) / reps;
  }
  double checksum = 0.0;
  {
    ScopedSpan span(tracer, "numeric.solve");
    t0 = monotonicNs();
    for (int i = 0; i < reps; ++i) checksum += lu.solve(sys.rhs())[0];
    solve_ns = static_cast<double>(monotonicNs() - t0) / reps;
  }
  return Obj()
      .add("refactor_us", num(refactor_ns / 1e3))
      .add("solve_us", num(solve_ns / 1e3))
      .add("reps", num(reps))
      .add("unknowns", num(lu.size()))
      .add("checksum", num(checksum))
      .str();
}

// ---------------------------------------------------------------------
// paper_tables: Tables 1-4 as the paper benches run them.

struct PaperCase {
  const char* key;
  ShifterKind kind;
  double vddi;
  double vddo;
};

constexpr PaperCase kPaperCases[] = {
    {"sstvs_l2h", ShifterKind::Sstvs, 0.8, 1.2},
    {"combined_l2h", ShifterKind::CombinedVs, 0.8, 1.2},
    {"sstvs_h2l", ShifterKind::Sstvs, 1.2, 0.8},
    {"combined_h2l", ShifterKind::CombinedVs, 1.2, 0.8},
};

HarnessConfig paperHarness(const PaperCase& pc) {
  HarnessConfig h;
  h.kind = pc.kind;
  h.vddi = pc.vddi;
  h.vddo = pc.vddo;
  return h;
}

Report runPaperTables(const Args& args, Tracer& tracer) {
  Report r;
  // Inputs: Table 3 (low -> high) draws from the seed, Table 4 from
  // seed + 1, as the paper benches pair 20080310 with 20080311.
  std::vector<HarnessConfig> harness;
  std::vector<MonteCarloConfig> mc;
  {
    ScopedSpan span(tracer, "bench.setup");
    for (const PaperCase& pc : kPaperCases) {
      harness.push_back(paperHarness(pc));
      MonteCarloConfig m;
      m.samples = args.mc_samples;
      m.seed = args.seed + (pc.vddi < pc.vddo ? 0 : 1);
      mc.push_back(m);
    }
  }

  std::vector<ShifterMetrics> worst(std::size(kPaperCases));
  std::vector<MonteCarloResult> mcr(std::size(kPaperCases));
  timedBody(r, tracer, [&] {
    for (size_t i = 0; i < std::size(kPaperCases); ++i) {  // Tables 1 and 2
      ScopedSpan span(tracer, "analysis.measureShifterWorstCase");
      worst[i] = measureShifterWorstCase(harness[i]);
    }
    for (size_t i = 0; i < std::size(kPaperCases); ++i) {  // Tables 3 and 4
      ScopedSpan span(tracer, "analysis.runMonteCarlo");
      mcr[i] = runMonteCarlo(harness[i], mc[i]);
    }
  });

  Obj wc, mco;
  size_t retried = 0, sim_errors = 0, nonfunctional = 0;
  for (size_t i = 0; i < std::size(kPaperCases); ++i) {
    wc.add(kPaperCases[i].key, metricsJson(worst[i]));
    const MonteCarloResult& m = mcr[i];
    const Summary s[6] = {m.delayRise(), m.delayFall(),   m.powerRise(),
                          m.powerFall(), m.leakageHigh(), m.leakageLow()};
    std::vector<double> mean, stddev;
    for (const Summary& x : s) {
      mean.push_back(x.mean);
      stddev.push_back(x.stddev);
    }
    std::vector<int> failed_ids = m.failedIds();
    mco.add(kPaperCases[i].key, Obj()
                                    .add("samples", num(m.samples))
                                    .add("mean", array(mean))
                                    .add("stddev", array(stddev))
                                    .add("failed_ids", array(failed_ids))
                                    .str());
    r.attempted += 1 + static_cast<size_t>(m.samples);
    r.failed += (worst[i].functional ? 0 : 1) + m.failed_samples.size();
    retried += static_cast<size_t>(m.retried_samples);
    sim_errors += static_cast<size_t>(m.simulation_errors);
    nonfunctional += static_cast<size_t>(m.functional_failures);
  }
  r.outputs.add("worst_case", wc.str()).add("monte_carlo", mco.str());
  r.counters.add("mc_retried", num(retried))
      .add("mc_sim_errors", num(sim_errors))
      .add("mc_nonfunctional", num(nonfunctional));

  if (tracer.enabled()) {
    // Nominal-testbench probe: the scalar Simulator on the SS-TVS
    // testbench with the harness's options, as measure() runs it.
    ScopedSpan probe(tracer, "bench.probe");
    std::unique_ptr<ShifterTestbench> tb;
    {
      ScopedSpan span(tracer, "cells.ShifterTestbench");
      tb = std::make_unique<ShifterTestbench>(harness[0]);
    }
    SimOptions opts = harness[0].sim;
    opts.temperature_c = harness[0].temperature_c;
    std::unique_ptr<Simulator> sim;
    {
      ScopedSpan span(tracer, "sim.Simulator");
      sim = std::make_unique<Simulator>(tb->circuit(), opts);
    }
    std::vector<double> x;
    {
      ScopedSpan span(tracer, "sim.solveOp");
      x = sim->solveOp();
    }
    std::unique_ptr<TransientResult> tr;
    {
      ScopedSpan span(tracer, "sim.transient");
      tr = std::make_unique<TransientResult>(
          sim->transient(tb->tStop(), harness[0].dt_max, harness[0].edge_time / 4.0));
    }
    r.counters.add("sim", simCountersJson({sim.get()}, {tr.get()},
                                          tb->circuit().devices().size()));
    r.counters.add("lu_probe", luProbe(tracer, *sim, tb->circuit(), x));
  }
  return r;
}

// ---------------------------------------------------------------------
// nldm_farm: the Liberty NLDM farm, request -> tables -> .lib.

std::vector<CharCorner> farmCorners() {
  std::vector<CharCorner> corners = standardCharCorners();  // tt and ss-hot sign-off pair
  // Two more low -> high corners, so the pool sees four tasks per worker.
  CharCorner ff;
  ff.name = "ff_0p88v_1p32v_m40c";
  ff.vddi = 0.88;
  ff.vddo = 1.32;
  ff.temperature_c = -40.0;
  ff.process = {"FF", -0.039, -0.039, +0.05, -0.05, -40.0, 1.0};
  corners.push_back(ff);
  CharCorner tt;
  tt.name = "tt_0p90v_1p10v_25c";
  tt.vddi = 0.9;
  tt.vddo = 1.1;
  corners.push_back(tt);
  return corners;
}

Report runNldmFarm(const Args& args, Tracer& tracer) {
  Report r;
  CharRequest req;
  {
    ScopedSpan span(tracer, "bench.setup");
    req.corners = farmCorners();
    // The seed shuffles the grid's evaluation order (Fisher-Yates).
    const size_t n = req.grid.slews.size() * req.grid.loads.size();
    req.grid.point_order.resize(n);
    for (size_t i = 0; i < n; ++i) req.grid.point_order[i] = i;
    uint64_t state = args.seed;
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(req.grid.point_order[i], req.grid.point_order[splitmix64(state) % (i + 1)]);
    }
  }

  std::vector<CharTable> tables;
  std::string lib;
  LibertyValidation valid;
  timedBody(r, tracer, [&] {
    if (!tracer.enabled()) {
      ScopedSpan span(tracer, "analysis.characterizeCells");
      tables = characterizeCells(req);
    } else {
      // The traced run makes characterizeCells' own fan-out (one
      // characterizeCell task per (kind, corner), chunk 1) so that
      // every task gets a span on the worker that ran it.
      const size_t nc = req.corners.size();
      tables.resize(req.kinds.size() * nc);
      ScopedSpan region(tracer, "base.parallelForChunked");
      const int parent = region.id();
      parallelForChunked(
          tables.size(),
          [&](size_t t) {
            ScopedSpan span(tracer, "analysis.characterizeCell", parent);
            CharCellControl control;
            control.max_retries = req.max_retries;
            tables[t] = characterizeCell(req.kinds[t / nc], req.corners[t % nc], req.grid,
                                         req.base, control);
          },
          ParallelOptions{0, 1, nullptr});
    }
    std::vector<LibertyCellData> cells;
    {
      ScopedSpan span(tracer, "io.libertyCellsFromCharacterization");
      cells = libertyCellsFromCharacterization(tables);
    }
    {
      ScopedSpan span(tracer, "io.writeLiberty");
      lib = writeLiberty(LibertyLibrarySpec{}, cells);
    }
    {
      ScopedSpan span(tracer, "io.validateLiberty");
      valid = validateLiberty(lib);
    }
  });

  std::vector<std::string> tjson;
  size_t fallbacks = 0, retried = 0, holes = 0;
  for (const CharTable& t : tables) {
    std::vector<std::string> points;
    for (const CharPoint& p : t.points) {
      points.push_back(array(std::vector<double>{p.slew, p.load, p.delay_rise, p.delay_fall,
                                                 p.trans_rise, p.trans_fall, p.energy_rise,
                                                 p.energy_fall, p.ok ? 1.0 : 0.0}));
    }
    tjson.push_back(Obj()
                        .add("kind", quote(shifterKindName(t.kind)))
                        .add("corner", quote(t.corner.name))
                        .add("points", array(points))
                        .str());
    // A point that simulated but missed a rail (ok == false) is a
    // measured property of the cell; only holes are failed units.
    r.attempted += t.points.size();
    r.failed += t.failures.size();
    fallbacks += t.scalar_fallbacks;
    retried += t.retried_points;
    holes += t.failures.size();
  }
  r.outputs.add("tables", array(tjson))
      .add("liberty", Obj()
                          .add("ok", boolean(valid.ok()))
                          .add("cells", num(valid.cell_count))
                          .add("tables", num(valid.table_count))
                          .add("bytes", num(lib.size()))
                          .add("summary", quote(valid.summary()))
                          .str());
  r.counters.add("char_scalar_fallbacks", num(fallbacks))
      .add("char_retried_points", num(retried))
      .add("char_holes", num(holes));
  return r;
}

// ---------------------------------------------------------------------
// fabric_chain: a 50-island chain, bootstrap -> OP -> 0.7 ns transient.
// Fixed inputs: the seed does not enter this workload.

Report runFabricChain(const Args&, Tracer& tracer) {
  Report r;
  FabricSpec spec;
  spec.islands = 50;
  spec.input_pulse.delay = 0.2e-9;  // the edge enters the chain early in the window
  const double t_stop = 0.7e-9;
  const double dt_max = 10e-12;

  Circuit c;
  FabricHandles fab;
  {
    ScopedSpan span(tracer, "bench.setup");
    ScopedSpan build(tracer, "cells.buildFabric");
    fab = buildFabric(c, spec);
  }

  std::unique_ptr<Simulator> op_sim, tr_sim;
  std::vector<double> x;
  std::unique_ptr<TransientResult> tr;
  std::vector<std::string> crossings;
  std::vector<double> final_v;
  size_t failed_units = 0;
  timedBody(r, tracer, [&] {
    SimOptions opt;
    {
      ScopedSpan span(tracer, "analysis.fabricDcGuess");
      opt.nodeset = std::make_shared<const std::vector<double>>(fabricDcGuess(c, spec));
    }
    // The fabric preset plus the patient pseudo-transient rung deep
    // shifter cascades need.
    opt.recovery.ptran_max_steps = 2000;
    opt.recovery.ptran_grow = 2.0;
    applyFabricSolverOptions(opt, fab);
    {
      ScopedSpan span(tracer, "sim.Simulator");
      op_sim = std::make_unique<Simulator>(c, opt);
    }
    try {
      ScopedSpan span(tracer, "sim.solveOp");
      x = op_sim->solveOp();
    } catch (const Error& e) {
      std::cerr << "fabric_chain: operating point failed: " << e.what() << "\n";
      failed_units += 2;  // no transient without an operating point
      return;
    }
    SimOptions warm = opt;
    warm.nodeset = std::make_shared<const std::vector<double>>(x);
    {
      ScopedSpan span(tracer, "sim.Simulator");
      tr_sim = std::make_unique<Simulator>(c, warm);
    }
    try {
      ScopedSpan span(tracer, "sim.transient");
      tr = std::make_unique<TransientResult>(tr_sim->transient(t_stop, dt_max));
    } catch (const Error& e) {
      std::cerr << "fabric_chain: transient failed: " << e.what() << "\n";
      failed_units += 1;
      return;
    }
    ScopedSpan span(tracer, "analysis.crossTimes");
    for (size_t k = 0; k < fab.islands.size(); ++k) {
      const FabricIsland& isl = fab.islands[k];
      const Signal s = tr->node(c.nodeName(isl.out));
      for (const CrossDir dir : {CrossDir::Rising, CrossDir::Falling}) {
        for (const double t : crossTimes(s, 0.5 * isl.supply, dir)) {
          crossings.push_back(Obj()
                                  .add("island", num(k))
                                  .add("rising", boolean(dir == CrossDir::Rising))
                                  .add("t", num(t))
                                  .str());
        }
      }
      final_v.push_back(s.value.back());
    }
  });

  r.attempted = 2;
  r.failed = failed_units;
  r.outputs.add("devices", num(c.devices().size()))
      .add("unknowns", num(x.size()))
      .add("crossings", array(crossings))
      .add("final_v", array(final_v))
      .add("steps", num(tr ? tr->steps() : 0))
      .add("newton_iters", num(tr ? tr->total_newton_iterations : 0))
      .add("partition", quote(op_sim ? op_sim->partitionDecision() : ""));
  if (tr) {
    r.counters.add("sim", simCountersJson({op_sim.get(), tr_sim.get()}, {tr.get()},
                                          c.devices().size()));
    if (tracer.enabled()) {
      ScopedSpan probe(tracer, "bench.probe");
      r.counters.add("lu_probe", luProbe(tracer, *op_sim, c, x));
    }
  }
  return r;
}

// ---------------------------------------------------------------------

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--spawn-ns") a.spawn_ns = std::stoll(val);
    else if (key == "--out") a.out = val;
    else if (key == "--trace-out") a.trace_out = val;
    else if (key == "--mc-samples") a.mc_samples = std::stoi(val);
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.out.empty()) throw std::invalid_argument("--out is required");
  if (a.trace && a.trace_out.empty()) throw std::invalid_argument("--trace 1 needs --trace-out");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    Tracer tracer(args.trace);
    Report r;
    if (args.workload == "paper_tables") {
      r = runPaperTables(args, tracer);
    } else if (args.workload == "nldm_farm") {
      r = runNldmFarm(args, tracer);
    } else if (args.workload == "fabric_chain") {
      r = runFabricChain(args, tracer);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    const Usage exit_usage = usageNow();
    const std::string json = Obj()
                                 .add("workload", quote(args.workload))
                                 .add("seed", std::to_string(args.seed))
                                 .add("threads", num(parallelThreadCount()))
                                 .add("spawn_ns", num(args.spawn_ns))
                                 .add("body_start_ns", num(r.body_start_ns))
                                 .add("body_end_ns", num(r.body_end_ns))
                                 .add("usage_start", usageJson(r.usage_start))
                                 .add("usage_end", usageJson(r.usage_end))
                                 .add("usage_exit", usageJson(exit_usage))
                                 .add("attempted", num(r.attempted))
                                 .add("failed", num(r.failed))
                                 .add("outputs", r.outputs.str())
                                 .add("counters", r.counters.str())
                                 .str();
    std::ofstream(args.out) << json << "\n";
    if (args.trace) std::ofstream(args.trace_out) << tracer.chromeTraceJson() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
}
