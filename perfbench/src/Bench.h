//===- Bench.h - Shared pieces of the repository benchmark -----*- C++ -*-===//
//
// Part of the LGen reproduction benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: command-line options, the
/// result line, statistics, the seeded BLAC draw, the output oracle, and
/// the span recorder of traced runs. Each workload lives in its own .cpp
/// and reports through \c Result.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "compiler/Compiler.h"
#include "ll/Reference.h"
#include "machine/Executor.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}
inline double msSince(Clock::time_point T0) { return secondsSince(T0) * 1e3; }
inline double usSince(Clock::time_point T0) { return secondsSince(T0) * 1e6; }
inline double nsSince(Clock::time_point T0) { return secondsSince(T0) * 1e9; }

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// serve-mixed: open-loop arrival rate (requests per second).
  double MixedRate = 50;
  /// Print the seeded draw and exit (the self-tests compare draws).
  bool PrintDraw = false;
};

//===----------------------------------------------------------------------===//
// Result line
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one run reports: the correctness tally and the metrics. A failure
/// is a wrong output, an HTTP error, a lost job, or a request still refused
/// after retries; each one is counted and the first few are described on
/// stderr.
class Result {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  bool has(const std::string &Name) const { return Metrics.count(Name); }

  void attempt(uint64_t N = 1);
  void fail(const std::string &Why);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// The last line of stdout: {"correct", "attempted", "failed",
  /// "metrics"}, metrics in \p Order.
  std::string json(const std::vector<std::string> &Order) const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated percentile (\p P in [0, 100]); 0 for no samples.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}
double geomean(const std::vector<double> &V);

/// The percentile of one BLAC's (or kernel's) repeated timings in a run
/// that the benchmark reports as its time. On a core shared with other
/// tenants, every compile and kernel call ran 1.5-1.8x slower for
/// stretches of a run. The share of the run spent like that, not the code,
/// set each median: a cold compile median moved by 40% between runs of the
/// same code. The 10th percentile is the uncontended time, and it moved by
/// 2-4%.
constexpr double ItemPercentile = 10;

/// Timings kept per BLAC (or kernel) over a run's repetitions; a BLAC's
/// time is the ItemPercentile of its samples, and percentiles are taken
/// across BLACs, so every BLAC of the draw weighs the same however many
/// passes the run completed.
class PerBlac {
public:
  void add(size_t I, double V) {
    if (I >= Samples.size())
      Samples.resize(I + 1);
    Samples[I].push_back(V);
  }
  /// One value per BLAC: the ItemPercentile of its samples.
  std::vector<double> values() const;

private:
  std::vector<std::vector<double>> Samples;
};
double mean(const std::vector<double> &V);

/// Peak resident set size of this process so far.
double peakRssMb();

//===----------------------------------------------------------------------===//
// The seeded draw
//===----------------------------------------------------------------------===//

/// One BLAC of the draw: a Fig. 5 sweep point, e.g. "gemv(n,4) n=64".
struct Blac {
  std::string Name;
  std::string Source;
  /// Index of the stratum it was drawn from (strata are ordered by cold
  /// LGen-Full compile time at the commit that introduced the benchmark);
  /// slices of the draw are cut by stratum, so twins fall on the same side.
  unsigned Stratum = 0;
};

/// The compile-cold draw for \p Seed, in compile order.
std::vector<Blac> drawBlacs(uint64_t Seed);
/// The part of the draw cheap enough to precompile during set-up: the
/// serve-* working set (strata up to ~30 ms).
std::vector<Blac> servingSlice(const std::vector<Blac> &Draw);
/// Never-seen BLACs for the serve workloads' cold requests: \p N distinct
/// LGen-Full BLACs outside the draw, in seeded order.
std::vector<Blac> neverSeenBlacs(uint64_t Seed, size_t N);

/// Atom with the named configuration ("LGen" or "LGen-Full"), searched
/// with SearchSamples=10 on one tuner thread: the CLI defaults.
lgen::compiler::Options benchOptions(const std::string &Config);

//===----------------------------------------------------------------------===//
// Output oracle
//===----------------------------------------------------------------------===//

/// Inputs and reference outputs for one BLAC, from ll::evaluateProgram.
struct Case {
  lgen::ll::Program P;
  lgen::ll::Bindings In;
  lgen::ll::Bindings Expected;
  /// Per-operand misaligned base offsets (1..ν-1 elements), seeded.
  std::vector<unsigned> Misaligned;
};

/// Parses \p Source and prepares seeded inputs and reference outputs.
Case makeCase(const std::string &Source, uint64_t Seed, unsigned Nu);

/// One buffer per operand of \p C.P holding the inputs; \p Misaligned
/// places every base at the case's misaligned offsets.
std::vector<lgen::machine::Buffer> makeBuffers(const Case &C, bool Misaligned);

/// Compares the output operand in \p Bufs with the reference under the
/// verify::Ulp tolerance; false with \p Why on a mismatch.
bool checkOutputs(const Case &C, const std::vector<lgen::machine::Buffer> &Bufs,
                  std::string &Why);

/// The checksum a `run:true` compile request returns, recomputed from the
/// service's deterministic input recipe with the reference evaluator, and
/// the tolerance a correct kernel stays within.
struct Checksum {
  double Value = 0;
  double Tolerance = 0;
};
Checksum referenceChecksum(const lgen::ll::Program &P);

//===----------------------------------------------------------------------===//
// Spans (traced runs)
//===----------------------------------------------------------------------===//

/// In-memory span recorder of a traced run: name, start, end, parent, and
/// one id per BLAC or request. Spans are opened around calls into each
/// module's public functions from the benchmark's own code; the layer of
/// a span is its name up to the first '.'. Thread-safe.
class Spans {
public:
  struct Span {
    std::string Name;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    int64_t Parent = -1;
    uint64_t Id = 0;
  };

  /// RAII span; nests under the innermost open span of the same thread.
  class Scope {
  public:
    Scope(Spans *S, const char *Name, uint64_t Id);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /// Duration so far (the whole span once closed).
    double ns() const;

  private:
    Spans *S;
    int64_t Index = -1;
    int64_t SavedParent = -1;
    Clock::time_point Start;
  };

  /// Total duration of spans named \p Name, ns.
  double totalNs(const std::string &Name) const;
  /// Self time per layer: each span's duration minus the part its children
  /// cover, summed by layer, ms.
  std::map<std::string, double> selfMsByLayer() const;
  /// Writes every span as JSON; false when the file cannot be written.
  bool write(const std::string &Path) const;

private:
  int64_t open(const char *Name, uint64_t Id, int64_t Parent);
  void close(int64_t Index);

  mutable std::mutex Mutex;
  std::vector<Span> All;
};

/// A span when \p S is non-null; null (and free) when tracing is off.
inline std::unique_ptr<Spans::Scope> span(Spans *S, const char *Name,
                                          uint64_t Id) {
  return S ? std::make_unique<Spans::Scope>(S, Name, Id) : nullptr;
}

//===----------------------------------------------------------------------===//
// Compile replay (traced compile-cold and the traced set-ups)
//===----------------------------------------------------------------------===//

/// Per-stage totals of replaying Compiler::compile stage by stage.
struct ReplayStats {
  unsigned Compiles = 0;
  double CompileMs = 0;  ///< Untraced Compiler::compile, same BLACs.
  double AutotuneMs = 0;
  double GenerateCoreMs = 0;
  double VersioningMs = 0; ///< makeAlignmentVersions + finalize of each.
  double FinalizeMs = 0;   ///< Finalize outside versioning (plain kernels).
  double MemmapMs = 0;
  double ScheduleMs = 0;
  double ReplayMs = 0; ///< Root replay spans.
  double ParseUs = 0;
  double TimingUs = 0;
  double ExecuteUs = 0;
  double UnparseUs = 0;
  double FingerprintNs = 0;
  double LookupNs = 0;
  double CloneUs = 0;
  double WarmCompileUs = 0;
  uint64_t ScheduleCalls = 0;
  uint64_t Versions = 0;
  uint64_t DistinctVersions = 0;
  uint64_t Finalized = 0;
  uint64_t Overflowing = 0;
  double PlansEvaluated = 0;
  double PlansPruned = 0;
  uint64_t Mismatches = 0;
};

/// Compiles \p C.P with Compiler::compile (fresh in-memory cache), then
/// replays choosePlan → generateCore → makeAlignmentVersions →
/// finalizeKernel's steps one by one under spans, and checks the replica
/// emits byte-identical C and equal model cycles. Adds into \p Stats;
/// mismatches are reported through \p R.
void replayCompile(const Case &C, const lgen::compiler::Options &Opts,
                   uint64_t Id, Spans &S, ReplayStats &Stats, Result &R);

/// Adds the compile-layer per-layer metrics of \p Stats to \p R.
void reportReplay(const ReplayStats &Stats, Result &R);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Each returns a process exit code.
int runCompileCold(const Args &A, Result &R, Spans *S);
int runServe(const Args &A, bool Mixed, Result &R, Spans *S);

/// Per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();
/// End-to-end metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
