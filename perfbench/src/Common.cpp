//===- Common.cpp - Result line, statistics, draw, oracle, spans ----------===//
//
// Part of the LGen reproduction benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "Blacs.h"
#include "ll/Parser.h"
#include "support/Support.h"
#include "verify/Ulp.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <sys/resource.h>

using namespace lgen;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::set(const std::string &Name, double Value,
                 const std::string &Unit) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Metrics[Name] = Metric{Value, Unit};
}

void Result::attempt(uint64_t N) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Attempted += N;
}

void Result::fail(const std::string &Why) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (++Failed <= 5)
    std::fprintf(stderr, "perfbench: FAIL: %s\n", Why.c_str());
}

namespace {

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

std::string Result::json(const std::vector<std::string> &Order) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ostringstream OS;
  OS << "{\"correct\": " << (Failed == 0 && Attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  bool First = true;
  for (const std::string &Name : Order) {
    auto It = Metrics.find(Name);
    if (It == Metrics.end())
      continue;
    OS << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": "
       << jsonNumber(It->second.Value) << ", \"unit\": \"" << It->second.Unit
       << "\"}";
    First = false;
  }
  OS << "}}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Idx = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Idx);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Idx - static_cast<double>(Lo));
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

std::vector<double> PerBlac::values() const {
  std::vector<double> Out;
  for (const std::vector<double> &V : Samples)
    if (!V.empty())
      Out.push_back(percentile(V, ItemPercentile));
  return Out;
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / static_cast<double>(V.size());
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // Linux reports KiB.
}

//===----------------------------------------------------------------------===//
// The seeded draw
//===----------------------------------------------------------------------===//

namespace {

/// The Fig. 5 Atom sweeps the draw samples, by name.
std::string sweepSource(const std::string &Sweep, int64_t N) {
  using namespace lgen::bench::blacs;
  static const std::map<std::string, std::function<std::string(int64_t)>>
      Sweeps = {
          {"mvm(4,n)", [](int64_t X) { return mvm(4, X); }},
          {"mvm(n,n)", [](int64_t X) { return mvm(X, X); }},
          {"axpy(n)", [](int64_t X) { return axpy(X); }},
          {"gemv(n,4)", [](int64_t X) { return gemv(X, 4); }},
          {"gemv(30,n)", [](int64_t X) { return gemv(30, X); }},
          {"bilinear(4,n)", [](int64_t X) { return bilinear(4, X); }},
          {"bilinear(n,4)", [](int64_t X) { return bilinear(X, 4); }},
          {"bilinear(n,n)", [](int64_t X) { return bilinear(X, X); }},
          {"mmm(4,4,n)", [](int64_t X) { return mmm(4, 4, X); }},
          {"mmm(n,4,4)", [](int64_t X) { return mmm(X, 4, 4); }},
          {"mmm(n,n,n)", [](int64_t X) { return mmm(X, X, X); }},
          {"gemm(4,4,n)", [](int64_t X) { return gemm(4, 4, X); }},
          {"gemm(n,4,4)", [](int64_t X) { return gemm(X, 4, 4); }},
          {"gemm(30,n,30)", [](int64_t X) { return gemm(30, X, 30); }},
          {"twoMvm(4,n)", [](int64_t X) { return twoMvm(4, X); }},
          {"twoMvm(n,4)", [](int64_t X) { return twoMvm(X, 4); }},
          {"addTransGemm(n,4,n)",
           [](int64_t X) { return addTransGemm(X, 4, X); }},
      };
  return Sweeps.at(Sweep)(N);
}

struct Point {
  const char *Sweep;
  int64_t N;
  /// Cold LGen-Full compile at the commit that added the benchmark, ms:
  /// what the strata are ordered and matched by.
  double SeedCostMs;
};

/// The population: points of the Fig. 5 Atom sweeps (§5.1.1 families, all
/// eight represented) whose LGen-Full compile took at most ~1 s at the
/// commit that added the benchmark, thinned to ~4 s of cold compiling per
/// pass. Points are grouped into strata, ordered by that cold time; a
/// stratum of two holds "twins" whose cold time, warm time, emitted C
/// size, model f/c and flop count all matched within 30%. The seed picks
/// one twin of each pair and the compile order, so every seed draws a
/// different set with the same cost profile — which is what keeps
/// percentiles over ~35 BLACs comparable from seed to seed.
const std::vector<std::vector<Point>> &strata() {
  static const std::vector<std::vector<Point>> S = {
      {{"mvm(n,n)", 2, 1}},
      {{"axpy(n)", 32, 2}},
      {{"bilinear(4,n)", 4, 3}},
      {{"mvm(4,n)", 8, 3}},
      {{"mvm(4,n)", 12, 6}},
      {{"bilinear(4,n)", 8, 6}, {"gemv(n,4)", 8, 6}},
      {{"bilinear(4,n)", 6, 10}},
      {{"twoMvm(4,n)", 4, 12}},
      {{"twoMvm(4,n)", 2, 15}},
      {{"mmm(4,4,n)", 32, 18}},
      {{"mvm(n,n)", 8, 20}},
      {{"bilinear(n,n)", 6, 21}},
      {{"bilinear(4,n)", 16, 25}},
      {{"bilinear(n,4)", 256, 29}},
      {{"gemm(n,4,4)", 32, 32}},
      {{"gemv(n,4)", 16, 33}, {"bilinear(n,4)", 16, 26}},
      {{"gemv(30,n)", 8, 40}},
      {{"mmm(4,4,n)", 8, 46}},
      {{"bilinear(4,n)", 24, 52}, {"mmm(n,4,4)", 8, 49}},
      {{"gemm(4,4,n)", 8, 55}},
      {{"mmm(n,4,4)", 64, 63}},
      {{"bilinear(4,n)", 97, 69}, {"bilinear(4,n)", 99, 76}},
      {{"twoMvm(n,4)", 256, 74}},
      {{"gemv(30,n)", 16, 84}},
      {{"mvm(4,n)", 64, 94}},
      {{"twoMvm(n,4)", 128, 109}},
      {{"twoMvm(n,4)", 8, 130}},
      {{"gemm(30,n,30)", 2, 160}},
      {{"mvm(4,n)", 96, 167}, {"mvm(4,n)", 100, 163}},
      {{"twoMvm(4,n)", 6, 201}},
      {{"mvm(4,n)", 97, 285}, {"mvm(4,n)", 99, 304}},
      {{"gemm(4,4,n)", 32, 323}},
      {{"gemm(30,n,30)", 4, 382}},
      {{"addTransGemm(n,4,n)", 8, 599}},
      {{"mmm(n,n,n)", 10, 977}},
  };
  return S;
}

Blac makeBlac(const Point &P, unsigned Stratum = 0) {
  Blac B;
  B.Stratum = Stratum;
  B.Name = std::string(P.Sweep) + " n=" + std::to_string(P.N);
  B.Source = sweepSource(P.Sweep, P.N);
  return B;
}

} // namespace

std::vector<Blac> drawBlacs(uint64_t Seed) {
  Rng R(0xd7a3ULL ^ (Seed * 0x9e3779b97f4a7c15ULL));
  std::vector<Blac> Draw;
  for (unsigned I = 0; I != strata().size(); ++I) {
    const std::vector<Point> &S = strata()[I];
    Draw.push_back(makeBlac(S[R.nextBelow(S.size())], I));
  }
  // Fisher-Yates with the same stream: the compile order is seeded too.
  for (size_t I = Draw.size(); I > 1; --I)
    std::swap(Draw[I - 1], Draw[R.nextBelow(I)]);
  return Draw;
}

std::vector<Blac> servingSlice(const std::vector<Blac> &Draw) {
  std::vector<Blac> Out;
  for (const Blac &B : Draw)
    if (B.Stratum < 15) // seed-commit cold cost up to ~30 ms
      Out.push_back(B);
  return Out;
}

std::vector<Blac> neverSeenBlacs(uint64_t Seed, size_t N) {
  // Tall MMM panels n×4·4×4, never in the draw: the heights in [40, 250]
  // whose LGen-Full compile took 12–40 ms at the commit that added the
  // benchmark. Other heights cost 7–100 ms, and gemv/gemm panels of the
  // same heights up to 1.4 s; drawing from a wide range would make every
  // run's cold median and hit tail depend on its draw.
  static const int64_t Heights[] = {
      41,  46,  47,  54,  55,  65,  69,  70,  71,  73,  74,  75,  78,  79,
      81,  82,  83,  89,  90,  91,  92,  93,  94,  95,  100, 104, 105, 106,
      107, 108, 109, 110, 111, 112, 113, 114, 115, 116, 117, 118, 119, 120,
      125, 126, 127, 129, 130, 131, 132, 133, 134, 135, 137, 138, 139, 144,
      145, 146, 147, 150, 151, 153, 154, 155, 157, 158, 159, 160, 165, 166,
      167, 168, 169, 170, 171, 173, 174, 175, 176, 177, 178, 179, 180, 181,
      182, 183, 185, 186, 187, 189, 190, 191, 192, 196, 197, 198, 199, 200,
      201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211, 213, 214, 215,
      216, 217, 218, 219, 220, 221, 222, 223, 224, 225, 226, 227, 228, 229,
      230, 231, 232, 233, 234, 235, 236, 237, 238, 239, 240, 241, 242, 243,
      245, 246, 247, 248, 249, 250};
  std::vector<Point> Pool;
  for (int64_t X : Heights)
    Pool.push_back({"mmm(n,4,4)", X, 0});
  Rng R(0x5ee1ULL ^ (Seed * 0x9e3779b97f4a7c15ULL));
  for (size_t I = Pool.size(); I > 1; --I)
    std::swap(Pool[I - 1], Pool[R.nextBelow(I)]);
  std::vector<Blac> Out;
  for (size_t I = 0; I != std::min(N, Pool.size()); ++I)
    Out.push_back(makeBlac(Pool[I]));
  return Out;
}

compiler::Options benchOptions(const std::string &Config) {
  compiler::Options O =
      compiler::Options::named(Config, machine::UArch::Atom).valueOrDie();
  O.SearchSamples = 10;
  O.TunerThreads = 1;
  return O;
}

//===----------------------------------------------------------------------===//
// Output oracle
//===----------------------------------------------------------------------===//

Case makeCase(const std::string &Source, uint64_t Seed, unsigned Nu) {
  Case C;
  std::string Err;
  if (!ll::parseProgram(Source, C.P, Err))
    reportFatalError("benchmark BLAC does not parse: " + Err);
  Rng R(Seed * 0x2545f4914f6cdd1dULL + Source.size());
  for (const ll::Operand &O : C.P.Operands) {
    ll::MatrixValue V(O.Rows, O.Cols);
    ll::fillRandom(V, R);
    ll::conformToStructure(V, O.Struct);
    C.In[O.Name] = V;
    C.Misaligned.push_back(Nu > 1 ? 1 + static_cast<unsigned>(
                                            R.nextBelow(Nu - 1))
                                  : 0);
  }
  C.Expected = ll::evaluateProgram(C.P, C.In);
  return C;
}

std::vector<machine::Buffer> makeBuffers(const Case &C, bool Misaligned) {
  std::vector<machine::Buffer> Bufs;
  for (size_t I = 0; I != C.P.Operands.size(); ++I) {
    const ll::Operand &O = C.P.Operands[I];
    Bufs.emplace_back(static_cast<size_t>(O.numElements()), 0.0f,
                      Misaligned ? C.Misaligned[I] : 0);
    Bufs.back().Data = C.In.at(O.Name).Data;
  }
  return Bufs;
}

bool checkOutputs(const Case &C, const std::vector<machine::Buffer> &Bufs,
                  std::string &Why) {
  for (size_t I = 0; I != C.P.Operands.size(); ++I) {
    const ll::Operand &O = C.P.Operands[I];
    if (O.Name != C.P.outputName())
      continue;
    ll::MatrixValue Actual(O.Rows, O.Cols);
    Actual.Data.assign(Bufs[I].Data.begin(),
                       Bufs[I].Data.begin() + O.numElements());
    verify::UlpReport Rep =
        verify::compareValues(C.Expected.at(O.Name), Actual);
    if (verify::toleranceFor(C.P).accepts(Rep))
      return true;
    std::ostringstream OS;
    OS << "output " << O.Name << "[" << Rep.WorstIndex << "] = " << Rep.Actual
       << ", reference " << Rep.Expected << " (" << Rep.MaxUlps << " ulps)";
    Why = OS.str();
    return false;
  }
  Why = "no output operand";
  return false;
}

Checksum referenceChecksum(const ll::Program &P) {
  // CompileQueue's run:true recipe: Rng(0x5eed) over the operands in
  // declaration order, values (next % 1000) / 250 - 2, then the sum of
  // every buffer after one execution.
  Rng R(0x5eed);
  ll::Bindings In;
  for (const ll::Operand &O : P.Operands) {
    ll::MatrixValue V(O.Rows, O.Cols);
    for (float &X : V.Data)
      X = static_cast<float>(R.next() % 1000) / 250.0f - 2.0f;
    In[O.Name] = V;
  }
  ll::Bindings Out = ll::evaluateProgram(P, In);
  verify::Tolerance Tol = verify::toleranceFor(P);
  Checksum C;
  for (const ll::Operand &O : P.Operands) {
    const ll::MatrixValue &V = Out.at(O.Name);
    for (float X : V.Data) {
      C.Value += X;
      if (O.Name == P.outputName())
        C.Tolerance += std::max<double>(
            Tol.AbsFloor, static_cast<double>(Tol.MaxUlps) *
                              std::ldexp(std::fabs(X), -23));
    }
  }
  C.Tolerance += 1e-6 * std::fabs(C.Value);
  return C;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
thread_local int64_t CurrentParent = -1;
const Clock::time_point Epoch = Clock::now();

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Epoch)
          .count());
}
} // namespace

Spans::Scope::Scope(Spans *S, const char *Name, uint64_t Id)
    : S(S), SavedParent(CurrentParent) {
  Index = S->open(Name, Id, CurrentParent);
  CurrentParent = Index;
  Start = Clock::now();
}

Spans::Scope::~Scope() {
  S->close(Index);
  CurrentParent = SavedParent;
}

double Spans::Scope::ns() const { return nsSince(Start); }

int64_t Spans::open(const char *Name, uint64_t Id, int64_t Parent) {
  std::lock_guard<std::mutex> Lock(Mutex);
  All.push_back(Span{Name, nowNs(), 0, Parent, Id});
  return static_cast<int64_t>(All.size()) - 1;
}

void Spans::close(int64_t Index) {
  uint64_t End = nowNs();
  std::lock_guard<std::mutex> Lock(Mutex);
  All[static_cast<size_t>(Index)].EndNs = End;
}

double Spans::totalNs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  double Sum = 0;
  for (const Span &Sp : All)
    if (Sp.Name == Name)
      Sum += static_cast<double>(Sp.EndNs - Sp.StartNs);
  return Sum;
}

std::map<std::string, double> Spans::selfMsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Children of one span never overlap (spans nest per thread), so the
  // covered part is the sum of the children's durations.
  std::vector<double> ChildNs(All.size(), 0);
  for (const Span &Sp : All)
    if (Sp.Parent >= 0)
      ChildNs[static_cast<size_t>(Sp.Parent)] +=
          static_cast<double>(Sp.EndNs - Sp.StartNs);
  std::map<std::string, double> Self;
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &Sp = All[I];
    std::string Layer = Sp.Name.substr(0, Sp.Name.find('.'));
    Self[Layer] += (static_cast<double>(Sp.EndNs - Sp.StartNs) - ChildNs[I]) /
                   1e6;
  }
  return Self;
}

bool Spans::write(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  Out << "{\"version\": 1, \"spans\": [\n";
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &Sp = All[I];
    Out << "{\"name\": \"" << Sp.Name << "\", \"start_ns\": " << Sp.StartNs
        << ", \"end_ns\": " << Sp.EndNs << ", \"parent\": " << Sp.Parent
        << ", \"id\": " << Sp.Id << "}" << (I + 1 == All.size() ? "" : ",")
        << "\n";
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

} // namespace perfbench
