//===- CompileCold.cpp - compile-cold workload ----------------------------===//
//
// Part of the LGen reproduction benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every BLAC of the seeded draw compiles under Atom/LGen-Full (the CLI
/// defaults: SearchSamples=10, one tuner thread), one at a time, into a
/// fresh in-memory cache; a second compile() of the same BLAC is the warm
/// hit. Passes over the draw repeat until the run's time is up. The first
/// pass checks every kernel against the reference evaluator on aligned and
/// misaligned bases; later passes check that compiling is deterministic.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/CUnparser.h"
#include "compiler/KernelCache.h"

#include <cmath>

using namespace lgen;

namespace perfbench {

namespace {

/// Interprets \p CK over \p C's inputs; false with \p Why on a wrong
/// output.
bool runAndCheck(const compiler::CompiledKernel &CK, const Case &C,
                 bool Misaligned, std::string &Why) {
  std::vector<machine::Buffer> Bufs = makeBuffers(C, Misaligned);
  std::vector<machine::Buffer *> Ptrs;
  for (machine::Buffer &B : Bufs)
    Ptrs.push_back(&B);
  CK.execute(Ptrs);
  if (checkOutputs(C, Bufs, Why))
    return true;
  Why = (Misaligned ? "misaligned " : "aligned ") + C.P.str() + ": " + Why;
  return false;
}

} // namespace

int runCompileCold(const Args &A, Result &R, Spans *S) {
  compiler::Options Opts = benchOptions("LGen-Full");
  const machine::Microarch &M = machine::Microarch::get(Opts.Target);
  std::vector<Blac> Draw = drawBlacs(A.Seed);

  // Set-up: parse the draw, seed its inputs, evaluate the reference
  // outputs. It takes well under a millisecond, so it runs again before
  // every compile of the run and setup_s is the median. Spread over the
  // run, the set-ups see a host slowdown for part of it in the same share
  // as the compiles do.
  std::vector<double> SetupS;
  auto setUp = [&] {
    Clock::time_point T0 = Clock::now();
    std::vector<Case> Out;
    for (const Blac &B : Draw)
      Out.push_back(makeCase(B.Source, A.Seed, Opts.effectiveNu()));
    SetupS.push_back(secondsSince(T0));
    return Out;
  };
  std::vector<Case> Cases = setUp();

  if (S) {
    ReplayStats St;
    for (size_t I = 0; I != Cases.size(); ++I) {
      R.attempt();
      replayCompile(Cases[I], Opts, I, *S, St, R);
    }
    reportReplay(St, R);
    // The replayed stages plus the remainder make up Compiler::compile; a
    // remainder beyond a quarter of it means the replay lost (or double
    // counted) a stage.
    double Stages = St.AutotuneMs + St.GenerateCoreMs + St.VersioningMs +
                    St.FinalizeMs;
    double Other = St.CompileMs - Stages;
    std::printf("compile-cold traced: compile %.1f ms = autotune %.1f + "
                "generate-core %.1f + versioning %.1f + finalize %.1f + "
                "other %.1f (per BLAC)\n",
                St.CompileMs / St.Compiles, St.AutotuneMs / St.Compiles,
                St.GenerateCoreMs / St.Compiles, St.VersioningMs / St.Compiles,
                St.FinalizeMs / St.Compiles, Other / St.Compiles);
    if (std::fabs(Other) > 0.25 * St.CompileMs)
      R.fail("replayed stages do not add up to Compiler::compile");
    return 0;
  }

  PerBlac ColdMs, WarmUs, ColdRtMs, WarmRtMs;
  std::vector<double> Fpc;
  double ColdRtSeconds = 0;
  size_t ColdRuns = 0;
  std::vector<double> FirstCycles(Draw.size(), 0);
  double EmittedBytes = 0;
  unsigned Passes = 0;
  Clock::time_point Start = Clock::now();
  for (; Passes == 0 || secondsSince(Start) < A.Seconds; ++Passes) {
    for (size_t I = 0; I != Draw.size(); ++I) {
      setUp();
      const Case &C = Cases[I];
      R.attempt();
      compiler::Compiler Comp(Opts);
      Comp.setKernelCache(std::make_shared<compiler::KernelCache>("", 256));
      std::string Why;

      // Cold: compile, time, run once — what a cold run:true request does.
      Clock::time_point T0 = Clock::now();
      compiler::CompiledKernel CK = Comp.compile(C.P);
      double Cold = msSince(T0);
      double Cycles = CK.time(M).Cycles;
      bool Ok = runAndCheck(CK, C, false, Why);
      ColdMs.add(I, Cold);
      ColdRtMs.add(I, msSince(T0));
      ColdRtSeconds += secondsSince(T0);
      ++ColdRuns;

      // Warm: the same BLAC again, a cache hit.
      Clock::time_point T1 = Clock::now();
      compiler::CompiledKernel Warm = Comp.compile(C.P);
      double WarmHit = usSince(T1);
      double WarmCycles = Warm.time(M).Cycles;
      Ok = runAndCheck(Warm, C, false, Why) && Ok;
      WarmUs.add(I, WarmHit);
      WarmRtMs.add(I, msSince(T1));

      if (Passes == 0) {
        Ok = Ok && runAndCheck(CK, C, true, Why);
        FirstCycles[I] = Cycles;
        Fpc.push_back(CK.Flops / Cycles);
        EmittedBytes += static_cast<double>(codegen::unparseCompiled(CK).size());
      } else if (Cycles != FirstCycles[I]) {
        Ok = false;
        Why = "nondeterministic compile of " + Draw[I].Name;
      }
      if (Ok && WarmCycles != Cycles) {
        Ok = false;
        Why = "warm hit of " + Draw[I].Name + " differs from its cold compile";
      }
      if (!Ok)
        R.fail(Why);
    }
  }

  R.set("setup_s", median(SetupS), "s");
  R.set("compile_cold_ms.p50", median(ColdMs.values()), "ms");
  R.set("compile_cold_ms.p90", percentile(ColdMs.values(), 90), "ms");
  R.set("compile_warm_us.p50", median(WarmUs.values()), "us");
  R.set("model_fpc.geomean", geomean(Fpc), "flops/cycle");
  R.set("emitted_c_kb", EmittedBytes / 1024.0, "KiB");
  R.set("warm_rt_ms.p50", median(WarmRtMs.values()), "ms");
  R.set("throughput_rps", static_cast<double>(ColdRuns) / ColdRtSeconds,
        "1/s");
  R.set("cold_rt_ms.p50", median(ColdRtMs.values()), "ms");
  std::printf("compile-cold: %zu BLACs x %u passes in %.2f s\n", Draw.size(),
              Passes, secondsSince(Start));
  return 0;
}

} // namespace perfbench
