//===- Replay.cpp - Stage-by-stage replay of Compiler::compile ------------===//
//
// Part of the LGen reproduction benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced compile: Compiler::compile is a black box to the benchmark,
/// so the traced run replays it from the public stage functions —
/// choosePlan, generateCore, makeAlignmentVersions, and finalizeKernel's
/// own steps (isa::lowerGenericMemOps, cir::cleanup,
/// machine::scheduleKernel, Kernel::verify) — with a span around each. The
/// replica must emit byte-identical C and model the same cycles as the
/// real compile, so the stage times describe what Compiler::compile does.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cir/Passes.h"
#include "codegen/CUnparser.h"
#include "compiler/KernelCache.h"
#include "isa/MemMapLowering.h"
#include "ll/Parser.h"
#include "machine/Scheduler.h"
#include "sched/Pressure.h"
#include "support/Metrics.h"

#include <set>

using namespace lgen;

namespace perfbench {

namespace {

uint64_t counterValue(const char *Name) {
  return support::Metrics::global().counter(Name).value();
}

struct FinalizeOut {
  double MemmapNs = 0;
  double ScheduleNs = 0;
  uint64_t Calls = 0;
};

/// finalizeKernel's steps (Compiler.cpp), one span each. Fault injection
/// is private to Compiler and not replayed: traced runs compile without
/// it.
void finalize(cir::Kernel &K, const compiler::Options &Opts,
              const machine::Microarch &M, uint64_t Id, Spans &S,
              FinalizeOut &Out) {
  auto Fin = span(&S, "compiler.finalize", Id);
  {
    auto Sp = span(&S, "isa.memmap", Id);
    isa::lowerGenericMemOps(K);
    Out.MemmapNs += Sp->ns();
  }
  {
    auto Sp = span(&S, "cir.cleanup", Id);
    cir::cleanup(K);
  }
  {
    auto Sp = span(&S, "machine.schedule", Id);
    machine::scheduleKernel(K, M, Opts.ScheduleMode);
    Out.ScheduleNs += Sp->ns();
  }
  ++Out.Calls;
  {
    auto Sp = span(&S, "cir.verify", Id);
    K.verify();
  }
}

} // namespace

void replayCompile(const Case &C, const compiler::Options &Opts, uint64_t Id,
                   Spans &S, ReplayStats &St, Result &R) {
  const machine::Microarch &M = machine::Microarch::get(Opts.Target);
  std::string Source = C.P.str();

  // The real thing, untraced, into a fresh in-memory cache.
  auto Cache = std::make_shared<compiler::KernelCache>("", 256);
  compiler::Compiler Real(Opts);
  Real.setKernelCache(Cache);
  Clock::time_point T0 = Clock::now();
  compiler::CompiledKernel CK = Real.compile(C.P);
  St.CompileMs += msSince(T0);
  ++St.Compiles;

  {
    auto Sp = span(&S, "ll.parse", Id);
    ll::Program P;
    std::string Err;
    ll::parseProgram(Source, P, Err);
    St.ParseUs += Sp->ns() / 1e3;
  }

  // The replay. Its own compiler has no cache: choosePlan never consults
  // one, and the stages below are what compile() runs on a miss.
  compiler::Compiler Replay(Opts);
  compiler::CompiledKernel Replica;
  FinalizeOut Fin;
  cir::Kernel ProbeCore;
  {
    auto Root = span(&S, "compiler.compile", Id);
    tiling::TilingPlan Plan;
    {
      uint64_t Eval0 = counterValue("autotuner.plans.evaluated");
      uint64_t Pruned0 = counterValue("autotuner.pressure.pruned");
      auto Sp = span(&S, "compiler.autotune", Id);
      Plan = compiler::choosePlan(Replay, C.P);
      St.AutotuneMs += Sp->ns() / 1e6;
      St.PlansEvaluated +=
          static_cast<double>(counterValue("autotuner.plans.evaluated") - Eval0);
      St.PlansPruned +=
          static_cast<double>(counterValue("autotuner.pressure.pruned") - Pruned0);
    }
    Replica.Blac = C.P.clone();
    Replica.Opts = Opts;
    Replica.Flops = ll::flopCount(C.P);
    cir::Kernel Core;
    {
      auto Sp = span(&S, "compiler.generate_core", Id);
      Core = Replay.generateCore(C.P, Plan);
      St.GenerateCoreMs += Sp->ns() / 1e6;
    }
    ProbeCore = Core.clone();
    unsigned Nu = Opts.effectiveNu();
    if (Opts.AlignmentDetection && Nu > 1) {
      auto Sp = span(&S, "absint.versioning", Id);
      {
        auto Mk = span(&S, "absint.make_versions", Id);
        Replica.Versioned =
            absint::makeAlignmentVersions(Core, Nu, Opts.MaxAlignCombos);
      }
      for (cir::Kernel &V : Replica.Versioned.Versions)
        finalize(V, Opts, M, Id, S, Fin);
      finalize(Replica.Versioned.Fallback, Opts, M, Id, S, Fin);
      Replica.HasVersions = true;
      Replica.DispatchOverheadCycles =
          2.0 + 2.0 * Replica.Versioned.VersionedArrays.size();
      St.VersioningMs += Sp->ns() / 1e6;
    } else {
      auto Sp = span(&S, "compiler.finalize_plain", Id);
      Replica.Plain = std::move(Core);
      finalize(Replica.Plain, Opts, M, Id, S, Fin);
      St.FinalizeMs += Sp->ns() / 1e6;
    }
    St.ReplayMs += Root->ns() / 1e6;
  }
  St.MemmapMs += Fin.MemmapNs / 1e6;
  St.ScheduleMs += Fin.ScheduleNs / 1e6;
  St.ScheduleCalls += Fin.Calls;

  // Replica check: byte-identical C and equal model cycles.
  std::string RealC, ReplicaC;
  {
    auto Sp = span(&S, "codegen.unparse", Id);
    RealC = codegen::unparseCompiled(CK);
    St.UnparseUs += Sp->ns() / 1e3;
  }
  ReplicaC = codegen::unparseCompiled(Replica);
  double RealCycles = 0;
  {
    auto Sp = span(&S, "machine.timing", Id);
    RealCycles = CK.time(M).Cycles;
    St.TimingUs += Sp->ns() / 1e3;
  }
  if (RealC != ReplicaC || RealCycles != Replica.time(M).Cycles) {
    ++St.Mismatches;
    R.fail("replica of " + C.P.str() +
           " differs from Compiler::compile (C or model cycles)");
  }

  // Distinct finalized bodies among the versions, and the overflow probe:
  // would the latency schedule of each finalized kernel exceed the vector
  // register file (the case the pressure pass exists for)?
  isa::ISAKind ISA = Opts.effectiveNu() == 1 ? isa::ISAKind::Scalar : Opts.ISA;
  if (Replica.HasVersions) {
    std::set<std::string> Bodies;
    for (const cir::Kernel &V : Replica.Versioned.Versions)
      Bodies.insert(codegen::unparseKernel(V, ISA));
    St.Versions += Replica.Versioned.Versions.size();
    St.DistinctVersions += Bodies.size();
  }
  std::vector<cir::Kernel> Probe;
  if (Replica.HasVersions) {
    absint::VersionedKernel VK = absint::makeAlignmentVersions(
        ProbeCore, Opts.effectiveNu(), Opts.MaxAlignCombos);
    Probe = std::move(VK.Versions);
    Probe.push_back(std::move(VK.Fallback));
  } else {
    Probe.push_back(std::move(ProbeCore));
  }
  for (cir::Kernel &K : Probe) {
    isa::lowerGenericMemOps(K);
    cir::cleanup(K);
    machine::scheduleKernel(K, M, machine::SchedMode::Latency);
    if (sched::estimatePressure(K, M).spills())
      ++St.Overflowing;
    ++St.Finalized;
  }

  {
    std::vector<machine::Buffer> Bufs = makeBuffers(C, false);
    std::vector<machine::Buffer *> Ptrs;
    for (machine::Buffer &B : Bufs)
      Ptrs.push_back(&B);
    auto Sp = span(&S, "machine.execute", Id);
    CK.execute(Ptrs);
    St.ExecuteUs += Sp->ns() / 1e3;
  }

  // The warm path, piece by piece: fingerprint + lookup, then the clone a
  // hit returns, then the whole warm compile().
  std::shared_ptr<const compiler::CompiledKernel> Hit;
  uint64_t Key = 0;
  {
    auto Sp = span(&S, "compiler.fingerprint", Id);
    Key = compiler::KernelCache::fingerprint(Source, Opts);
    St.FingerprintNs += Sp->ns();
  }
  {
    auto Sp = span(&S, "compiler.lookup", Id);
    Hit = Cache->lookupKernel(Key);
    St.LookupNs += Sp->ns();
  }
  if (Hit) {
    auto Sp = span(&S, "compiler.clone", Id);
    compiler::CompiledKernel Copy = Hit->clone();
    St.CloneUs += Sp->ns() / 1e3;
  } else {
    R.fail("no cache entry after compiling " + Source);
  }
  {
    auto Sp = span(&S, "compiler.warm_compile", Id);
    compiler::CompiledKernel Warm = Real.compile(C.P);
    St.WarmCompileUs += Sp->ns() / 1e3;
  }
}

void reportReplay(const ReplayStats &St, Result &R) {
  double N = St.Compiles ? static_cast<double>(St.Compiles) : 1.0;
  double Stages = St.AutotuneMs + St.GenerateCoreMs + St.VersioningMs +
                  St.FinalizeMs;
  R.set("ll.parse_us", St.ParseUs / N, "us");
  R.set("compiler.compile_ms", St.CompileMs / N, "ms");
  R.set("compiler.autotune_ms", St.AutotuneMs / N, "ms");
  R.set("compiler.plans_evaluated", St.PlansEvaluated / N, "count");
  R.set("compiler.plans_pruned", St.PlansPruned / N, "count");
  R.set("compiler.generate_core_ms", St.GenerateCoreMs / N, "ms");
  R.set("absint.versioning_ms", St.VersioningMs / N, "ms");
  R.set("compiler.finalize_plain_ms", St.FinalizeMs / N, "ms");
  R.set("compiler.other_ms", (St.CompileMs - Stages) / N, "ms");
  R.set("absint.versions", static_cast<double>(St.Versions), "count");
  R.set("absint.distinct_share",
        St.Versions ? static_cast<double>(St.DistinctVersions) /
                          static_cast<double>(St.Versions)
                    : 0,
        "ratio");
  R.set("isa.memmap_ms", St.MemmapMs / N, "ms");
  R.set("machine.schedule_ms", St.ScheduleMs / N, "ms");
  R.set("machine.schedule.calls", static_cast<double>(St.ScheduleCalls) / N,
        "count");
  R.set("sched.overflow_share",
        St.Finalized ? static_cast<double>(St.Overflowing) /
                           static_cast<double>(St.Finalized)
                     : 0,
        "ratio");
  R.set("machine.timing_us", St.TimingUs / N, "us");
  R.set("machine.execute_us", St.ExecuteUs / N, "us");
  R.set("codegen.unparse_us", St.UnparseUs / N, "us");
  R.set("compiler.fingerprint_ns", St.FingerprintNs / N, "ns");
  R.set("compiler.warm_lookup_ns", (St.FingerprintNs + St.LookupNs) / N, "ns");
  R.set("compiler.clone_us", St.CloneUs / N, "us");
  R.set("compiler.warm_compile_us", St.WarmCompileUs / N, "us");
  R.set("trace.overhead_share",
        St.CompileMs > 0 ? St.ReplayMs / St.CompileMs - 1.0 : 0, "ratio");
}

} // namespace perfbench
