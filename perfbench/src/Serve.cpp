//===- Serve.cpp - serve-warm and serve-mixed workloads -------------------===//
//
// Part of the LGen reproduction benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Both service workloads drive an in-process service::Service over
/// loopback HTTP with `compile.submit` (run:true) followed by
/// `compile.result` polls until FINISHED.
///
///  * serve-warm: a closed loop of keep-alive clients (at most 4, one per
///    core) over a working set precompiled during set-up, so every request
///    is a cache hit.
///  * serve-mixed: an open loop at a fixed rate. ~1 in 10 requests is a
///    never-seen LGen-Full BLAC sharing the hits' batch key; each request
///    is timed from when it was due.
///
/// Every result is checked: the checksum against the reference evaluator
/// run on the service's input recipe, the model cycles against the cached
/// kernel's own timing.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/CUnparser.h"
#include "compiler/KernelCache.h"
#include "runtime/CpuInfo.h"
#include "runtime/NativeKernel.h"
#include "runtime/ToolchainDriver.h"
#include "service/Http.h"
#include "service/Service.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Support.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>

using namespace lgen;

namespace perfbench {

namespace {

/// One kernel the service can be asked for: a BLAC under a configuration,
/// with what a correct run:true result must contain.
struct Entry {
  std::string Config;
  std::string Source;
  Checksum Expect;
  double Cycles = 0;
  bool Cold = false; ///< serve-mixed's never-seen BLACs.
};

json::Value envelope(const std::string &Method, json::Value Params,
                     const std::string &Session) {
  json::Object E;
  E["v"] = static_cast<int64_t>(1);
  E["method"] = Method;
  E["session"] = Session;
  E["params"] = std::move(Params);
  return json::Value(std::move(E));
}

/// Polling policy of every client: a warm job finishes within a few polls,
/// so polls go back to back for the first 0.5 ms; after that the client
/// sleeps between polls, 50 µs doubling up to 1 ms, so clients waiting on
/// real compiles do not flood the connection workers with polls and
/// starve the compile workers of cores.
constexpr double EagerPollMs = 0.5;
constexpr unsigned MaxPolls = 200000;

/// What one compile request came back with.
struct Outcome {
  bool Ok = false;
  std::string Why;
  json::Value Result; ///< The FINISHED job's "result" object.
  std::string TraceId;
  unsigned Polls = 0;
};

/// A keep-alive client connection with its own session.
class Client {
public:
  Client(uint16_t Port, std::string Session)
      : Port(Port), Session(std::move(Session)) {}

  /// One RPC; retries once over a fresh connection on transport failure.
  bool call(const json::Value &Env, json::Value &Out, int &Status,
            std::string &Why, Spans *S, uint64_t Id) {
    for (int Attempt = 0; Attempt != 2; ++Attempt) {
      std::string Err;
      if (!H.connected() && !H.connect("127.0.0.1", Port, Err)) {
        Why = "connect: " + Err;
        continue;
      }
      std::string Body;
      {
        auto Js = span(S, "support.json", Id);
        Body = Env.serialize();
      }
      service::HttpResponse Resp;
      bool Sent;
      {
        auto Sp = span(S, "service.http_rt", Id);
        Sent = H.request("POST", "/rpc", Body, Resp, Err);
      }
      if (!Sent) {
        Why = "transport: " + Err;
        continue;
      }
      Status = Resp.Status;
      auto Js = span(S, "support.json", Id);
      std::string PErr;
      if (!json::parse(Resp.Body, Out, PErr)) {
        Why = "unparsable response: " + PErr;
        return false;
      }
      return true;
    }
    return false;
  }

  /// submit (retrying 429s) + polls until FINISHED.
  Outcome compile(const Entry &E, Spans *S, uint64_t Id) {
    auto Root = span(S, "bench.request", Id);
    Outcome O;
    json::Object P;
    P["source"] = E.Source;
    P["target"] = "atom";
    P["config"] = E.Config;
    P["searchSamples"] = static_cast<int64_t>(10);
    P["run"] = true;
    json::Value Submit = envelope("compile.submit", json::Value(P), Session);
    std::string JobId;
    for (int Attempt = 0;; ++Attempt) {
      json::Value V;
      int Status = 0;
      if (!call(Submit, V, Status, O.Why, S, Id))
        return O;
      if (Status == 429 && Attempt < 100) {
        ++Rejected;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (Status != 200) {
        O.Why = "submit: HTTP " + std::to_string(Status) + " " + V.serialize();
        return O;
      }
      JobId = V["result"].getString("jobID");
      O.TraceId = V.getString("traceId");
      break;
    }
    json::Object Q;
    Q["jobID"] = JobId;
    json::Value Poll = envelope("compile.result", json::Value(Q), Session);
    Clock::time_point Submitted = Clock::now();
    int64_t BackoffUs = 50;
    while (O.Polls < MaxPolls) {
      if (msSince(Submitted) > EagerPollMs) {
        std::this_thread::sleep_for(std::chrono::microseconds(BackoffUs));
        BackoffUs = std::min<int64_t>(1000, BackoffUs * 2);
      }
      ++O.Polls;
      json::Value V;
      int Status = 0;
      if (!call(Poll, V, Status, O.Why, S, Id))
        return O;
      if (Status != 200) {
        O.Why = "poll: HTTP " + std::to_string(Status);
        return O;
      }
      std::string State = V["result"].getString("jobState");
      if (State == "FINISHED") {
        O.Result = V["result"]["result"];
        O.Ok = true;
        LastPoll = Poll;
        return O;
      }
      if (State == "NOT_FOUND") {
        O.Why = "job " + JobId + " lost";
        return O;
      }
    }
    O.Why = "job " + JobId + " never finished";
    return O;
  }

  /// The last poll envelope of a finished job (traced runs replay it).
  const json::Value &lastPoll() const { return LastPoll; }
  uint64_t rejected() const { return Rejected; }

private:
  uint16_t Port;
  std::string Session;
  service::HttpClient H;
  json::Value LastPoll;
  uint64_t Rejected = 0;
};

/// Checks a FINISHED result against \p E; false with \p Why on a mismatch.
bool checkResult(const Entry &E, const Outcome &O, std::string &Why) {
  if (!O.Ok) {
    Why = O.Why;
    return false;
  }
  if (O.Result.isObject() && !O.Result["error"].isNull()) {
    Why = "compile error: " + O.Result["error"].serialize();
    return false;
  }
  double Sum = O.Result.getNumber("checksum", NAN);
  if (!(std::fabs(Sum - E.Expect.Value) <= E.Expect.Tolerance)) {
    Why = "checksum " + std::to_string(Sum) + ", reference " +
          std::to_string(E.Expect.Value) + " for " + E.Config + " " + E.Source;
    return false;
  }
  if (E.Cycles > 0 && O.Result.getNumber("cycles") != E.Cycles) {
    Why = "model cycles differ from the cached kernel's for " + E.Source;
    return false;
  }
  return true;
}

/// A never-seen LGen-Full BLAC and the checksum its run:true result must
/// carry.
Entry coldEntry(const std::string &Source) {
  Entry E;
  E.Config = "LGen-Full";
  E.Source = Source;
  E.Cold = true;
  E.Expect = referenceChecksum(makeCase(Source, 1, 1).P);
  return E;
}

/// GET /metrics as parsed JSON (empty object on failure).
json::Value scrapeMetrics(uint16_t Port) {
  service::HttpClient H;
  std::string Err;
  service::HttpResponse Resp;
  json::Value V;
  if (H.connect("127.0.0.1", Port, Err) &&
      H.request("GET", "/metrics", "", Resp, Err) && Resp.Status == 200)
    json::parse(Resp.Body, V, Err);
  return V;
}

double histSum(const json::Value &M, const std::string &Name) {
  return M["histograms"][Name].getNumber("sum");
}
double histCount(const json::Value &M, const std::string &Name) {
  return M["histograms"][Name].getNumber("count");
}
double counterOf(const json::Value &M, const std::string &Name) {
  return M["counters"].getNumber(Name);
}

/// Everything set-up produced: the running service and the working set.
struct Setup {
  std::unique_ptr<service::Service> Svc;
  std::vector<Entry> Working;
  std::vector<Case> FullCases; ///< The LGen-Full working set (replay input).
  PerBlac ColdMs, WarmUs;
  /// serve-warm: round trips of never-seen BLACs sent between segments.
  std::vector<double> ColdRtMs;
  std::vector<double> Fpc;
  double EmittedBytes = 0;
  /// One compiler per configuration sharing the service's cache.
  std::map<std::string, std::unique_ptr<compiler::Compiler>> Compilers;
};

/// Starts a service and warms its cache with the working set: the
/// LGen-Full kernels in process, through a Compiler configured exactly like
/// the one the queue builds for that batch key and sharing its cache; the
/// LGen kernels through the front door, as cold HTTP round trips.
bool setUp(const std::vector<Blac> &Slice, uint64_t Seed, Setup &Out,
           Result &R) {
  service::ServiceConfig Cfg;
  Out.Svc = std::make_unique<service::Service>(Cfg);
  std::string Err;
  if (!Out.Svc->start(Err)) {
    std::fprintf(stderr, "perfbench: cannot start service: %s\n",
                 Err.c_str());
    return false;
  }
  const machine::Microarch &M = machine::Microarch::get(machine::UArch::Atom);
  compiler::Compiler Full(benchOptions("LGen-Full"));
  Full.setKernelCache(Out.Svc->queue().sharedCache());
  unsigned Nu = Full.options().effectiveNu();
  for (size_t I = 0; I != Slice.size(); ++I) {
    Case C = makeCase(Slice[I].Source, Seed, Nu);
    Clock::time_point T0 = Clock::now();
    compiler::CompiledKernel CK = Full.compile(C.P);
    Out.ColdMs.add(I, msSince(T0));
    Entry E;
    E.Config = "LGen-Full";
    E.Source = Slice[I].Source;
    E.Expect = referenceChecksum(C.P);
    E.Cycles = CK.time(M).Cycles;
    Out.Working.push_back(E);
    Out.FullCases.push_back(std::move(C));
  }
  Client Door(Out.Svc->port(), "setup");
  for (size_t I = 0; I != Slice.size(); ++I) {
    Entry E;
    E.Config = "LGen";
    E.Source = Slice[I].Source;
    E.Expect = referenceChecksum(makeCase(E.Source, Seed, 1).P);
    Outcome O = Door.compile(E, nullptr, 0);
    R.attempt();
    std::string Why;
    if (!checkResult(E, O, Why))
      R.fail("set-up: " + Why);
    E.Cycles = O.Result.getNumber("cycles");
    Out.Working.push_back(E);
  }
  return true;
}

/// Reads the working set back from the service's cache: its deterministic
/// facts (model f/c, emitted C).
void describeWorkingSet(Setup &Su, uint64_t Seed) {
  const machine::Microarch &M = machine::Microarch::get(machine::UArch::Atom);
  for (const Entry &E : Su.Working) {
    auto &C = Su.Compilers[E.Config];
    if (!C) {
      C = std::make_unique<compiler::Compiler>(benchOptions(E.Config));
      C->setKernelCache(Su.Svc->queue().sharedCache());
    }
    Case Cs = makeCase(E.Source, Seed, 1);
    std::shared_ptr<const compiler::CompiledKernel> CK =
        C->lookupCached(Cs.P);
    if (!CK)
      continue;
    Su.Fpc.push_back(CK->flopsPerCycle(M));
    Su.EmittedBytes +=
        static_cast<double>(codegen::unparseCompiled(*CK).size());
  }
}

/// One round of the in-process measurements of the LGen-Full working set:
/// warm compile() hits against the service's cache and one cold compile
/// into a fresh cache per kernel. Rounds run
/// between segments of the traffic, so these samples span the whole run
/// like the traffic's own. serve-warm, whose traffic is all hits, also
/// sends \p Cold never-seen BLACs from \p Fresh through the front door.
void sampleWorkingSet(Setup &Su, const std::vector<Blac> &Fresh,
                      size_t &NextFresh, unsigned Cold, Result &R) {
  Client Door(Su.Svc->port(), "cold");
  for (unsigned I = 0; I != Cold && NextFresh != Fresh.size(); ++I) {
    Entry E = coldEntry(Fresh[NextFresh++].Source);
    Clock::time_point T0 = Clock::now();
    Outcome O = Door.compile(E, nullptr, 0);
    double Ms = msSince(T0);
    R.attempt();
    std::string Why;
    if (checkResult(E, O, Why))
      Su.ColdRtMs.push_back(Ms);
    else
      R.fail(Why);
  }
  for (size_t I = 0; I != Su.FullCases.size(); ++I) {
    compiler::Compiler &Warm = *Su.Compilers.at("LGen-Full");
    for (int Rep = 0; Rep != 6; ++Rep) {
      Clock::time_point T0 = Clock::now();
      compiler::CompiledKernel Hit = Warm.compile(Su.FullCases[I].P);
      Su.WarmUs.add(I, usSince(T0));
    }
    compiler::Compiler Cold(benchOptions("LGen-Full"));
    Cold.setKernelCache(std::make_shared<compiler::KernelCache>("", 256));
    Clock::time_point T0 = Clock::now();
    Cold.compile(Su.FullCases[I].P);
    Su.ColdMs.add(I, msSince(T0));
  }
}

/// Traced serve runs: the runtime layer on the three LGen-Full working-set
/// kernels with the least emitted C (the host C compiler takes seconds for
/// the larger ones). The first NativeKernel::acquire builds the shared
/// object (runtime.toolchain_ms); a second one into a fresh cache finds it
/// in the toolchain's in-process cache, as a restarted service in the same
/// process would (runtime.socache.hit_ratio). Then, per call: ArgPack
/// marshalling, the entry call, and acquire + execute on the cache hit, the
/// warm path production does not take yet. Each native kernel's output is
/// checked on aligned and misaligned bases. A host without a C compiler or
/// SSSE3 leaves these metrics at 0.
void measureNative(Setup &Su, Result &R) {
  if (!runtime::ToolchainDriver::host().available() ||
      !runtime::CpuInfo::host().supports(isa::ISAKind::SSSE3)) {
    std::fprintf(stderr, "perfbench: native runtime not measured: no C "
                         "compiler or no SSSE3 on this host\n");
    return;
  }
  compiler::Compiler Full(benchOptions("LGen-Full"));
  Full.setKernelCache(Su.Svc->queue().sharedCache());
  compiler::KernelCache *Cache = Full.kernelCache();
  struct Candidate {
    size_t Bytes;
    const Case *C;
    std::shared_ptr<const compiler::CompiledKernel> CK;
  };
  std::vector<Candidate> Cands;
  for (const Case &C : Su.FullCases)
    if (auto CK = Full.lookupCached(C.P))
      Cands.push_back({codegen::unparseCompiled(*CK).size(), &C, CK});
  std::sort(Cands.begin(), Cands.end(),
            [](const Candidate &A, const Candidate &B) {
              return A.Bytes < B.Bytes;
            });
  Cands.resize(std::min<size_t>(3, Cands.size()));

  uint64_t Hit0 = support::metricCounter("runtime.socache.hit").value();
  uint64_t Miss0 = support::metricCounter("runtime.socache.miss").value();
  std::vector<double> LoadMs, MarshalNs, EntryNs, DispatchNs;
  double Direct = 0, Params = 0;
  for (const Candidate &Cand : Cands) {
    const Case &C = *Cand.C;
    const std::shared_ptr<const compiler::CompiledKernel> &CK = Cand.CK;
    uint64_t Key =
        compiler::KernelCache::fingerprint(C.P.str(), Full.options());
    Clock::time_point T0 = Clock::now();
    auto NK = runtime::NativeKernel::acquire(Cache, Key, *CK);
    LoadMs.push_back(msSince(T0));
    R.attempt();
    if (!NK) {
      R.fail("cannot load " + C.P.str() + ": " + NK.error());
      continue;
    }
    compiler::KernelCache Restarted("", 256);
    if (!runtime::NativeKernel::acquire(&Restarted, Key, *CK))
      R.fail("cannot reload " + C.P.str());
    for (bool Misaligned : {false, true}) {
      std::vector<machine::Buffer> Bufs = makeBuffers(C, Misaligned);
      std::vector<machine::Buffer *> Ptrs;
      for (machine::Buffer &B : Bufs)
        Ptrs.push_back(&B);
      (*NK)->execute(Ptrs);
      std::string Why;
      R.attempt();
      if (!checkOutputs(C, Bufs, Why))
        R.fail(std::string("native ") +
               (Misaligned ? "misaligned " : "aligned ") + C.P.str() + ": " +
               Why);
    }
    std::vector<machine::Buffer> Bufs = makeBuffers(C, false);
    std::vector<machine::Buffer *> Ptrs;
    for (machine::Buffer &B : Bufs)
      Ptrs.push_back(&B);
    std::vector<double> M, E, D;
    for (int Rep = 0; Rep != 200; ++Rep) {
      Clock::time_point T1 = Clock::now();
      runtime::ArgPack Pack(**NK, Ptrs, runtime::Marshal::ZeroCopy);
      M.push_back(nsSince(T1));
      Clock::time_point T2 = Clock::now();
      (*NK)->entry()(Pack.argv());
      E.push_back(nsSince(T2));
      if (Rep == 0) {
        Direct += static_cast<double>(Pack.numDirect());
        Params += static_cast<double>(Ptrs.size());
      }
      Clock::time_point T3 = Clock::now();
      auto Hit = runtime::NativeKernel::acquire(Cache, Key, *CK);
      (*Hit)->execute(Ptrs);
      D.push_back(nsSince(T3));
    }
    MarshalNs.push_back(median(M));
    EntryNs.push_back(median(E));
    DispatchNs.push_back(median(D));
  }
  if (DispatchNs.empty())
    return;
  uint64_t Hits = support::metricCounter("runtime.socache.hit").value() - Hit0;
  uint64_t Misses =
      support::metricCounter("runtime.socache.miss").value() - Miss0;
  R.set("runtime.toolchain_ms", mean(LoadMs), "ms");
  R.set("runtime.socache.hit_ratio",
        Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0,
        "ratio");
  R.set("runtime.marshal_ns", geomean(MarshalNs), "ns");
  R.set("runtime.entry_ns", geomean(EntryNs), "ns");
  R.set("runtime.dispatch_native_ns", geomean(DispatchNs), "ns");
  R.set("runtime.zerocopy_share", Params > 0 ? Direct / Params : 0, "ratio");
}

struct LoopStats {
  std::vector<double> WarmMs, ColdMs, LagMs;
  uint64_t Completed = 0;
  uint64_t Polls = 0;
  uint64_t Rejected = 0;
  uint64_t ColdFailed = 0; ///< serve-mixed's never-seen BLACs that failed.
  double Seconds = 0;
  std::set<std::string> WarmTraces, ColdTraces;
  std::mutex Mutex;
};

/// serve-warm: closed loop until \p Seconds elapse.
void closedLoop(Setup &Su, unsigned Clients, double Seconds, uint64_t Seed,
                Result &R, Spans *S, LoopStats &LS) {
  std::atomic<uint64_t> NextId{1};
  Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned Cl = 0; Cl != Clients; ++Cl)
    Threads.emplace_back([&, Cl] {
      Client C(Su.Svc->port(), "warm" + std::to_string(Cl));
      Rng Pick(Seed * 7919 + Cl);
      std::vector<double> Ms;
      uint64_t Polls = 0;
      while (secondsSince(Start) < Seconds) {
        const Entry &E = Su.Working[Pick.nextBelow(Su.Working.size())];
        uint64_t Id = NextId++;
        Clock::time_point T0 = Clock::now();
        Outcome O = C.compile(E, S, Id);
        double Rt = msSince(T0);
        R.attempt();
        std::string Why;
        if (!checkResult(E, O, Why)) {
          R.fail(Why);
          continue;
        }
        Ms.push_back(Rt);
        Polls += O.Polls;
      }
      std::lock_guard<std::mutex> Lock(LS.Mutex);
      LS.WarmMs.insert(LS.WarmMs.end(), Ms.begin(), Ms.end());
      LS.Completed += Ms.size();
      LS.Polls += Polls;
      LS.Rejected += C.rejected();
    });
  for (std::thread &T : Threads)
    T.join();
  LS.Seconds += secondsSince(Start);
}

/// serve-mixed: open loop at \p Rate requests/s for \p Seconds, taking
/// never-seen BLACs from \p Fresh starting at \p NextFresh.
void openLoop(Setup &Su, double Rate, double Seconds, uint64_t Seed,
              const std::vector<Blac> &Fresh, size_t &NextFresh, Result &R,
              Spans *S, LoopStats &LS) {
  size_t N = static_cast<size_t>(Rate * Seconds);
  // The schedule, drawn up front: one never-seen BLAC at a seeded slot of
  // every ten requests, warm hits elsewhere. Spreading the cold compiles
  // evenly keeps the hit tail comparable between runs.
  Rng Pick(Seed * 104729 + 17);
  std::vector<Entry> Plan;
  size_t ColdSlot = 0;
  for (size_t I = 0; I != N; ++I) {
    if (I % 10 == 0)
      ColdSlot = I + Pick.nextBelow(10);
    if (I == ColdSlot && NextFresh != Fresh.size()) {
      Entry E;
      E.Config = "LGen-Full";
      E.Source = Fresh[NextFresh++].Source;
      E.Cold = true;
      Plan.push_back(E);
    } else {
      Plan.push_back(Su.Working[Pick.nextBelow(Su.Working.size())]);
    }
  }
  // Enough clients that the generator is rarely short of one (a cold
  // compile holds a client for tens of milliseconds), few enough that
  // their polling leaves the compile workers cores to run on.
  const unsigned Clients = 6;
  std::atomic<size_t> Next{0};
  Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned Cl = 0; Cl != Clients; ++Cl)
    Threads.emplace_back([&, Cl] {
      Client C(Su.Svc->port(), "mixed" + std::to_string(Cl));
      std::vector<double> Warm, Cold, Lag;
      std::vector<std::string> WarmT, ColdT;
      uint64_t Polls = 0, ColdFailed = 0;
      for (size_t I; (I = Next++) < Plan.size();) {
        Clock::time_point Due =
            Start + std::chrono::nanoseconds(
                        static_cast<int64_t>(1e9 * static_cast<double>(I) / Rate));
        std::this_thread::sleep_until(Due);
        Lag.push_back(msSince(Due));
        Entry E = Plan[I];
        Outcome O = C.compile(E, S, I + 1);
        double Rt = msSince(Due);
        R.attempt();
        if (E.Cold) // Its reference is computed outside its latency.
          E = coldEntry(E.Source);
        std::string Why;
        if (!checkResult(E, O, Why)) {
          R.fail(Why);
          ColdFailed += E.Cold;
          continue;
        }
        (E.Cold ? Cold : Warm).push_back(Rt);
        (E.Cold ? ColdT : WarmT).push_back(O.TraceId);
        Polls += O.Polls;
      }
      std::lock_guard<std::mutex> Lock(LS.Mutex);
      LS.WarmMs.insert(LS.WarmMs.end(), Warm.begin(), Warm.end());
      LS.ColdMs.insert(LS.ColdMs.end(), Cold.begin(), Cold.end());
      LS.LagMs.insert(LS.LagMs.end(), Lag.begin(), Lag.end());
      LS.WarmTraces.insert(WarmT.begin(), WarmT.end());
      LS.ColdTraces.insert(ColdT.begin(), ColdT.end());
      LS.Completed += Warm.size() + Cold.size();
      LS.Polls += Polls;
      LS.Rejected += C.rejected();
      LS.ColdFailed += ColdFailed;
    });
  for (std::thread &T : Threads)
    T.join();
  LS.Seconds += secondsSince(Start);
}

/// Traced serve-mixed: queue waits split by warm/cold, joined on the trace
/// ids the service echoed against its flight recorder's queue_wait events.
void splitQueueWaits(const LoopStats &LS, Result &R) {
  json::Value Dump = support::FlightRecorder::dumpJson();
  std::vector<double> Warm, Cold;
  for (const json::Value &E : Dump["events"].asArray()) {
    if (E.getString("stage") != "queue_wait")
      continue;
    std::string Id = E.getString("trace_id");
    double Us = E.getNumber("dur_ns") / 1e3;
    if (LS.WarmTraces.count(Id))
      Warm.push_back(Us);
    else if (LS.ColdTraces.count(Id))
      Cold.push_back(Us);
  }
  R.set("service.queue_wait_us.warm", mean(Warm), "us");
  R.set("service.queue_wait_us.cold", mean(Cold), "us");
}

/// Traced serve-warm: the same finished-job poll envelope over HTTP and
/// straight through Service::handleRpc, so HTTP's own share shows.
void splitHttp(Setup &Su, Result &R, Spans &S) {
  Client C(Su.Svc->port(), "split");
  Outcome O = C.compile(Su.Working.front(), nullptr, 0);
  if (!O.Ok)
    return;
  const json::Value &Poll = C.lastPoll();
  std::vector<double> HttpUs, RpcUs;
  for (int Rep = 0; Rep != 500; ++Rep) {
    json::Value V;
    int Status = 0;
    std::string Why;
    Clock::time_point T0 = Clock::now();
    C.call(Poll, V, Status, Why, nullptr, 0);
    HttpUs.push_back(usSince(T0));
    auto Sp = span(&S, "service.handle_rpc", 0);
    Clock::time_point T1 = Clock::now();
    Su.Svc->handleRpc(Poll);
    RpcUs.push_back(usSince(T1));
  }
  R.set("service.http_rt_us", median(HttpUs), "us");
  R.set("service.handle_rpc_us", median(RpcUs), "us");
  R.set("service.http_self_us", median(HttpUs) - median(RpcUs), "us");
}

} // namespace

int runServe(const Args &A, bool Mixed, Result &R, Spans *S) {
  std::vector<Blac> Slice = servingSlice(drawBlacs(A.Seed));

  // Set-up five times on fresh services; the last one serves the run.
  Setup Su;
  std::vector<double> SetupS;
  for (int I = 0; I != 5; ++I) {
    Setup Fresh;
    std::swap(Fresh.ColdMs, Su.ColdMs);
    Clock::time_point T0 = Clock::now();
    if (!setUp(Slice, A.Seed, Fresh, R))
      return 1;
    SetupS.push_back(secondsSince(T0));
    if (Su.Svc)
      Su.Svc->stop();
    std::swap(Fresh.ColdMs, Su.ColdMs);
    Su.Svc = std::move(Fresh.Svc);
    Su.Working = std::move(Fresh.Working);
    Su.FullCases = std::move(Fresh.FullCases);
  }
  describeWorkingSet(Su, A.Seed);
  uint16_t Port = Su.Svc->port();

  LoopStats LS;
  // Half the cores: each client spins on its polls, and the service needs
  // a core per connection worker serving it plus its compile workers.
  unsigned Clients =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency() / 2));
  std::vector<Blac> Fresh =
      neverSeenBlacs(A.Seed, static_cast<size_t>(A.MixedRate * A.Seconds) / 10 + 8);
  size_t NextFresh = 0;
  auto traffic = [&](double Seconds, uint64_t Seed, Spans *Sp, LoopStats &Out) {
    if (Mixed)
      openLoop(Su, A.MixedRate, Seconds, Seed, Fresh, NextFresh, R, Sp, Out);
    else
      closedLoop(Su, Clients, Seconds, Seed, R, Sp, Out);
  };
  json::Value Before = scrapeMetrics(Port);
  double TraceOverhead = 0;
  if (S) {
    // Half the time untraced, half traced: the difference is the tracing
    // overhead.
    LoopStats Plain;
    traffic(A.Seconds / 2, A.Seed, nullptr, Plain);
    Before = scrapeMetrics(Port);
    traffic(A.Seconds / 2, A.Seed + 1, S, LS);
    TraceOverhead = mean(LS.WarmMs) / std::max(1e-9, mean(Plain.WarmMs)) - 1.0;
    R.set("warm_rt_ms.p90", percentile(Plain.WarmMs, 90), "ms");
    R.set("warm_rt_ms.p99", percentile(Plain.WarmMs, 99), "ms");
  } else {
    // The traffic in twenty segments with a round of in-process working-set
    // measurements after each.
    const int Segments = 20;
    for (int Seg = 0; Seg != Segments; ++Seg) {
      traffic(A.Seconds / Segments, A.Seed * Segments + Seg, nullptr, LS);
      sampleWorkingSet(Su, Fresh, NextFresh, Mixed ? 0 : 3, R);
    }
  }
  json::Value After = scrapeMetrics(Port);

  if (S) {
    double Requests = static_cast<double>(std::max<uint64_t>(1, LS.Completed));
    R.set("service.polls_per_request", static_cast<double>(LS.Polls) / Requests,
          "count");
    auto Delta = [&](const std::string &Name, bool Count) {
      return Count ? histCount(After, Name) - histCount(Before, Name)
                   : histSum(After, Name) - histSum(Before, Name);
    };
    double Waits = Delta("service.stage.queue_wait.ns", true);
    R.set("service.queue_wait_us",
          Waits > 0 ? Delta("service.stage.queue_wait.ns", false) / Waits / 1e3
                    : 0,
          "us");
    double Batches = Delta("service.compile.batch.size", true);
    R.set("service.batch_size",
          Batches > 0 ? Delta("service.compile.batch.size", false) / Batches
                      : 0,
          "count");
    double Submitted = counterOf(After, "service.queue.submitted") -
                       counterOf(Before, "service.queue.submitted");
    double Refused = counterOf(After, "service.queue.rejected") -
                     counterOf(Before, "service.queue.rejected");
    R.set("service.rejected_share",
          Submitted + Refused > 0 ? Refused / (Submitted + Refused) : 0,
          "ratio");
    double Hits = counterOf(After, "kernelcache.hit.memory") -
                  counterOf(Before, "kernelcache.hit.memory");
    double Misses = counterOf(After, "kernelcache.miss") -
                    counterOf(Before, "kernelcache.miss");
    R.set("compiler.cache.hit_ratio",
          Hits + Misses > 0 ? Hits / (Hits + Misses) : 0, "ratio");
    if (Mixed) {
      splitQueueWaits(LS, R);
      R.set("bench.gen_lag_ms.p99", percentile(LS.LagMs, 99), "ms");
    }
    splitHttp(Su, R, *S);
    R.set("support.json_us",
          S->totalNs("support.json") / 1e3 /
              std::max(1.0, static_cast<double>(LS.Completed)),
          "us");
    measureNative(Su, R);
    // The compile layers, on the LGen-Full working set.
    ReplayStats St;
    compiler::Options Opts = benchOptions("LGen-Full");
    for (size_t I = 0; I != Su.FullCases.size(); ++I)
      replayCompile(Su.FullCases[I], Opts, 1000000 + I, *S, St, R);
    reportReplay(St, R);
    // reportReplay's overhead is the replayed compile's; the serve runs
    // report their traffic's.
    R.set("trace.overhead_share", TraceOverhead, "ratio");
  }
  Su.Svc->stop();

  R.set("setup_s", median(SetupS), "s");
  R.set("compile_cold_ms.p50", median(Su.ColdMs.values()), "ms");
  R.set("compile_cold_ms.p90", percentile(Su.ColdMs.values(), 90), "ms");
  R.set("compile_warm_us.p50", median(Su.WarmUs.values()), "us");
  R.set("model_fpc.geomean", geomean(Su.Fpc), "flops/cycle");
  R.set("emitted_c_kb", Su.EmittedBytes / 1024.0, "KiB");
  R.set("warm_rt_ms.p50", median(LS.WarmMs), "ms");
  R.set("throughput_rps", static_cast<double>(LS.Completed) / LS.Seconds,
        "1/s");
  R.set("cold_rt_ms.p50", median(Mixed ? LS.ColdMs : Su.ColdRtMs), "ms");
  std::printf("serve-%s: %llu requests in %.2f s (%zu cold, %llu cold "
              "failed), %llu polls, %llu refused (429) then retried, hit p90 "
              "%.3f ms, p99 %.3f ms, generator lag p99 %.3f ms\n",
              Mixed ? "mixed" : "warm",
              static_cast<unsigned long long>(LS.Completed), LS.Seconds,
              LS.ColdMs.size(),
              static_cast<unsigned long long>(LS.ColdFailed),
              static_cast<unsigned long long>(LS.Polls),
              static_cast<unsigned long long>(LS.Rejected),
              percentile(LS.WarmMs, 90), percentile(LS.WarmMs, 99),
              percentile(LS.LagMs, 99));
  return 0;
}

} // namespace perfbench
