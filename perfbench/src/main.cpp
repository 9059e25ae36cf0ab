//===- main.cpp - perfbench entry point ------------------------------------===//
//
// Part of the LGen reproduction benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--mixed-rate R] [--print-draw]
///           [--inject-fault flip-add|drop-store]
///
/// Runs one workload (compile-cold, serve-warm, serve-mixed) and prints,
/// as the last line of stdout, one JSON object {"correct", "attempted",
/// "failed", "metrics"}: the end-to-end metrics untraced, the per-layer
/// metrics with --trace 1. Exit codes: 0 ok, 1 a wrong output (the result
/// line is still printed), 2 usage.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace perfbench;

const std::vector<std::pair<std::string, std::string>> &
perfbench::endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"setup_s", "s"},
      {"compile_cold_ms.p50", "ms"},
      {"compile_cold_ms.p90", "ms"},
      {"compile_warm_us.p50", "us"},
      {"model_fpc.geomean", "flops/cycle"},
      {"emitted_c_kb", "KiB"},
      {"peak_rss_mb", "MiB"},
      {"warm_rt_ms.p50", "ms"},
      {"throughput_rps", "1/s"},
      {"cold_rt_ms.p50", "ms"},
  };
  return M;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"ll.parse_us", "us"},
      {"compiler.compile_ms", "ms"},
      {"compiler.autotune_ms", "ms"},
      {"compiler.plans_evaluated", "count"},
      {"compiler.plans_pruned", "count"},
      {"compiler.generate_core_ms", "ms"},
      {"absint.versioning_ms", "ms"},
      {"compiler.finalize_plain_ms", "ms"},
      {"compiler.other_ms", "ms"},
      {"absint.versions", "count"},
      {"absint.distinct_share", "ratio"},
      {"isa.memmap_ms", "ms"},
      {"machine.schedule_ms", "ms"},
      {"machine.schedule.calls", "count"},
      {"sched.overflow_share", "ratio"},
      {"machine.timing_us", "us"},
      {"machine.execute_us", "us"},
      {"codegen.unparse_us", "us"},
      {"compiler.fingerprint_ns", "ns"},
      {"compiler.warm_lookup_ns", "ns"},
      {"compiler.clone_us", "us"},
      {"compiler.warm_compile_us", "us"},
      {"service.http_rt_us", "us"},
      {"service.handle_rpc_us", "us"},
      {"service.http_self_us", "us"},
      {"service.polls_per_request", "count"},
      {"service.queue_wait_us", "us"},
      {"service.queue_wait_us.warm", "us"},
      {"service.queue_wait_us.cold", "us"},
      {"service.batch_size", "count"},
      {"service.rejected_share", "ratio"},
      {"compiler.cache.hit_ratio", "ratio"},
      {"support.json_us", "us"},
      {"warm_rt_ms.p90", "ms"},
      {"warm_rt_ms.p99", "ms"},
      {"bench.gen_lag_ms.p99", "ms"},
      {"runtime.dispatch_native_ns", "ns"},
      {"runtime.toolchain_ms", "ms"},
      {"runtime.socache.hit_ratio", "ratio"},
      {"runtime.marshal_ns", "ns"},
      {"runtime.entry_ns", "ns"},
      {"runtime.zerocopy_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return M;
}

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compile-cold|serve-warm|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--mixed-rate R] [--print-draw] "
               "[--inject-fault MODE]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--print-draw") {
      A.PrintDraw = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage((Arg + " needs a value").c_str());
    std::string V = Argv[++I];
    if (Arg == "--workload")
      A.Workload = V;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (Arg == "--trace")
      A.Trace = V == "1";
    else if (Arg == "--mixed-rate")
      A.MixedRate = std::atof(V.c_str());
    else if (Arg == "--inject-fault")
      // Options::lgenBase reads it, so every compiler in the process — the
      // service's included — generates the faulty code.
      setenv("LGEN_VERIFY_INJECT", V.c_str(), 1);
    else
      return usage(("unknown option " + Arg).c_str());
  }
  if (A.PrintDraw) {
    for (const Blac &B : drawBlacs(A.Seed))
      std::printf("%s\n", B.Name.c_str());
    return 0;
  }
  if (A.Seconds <= 0 || A.MixedRate <= 0)
    return usage("--seconds and --mixed-rate must be positive");

  Result R;
  std::unique_ptr<Spans> S;
  if (A.Trace)
    S = std::make_unique<Spans>();
  int Rc;
  if (A.Workload == "compile-cold")
    Rc = runCompileCold(A, R, S.get());
  else if (A.Workload == "serve-warm")
    Rc = runServe(A, /*Mixed=*/false, R, S.get());
  else if (A.Workload == "serve-mixed")
    Rc = runServe(A, /*Mixed=*/true, R, S.get());
  else
    return usage(("unknown workload '" + A.Workload + "'").c_str());
  if (Rc != 0 && R.attempted() == 0)
    return Rc;
  R.set("peak_rss_mb", peakRssMb(), "MiB");

  std::vector<std::string> Order;
  if (S) {
    // A layer this workload never calls reads 0.
    for (const auto &[Name, Unit] : perLayerMetrics()) {
      if (!R.has(Name))
        R.set(Name, 0, Unit);
      Order.push_back(Name);
    }
    const std::string Dir = ".bench_build/traces";
    std::filesystem::create_directories(Dir);
    std::string Path =
        Dir + "/" + A.Workload + "-seed" + std::to_string(A.Seed) + ".json";
    if (!S->write(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    std::printf("self time by layer (ms, spans in %s):\n", Path.c_str());
    for (const auto &[Layer, Ms] : S->selfMsByLayer())
      std::printf("  %-10s %12.3f\n", Layer.c_str(), Ms);
  } else {
    for (const auto &[Name, Unit] : endToEndMetrics())
      Order.push_back(Name);
  }
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n",
              R.attempted() ? static_cast<double>(R.failed()) /
                                  static_cast<double>(R.attempted())
                            : 0.0,
              static_cast<unsigned long long>(R.failed()),
              static_cast<unsigned long long>(R.attempted()));
  std::printf("%s\n", R.json(Order).c_str());
  std::fflush(stdout);
  return R.failed() == 0 && Rc == 0 ? 0 : 1;
}
