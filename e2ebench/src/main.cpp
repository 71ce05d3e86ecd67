// brew_e2ebench: one seeded, single-process run of one BREW workload.
//
//   brew_e2ebench --workload <stencil_solve|cold_specialize|hot_reuse|warm_start>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--commit <id>] [--source-hash <digest>] [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload with
// spans, then the layer probe, and prints the per-layer metrics. Either way
// the last stdout line is one JSON object {correct, attempted, failed,
// metrics}, and the full result (host, spans, telemetry) goes to
// <out-dir>/<workload>-seed<n>-trace<t>.json. Exit code 1 on any wrong
// output, 2 on bad arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "layer_probe.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "brew_e2ebench: %s\nusage: brew_e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] [--source-hash <h>] "
               "[--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::startClock();
  bench::RunContext ctx;
  std::string commit, sourceHash, outDir = ".bench_build/results";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") ctx.workload = value;
    else if (arg == "--seed") ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") ctx.seconds = std::atoi(value.c_str());
    else if (arg == "--trace") ctx.trace = value == "1";
    else if (arg == "--commit") commit = value;
    else if (arg == "--source-hash") sourceHash = value;
    else if (arg == "--out-dir") outDir = value;
    else return usage(("unknown argument " + arg).c_str());
  }
  using Runner = bench::Outcome (*)(const bench::RunContext&, bench::Subjects&,
                                    const bench::Confs&);
  Runner run = nullptr;
  if (ctx.workload == "stencil_solve") run = &bench::runStencilSolve;
  else if (ctx.workload == "cold_specialize") run = &bench::runColdSpecialize;
  else if (ctx.workload == "hot_reuse") run = &bench::runHotReuse;
  else if (ctx.workload == "warm_start") run = &bench::runWarmStart;
  if (run == nullptr) return usage("unknown workload");
  if (ctx.seconds < 1) return usage("--seconds must be at least 1");

  // Scratch space (persistent stores) lives beside the results and is
  // removed at exit.
  std::error_code ec;
  ctx.runDir = outDir + "/../run/" + ctx.workload + "-" + std::to_string(getpid());
  std::filesystem::create_directories(ctx.runDir, ec);
  std::filesystem::create_directories(outDir, ec);
  if (ec) return usage(("cannot create " + outDir).c_str());

  const bench::Host host = bench::hostFingerprint(commit, sourceHash);
  bench::Outcome out;
  {
    bench::Subjects subjects(ctx.seed);
    bench::Confs confs;
    out = run(ctx, subjects, confs);
    if (out.correct) {
      if (ctx.trace) bench::layerProbe(ctx, subjects, confs, out);
      bench::calibrate(subjects, out, ctx.trace);
      bench::determinismCheck(ctx, subjects, out);
      bench::knownDefects(subjects, confs, out);
    }
  }
  out.detail("run.wall_s", bench::wallSeconds(), "s");
  out.detail("run.peak_rss_mb", bench::peakRssMb(), "MiB");

  const std::string file = outDir + "/" + ctx.workload + "-seed" + std::to_string(ctx.seed) +
                           "-trace" + (ctx.trace ? "1" : "0") + ".json";
  if (!bench::writeResultFile(file, ctx, host, out))
    std::fprintf(stderr, "brew_e2ebench: cannot write %s\n", file.c_str());
  std::filesystem::remove_all(ctx.runDir, ec);
  bench::printOutcome(ctx, host, out);
  return out.correct ? 0 : 1;
}
