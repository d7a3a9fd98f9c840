//===- sweepbench/main.cpp - Sweep benchmark entry point ------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// Runs one named workload through engine::Engine and prints every metric
// by name and unit, then one JSON result line:
//
//   sweep_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--commit LABEL]
//   sweep_bench --pin FILE        (re-pin the reference digests)
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that gives the per-layer metrics. Every
// sweep's report is checked against the pinned digests; a mismatch counts
// the benchmark as failed and does not abort the run. See README.md.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Sweep.h"

#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <string>
#include <thread>

using namespace sweepbench;

namespace {

void usage(FILE *F) {
  std::fprintf(
      F,
      "usage: sweep_bench --workload NAME --seed N --seconds S --trace 0|1\n"
      "                   [--commit LABEL]\n"
      "       sweep_bench --pin FILE\n"
      "  --workload NAME   one of:");
  for (const Workload &W : workloads())
    std::fprintf(F, " %s", W.Name);
  std::fprintf(
      F,
      "\n"
      "  --seed N          input seed (0 <= N < 2^64); N mod %llu selects\n"
      "                    one of the pinned seeds\n"
      "  --seconds S       how long to measure (1..3600)\n"
      "  --trace 0|1       0: end-to-end metrics, tracing off;\n"
      "                    1: the traced run's per-layer metrics\n"
      "  --commit LABEL    provenance label printed with the result\n"
      "  --pin FILE        sweep every pinned input set at full tier and\n"
      "                    write its digests to FILE\n",
      static_cast<unsigned long long>(PinnedSeeds));
}

[[noreturn]] void usageError(const std::string &Msg) {
  std::fprintf(stderr, "error: %s\n", Msg.c_str());
  usage(stderr);
  std::exit(2);
}

/// Whole-string unsigned decimal in [Lo, Hi].
uint64_t parseUnsigned(const char *Flag, const char *Text, uint64_t Lo,
                       uint64_t Hi) {
  if (!*Text || !std::strchr("0123456789", *Text))
    usageError(std::string(Flag) + " needs a non-negative integer, got '" +
               Text + "'");
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (*End)
    usageError(std::string(Flag) + " needs an integer, got '" + Text + "'");
  if (errno == ERANGE || V < Lo || V > Hi)
    usageError(std::string(Flag) + " out of range: '" + Text + "'");
  return V;
}

struct Args {
  const Workload *W = nullptr;
  uint64_t Seed = 0;
  uint64_t Seconds = 0;
  int Trace = -1;
  bool HaveSeed = false;
  std::string Commit = "unknown";
  std::string Pin;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--help" || Flag == "-h") {
      usage(stdout);
      std::exit(0);
    }
    if (Flag != "--workload" && Flag != "--seed" && Flag != "--seconds" &&
        Flag != "--trace" && Flag != "--commit" && Flag != "--pin")
      usageError("unknown argument '" + Flag + "'");
    if (I + 1 >= Argc)
      usageError(Flag + " needs a value");
    const char *V = Argv[++I];
    if (Flag == "--workload") {
      A.W = findWorkload(V);
      if (!A.W)
        usageError(std::string("unknown workload '") + V + "'");
    } else if (Flag == "--seed") {
      A.Seed = parseUnsigned("--seed", V, 0, UINT64_MAX);
      A.HaveSeed = true;
    } else if (Flag == "--seconds") {
      A.Seconds = parseUnsigned("--seconds", V, 1, 3600);
    } else if (Flag == "--trace") {
      A.Trace = static_cast<int>(parseUnsigned("--trace", V, 0, 1));
    } else if (Flag == "--commit") {
      A.Commit = V;
    } else {
      A.Pin = V;
    }
  }
  if (!A.Pin.empty()) {
    if (A.W || A.HaveSeed || A.Seconds || A.Trace >= 0)
      usageError("--pin takes no other arguments");
    return A;
  }
  if (!A.W || !A.HaveSeed || !A.Seconds || A.Trace < 0)
    usageError("--workload, --seed, --seconds and --trace are required");
  return A;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20)
      continue;
    Out += Ch;
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

const char *tierName(engine::TierMode T) {
  return T == engine::TierMode::Full      ? "full"
         : T == engine::TierMode::Confirm ? "confirm"
                                          : "fast";
}

/// CPUs this process may run on (what `nproc` prints).
long usableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    return CPU_COUNT(&Set);
  return sysconf(_SC_NPROCESSORS_ONLN);
}

void printProvenance(const Args &A) {
  std::printf(
      "provenance {\"hardware_threads\":%u,\"nproc\":%ld,"
      "\"build_type\":%s,\"compiler\":%s,\"commit\":%s,\"workload\":%s,"
      "\"seed\":%llu,\"engine_seed\":%llu,\"samples\":%d,\"jobs\":%u,"
      "\"tier\":\"%s\",\"trace\":%d}\n",
      std::thread::hardware_concurrency(), usableCpus(),
      jsonString(SWEEPBENCH_BUILD_TYPE).c_str(),
#if defined(__clang__)
      jsonString(std::string("clang ") + __clang_version__).c_str(),
#elif defined(__GNUC__)
      jsonString(std::string("gcc ") + __VERSION__).c_str(),
#else
      jsonString("unknown").c_str(),
#endif
      jsonString(A.Commit).c_str(), jsonString(A.W->Name).c_str(),
      static_cast<unsigned long long>(A.Seed),
      static_cast<unsigned long long>(A.Seed % PinnedSeeds), A.W->Samples,
      A.W->Jobs, tierName(A.W->Tier), A.Trace);
}

/// Restarts the kernel's peak-RSS watermark so the next sweep reports its
/// own peak. Free heap pages go back to the kernel first; otherwise the
/// pages an earlier sweep left in the allocator would set every later
/// sweep's floor. Returns false when the kernel does not support it.
bool resetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream F("/proc/self/clear_refs");
  F << "5";
  F.close();
  return static_cast<bool>(F);
}

/// Peak resident set in MB: VmHWM, or the process maximum as a fallback.
double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (!A.Pin.empty())
    return pinReferences(A.Pin);

  References Refs;
  std::string Err;
  if (!loadReferences(SWEEPBENCH_DIR "/reference/digests.tsv", Refs, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  const Workload &W = *A.W;
  std::vector<const Reference *> SetRefs;
  for (int Set = 0; Set < W.Sets; ++Set)
    SetRefs.push_back(findReference(Refs, W, A.Seed, Set));
  printProvenance(A);
  std::fflush(stdout);

  // Scratch space for the warm-cache workload, inside the build tree.
  std::string CacheDir = std::string(SWEEPBENCH_BUILD_DIR) + "/cache-" +
                         std::to_string(getpid());

  // Set-up runs several times; its time is the median.
  const int SetupReps = W.WarmCache ? 3 : 51;
  std::vector<double> SetupS, ParseMs, CompileMs;
  Setup S;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    S = makeSetup(W, A.Seed, CacheDir);
    SetupS.push_back(S.Seconds);
    ParseMs.push_back(S.ParseSeconds * 1e3);
    CompileMs.push_back(S.CompileSeconds * 1e3);
  }

  Check C;
  C.fail(S.SourceFailures, "corpus sources failed to parse or compile");
  C.fail(S.StoreFailures, "cache fill failed to store shard documents");
  std::vector<Metric> Metrics;
  if (A.Trace == 0) {
    // Rounds sweep every input set once and repeat until --seconds have
    // passed. runs_per_s is each round's runs over its sweep time, median
    // over rounds. peak_rss_mb is each sweep's own peak, averaged: a
    // sweep's peak follows its inputs' loop trip counts, and the mean over
    // the input sets is the steadiest summary of that.
    bool HwmReset = true;
    std::vector<double> RunsPerS, PeakMb;
    std::vector<std::pair<int, Digests>> Checked;
    double Start = now();
    do {
      uint64_t Runs = 0;
      double Seconds = 0.0;
      for (int Set = 0; Set < W.Sets; ++Set) {
        HwmReset &= resetPeakRss();
        SweepOutcome O = sweep(S, Set);
        PeakMb.push_back(peakRssMb());
        std::fprintf(stderr, "sweep %d: %.3f s, peak %.1f MB\n", Set,
                     O.Seconds, PeakMb.back());
        Runs += O.Result.Stats.Runs;
        Seconds += O.Seconds;
        Checked.push_back({Set, digestsOf(O)});
      }
      RunsPerS.push_back(static_cast<double>(Runs) / Seconds);
      std::fprintf(stderr, "round %zu: %.1f runs/s\n", RunsPerS.size(),
                   RunsPerS.back());
    } while (now() - Start < static_cast<double>(A.Seconds));
    if (!HwmReset)
      std::fprintf(stderr, "note: peak RSS includes set-up (no clear_refs)\n");

    // warm-cache: each sweep must also equal the report folded from the
    // shard documents its set-up stored.
    std::vector<Digests> Own(static_cast<size_t>(W.Sets));
    std::vector<bool> HaveOwn(static_cast<size_t>(W.Sets), false);
    for (int Set = 0; W.WarmCache && Set < W.Sets; ++Set) {
      SweepOutcome Folded;
      HaveOwn[Set] = reportFromCache(CacheDir + "/set" + std::to_string(Set),
                                     Folded, Err);
      if (HaveOwn[Set])
        Own[Set] = digestsOf(Folded);
      else
        C.fail(1, "cannot fold the set-up's cache documents: " + Err);
    }
    for (const auto &[Set, D] : Checked)
      checkSweep(D, SetRefs[Set], HaveOwn[Set] ? &Own[Set] : nullptr, C);

    Metrics.push_back({"setup_s", median(SetupS), "s"});
    Metrics.push_back({"runs_per_s", median(RunsPerS), "1/s"});
    Metrics.push_back({"peak_rss_mb", mean(PeakMb), "MB"});
    double FailedFrac =
        C.Attempted ? static_cast<double>(C.Failed) / C.Attempted : 1.0;
    Metrics.push_back({"correct_frac", 1.0 - FailedFrac, "ratio"});
    std::printf("metric failed_frac %s ratio\n", number(FailedFrac).c_str());
    std::printf("metric rounds %zu count\n", RunsPerS.size());
  } else {
    LayerInputs LI;
    LI.W = &W;
    LI.Seed = A.Seed;
    LI.Seconds = static_cast<double>(A.Seconds);
    LI.Refs = SetRefs;
    LI.ParseMs = median(ParseMs);
    LI.CompileMs = median(CompileMs);
    layerMetrics(LI, S, C, Metrics);
  }
  S = Setup();
  removeTree(CacheDir);

  if (!C.FirstProblem.empty())
    std::fprintf(stderr, "check: %s\n", C.FirstProblem.c_str());
  std::string Json = "{\"correct\": " +
                     std::string(C.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(C.Attempted) +
                     ", \"failed\": " + std::to_string(C.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    std::printf("metric %s %s %s\n", M.Name.c_str(), number(M.Value).c_str(),
                M.Unit);
    Json += (I ? ", " : "") + jsonString(M.Name) + ": {\"value\": " +
            number(M.Value) + ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
