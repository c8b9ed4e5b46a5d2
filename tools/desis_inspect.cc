// desis-inspect: offline toolchain over the metrics sidecars the benches
// write (docs/METRICS.md). Subcommands:
//
//   summary <sidecar.json>
//       Health & cost report: per-group sharing ratios, per-node
//       watermark-lag/backlog gauges, span counts.
//   diff <before.json> <after.json> [--threshold=0.15] [--stable-only]
//       Noise-aware comparison; exit 1 when a metric regressed beyond the
//       band (the CI perf-regression gate), 0 otherwise, 2 on usage/load
//       errors. --stable-only restricts to deterministic counters.
//   merge <sidecar.json> [out.json]
//       Cross-node Chrome trace (chrome://tracing / Perfetto): one global
//       async track per slice across local -> intermediate -> root,
//       retransmits included. Defaults to stdout.
//   history <sidecar.json> --append=<BENCH_history.jsonl>
//       Appends one provenance-stamped JSONL line with each run's headline
//       number (throughput or results).
//   postmortem <flight-dump.json...>
//       Merges per-node flight-recorder dumps (written automatically on a
//       failure, or via Cluster::DumpFlightRecorders) into one causally
//       ordered timeline: the last events each node recorded going into the
//       first anomaly, then the full anomaly window. Exit 1 when the merged
//       timeline is empty, 2 on load errors.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "inspect_lib.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: desis_inspect summary <sidecar.json>\n"
      "       desis_inspect diff <before.json> <after.json>"
      " [--threshold=0.15] [--stable-only]\n"
      "       desis_inspect merge <sidecar.json> [out.json]\n"
      "       desis_inspect history <sidecar.json>"
      " --append=<history.jsonl>\n"
      "       desis_inspect postmortem <flight-dump.json...>\n");
  return 2;
}

bool Load(const std::string& path, desis::tools::JsonValue* out) {
  std::string error;
  if (!desis::tools::LoadJsonFile(path, out, &error)) {
    std::fprintf(stderr, "desis_inspect: %s\n", error.c_str());
    return false;
  }
  return true;
}

int RunSummary(const std::string& path) {
  desis::tools::JsonValue sidecar;
  if (!Load(path, &sidecar)) return 2;
  std::fputs(desis::tools::Summarize(sidecar).c_str(), stdout);
  return 0;
}

int RunDiff(int argc, char** argv) {
  desis::tools::DiffOptions options;
  std::string paths[2];
  int npaths = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      options.threshold = std::atof(arg.c_str() + 12);
      if (options.threshold <= 0) {
        std::fprintf(stderr, "desis_inspect: bad --threshold\n");
        return 2;
      }
    } else if (arg == "--stable-only") {
      options.stable_only = true;
    } else if (npaths < 2) {
      paths[npaths++] = arg;
    } else {
      return Usage();
    }
  }
  if (npaths != 2) return Usage();
  desis::tools::JsonValue before, after;
  if (!Load(paths[0], &before) || !Load(paths[1], &after)) return 2;
  const desis::tools::DiffResult result =
      desis::tools::DiffSidecars(before, after, options);
  if (!result.comparable) {
    std::fprintf(stderr,
                 "desis_inspect: sidecars are not comparable "
                 "(different bench or watchdog setting)\n");
    return 2;
  }
  std::fputs(desis::tools::FormatDiff(result, options).c_str(), stdout);
  return result.HasRegression() ? 1 : 0;
}

int RunMerge(const std::string& path, const char* out_path) {
  desis::tools::JsonValue sidecar;
  if (!Load(path, &sidecar)) return 2;
  const std::string trace = desis::tools::MergedChromeTrace(sidecar);
  if (out_path == nullptr) {
    std::fputs(trace.c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "desis_inspect: cannot write %s\n", out_path);
    return 2;
  }
  std::fputs(trace.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("merged trace: %s\n", out_path);
  return 0;
}

int RunHistory(int argc, char** argv) {
  std::string sidecar_path;
  std::string append_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--append=", 0) == 0) {
      append_path = arg.substr(9);
    } else if (sidecar_path.empty()) {
      sidecar_path = arg;
    } else {
      return Usage();
    }
  }
  if (sidecar_path.empty() || append_path.empty()) return Usage();
  desis::tools::JsonValue sidecar;
  if (!Load(sidecar_path, &sidecar)) return 2;
  std::FILE* f = std::fopen(append_path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "desis_inspect: cannot append to %s\n",
                 append_path.c_str());
    return 2;
  }
  std::fprintf(f, "%s\n", desis::tools::HistoryLine(sidecar).c_str());
  std::fclose(f);
  std::printf("history: appended %s to %s\n", sidecar_path.c_str(),
              append_path.c_str());
  return 0;
}

int RunPostmortem(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::vector<desis::tools::FlightDump> dumps;
  for (int i = 0; i < argc; ++i) {
    desis::tools::JsonValue doc;
    if (!Load(argv[i], &doc)) return 2;
    desis::tools::FlightDump dump;
    if (!desis::tools::FlightDumpFromJson(doc, &dump)) {
      std::fprintf(stderr, "desis_inspect: %s is not a flight dump\n",
                   argv[i]);
      return 2;
    }
    dumps.push_back(std::move(dump));
  }
  std::fputs(desis::tools::Postmortem(dumps).c_str(), stdout);
  return desis::tools::PostmortemEventCount(dumps) == 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  if (command == "summary" && argc == 3) return RunSummary(argv[2]);
  if (command == "diff") return RunDiff(argc - 2, argv + 2);
  if (command == "merge" && (argc == 3 || argc == 4)) {
    return RunMerge(argv[2], argc == 4 ? argv[3] : nullptr);
  }
  if (command == "history") return RunHistory(argc - 2, argv + 2);
  if (command == "postmortem") return RunPostmortem(argc - 2, argv + 2);
  return Usage();
}
