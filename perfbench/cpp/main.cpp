// perfbench — the repo benchmark's driver binary. Runs one workload once:
//
//   perfbench --workload <live_paced|live_closed|sim_unanimous|sim_faulty>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// prints one "metric <name> <value> <unit>" line per metric it measured and
// ends with a JSON object {correct, attempted, failed, metrics, errors}. A
// traced run writes its spans to <file>.
// Exits 1 when a correctness check failed, 2 on bad arguments. run.py builds
// it and turns that object into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <exception>
#include <string>

#include "bench.hpp"
#include "common/json.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <live_paced|live_closed|sim_unanimous|"
               "sim_faulty> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--spans") {
      spans_path = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return usage();

  perfbench::Result res;
  try {
    if (args.workload == "live_paced" || args.workload == "live_closed") {
      res = perfbench::run_live(args);
    } else if (args.workload == "sim_unanimous" || args.workload == "sim_faulty") {
      res = perfbench::run_sim(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (!spans_path.empty() && !res.spans.empty()) {
    std::ofstream out(spans_path);
    out << res.spans << '\n';
    if (!out) res.fail("cannot write " + spans_path);
  }

  std::string json = "{\"correct\":";
  json += res.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(res.attempted);
  json += ",\"failed\":" + std::to_string(res.failed);
  json += ",\"metrics\":{";
  char num[64];
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    std::printf("metric %s %s %s\n", m.name.c_str(), num, m.unit.c_str());
    if (i > 0) json += ',';
    json += dex::json_quote(m.name);
    json += ":{\"value\":";
    json += num;
    json += ",\"unit\":";
    json += dex::json_quote(m.unit);
    json += '}';
  }
  json += "},\"errors\":[";
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", res.errors[i].c_str());
    if (i > 0) json += ',';
    json += dex::json_quote(res.errors[i]);
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return res.correct ? 0 : 1;
}
