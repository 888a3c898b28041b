// mcheck driver: bounded model checking of the GAS protocols.
//
//   ./mcheck                                   # all scenarios, all modes
//   ./mcheck --mode=agas-sw --bound=2          # deeper on one mode
//   ./mcheck --scenario=put-put-race --list    # scenario library
//   ./mcheck --scenario=S --mode=M --replay=17:2,40:1   # replay a
//                                              # counterexample schedule
//
// Exit status 1 on any invariant violation; the report includes the
// replayable schedule string.
#include <cstdio>
#include <string>
#include <vector>

#include "kvstore/mcheck_kv.hpp"
#include "core/mcheck.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using nvgas::core::McheckOptions;
using nvgas::core::McheckResult;
using nvgas::core::Scenario;

void print_usage(const char* prog) {
  std::printf(
      "usage: %s [--mode=pgas|agas-sw|agas-net|all] [--scenario=NAME|all]\n"
      "          [--bound=N] [--budget=N] [--window=NS] [--nodes=N]\n"
      "          [--fault] [--replay=SCHEDULE] [--list]\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  const nvgas::util::Options opts(argc, argv);
  if (opts.has("help")) {
    print_usage(opts.program().c_str());
    return 0;
  }

  std::vector<Scenario> library = nvgas::core::scenario_library();
  // App-level scenarios ride along without core depending on apps.
  library.push_back(nvgas::apps::kv::kv_put_get_del_scenario());
  if (opts.has("list")) {
    for (const auto& sc : library) {
      std::printf("%-20s %s\n", sc.name.c_str(), sc.description.c_str());
    }
    return 0;
  }

  McheckOptions mco;
  mco.nodes = opts.get_int<int>("nodes", 8);
  mco.delay_bound = opts.get_int<int>("bound", 2);
  mco.max_schedules = opts.get_uint("budget", 3000);
  mco.window_ns = opts.get_uint("window", 2500);
  mco.fault_sw_skip_sharer_inv = opts.get_bool("fault", false);

  const std::string mode_arg = opts.get("mode", "all");
  std::vector<nvgas::gas::GasMode> modes;
  if (mode_arg == "all") {
    modes = {nvgas::gas::GasMode::kPgas, nvgas::gas::GasMode::kAgasSw,
             nvgas::gas::GasMode::kAgasNet};
  } else {
    const auto m = nvgas::gas::parse_mode(mode_arg);
    if (!m) {
      std::fprintf(stderr, "unknown --mode=%s\n", mode_arg.c_str());
      return 2;
    }
    modes = {*m};
  }

  const std::string scenario_arg = opts.get("scenario", "all");
  const bool replay = opts.has("replay");
  opts.reject_unknown();
  std::vector<Scenario> scenarios;
  for (const auto& sc : library) {
    if (scenario_arg == "all" || scenario_arg == sc.name) {
      scenarios.push_back(sc);
    }
  }
  if (scenarios.empty()) {
    std::fprintf(stderr, "unknown --scenario=%s (try --list)\n",
                 scenario_arg.c_str());
    return 2;
  }

  // Replay mode: run exactly one schedule of one scenario on one mode.
  if (replay) {
    if (scenarios.size() != 1 || modes.size() != 1) {
      std::fprintf(stderr,
                   "--replay needs a single --scenario and --mode\n");
      return 2;
    }
    nvgas::sim::Schedule sched;
    const std::string text = opts.get("replay", "-");
    if (!nvgas::sim::Schedule::parse(text, &sched)) {
      std::fprintf(stderr, "malformed --replay=%s\n", text.c_str());
      return 2;
    }
    mco.mode = modes[0];
    const McheckResult res = nvgas::core::run_one(scenarios[0], mco, sched);
    if (res.violation) {
      std::printf("VIOLATION %s [%s] schedule %s\n  %s\n",
                  res.scenario.c_str(), nvgas::gas::to_string(res.mode),
                  text.c_str(), res.message.c_str());
      return 1;
    }
    std::printf("ok: %s [%s] schedule %s holds (%llu invariant checks)\n",
                res.scenario.c_str(), nvgas::gas::to_string(res.mode),
                text.c_str(),
                static_cast<unsigned long long>(res.invariant_checks));
    return 0;
  }

  nvgas::util::Table table("mcheck: delay-bounded schedule exploration");
  table.columns({"scenario", "mode", "points", "schedules", "distinct orders",
                 "checks", "result"});
  std::vector<McheckResult> failures;
  for (const auto mode : modes) {
    mco.mode = mode;
    for (const auto& sc : scenarios) {
      const McheckResult res = nvgas::core::run_scenario(sc, mco);
      table.cell(res.scenario)
          .cell(nvgas::gas::to_string(res.mode))
          .cell(res.choice_points)
          .cell(res.schedules_run)
          .cell(res.distinct_orders)
          .cell(res.invariant_checks)
          .cell(res.violation ? "VIOLATION" : "ok")
          .end_row();
      if (res.violation) failures.push_back(res);
    }
  }
  std::printf("%s", table.str().c_str());

  for (const auto& res : failures) {
    std::printf(
        "\nVIOLATION %s [%s]\n  %s\n  replay: %s --scenario=%s --mode=%s "
        "--nodes=%d%s --replay=%s\n",
        res.scenario.c_str(), nvgas::gas::to_string(res.mode),
        res.message.c_str(), opts.program().c_str(), res.scenario.c_str(),
        nvgas::gas::to_string(res.mode), mco.nodes,
        mco.fault_sw_skip_sharer_inv ? " --fault" : "",
        res.counterexample.c_str());
  }
  return failures.empty() ? 0 : 1;
}
