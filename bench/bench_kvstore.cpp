// R-S9 (supplementary) — kvstore SLO under skewed open-loop load.
//
// The apps/kvstore subsystem serves a Zipf-skewed, diurnally-modulated
// open-loop client stream (millions of simulated clients aggregated per
// edge node) on top of the GAS under test. The sweep crosses address-
// space mode x lb policy x fault plan x key skew; at mid-run the client
// hot set rotates by half the keyspace (the churn driver), and the
// harness reports served-latency quantiles (p50/p99/p999), within-SLO
// goodput, and SLO retention — the churn-window goodput relative to the
// quiet baseline, extending the S-7 throughput-retention methodology to
// "requests served within the SLO target".
//
// The binary is also a correctness gate, exiting nonzero if any cell
// answers fewer requests than were issued, or any GET returns a torn
// value (whole-value atomicity across migration).
//
// Results land in BENCH_kvstore.json (cwd) for cross-PR tracking.
//
// Usage: bench_kvstore [--quick] [--out=BENCH_kvstore.json]
//                      [--sweep-modes=all]
//                      [--nodes=8] [--rate=1e6 ops/s/node]
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "kvstore/harness.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace nvgas::bench {
namespace {

using apps::kv::KvRunConfig;
using apps::kv::KvRunResult;

const char* policy_name(lb::PolicyKind p) {
  return p == lb::PolicyKind::kNone ? "none" : "hysteresis";
}

KvRunConfig base_config(int nodes, double rate, bool quick) {
  KvRunConfig rc;
  rc.nodes = nodes;
  rc.kv.buckets = 64;
  rc.client.keyspace = 1 << 12;
  rc.client.rate_per_node = rate;
  rc.client.t_start = 50'000;
  rc.client.duration = quick ? 400'000 : 1'500'000;
  rc.client.t_shift = rc.client.t_start + rc.client.duration / 2;
  rc.churn_duration = quick ? 150'000 : 500'000;
  // A flash crowd rides on the diurnal peak in the churn phase.
  rc.client.flash_begin = rc.client.t_shift;
  rc.client.flash_end = rc.client.t_shift + rc.churn_duration / 2;
  rc.client.flash_mult = 1.5;
  return rc;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const bool quick = opt.has("quick");
  const int nodes = static_cast<int>(opt.get_int("nodes", 8));
  const double rate = opt.get_double("rate", quick ? 4.0e5 : 6.0e5);
  const std::string out_path = opt.get("out", "BENCH_kvstore.json");
  const std::vector<nvgas::GasMode> modes =
      parse_mode_list(opt.get("sweep-modes", "all"));

  print_header("R-S9",
               "kvstore SLO under Zipf load, hot-set churn and faults");

  const double skews[] = {0.5, 1.1};
  const nvgas::lb::PolicyKind policies[] = {nvgas::lb::PolicyKind::kNone,
                                            nvgas::lb::PolicyKind::kHysteresis};

  nvgas::util::Table t(
      "open-loop Zipf clients; SLO = GETs served within 150 us");
  t.columns({"mode", "lb", "wire", "zipf s", "issued", "p50 get", "p99 get",
             "p999 get", "goodput (Mop/s)", "retention", "moves", "torn"});

  struct Row {
    nvgas::GasMode mode;
    nvgas::lb::PolicyKind policy;
    bool lossy;
    double skew;
    KvRunResult r;
  };
  std::vector<Row> rows;
  bool gate_ok = true;
  std::string gate_msg;

  for (const nvgas::GasMode mode : modes) {
    for (const auto policy : policies) {
      for (const bool lossy : {false, true}) {
        for (const double skew : skews) {
          KvRunConfig rc = base_config(nodes, rate, quick);
          rc.mode = mode;
          rc.policy = policy;
          rc.lossy = lossy;
          rc.client.zipf_s = skew;
          const KvRunResult r = nvgas::apps::kv::run_kv(rc);
          rows.push_back({mode, policy, lossy, skew, r});
          t.cell(mode_name(mode))
              .cell(policy_name(policy))
              .cell(lossy ? "lossy" : "clean")
              .cell(skew, 1)
              .cell(r.issued)
              .cell(nvgas::util::format_ns(static_cast<double>(r.slo.get.p50)))
              .cell(nvgas::util::format_ns(static_cast<double>(r.slo.get.p99)))
              .cell(nvgas::util::format_ns(static_cast<double>(r.slo.get.p999)))
              .cell(r.slo.goodput_ops_per_sec / 1e6, 3)
              .cell(r.slo.slo_retention, 3)
              .cell(r.lb_migrations)
              .cell(r.torn)
              .end_row();
          if (r.completed != r.issued) {
            gate_ok = false;
            gate_msg = nvgas::util::format(
                "%s/%s/%s: %llu of %llu requests answered",
                mode_name(mode), policy_name(policy),
                lossy ? "lossy" : "clean",
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.issued));
          }
          if (r.torn != 0) {
            gate_ok = false;
            gate_msg = nvgas::util::format(
                "%s/%s: %llu torn GET responses", mode_name(mode),
                policy_name(policy), static_cast<unsigned long long>(r.torn));
          }
        }
      }
    }
  }
  t.print(std::cout);

  std::printf(
      "\nExpected shape: higher skew concentrates heat and blows up the\n"
      "tail; at s=1.1 migration cost decides whether balancing pays, so\n"
      "hysteresis beats `none` on within-SLO goodput under agas-net\n"
      "(network-managed moves are cheap) but loses under agas-sw (each\n"
      "move stalls traffic on a software invalidation fence). At low\n"
      "skew the hot-set rotation dents attainment slightly (retention\n"
      "<= 1); at high skew the quiet phase is already tail-bound on the\n"
      "hot node, so rotation plus rebalancing can lift it above 1. The\n"
      "lossy wire pays with tail latency, never lost or torn responses.\n");
  std::printf("completion/atomicity gate: %s%s%s\n", gate_ok ? "ok" : "FAILED",
              gate_ok ? "" : " — ", gate_ok ? "" : gate_msg.c_str());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"kvstore\",\n  \"nodes\": %d,\n"
               "  \"rate_per_node\": %.0f,\n  \"slo_target_ns\": 150000,\n"
               "  \"cells\": [\n",
               nodes, rate);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"lb\": \"%s\", \"wire\": \"%s\", "
        "\"zipf_s\": %.1f, \"issued\": %llu, \"completed\": %llu, "
        "\"get_p50_ns\": %llu, \"get_p99_ns\": %llu, \"get_p999_ns\": %llu, "
        "\"put_p99_ns\": %llu, \"goodput_ops_per_sec\": %.0f, "
        "\"slo_retention\": %.4f, \"migrations\": %llu, \"torn\": %llu, "
        "\"expirations\": %llu}%s\n",
        mode_name(row.mode), policy_name(row.policy),
        row.lossy ? "lossy" : "clean", row.skew,
        static_cast<unsigned long long>(row.r.issued),
        static_cast<unsigned long long>(row.r.completed),
        static_cast<unsigned long long>(row.r.slo.get.p50),
        static_cast<unsigned long long>(row.r.slo.get.p99),
        static_cast<unsigned long long>(row.r.slo.get.p999),
        static_cast<unsigned long long>(row.r.slo.put.p99),
        row.r.slo.goodput_ops_per_sec, row.r.slo.slo_retention,
        static_cast<unsigned long long>(row.r.lb_migrations),
        static_cast<unsigned long long>(row.r.torn),
        static_cast<unsigned long long>(row.r.server.expirations),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"completion_gate\": %s\n}\n",
               gate_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return gate_ok ? 0 : 1;
}
