// R-S8 (supplementary) — goodput and latency under an unreliable fabric.
//
// Sweeps the wire drop probability across address-space modes with the
// end-to-end retransmission layer (src/net/reliability.*) recovering
// every lost frame. Each cell runs the same closed-loop put stream; the
// reported goodput counts only application payload bytes (headers,
// retransmissions and acks are overhead), and the p99 put latency shows
// the retransmission-timeout tail growing with the loss rate.
//
// The binary is also a regression gate: it exits nonzero unless, for
// every mode, goodput degrades monotonically as the drop rate rises
// (tolerance for timing artifacts) and has not collapsed below
// kCollapseFloor of the clean-fabric goodput at 10% drop — i.e. the
// retransmission layer keeps paying for losses with latency, never with
// livelock or meltdown.
//
// Results land in BENCH_faults.json (cwd) for cross-PR tracking.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

namespace nvgas::bench {
namespace {

constexpr std::uint64_t kPutBytes = 1024;
// Adjacent sweep points may trade a few timing artifacts; a genuine
// regression (retransmit storm, ack livelock) loses far more than 2%.
constexpr double kMonotonicSlack = 1.02;
constexpr double kCollapseFloor = 0.20;

struct FaultBenchResult {
  double goodput_mbps = 0;   // payload bytes only, per simulated second
  double p50_ns = 0;
  double p99_ns = 0;
  std::uint64_t drops = 0;
  std::uint64_t retransmits = 0;
};

FaultBenchResult run_cell(GasMode mode, double drop, double dup, double delay,
                          sim::Time delay_ns, std::uint64_t ops, int nodes) {
  Config cfg = Config::with_nodes(nodes, mode);
  cfg.machine.mem_bytes_per_node = 16u << 20;
  if (drop > 0 || dup > 0 || (delay > 0 && delay_ns > 0)) {
    sim::FaultRule r;
    r.drop = drop;
    r.dup = dup;
    r.delay = delay;
    r.delay_ns = delay_ns;
    cfg.faults.rules.push_back(r);
  }
  World world(cfg);

  util::Samples latency;
  world.run_spmd([&](Context& ctx) -> Fiber {
    const Gva table = alloc_cyclic(ctx, static_cast<std::uint32_t>(ctx.ranks()),
                                   kPutBytes);
    const std::vector<std::byte> payload(kPutBytes, std::byte{0x5a});
    const int dst = (ctx.rank() + 1) % ctx.ranks();
    const Gva target = table.advanced(
        static_cast<std::int64_t>(dst) * static_cast<std::int64_t>(kPutBytes),
        static_cast<std::uint32_t>(kPutBytes));
    for (std::uint64_t i = 0; i < ops; ++i) {
      const sim::Time t0 = ctx.now();
      co_await memput_span(ctx, target, payload);
      latency.add(static_cast<double>(ctx.now() - t0));
    }
    co_await world.coll().barrier(ctx);
  });
  world.run();

  FaultBenchResult out;
  const double payload_bytes =
      static_cast<double>(world.ranks()) * static_cast<double>(ops) *
      static_cast<double>(kPutBytes);
  out.goodput_mbps = payload_bytes / static_cast<double>(world.now()) * 1e3;
  out.p50_ns = latency.percentile(50);
  out.p99_ns = latency.percentile(99);
  out.drops = world.counters().faults_injected_drops;
  out.retransmits = world.counters().net_retransmits;
  return out;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const bool quick = opt.has("quick");
  const std::uint64_t ops = opt.get_uint("ops", quick ? 150 : 600);
  const int nodes = opt.get_int<int>("nodes", 4);
  const double dup = opt.get_double("fault-dup", 0.0);
  const double delay = opt.get_double("fault-delay", 0.0);
  const auto delay_ns =
      static_cast<nvgas::sim::Time>(opt.get_uint("fault-delay-ns", 0));
  const std::string out_path = opt.get("out", "BENCH_faults.json");
  opt.reject_unknown();

  print_header("R-S8", "goodput and put latency vs wire drop probability");

  const double drops[] = {0.0, 0.001, 0.01, 0.05, 0.1};
  nvgas::util::Table t("closed-loop 1 KiB put stream, retransmission on");
  t.columns({"mode", "drop", "goodput (MB/s)", "p50 put", "p99 put",
             "drops", "retransmits"});
  struct Row {
    nvgas::GasMode mode;
    double drop;
    FaultBenchResult r;
  };
  std::vector<Row> rows;
  bool gate_ok = true;
  std::string gate_msg;
  for (const nvgas::GasMode mode : all_modes()) {
    double clean = 0;
    double prev = 0;
    for (const double d : drops) {
      const FaultBenchResult r =
          run_cell(mode, d, dup, delay, delay_ns, ops, nodes);
      rows.push_back({mode, d, r});
      t.cell(nvgas::gas::to_string(mode))
          .cell(d, 3)
          .cell(r.goodput_mbps, 2)
          .cell(nvgas::util::format_ns(r.p50_ns))
          .cell(nvgas::util::format_ns(r.p99_ns))
          .cell(r.drops)
          .cell(r.retransmits)
          .end_row();
      if (d == 0.0) {
        clean = r.goodput_mbps;
      } else if (r.goodput_mbps > prev * kMonotonicSlack) {
        gate_ok = false;
        gate_msg = nvgas::util::format(
            "%s: goodput rose from %.2f to %.2f MB/s between adjacent drop "
            "rates (expected monotonic degradation)",
            nvgas::gas::to_string(mode), prev, r.goodput_mbps);
      }
      if (d == 0.1 && r.goodput_mbps < clean * kCollapseFloor) {
        gate_ok = false;
        gate_msg = nvgas::util::format(
            "%s: goodput collapsed to %.2f MB/s at 10%% drop (clean fabric "
            "%.2f MB/s; floor %.0f%%)",
            nvgas::gas::to_string(mode), r.goodput_mbps, clean, kCollapseFloor * 100);
      }
      prev = r.goodput_mbps;
    }
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: goodput falls and the p99 tail grows with the\n"
      "drop rate (each lost frame waits out at least one retransmission\n"
      "timeout); no mode livelocks or collapses, because recovery is\n"
      "per-frame with bounded exponential backoff.\n");
  std::printf("degradation gate: %s%s%s\n", gate_ok ? "ok" : "FAILED",
              gate_ok ? "" : " — ", gate_ok ? "" : gate_msg.c_str());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"faults\",\n  \"ops_per_rank\": %llu,\n"
               "  \"nodes\": %d,\n  \"put_bytes\": %llu,\n  \"cells\": [\n",
               static_cast<unsigned long long>(ops), nodes,
               static_cast<unsigned long long>(kPutBytes));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"drop\": %.3f, "
                 "\"goodput_mbps\": %.3f, \"p50_ns\": %.0f, \"p99_ns\": %.0f, "
                 "\"drops\": %llu, \"retransmits\": %llu}%s\n",
                 nvgas::gas::to_string(row.mode), row.drop, row.r.goodput_mbps,
                 row.r.p50_ns, row.r.p99_ns,
                 static_cast<unsigned long long>(row.r.drops),
                 static_cast<unsigned long long>(row.r.retransmits),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"degradation_gate\": %s\n}\n",
               gate_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return gate_ok ? 0 : 1;
}
