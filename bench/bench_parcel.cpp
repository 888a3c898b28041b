// R-T2 — parcel transport: ping-pong latency and flood throughput vs
// payload size, across the eager/rendezvous boundary.
#include "common.hpp"

namespace nvgas::bench {
namespace {

// Half round-trip latency of an action ping-pong with `payload` bytes.
double pingpong_half_rtt(std::size_t payload, std::size_t eager_threshold) {
  Config cfg = Config::with_nodes(2, GasMode::kPgas);
  cfg.net.eager_threshold = eager_threshold;
  World world(cfg);

  constexpr int kRounds = 20;
  rt::Event done;
  sim::Time finished = 0;
  rt::ActionId pong_id{};
  int rounds = 0;

  auto make_payload = [payload] {
    util::Buffer b;
    b.append_raw(std::vector<std::byte>(payload));
    return b;
  };

  const auto ping_id = world.runtime().actions().add(
      "bench.ping", [&](Context& c, int src, util::Buffer) {
        c.send(src, pong_id, make_payload());
      });
  pong_id = world.runtime().actions().add(
      "bench.pong", [&](Context& c, int, util::Buffer) {
        if (++rounds < kRounds) {
          c.send(1, ping_id, make_payload());
        } else {
          finished = c.now();
          done.set(c.now());
        }
      });

  sim::Time start = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    start = ctx.now();
    ctx.send(1, ping_id, make_payload());
    co_await done;
  });
  world.run();
  // kRounds round trips → 2*kRounds one-way parcels.
  return static_cast<double>(finished - start) / (2.0 * kRounds);
}

// Sustained one-way parcel rate: rank 0 floods rank 1.
double flood_rate(std::size_t payload, std::size_t eager_threshold,
                  std::uint64_t* rendezvous_count) {
  Config cfg = Config::with_nodes(2, GasMode::kPgas);
  cfg.net.eager_threshold = eager_threshold;
  World world(cfg);

  constexpr int kParcels = 200;
  int handled = 0;
  sim::Time last = 0;
  const auto sink = world.runtime().actions().add(
      "bench.sink", [&](Context& c, int, util::Buffer) {
        ++handled;
        last = c.now();
      });

  sim::Time start = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    start = ctx.now();
    for (int i = 0; i < kParcels; ++i) {
      util::Buffer b;
      b.append_raw(std::vector<std::byte>(payload));
      ctx.send(1, sink, std::move(b));
    }
    co_return;
  });
  world.run();
  NVGAS_CHECK(handled == kParcels);
  *rendezvous_count = world.counters().parcels_rendezvous;
  return kParcels / (static_cast<double>(last - start) / 1e9);
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto payloads =
      opt.get_uint_list("payloads", {0, 64, 512, 2048, 4096, 8192, 65536});
  const std::size_t threshold = opt.get_uint("eager-threshold", 4096);
  opt.reject_unknown();

  print_header("R-T2", "parcel transport: latency and rate vs payload");

  nvgas::util::Table t("parcel ping-pong / flood");
  t.columns({"payload", "protocol", "1-way latency", "flood rate"});
  for (const auto p : payloads) {
    std::uint64_t rendezvous = 0;
    const double rate = flood_rate(p, threshold, &rendezvous);
    const double lat = pingpong_half_rtt(p, threshold);
    t.cell(nvgas::util::format_bytes(p))
        .cell(rendezvous > 0 ? "rendezvous" : "eager")
        .cell(nvgas::util::format_ns(lat))
        .cell(nvgas::util::format_rate(rate))
        .end_row();
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: a latency and rate step at the eager threshold\n"
      "(%s): rendezvous pays an extra control round trip per parcel.\n",
      nvgas::util::format_bytes(threshold).c_str());
  return 0;
}
