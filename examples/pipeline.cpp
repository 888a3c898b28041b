// Streaming pipeline across ranks — producer/consumer signalling with
// put-with-remote-notification (Photon's remote completion ledger)
// versus explicit notification parcels.
//
//   build/examples/pipeline [--nodes=8] [--mode=agas-net] [--chunks=64]
//                           [--chunk-bytes=8192] [--signal=true]
//
// Rank i transforms each chunk and pushes it to rank i+1's double
// buffer. With --signal, the consumer learns of arriving data straight
// from the NIC ledger (zero extra messages, zero producer-side CPU);
// without it, the producer follows every put with a notification parcel
// that costs a CPU task at the consumer. Flow control (slot reuse) runs
// on LCOs in both variants.
//
// Note a real effect the simulator surfaces: at some chunk sizes the
// *earlier* wakeup can be mildly counterproductive — the consumer's pull
// (memget) then contends with the producer's next push on the same NIC
// ports. Sweep --chunk-bytes to see the interplay.
#include <cstdio>
#include <vector>

#include "core/nvgas.hpp"

int main(int argc, char** argv) {
  const nvgas::util::Options opt(argc, argv);
  const int nodes = opt.get_int<int>("nodes", 8);
  const std::uint32_t chunks = opt.get_uint<std::uint32_t>("chunks", 64);
  const std::uint32_t chunk_bytes = opt.get_uint<std::uint32_t>("chunk-bytes", 32768);
  const bool use_signal = opt.get_bool("signal", true);

  nvgas::Config cfg =
      nvgas::Config::with_nodes(nodes, nvgas::mode_option(opt));
  opt.reject_unknown();
  cfg.machine.mem_bytes_per_node = 64u << 20;
  nvgas::World world(cfg);

  std::printf("pipeline: %d stages, %u chunks x %s, %s, signalling=%s\n", nodes,
              chunks, nvgas::util::format_bytes(chunk_bytes).c_str(),
              nvgas::gas::to_string(cfg.gas_mode),
              use_signal ? "nic-ledger" : "parcels");

  constexpr int kSlots = 2;  // double buffering per stage

  // Per-(stage, chunk) signalling state, pre-registered before any
  // traffic so the pipeline runs without global synchronization:
  //   arrival[stage][k] — chunk k landed in stage's slot (k % kSlots);
  //   credit[stage][k]  — stage consumed chunk k (its slot is reusable).
  struct StageState {
    std::vector<std::unique_ptr<nvgas::rt::Event>> arrival;
    std::vector<std::unique_ptr<nvgas::rt::Event>> credit;
    std::vector<nvgas::rt::LcoRef> arrival_ref;
    std::vector<nvgas::rt::LcoRef> credit_ref;
  };
  std::vector<StageState> stages(static_cast<std::size_t>(nodes));

  nvgas::Gva buffers;
  std::uint64_t checksum_in = 0;
  std::uint64_t checksum_out = 0;

  const auto notify = world.runtime().actions().add(
      "pipe.notify", [&](nvgas::Context& c, int, nvgas::util::Buffer args) {
        auto r = args.reader();
        const auto chunk = r.get<std::uint32_t>();
        stages[static_cast<std::size_t>(c.rank())].arrival[chunk]->set(c.now());
      });

  world.run_spmd([&](nvgas::Context& ctx) -> nvgas::Fiber {
    const int rank = ctx.rank();
    auto& st = stages[static_cast<std::size_t>(rank)];

    if (rank == 0) {
      buffers = nvgas::alloc_cyclic(
          ctx, static_cast<std::uint32_t>(nodes * kSlots), chunk_bytes);
    }
    // Pre-register this stage's per-chunk events.
    st.arrival.resize(chunks);
    st.credit.resize(chunks);
    st.arrival_ref.resize(chunks);
    st.credit_ref.resize(chunks);
    for (std::uint32_t k = 0; k < chunks; ++k) {
      st.arrival[k] = std::make_unique<nvgas::rt::Event>();
      st.credit[k] = std::make_unique<nvgas::rt::Event>();
      st.arrival_ref[k] = ctx.make_ref(*st.arrival[k]);
      st.credit_ref[k] = ctx.make_ref(*st.credit[k]);
    }
    co_await world.coll().barrier(ctx);  // one setup barrier only

    auto slot_gva = [&](int stage, std::uint32_t k) {
      return buffers.advanced(
          static_cast<std::int64_t>(stage * kSlots +
                                    static_cast<int>(k % kSlots)) *
              chunk_bytes,
          chunk_bytes);
    };

    const std::uint32_t words = chunk_bytes / 8;
    auto process = [&](std::vector<std::uint64_t>& data) {
      ctx.charge(words * 2);  // per-word transform cost
      for (auto& w : data) w = w * 1099511628211ULL + 11;
    };

    for (std::uint32_t k = 0; k < chunks; ++k) {
      std::vector<std::uint64_t> data(words);
      if (rank == 0) {
        nvgas::util::Rng rng(k + 1);
        for (auto& w : data) w = rng.next();
        for (auto w : data) checksum_in ^= w;
      } else {
        co_await *st.arrival[k];  // chunk k is in my slot
        const auto raw =
            co_await nvgas::memget(ctx, slot_gva(rank, k), chunk_bytes);
        std::memcpy(data.data(), raw.data(), chunk_bytes);
        ctx.set_lco(st.credit_ref[k]);  // my slot's PREVIOUS user may refill
      }

      process(data);

      if (rank == nodes - 1) {
        for (auto w : data) checksum_out ^= w;
      } else {
        // Flow control: wait until downstream consumed the chunk that
        // used this slot last (k - kSlots).
        if (k >= kSlots) {
          co_await *stages[static_cast<std::size_t>(rank + 1)]
                        .credit[k - kSlots];
        }
        const auto dst = slot_gva(rank + 1, k);
        auto bytes = std::as_bytes(std::span(data));
        if (use_signal) {
          co_await nvgas::memput_signal(
              ctx, dst, {bytes.begin(), bytes.end()},
              stages[static_cast<std::size_t>(rank + 1)].arrival_ref[k]);
        } else {
          co_await nvgas::memput(ctx, dst, bytes);
          ctx.send(rank + 1, notify, nvgas::rt::pack_args(k));
        }
      }
    }
  });

  std::printf("\nchunks through      : %u (%s end to end)\n", chunks,
              nvgas::util::format_bytes(static_cast<std::uint64_t>(chunks) *
                                        chunk_bytes)
                  .c_str());
  std::printf("simulated time      : %s\n",
              nvgas::util::format_ns(static_cast<double>(world.now())).c_str());
  std::printf("parcels             : %llu\n",
              static_cast<unsigned long long>(world.counters().parcels_sent));
  std::printf("pipeline intact     : %s\n",
              checksum_out != 0 && checksum_in != 0 ? "yes" : "NO DATA");
  return 0;
}
