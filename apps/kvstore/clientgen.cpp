#include "kvstore/clientgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace nvgas::apps::kv {

ClientGen::ClientGen(World& world, KvServer& server, ClientConfig cfg,
                     sim::Time slo_target_ns)
    : world_(&world),
      server_(&server),
      cfg_(std::move(cfg)),
      zipf_(cfg_.keyspace, cfg_.zipf_s) {
  NVGAS_CHECK(cfg_.rate_per_node > 0 && cfg_.duration > 0);
  NVGAS_CHECK(cfg_.get_fraction + cfg_.put_fraction <= 1.0);
  NVGAS_CHECK(!cfg_.diurnal.empty());
  NVGAS_CHECK(cfg_.value_size <= server_->params().value_size);
  const auto n = static_cast<std::size_t>(world.fabric().nodes());
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes_.emplace_back(slo_target_ns);
  }
  reply_action_ = world.runtime().actions().add(
      "kv.client.reply", [this](rt::Context& c, int, util::Buffer args) {
        on_reply(c, std::move(args));
      });
}

double ClientGen::rate_at(sim::Time t) const {
  double mult = 1.0;
  if (t >= cfg_.t_start && t < cfg_.t_start + cfg_.duration) {
    const auto phase = static_cast<std::size_t>(
        (static_cast<double>(t - cfg_.t_start) /
         static_cast<double>(cfg_.duration)) *
        static_cast<double>(cfg_.diurnal.size()));
    mult = cfg_.diurnal[std::min(phase, cfg_.diurnal.size() - 1)];
  }
  if (t >= cfg_.flash_begin && t < cfg_.flash_end) mult *= cfg_.flash_mult;
  return cfg_.rate_per_node * mult;
}

rt::Fiber ClientGen::drive(rt::Context& ctx) {
  auto& st = nodes_[static_cast<std::size_t>(ctx.rank())];
  util::Rng rng(util::SplitMix64(
                    cfg_.seed ^ (0x9e37u + static_cast<std::uint64_t>(ctx.rank())))
                    .next());
  sim::Time t = cfg_.t_start;
  const sim::Time t_end = cfg_.t_start + cfg_.duration;
  while (t < t_end) {
    // Exponential interarrival at the current (diurnal × flash) rate.
    const double u = rng.uniform();
    const double gap_ns = -std::log(1.0 - u) * 1e9 / rate_at(t);
    t += std::max<sim::Time>(1, static_cast<sim::Time>(gap_ns));
    if (t >= t_end) break;
    if (t > ctx.now()) co_await ctx.sleep(t - ctx.now());
    // else: arrivals outpaced the sim clock — issue immediately, the
    // open-loop backlog is real offered load.
    issue(ctx, st, rng, t);
  }
}

void ClientGen::issue(rt::Context& c, NodeState& st, util::Rng& rng,
                      sim::Time t_due) {
  std::uint64_t key_idx = zipf_.sample(rng);
  if (cfg_.t_shift != 0 && c.now() >= cfg_.t_shift) {
    key_idx = (key_idx + cfg_.keyspace / 2) % cfg_.keyspace;
  }
  const double r = rng.uniform();
  std::uint8_t op = OP_GET;
  if (r >= cfg_.get_fraction) {
    op = r < cfg_.get_fraction + cfg_.put_fraction ? OP_PUT : OP_DEL;
  }
  const std::uint64_t token = st.next_token++;

  MsgHdr hdr;
  hdr.op = op;
  hdr.klen = sizeof(std::uint64_t);
  std::vector<std::byte> value;
  if (op == OP_PUT) {
    hdr.vlen = cfg_.value_size;
    if (cfg_.ttl_fraction > 0 && rng.uniform() < cfg_.ttl_fraction) {
      hdr.ttl_us = cfg_.ttl_us;
    }
    // Repeated tag byte: any mixed-byte GET response is a torn read.
    const auto tag = static_cast<std::byte>(
        (token * 131 + static_cast<std::uint64_t>(c.rank()) * 17) & 0xff);
    value.assign(cfg_.value_size, tag);
  }
  ReqMeta meta;
  meta.token = token;
  // Latency counts from the scheduled arrival, so a generator that runs
  // late (its node's CPU busy) shows up in the recorded latency.
  meta.t_issue = t_due;
  meta.reply_action = reply_action_;
  meta.reply_node = c.rank();

  std::vector<std::byte> key(sizeof(std::uint64_t));
  std::memcpy(key.data(), &key_idx, sizeof key_idx);

  st.issued++;
  // Fire-and-forget request fiber: the arrival loop never blocks on
  // owner resolution, keeping the generator open-loop.
  c.spawn(c.rank(), [this, hdr, meta, key = std::move(key),
                     value = std::move(value)](rt::Context& cc) -> rt::Fiber {
    co_await server_->submit(cc, hdr, key, value, meta);
  });
}

void ClientGen::on_reply(rt::Context& c, util::Buffer raw) {
  const Response rp = decode_response(raw);
  auto& st = nodes_[static_cast<std::size_t>(c.rank())];
  st.completed++;
  if (rp.hdr.code < 3) st.codes[rp.hdr.code]++;
  const sim::Time latency = c.now() - rp.hdr.t_issue;
  st.slo.record(rp.hdr.op, c.now(), latency);
  if (rp.hdr.op == OP_GET && rp.hdr.code == kOk && !rp.value.empty()) {
    const std::byte tag = rp.value[0];
    for (const std::byte b : rp.value) {
      if (b != tag) {
        st.torn++;
        break;
      }
    }
  }
}

SloTracker ClientGen::merged_slo() const {
  SloTracker out = nodes_[0].slo;
  for (std::size_t i = 1; i < nodes_.size(); ++i) out.merge(nodes_[i].slo);
  return out;
}

std::uint64_t ClientGen::issued() const {
  std::uint64_t n = 0;
  for (const auto& s : nodes_) n += s.issued;
  return n;
}

std::uint64_t ClientGen::completed() const {
  std::uint64_t n = 0;
  for (const auto& s : nodes_) n += s.completed;
  return n;
}

std::uint64_t ClientGen::torn() const {
  std::uint64_t n = 0;
  for (const auto& s : nodes_) n += s.torn;
  return n;
}

std::uint64_t ClientGen::code_count(std::uint8_t code) const {
  NVGAS_CHECK(code < 3);
  std::uint64_t n = 0;
  for (const auto& s : nodes_) n += s.codes[code];
  return n;
}

}  // namespace nvgas::apps::kv
