#include "kvstore/server.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "gas/gheap.hpp"

namespace nvgas::apps::kv {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

SlotHdr load_slot(std::span<const std::byte> block, std::uint32_t slot,
                  std::uint32_t slot_size) {
  SlotHdr h;
  std::memcpy(&h, block.data() + std::size_t{slot} * slot_size, sizeof h);
  return h;
}

}  // namespace

KvServer::KvServer(World& world, KvParams params)
    : world_(&world),
      params_(params),
      // protolint:allow(P4: simulator-host array, one per-node server state per simulated node)
      nodes_(static_cast<std::size_t>(world.fabric().nodes())) {
  NVGAS_CHECK(params_.buckets > 0 && params_.slots_per_bucket > 0);
  auto& actions = world.runtime().actions();
  op_action_ =
      actions.add("kv.op", [this](rt::Context& c, int, util::Buffer args) {
        (void)handle_op(c, std::move(args));
      });
  ttl_action_ =
      actions.add("kv.ttl", [this](rt::Context& c, int, util::Buffer args) {
        handle_ttl(c, std::move(args));
      });
  metrics_action_ =
      actions.add("kv.metrics", [this](rt::Context& c, int src, util::Buffer args) {
        handle_metrics(c, src, std::move(args));
      });
}

void KvServer::setup(rt::Context& ctx) {
  table_ = alloc_cyclic(ctx, params_.buckets, block_size());
}

std::uint64_t KvServer::hash_key(std::span<const std::byte> key) const {
  std::uint64_t h = kFnvOffset;
  for (const std::byte b : key) {
    h ^= static_cast<std::uint64_t>(b);
    h *= kFnvPrime;
  }
  // SplitMix finalizer: FNV alone disperses short counter-like keys
  // poorly in the low bits, which is exactly where % buckets looks.
  return util::SplitMix64(h).next();
}

std::uint32_t KvServer::bucket_of(std::span<const std::byte> key) const {
  return static_cast<std::uint32_t>(hash_key(key) % params_.buckets);
}

gas::Gva KvServer::bucket_addr(std::uint32_t bucket) const {
  NVGAS_CHECK(bucket < params_.buckets);
  return table_.advanced(
      static_cast<std::int64_t>(bucket) * block_size(), block_size());
}

ApplyAwaiter KvServer::submit(rt::Context& ctx, const MsgHdr& hdr,
                              std::span<const std::byte> key,
                              std::span<const std::byte> value,
                              const ReqMeta& meta) {
  return apply(ctx, bucket_addr(bucket_of(key)), op_action_,
               encode_request(hdr, key, value, meta));
}

void KvServer::submit_metrics(rt::Context& ctx, int node, const ReqMeta& meta) {
  util::Buffer b;
  b.put(meta);
  ctx.send(node, metrics_action_, std::move(b));
}

Metrics KvServer::metrics(int node) const {
  return nodes_[static_cast<std::size_t>(node)].metrics;
}

Metrics KvServer::total_metrics() const {
  Metrics total;
  for (const auto& n : nodes_) total += n.metrics;
  return total;
}

bool KvServer::try_lock(rt::Context& c, std::uint32_t bucket,
                        rt::Event& turn) {
  auto& l = state_of(c.rank()).locks[bucket];
  if (!l.busy) {
    l.busy = true;
    return true;
  }
  l.waiters.push_back(&turn);
  return false;
}

void KvServer::unlock(rt::Context& c, std::uint32_t bucket) {
  auto& l = state_of(c.rank()).locks[bucket];
  NVGAS_CHECK_MSG(l.busy, "kv bucket lock released while free");
  if (l.waiters.empty()) {
    l.busy = false;
    return;
  }
  rt::Event* next = l.waiters.front();
  l.waiters.pop_front();
  // `busy` stays true: ownership hands straight to the next waiter.
  next->set(c.now());
}

void KvServer::reply(rt::Context& c, const Request& rq, std::uint8_t code,
                     std::span<const std::byte> value) {
  if (rq.meta.reply_action == 0) return;
  RespHdr h;
  h.token = rq.meta.token;
  h.t_issue = rq.meta.t_issue;
  h.op = rq.hdr.op;
  h.code = code;
  h.vlen = static_cast<std::uint32_t>(value.size());
  c.send(rq.meta.reply_node, rq.meta.reply_action, encode_response(h, value));
}

rt::Fiber KvServer::handle_op(rt::Context& c, util::Buffer raw) {
  c.charge(params_.op_cost_ns);
  const Request rq = decode_request(raw);
  const std::uint32_t bucket = bucket_of(rq.key);
  const std::uint64_t kh = hash_key(rq.key);
  const gas::Gva baddr = bucket_addr(bucket);
  const std::uint32_t bsize = block_size();
  const std::uint32_t ssize = slot_size();
  const std::uint32_t nslots = params_.slots_per_bucket;

  if (rq.hdr.op == OP_GET) {
    // Lock-free: the whole-bucket memget is one GAS op, atomic against
    // any concurrent single-memput slot mutation.
    const auto bytes = co_await memget(c, baddr, bsize);
    for (std::uint32_t i = 0; i < nslots; ++i) {
      const SlotHdr sh = load_slot(bytes, i, ssize);
      if (sh.state == kSlotLive && sh.key_hash == kh) {
        state_of(c.rank()).metrics.gets_hit++;
        reply(c, rq, kOk,
              std::span<const std::byte>(bytes).subspan(
                  std::size_t{i} * ssize + sizeof(SlotHdr), sh.vlen));
        co_return;
      }
    }
    state_of(c.rank()).metrics.gets_miss++;
    reply(c, rq, kNotFound, {});
    co_return;
  }

  // Mutators serialize per (node, bucket) so slot assignment and the
  // version counter never interleave at one owner.
  {
    // protolint:allow(P2: turn is parked by pointer in the bucket lock's waiter queue; unlock() resolves the head waiter)
    rt::Event turn;
    if (!try_lock(c, bucket, turn)) co_await turn;
  }
  const auto bytes = co_await memget(c, baddr, bsize);
  std::int32_t found = -1;
  std::int32_t vacant = -1;
  SlotHdr cur{};
  for (std::uint32_t i = 0; i < nslots; ++i) {
    const SlotHdr sh = load_slot(bytes, i, ssize);
    if (sh.state == kSlotLive && sh.key_hash == kh) {
      found = static_cast<std::int32_t>(i);
      cur = sh;
      break;
    }
    if (vacant < 0 && sh.state != kSlotLive) {
      vacant = static_cast<std::int32_t>(i);
    }
  }
  auto& m = state_of(c.rank()).metrics;

  if (rq.hdr.op == OP_PUT) {
    NVGAS_CHECK_MSG(rq.hdr.vlen <= params_.value_size,
                    "kv PUT value exceeds the configured slot size");
    const std::int32_t slot = found >= 0 ? found : vacant;
    if (slot < 0) {
      m.no_space++;
      unlock(c, bucket);
      reply(c, rq, kNoSpace, {});
      co_return;
    }
    const SlotHdr old =
        load_slot(bytes, static_cast<std::uint32_t>(slot), ssize);
    SlotHdr nh;
    nh.key_hash = kh;
    nh.ver = old.ver + 1;
    nh.state = kSlotLive;
    nh.flags = rq.hdr.ttl_us > 0 ? kEntryHasTtl : std::uint8_t{0};
    nh.vlen = rq.hdr.vlen;
    std::vector<std::byte> slot_bytes(ssize);  // zero-padded
    std::memcpy(slot_bytes.data(), &nh, sizeof nh);
    std::memcpy(slot_bytes.data() + sizeof nh, rq.value.data(), rq.value.size());
    co_await memput(c, baddr.advanced(slot * ssize, bsize),
                    std::move(slot_bytes));
    m.puts++;
    unlock(c, bucket);
    reply(c, rq, kOk, {});
    // TTL bookkeeping at the bucket's home node: a new TTL re-arms, an
    // overwrite of a TTL'd entry with a plain one cancels.
    const bool had_ttl =
        old.state == kSlotLive && (old.flags & kEntryHasTtl) != 0;
    if (rq.hdr.ttl_us > 0) {
      const sim::Time expiry =
          c.now() + sim::Time{rq.hdr.ttl_us} * 1000;
      ttl_update(c, bucket, rq.key, nh.ver, expiry);
    } else if (had_ttl) {
      ttl_update(c, bucket, rq.key, nh.ver, 0);
    }
    co_return;
  }

  NVGAS_CHECK_MSG(rq.hdr.op == OP_DEL, "kv.op: unknown op");
  bool guard_ok = true;
  if ((rq.hdr.flags & kReqVersionGuard) != 0) {
    guard_ok = found >= 0 && cur.ver == static_cast<std::uint32_t>(rq.meta.token);
  }
  const bool expiry_del = (rq.hdr.flags & kReqExpiry) != 0;
  if (found < 0 || !guard_ok) {
    if (!expiry_del) m.dels_missed++;
    unlock(c, bucket);
    reply(c, rq, kNotFound, {});
    co_return;
  }
  SlotHdr nh = cur;
  nh.ver = cur.ver + 1;
  nh.state = kSlotTombstone;
  nh.flags = 0;
  nh.vlen = 0;
  // Header-only write: one memput, value bytes are dead once state
  // flips (GETs check state before touching them).
  std::vector<std::byte> hdr_bytes(sizeof nh);
  std::memcpy(hdr_bytes.data(), &nh, sizeof nh);
  co_await memput(c, baddr.advanced(found * ssize, bsize),
                  std::move(hdr_bytes));
  if (expiry_del) {
    m.expirations++;
  } else {
    m.dels_applied++;
  }
  unlock(c, bucket);
  reply(c, rq, kOk, {});
  if ((cur.flags & kEntryHasTtl) != 0 && !expiry_del) {
    ttl_update(c, bucket, rq.key, nh.ver, 0);
  }
  co_return;
}

void KvServer::ttl_update(rt::Context& c, std::uint32_t bucket,
                          const std::vector<std::byte>& key, std::uint32_t ver,
                          sim::Time expiry) {
  util::Buffer b;
  b.put(bucket);
  b.put(ver);
  b.put(expiry);
  b.put_bytes(key);
  const int home = world_->gas().heap().home_of(bucket_addr(bucket));
  c.send(home, ttl_action_, std::move(b));
}

void KvServer::handle_ttl(rt::Context& c, util::Buffer raw) {
  auto r = raw.reader();
  const auto bucket = r.get<std::uint32_t>();
  const auto ver = r.get<std::uint32_t>();
  const auto expiry = r.get<sim::Time>();
  auto key = r.get_bytes();
  auto& st = state_of(c.rank());
  auto& eng = world_->engine();
  const auto it = st.ttl.find(key);
  if (it != st.ttl.end()) {
    if (eng.cancel(it->second.timer)) st.metrics.ttl_cancelled++;
    st.ttl.erase(it);
  }
  if (expiry == 0) return;
  const int node = c.rank();
  TtlEntry e;
  e.ver = ver;
  e.timer = eng.at_cancellable(
      std::max(expiry, eng.now()), [this, node, bucket, ver, key]() mutable {
        on_ttl_fire(node, bucket, std::move(key), ver);
      });
  st.metrics.ttl_armed++;
  st.ttl[std::move(key)] = e;
}

void KvServer::on_ttl_fire(int node, std::uint32_t /*bucket*/,
                           std::vector<std::byte> key, std::uint32_t ver) {
  auto& st = state_of(node);
  st.ttl.erase(key);  // the timer just fired; the entry is spent
  // Version-guarded internal DEL through the normal request path: if the
  // key was re-PUT since this timer was armed, the guard misses and the
  // new entry survives.
  world_->runtime().spawn_at(
      node, world_->engine().now(),
      [this, key = std::move(key), ver](rt::Context& cc) -> rt::Fiber {
        MsgHdr h;
        h.op = OP_DEL;
        h.flags = kReqVersionGuard | kReqExpiry;
        h.klen = static_cast<std::uint32_t>(key.size());
        ReqMeta meta;
        meta.token = ver;
        meta.t_issue = cc.now();
        meta.reply_action = 0;
        meta.reply_node = cc.rank();
        co_await submit(cc, h, key, {}, meta);
      });
}

void KvServer::handle_metrics(rt::Context& c, int /*src*/, util::Buffer raw) {
  auto r = raw.reader();
  const auto meta = r.get<ReqMeta>();
  if (meta.reply_action == 0) return;
  const Metrics m = state_of(c.rank()).metrics;
  RespHdr h;
  h.token = meta.token;
  h.t_issue = meta.t_issue;
  h.op = OP_METRICS;
  h.code = kOk;
  h.vlen = sizeof(Metrics);
  c.send(meta.reply_node, meta.reply_action,
         encode_response(h, std::as_bytes(std::span(&m, 1))));
}

}  // namespace nvgas::apps::kv
