// KV wire protocol: the request/response format the kvstore carries in
// parcels (docs/KVSTORE.md). Modeled on the minimal secmem-style KV
// framing — an op byte plus klen/vlen/ttl header — adapted to the
// runtime's typed parcel payloads (util::Buffer).
//
// A request is MsgHdr + key bytes + value bytes + ReqMeta. The key is
// opaque bytes on the wire; the simulated clients use 8-byte keys. The
// response echoes the requester's token and issue time so the client
// side needs no pending-request table to compute served latency.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/buffer.hpp"

namespace nvgas::apps::kv {

enum Op : std::uint8_t {
  OP_PUT = 1,
  OP_GET = 2,
  OP_DEL = 3,
  OP_METRICS = 4,
};

// Response status codes.
enum Code : std::uint8_t {
  kOk = 0,        // PUT stored / GET hit / DEL removed a live entry
  kNotFound = 1,  // GET or DEL on an absent key
  kNoSpace = 2,   // PUT found no free slot in the key's bucket
};

// Fixed-size request header. `ttl_us` is the entry's time-to-live in
// microseconds (0 = no expiry); the server converts it to an absolute
// simulated-time deadline when it arms the expiry timer.
struct MsgHdr {
  std::uint8_t op = 0;
  std::uint8_t flags = 0;
  std::uint16_t reserved = 0;
  std::uint32_t klen = 0;
  std::uint32_t vlen = 0;
  std::uint32_t ttl_us = 0;
};
static_assert(sizeof(MsgHdr) == 16);

// Request trailer: who to answer and how to correlate the answer.
// `reply_action` == 0 suppresses the response (server-internal requests,
// e.g. TTL-expiry deletes, use this). `token` is requester-scoped.
struct ReqMeta {
  std::uint64_t token = 0;
  sim::Time t_issue = 0;
  std::uint32_t reply_action = 0;
  std::int32_t reply_node = -1;
};
static_assert(sizeof(ReqMeta) == 24);

// Fixed-size response header; GET responses append the value bytes.
struct RespHdr {
  std::uint64_t token = 0;
  sim::Time t_issue = 0;
  std::uint8_t op = 0;
  std::uint8_t code = 0;
  std::uint16_t reserved = 0;
  std::uint32_t vlen = 0;
};
static_assert(sizeof(RespHdr) == 24);

// Consume `n` raw bytes from a reader into an owned vector.
inline std::vector<std::byte> take_raw(util::Buffer::Reader& r, std::size_t n) {
  const auto src = r.rest();
  NVGAS_CHECK_MSG(n <= src.size(), "kv frame underrun");
  std::vector<std::byte> out(src.begin(),
                             src.begin() + static_cast<std::ptrdiff_t>(n));
  r.skip(n);
  return out;
}

// Decoded request, with owned key/value bytes (a handler fiber may
// suspend, so it cannot keep spans into the dispatch buffer).
struct Request {
  MsgHdr hdr;
  std::vector<std::byte> key;
  std::vector<std::byte> value;
  ReqMeta meta;
};

inline util::Buffer encode_request(const MsgHdr& hdr,
                                   std::span<const std::byte> key,
                                   std::span<const std::byte> value,
                                   const ReqMeta& meta) {
  NVGAS_CHECK(hdr.klen == key.size() && hdr.vlen == value.size());
  util::Buffer buf(sizeof(MsgHdr) + key.size() + value.size() + sizeof(ReqMeta));
  buf.put(hdr);
  buf.append_raw(key);
  buf.append_raw(value);
  buf.put(meta);
  return buf;
}

inline Request decode_request(const util::Buffer& buf) {
  auto r = buf.reader();
  Request rq;
  rq.hdr = r.get<MsgHdr>();
  rq.key = take_raw(r, rq.hdr.klen);
  rq.value = take_raw(r, rq.hdr.vlen);
  rq.meta = r.get<ReqMeta>();
  return rq;
}

inline util::Buffer encode_response(const RespHdr& hdr,
                                    std::span<const std::byte> value) {
  NVGAS_CHECK(hdr.vlen == value.size());
  util::Buffer buf(sizeof(RespHdr) + value.size());
  buf.put(hdr);
  buf.append_raw(value);
  return buf;
}

struct Response {
  RespHdr hdr;
  std::vector<std::byte> value;
};

inline Response decode_response(const util::Buffer& buf) {
  auto r = buf.reader();
  Response rp;
  rp.hdr = r.get<RespHdr>();
  rp.value = take_raw(r, rp.hdr.vlen);
  return rp;
}

// Per-node server counters, shipped verbatim as an OP_METRICS response
// payload (trivially copyable by design).
struct Metrics {
  std::uint64_t puts = 0;        // PUTs applied (stored or overwritten)
  std::uint64_t no_space = 0;    // PUTs rejected: bucket full
  std::uint64_t gets_hit = 0;
  std::uint64_t gets_miss = 0;
  std::uint64_t dels_applied = 0;  // DELs that removed a live entry
  std::uint64_t dels_missed = 0;   // DELs on an absent key
  std::uint64_t expirations = 0;   // TTL timers that fired and removed
  std::uint64_t ttl_armed = 0;     // expiry timers armed
  std::uint64_t ttl_cancelled = 0; // expiry timers cancelled (overwrite/DEL)

  Metrics& operator+=(const Metrics& o) {
    puts += o.puts;
    no_space += o.no_space;
    gets_hit += o.gets_hit;
    gets_miss += o.gets_miss;
    dels_applied += o.dels_applied;
    dels_missed += o.dels_missed;
    expirations += o.expirations;
    ttl_armed += o.ttl_armed;
    ttl_cancelled += o.ttl_cancelled;
    return *this;
  }
};
static_assert(std::is_trivially_copyable_v<Metrics>);

}  // namespace nvgas::apps::kv
