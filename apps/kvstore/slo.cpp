#include "kvstore/slo.hpp"

#include <algorithm>

#include "kvstore/proto.hpp"

namespace nvgas::apps::kv {

void SloTracker::record(std::uint8_t op, sim::Time t_complete,
                        sim::Time latency_ns) {
  switch (op) {
    case OP_PUT: put_.record(latency_ns); break;
    case OP_GET: get_.record(latency_ns); break;
    case OP_DEL: del_.record(latency_ns); break;
    default: NVGAS_CHECK_MSG(false, "SloTracker: unknown op"); break;
  }
  if (completed_ == 0 || t_complete < first_complete_) {
    first_complete_ = t_complete;
  }
  last_complete_ = std::max(last_complete_, t_complete);
  ++completed_;
  if (latency_ns <= slo_target_) ++within_slo_;
}

void SloTracker::merge(const SloTracker& o) {
  NVGAS_CHECK(slo_target_ == o.slo_target_);
  put_.merge(o.put_);
  get_.merge(o.get_);
  del_.merge(o.del_);
  if (o.completed_ > 0) {
    if (completed_ == 0 || o.first_complete_ < first_complete_) {
      first_complete_ = o.first_complete_;
    }
    last_complete_ = std::max(last_complete_, o.last_complete_);
  }
  completed_ += o.completed_;
  within_slo_ += o.within_slo_;
}

const LatencyHistogram& SloTracker::hist(std::uint8_t op) const {
  switch (op) {
    case OP_PUT: return put_;
    case OP_DEL: return del_;
    default: return get_;
  }
}

namespace {
OpLatency summarize(const LatencyHistogram& h) {
  OpLatency out;
  out.count = h.total();
  if (h.total() == 0) return out;
  out.p50 = h.percentile(0.50);
  out.p99 = h.percentile(0.99);
  out.p999 = h.percentile(0.999);
  out.mean = h.sum() / h.total();
  return out;
}
}  // namespace

SloReport SloTracker::report() const {
  SloReport rep;
  rep.put = summarize(put_);
  rep.get = summarize(get_);
  rep.del = summarize(del_);
  rep.completed = completed_;
  rep.within_slo = within_slo_;
  if (completed_ > 0 && last_complete_ > first_complete_) {
    rep.goodput_ops_per_sec =
        static_cast<double>(within_slo_) /
        (static_cast<double>(last_complete_ - first_complete_) / 1e9);
  }
  return rep;
}

}  // namespace nvgas::apps::kv
