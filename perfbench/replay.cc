#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>

#include "durability/storage.h"
#include "durability/wal.h"
#include "ingest/ingest_pipeline.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/audit.h"
#include "quantile/factory.h"

namespace perfbench {

namespace net = streamq::net;
namespace ingest = streamq::ingest;
namespace dur = streamq::durability;
namespace obs = streamq::obs;
namespace fs = std::filesystem;

namespace {

// The shipped server's settings (net::ServerOptions and IngestOptions
// defaults), so replayed calls see the shapes the server produces.
constexpr int kShards = 2;
constexpr size_t kRingCapacity = size_t{1} << 14;
constexpr size_t kWorkerBatch = 256;
constexpr uint64_t kSyncInterval = 1024;
constexpr uint64_t kSegmentBytes = uint64_t{4} << 20;
constexpr size_t kAuditReservoir = 4096;
/// BATCH_INSERT frames per replay stage.
constexpr size_t kReplayFrames = 512;
/// Bulk workloads FLUSH once per this many frames per stream in the
/// replay, each followed by one QUERY and one RANK.
constexpr int kBulkFlushEvery = 64;

// Chrome trace tracks.
constexpr int kTrackInline = 101;
constexpr int kTrackWhatIf = 102;
constexpr int kTrackServer = 103;
constexpr int kTrackQuantile = 104;
constexpr int kTrackDurability = 105;

streamq::SketchConfig ConfigOf(const net::CreateParams& p) {
  streamq::SketchConfig config;
  streamq::ParseAlgorithm(p.algorithm, &config.algorithm);
  config.eps = p.eps;
  config.log_universe = static_cast<int>(p.log_universe);
  config.depth = static_cast<int>(p.depth);
  config.seed = p.seed;
  return config;
}

ingest::IngestOptions PipelineOptions(const StreamSpec& stream,
                                      dur::Storage* storage,
                                      const std::string& dir, bool durable,
                                      bool audit) {
  ingest::IngestOptions o;
  o.sketch = ConfigOf(stream.params);
  o.shards = kShards;
  o.ring_capacity = kRingCapacity;
  o.durability.enabled = durable;
  o.durability.storage = storage;
  o.durability.dir = dir;
  o.durability.sync_interval = kSyncInterval;
  o.audit.enabled = audit;
  o.audit.reservoir = kAuditReservoir;
  return o;
}

struct ReplayReq {
  enum Type { kBatch, kFlush, kQuery, kRank } type = kBatch;
  int stream = 0;
  int producer = 0;
  size_t pool_idx = 0;
  double phi = 0.5;
  uint64_t value = 0;
};

/// The request sequence of one replay stage: `frames` BATCH_INSERTs
/// round-robin over the producers, with FLUSH and reads interleaved the
/// way the workload interleaves them.
std::vector<ReplayReq> Schedule(const WorkloadSpec& spec,
                                const std::vector<FramePool>& pools,
                                size_t frames) {
  std::vector<std::vector<uint64_t>> sorted(spec.streams.size());
  for (size_t p = 0; p < pools.size(); ++p) {
    auto& s = sorted[static_cast<size_t>(spec.producer_stream[p])];
    for (const auto& f : pools[p].values) s.insert(s.end(), f.begin(), f.end());
  }
  for (auto& s : sorted) std::sort(s.begin(), s.end());
  auto read = [&](int k, int stream) {
    ReplayReq r;
    r.type = k % 2 == 0 ? ReplayReq::kQuery : ReplayReq::kRank;
    r.stream = stream;
    r.phi = PhiGrid()[static_cast<size_t>(k / 2) % PhiGrid().size()];
    const auto& s = sorted[static_cast<size_t>(stream)];
    r.value = s[static_cast<size_t>(r.phi * static_cast<double>(s.size() - 1))];
    return r;
  };

  std::vector<ReplayReq> out;
  std::vector<uint64_t> sent(pools.size(), 0);
  const int flush_every = spec.open_loop ? spec.flush_every : kBulkFlushEvery;
  const double frames_per_s =
      spec.rate_vals_per_s / static_cast<double>(spec.frame_values);
  double read_credit = 0.0;
  int reads = 0;
  for (size_t i = 0; i < frames; ++i) {
    ReplayReq batch;
    batch.producer = static_cast<int>(i % pools.size());
    batch.stream = spec.producer_stream[static_cast<size_t>(batch.producer)];
    batch.pool_idx = (i / pools.size()) % spec.pool_frames;
    out.push_back(batch);
    const uint64_t n = ++sent[static_cast<size_t>(batch.producer)];
    if (flush_every > 0 && n % static_cast<uint64_t>(flush_every) == 0) {
      ReplayReq flush;
      flush.type = ReplayReq::kFlush;
      flush.stream = batch.stream;
      out.push_back(flush);
      if (!spec.open_loop) {
        out.push_back(read(reads++, batch.stream));
        out.push_back(read(reads++, batch.stream));
      }
    }
    if (spec.open_loop && spec.read_rate > 0) {
      read_credit += spec.read_rate / frames_per_s;
      while (read_credit >= 1.0) {
        read_credit -= 1.0;
        out.push_back(
            read(reads, (reads / 2) % static_cast<int>(spec.streams.size())));
        ++reads;
      }
    }
  }
  return out;
}

/// Sums, per request, the self time of every span under a root called
/// `root_name`, by span name ("unattributed" for the root's own); returns
/// the root durations alongside.
void SelfTimesByLayer(const SpanLog& log, const std::string& root_name,
                      std::vector<double>* root_ns,
                      std::map<std::string, std::vector<double>>* by_layer) {
  const std::vector<Span>& spans = log.spans();
  std::unordered_map<uint64_t, size_t> index;
  std::unordered_map<uint64_t, double> child_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
    if (spans[i].parent != 0) child_ns[spans[i].parent] += spans[i].DurNs();
  }
  auto root_of = [&](const Span& s) {
    const Span* cur = &s;
    while (cur->parent != 0) cur = &spans[index[cur->parent]];
    return cur;
  };
  std::map<uint64_t, std::map<std::string, double>> per_request;
  for (const Span& s : spans) {
    const Span* root = root_of(s);
    if (root_name != root->name) continue;
    const double self = s.DurNs() - child_ns[s.id];
    per_request[root->id][s.parent == 0 ? std::string("unattributed")
                                        : std::string(s.name)] += self;
    if (s.parent == 0) root_ns->push_back(s.DurNs());
  }
  std::map<std::string, bool> names;
  for (const auto& [id, layers] : per_request) {
    for (const auto& [name, ns] : layers) names[name] = true;
  }
  for (const auto& [name, unused] : names) {
    std::vector<double>& v = (*by_layer)[name];
    for (const auto& [id, layers] : per_request) {
      const auto it = layers.find(name);
      v.push_back(it == layers.end() ? 0.0 : it->second);
    }
  }
}

struct StreamReplay {
  std::unique_ptr<ingest::IngestPipeline> pipeline;
  // Replicas of the pipeline's per-shard state, driven inline.
  std::vector<std::unique_ptr<streamq::QuantileSketch>> shards;
  std::vector<std::unique_ptr<obs::ReservoirShadow>> shadows;
  std::vector<std::unique_ptr<dur::WalWriter>> wals;
  std::vector<uint64_t> since_sync;
  std::vector<std::vector<uint64_t>> runs;
  uint64_t next_seq = 1;
};

}  // namespace

ReplayResult RunReplay(const WorkloadSpec& spec,
                       const std::vector<FramePool>& pools,
                       const ReplayOptions& options) {
  ReplayResult result;
  auto fail = [&](const std::string& what) {
    result.failures.push_back("replay: " + what);
    return result;
  };
  auto& m = result.metrics;
  dur::PosixStorage storage;
  const std::string root_dir = options.work_dir + "/replay";
  std::error_code ec;
  fs::remove_all(root_dir, ec);
  fs::create_directories(root_dir, ec);
  const bool durable = spec.durable();
  const bool audited = spec.audit;
  const std::vector<ReplayReq> schedule = Schedule(spec, pools, kReplayFrames);

  // --- stage 1: one request at a time through every layer, inline --------
  std::vector<StreamReplay> streams(spec.streams.size());
  for (size_t s = 0; s < spec.streams.size(); ++s) {
    const StreamSpec& stream = spec.streams[s];
    StreamReplay& st = streams[s];
    st.pipeline = ingest::IngestPipeline::Create(
        PipelineOptions(stream, &storage, root_dir + "/pipe/" + stream.name,
                        stream.params.durable, audited));
    if (st.pipeline == nullptr) return fail("pipeline create failed");
    const std::string wal_dir = root_dir + "/wal/" + stream.name;
    if (!storage.CreateDir(wal_dir)) return fail("cannot create " + wal_dir);
    for (int k = 0; k < kShards; ++k) {
      st.shards.push_back(streamq::MakeSketch(ConfigOf(stream.params)));
      st.shadows.push_back(std::make_unique<obs::ReservoirShadow>(
          kAuditReservoir, stream.params.seed + static_cast<uint64_t>(k)));
      st.wals.push_back(std::make_unique<dur::WalWriter>(
          &storage, wal_dir, k, 1, kSegmentBytes));
    }
    st.since_sync.assign(kShards, 0);
    st.runs.resize(kShards);
  }

  SpanLog inline_log;
  net::FrameBuffer fb;
  std::string frame;
  std::vector<streamq::Update> updates;
  std::vector<dur::WalEntry> entries;
  std::vector<double> wal_append_ns, wal_sync_ns;
  uint64_t values = 0, wal_values = 0, wal_syncs = 0;
  uint64_t request_id = 0;
  for (const ReplayReq& rq : schedule) {
    const uint64_t id = ++request_id;
    StreamReplay& st = streams[static_cast<size_t>(rq.stream)];
    ingest::IngestPipeline& pipeline = *st.pipeline;
    if (rq.type == ReplayReq::kFlush) {
      const uint64_t root =
          inline_log.Begin("service.FLUSH", id, 0, kTrackInline);
      const uint64_t t = NowNs();
      pipeline.Flush();
      inline_log.Add("ingest.flush", id, root, kTrackInline, t, NowNs());
      inline_log.End(root);
      continue;
    }
    if (rq.type != ReplayReq::kBatch) {
      const bool query = rq.type == ReplayReq::kQuery;
      const uint64_t root = inline_log.Begin(
          query ? "service.QUERY" : "service.RANK", id, 0, kTrackInline);
      const uint64_t t = NowNs();
      if (query) {
        pipeline.Query(rq.phi);
      } else {
        pipeline.Rank(rq.value);
      }
      inline_log.Add("ingest.read", id, root, kTrackInline, t, NowNs());
      inline_log.End(root);
      continue;
    }

    const FramePool& pool = pools[static_cast<size_t>(rq.producer)];
    const uint64_t root =
        inline_log.Begin("service.BATCH_INSERT", id, 0, kTrackInline);
    // net: frame assembly and decode, as a session does per frame.
    uint64_t t = NowNs();
    const std::string& bytes = pool.frames[rq.pool_idx];
    fb.Append(bytes.data(), bytes.size());
    net::NetRequest req;
    const bool decoded =
        fb.Next(&frame) == net::FrameScan::kFrame &&
        net::DecodeRequest(frame, &req);
    inline_log.Add("net.decode", id, root, kTrackInline, t, NowNs());
    if (!decoded) return fail("frame did not decode");
    // net: the session's per-value Update copy.
    t = NowNs();
    updates.clear();
    for (const uint64_t v : req.values) updates.push_back(streamq::Update{v, +1});
    inline_log.Add("net.session", id, root, kTrackInline, t, NowNs());
    const size_t n = updates.size();
    values += n;

    // ingest: routing + ring push; a full ring is waited out, as a parked
    // session would.
    t = NowNs();
    size_t accepted = pipeline.TryPushBatch(updates);
    uint64_t push_ns = NowNs() - t;
    while (accepted < n) {
      std::this_thread::yield();
      const uint64_t t2 = NowNs();
      accepted += pipeline.TryPushBatch(
          std::span<const streamq::Update>(updates).subspan(accepted));
      push_ns += NowNs() - t2;
    }
    // Push time is the calls themselves; the gaps between retries are the
    // ring wait.
    const uint64_t push_end = NowNs();
    inline_log.Add("ingest.push", id, root, kTrackInline, t, t + push_ns);
    if (push_end - t > push_ns + 1000) {
      inline_log.Add("ingest.ring_wait", id, root, kTrackInline, t + push_ns,
                     push_end);
    }

    // quantile: the workers' apply, on replica shard sketches fed the same
    // round-robin runs in worker-sized batches.
    for (const uint64_t v : req.values) {
      st.runs[st.next_seq % kShards].push_back(v);
      ++st.next_seq;
    }
    t = NowNs();
    for (int k = 0; k < kShards; ++k) {
      const std::vector<uint64_t>& run = st.runs[static_cast<size_t>(k)];
      for (size_t off = 0; off < run.size(); off += kWorkerBatch) {
        st.shards[static_cast<size_t>(k)]->UpdateBatch(std::span<const uint64_t>(
            run.data() + off, std::min(kWorkerBatch, run.size() - off)));
      }
    }
    inline_log.Add("quantile.apply", id, root, kTrackInline, t, NowNs());

    // durability: WAL append per worker batch, fsync every kSyncInterval
    // values per shard.
    auto replay_wal = [&](uint64_t parent, int track) {
      const uint64_t wal_span =
          inline_log.Begin("durability.wal_append", id, parent, track);
      uint64_t seq = st.next_seq - n;
      for (int k = 0; k < kShards; ++k) {
        const std::vector<uint64_t>& run = st.runs[static_cast<size_t>(k)];
        for (size_t off = 0; off < run.size(); off += kWorkerBatch) {
          const size_t len = std::min(kWorkerBatch, run.size() - off);
          entries.clear();
          for (size_t j = 0; j < len; ++j) {
            // Seqs stay strictly increasing per shard, as the WAL requires.
            entries.push_back(dur::WalEntry{seq++, run[off + j], 1});
          }
          const uint64_t ta = NowNs();
          st.wals[static_cast<size_t>(k)]->AppendBatch(entries.data(), len);
          wal_append_ns.push_back(static_cast<double>(NowNs() - ta));
          wal_values += len;
          uint64_t& since = st.since_sync[static_cast<size_t>(k)];
          since += len;
          if (since >= kSyncInterval) {
            const uint64_t ts = NowNs();
            st.wals[static_cast<size_t>(k)]->Sync();
            const uint64_t te = NowNs();
            wal_sync_ns.push_back(static_cast<double>(te - ts));
            inline_log.Add("durability.wal_sync", id, wal_span, track, ts, te);
            since = 0;
            ++wal_syncs;
          }
        }
      }
      inline_log.End(wal_span);
    };
    // obs: the audit shadow observes each shard's run.
    auto replay_obs = [&](uint64_t parent, int track) {
      const uint64_t t_obs = NowNs();
      for (int k = 0; k < kShards; ++k) {
        const std::vector<uint64_t>& run = st.runs[static_cast<size_t>(k)];
        st.shadows[static_cast<size_t>(k)]->ObserveSpan(
            run.size(), [&run](size_t j) { return run[j]; });
      }
      inline_log.Add("obs.audit_observe", id, parent, track, t_obs, NowNs());
    };
    if (durable) replay_wal(root, kTrackInline);
    if (audited) replay_obs(root, kTrackInline);

    // net: the ack.
    t = NowNs();
    net::NetResponse resp;
    resp.id = req.id;
    resp.op = net::NetOp::kBatchInsert;
    resp.value = n;
    const std::string ack = net::EncodeResponse(resp);
    inline_log.Add("net.encode_resp", id, root, kTrackInline, t, NowNs());
    if (ack.empty()) return fail("empty ack");
    inline_log.End(root);

    // On a workload without a WAL or an audit, what they would cost here,
    // recorded after the request and off its path.
    if (!durable) {
      const uint64_t whatif =
          inline_log.Begin("whatif.durability", id, 0, kTrackWhatIf);
      replay_wal(whatif, kTrackWhatIf);
      inline_log.End(whatif);
    }
    if (!audited) {
      const uint64_t whatif = inline_log.Begin("whatif.obs", id, 0, kTrackWhatIf);
      replay_obs(whatif, kTrackWhatIf);
      inline_log.End(whatif);
    }
    for (auto& run : st.runs) run.clear();
  }
  for (StreamReplay& st : streams) st.pipeline->Flush();

  // Reconciliation: per-layer self-time medians vs the service median.
  {
    std::vector<double> root_ns;
    std::map<std::string, std::vector<double>> by_layer;
    SelfTimesByLayer(inline_log, "service.BATCH_INSERT", &root_ns, &by_layer);
    result.service_median_us = Median(root_ns) / 1e3;
    for (const auto& [name, v] : by_layer) {
      const double med = Median(v) / 1e3;
      result.self_medians_us.emplace_back(name, med);
      if (name != "unattributed") result.self_sum_us += med;
    }
  }
  const double frame_values = static_cast<double>(spec.frame_values);
  m["net.decode_ns_per_val"] =
      Median(inline_log.Durations("net.decode")) / frame_values;
  m["net.encode_resp_ns_per_frame"] =
      Median(inline_log.Durations("net.encode_resp"));
  m["ingest.push_ns_per_val"] =
      Median(inline_log.Durations("ingest.push")) / frame_values;
  m["ingest.flush_ms_p50"] = Median(inline_log.Durations("ingest.flush")) / 1e6;
  m["ingest.read_us_p50"] = Median(inline_log.Durations("ingest.read")) / 1e3;
  m["quantile.apply_ns_per_val"] =
      Median(inline_log.Durations("quantile.apply")) / frame_values;
  m["durability.wal_append_us"] = Median(wal_append_ns) / 1e3;
  m["durability.wal_sync_us"] = Median(wal_sync_ns) / 1e3;
  {
    uint64_t wal_bytes = 0;
    for (const StreamReplay& st : streams) {
      for (const auto& w : st.wals) wal_bytes += w->stats().bytes.load();
    }
    m["durability.wal_bytes_per_val"] =
        static_cast<double>(wal_bytes) / static_cast<double>(wal_values);
    m["replay.syncs_per_mval"] =
        static_cast<double>(wal_syncs) / (static_cast<double>(wal_values) / 1e6);
  }
  m["obs.audit_observe_ns_per_val"] =
      Sum(inline_log.Durations("obs.audit_observe")) /
      static_cast<double>(values);

  // Publish: Flush on a drained pipeline is a blocking merged-view publish.
  {
    std::vector<double> publish_ns;
    for (int i = 0; i < 20; ++i) {
      const uint64_t t = NowNs();
      streams[0].pipeline->Flush();
      publish_ns.push_back(static_cast<double>(NowNs() - t));
    }
    m["ingest.publish_us_p50"] = Median(publish_ns) / 1e3;
  }

  // --- stage 3: quantile operations on the replica shards ---------------
  {
    StreamReplay& st = streams[0];
    const streamq::SketchConfig config = ConfigOf(spec.streams[0].params);
    std::vector<double> clone_ns, merge_ns, query_ns, rank_ns;
    for (int i = 0; i < 20; ++i) {
      const uint64_t t = NowNs();
      auto clone = st.shards[0]->Clone();
      const uint64_t e = NowNs();
      clone_ns.push_back(static_cast<double>(e - t));
      result.spans.Add("quantile.clone", 0, 0, kTrackQuantile, t, e);
    }
    auto c0 = st.shards[0]->Clone();
    auto c1 = st.shards[1]->Clone();
    std::unique_ptr<streamq::QuantileSketch> merged;
    for (int i = 0; i < 20; ++i) {
      auto fresh = streamq::MakeSketch(config);
      const uint64_t t = NowNs();
      const bool ok = fresh->Merge(*c0) == streamq::StreamqStatus::kOk &&
                      fresh->Merge(*c1) == streamq::StreamqStatus::kOk;
      const uint64_t e = NowNs();
      if (!ok) return fail("shard merge refused");
      merge_ns.push_back(static_cast<double>(e - t));
      result.spans.Add("quantile.merge", 0, 0, kTrackQuantile, t, e);
      merged = std::move(fresh);
    }
    for (int i = 0; i < 200; ++i) {
      const double phi = PhiGrid()[static_cast<size_t>(i) % PhiGrid().size()];
      uint64_t t = NowNs();
      const uint64_t q = merged->Query(phi);
      uint64_t e = NowNs();
      query_ns.push_back(static_cast<double>(e - t));
      result.spans.Add("quantile.query", 0, 0, kTrackQuantile, t, e);
      t = NowNs();
      merged->EstimateRank(q);
      e = NowNs();
      rank_ns.push_back(static_cast<double>(e - t));
      result.spans.Add("quantile.rank", 0, 0, kTrackQuantile, t, e);
    }
    m["quantile.clone_us"] = Median(clone_ns) / 1e3;
    m["quantile.merge_us"] = Median(merge_ns) / 1e3;
    m["quantile.query_us"] = Median(query_ns) / 1e3;
    m["quantile.rank_us"] = Median(rank_ns) / 1e3;
  }

  // --- stage 4: checkpoint, audit round and recovery ----------------------
  {
    // A durable, audited pipeline holding the workload's stream: the
    // replay's own on durable workloads, otherwise one built to show what
    // these layers would cost here.
    const StreamSpec& stream = spec.streams[0];
    const std::string whatif_dir = root_dir + "/whatif/" + stream.name;
    std::unique_ptr<ingest::IngestPipeline> whatif;
    ingest::IngestPipeline* target = streams[0].pipeline.get();
    if (!(durable && audited)) {
      whatif = ingest::IngestPipeline::Create(
          PipelineOptions(stream, &storage, whatif_dir, true, true));
      if (whatif == nullptr) return fail("durable pipeline create failed");
      for (size_t i = 0; i < kReplayFrames / 2; ++i) {
        const auto& vals = pools[0].values[i % pools[0].values.size()];
        updates.clear();
        for (const uint64_t v : vals) updates.push_back(streamq::Update{v, +1});
        whatif->PushBatch(updates);
      }
      whatif->Flush();
      target = whatif.get();
    }
    std::vector<double> checkpoint_ns, audit_ns;
    for (int i = 0; i < 5; ++i) {
      uint64_t t = NowNs();
      const bool ok = target->Checkpoint();
      uint64_t e = NowNs();
      if (!ok) return fail("checkpoint failed");
      checkpoint_ns.push_back(static_cast<double>(e - t));
      result.spans.Add("durability.checkpoint", 0, 0, kTrackDurability, t, e);
#if STREAMQ_AUDIT_ENABLED
      t = NowNs();
      const obs::AuditReport report = target->AuditNow();
      e = NowNs();
      if (!report.valid) return fail("audit round invalid");
      audit_ns.push_back(static_cast<double>(e - t));
      result.spans.Add("obs.audit_round", 0, 0, kTrackDurability, t, e);
#endif
    }
    m["durability.checkpoint_ms"] = Median(checkpoint_ns) / 1e6;
    m["obs.audit_round_ms"] = Median(audit_ns) / 1e6;

    // Recovery: IngestPipeline::Create on a data dir a previous incarnation
    // left behind -- the killed server's, when the TCP run provides one.
    double recovery_ns = 0.0;
    if (!options.killed_dir.empty() && durable) {
      for (const StreamSpec& s : spec.streams) {
        const uint64_t t = NowNs();
        auto recovered = ingest::IngestPipeline::Create(PipelineOptions(
            s, &storage, options.killed_dir + "/" + s.name, true, audited));
        const uint64_t e = NowNs();
        if (recovered == nullptr || !recovered->recovery().recovered) {
          return fail("recovery of the killed server's " + s.name + " failed");
        }
        recovery_ns += static_cast<double>(e - t);
        result.spans.Add("durability.recovery", 0, 0, kTrackDurability, t, e);
      }
    } else {
      whatif.reset();  // Stop: final checkpoint
      const uint64_t t = NowNs();
      auto recovered = ingest::IngestPipeline::Create(
          PipelineOptions(stream, &storage, whatif_dir, true, true));
      const uint64_t e = NowNs();
      if (recovered == nullptr || !recovered->recovery().recovered) {
        return fail("recovery of the replay pipeline failed");
      }
      recovery_ns = static_cast<double>(e - t);
      result.spans.Add("durability.recovery", 0, 0, kTrackDurability, t, e);
    }
    m["durability.recovery_ms"] = recovery_ns / 1e6;
  }
  result.spans.Append(inline_log);
  streams.clear();  // stop the stage-1 pipelines before the server replay

  // --- stage 2: the server's session machine over a loopback connection ---
  {
    net::ServerOptions so;
    so.storage = &storage;
    so.data_dir = root_dir + "/server";
    so.audit = spec.audit;
    so.audit_interval_ms = spec.audit_interval_ms;
    net::StreamqServer server(so);
    auto [client_end, server_end] = net::MakeLoopbackPair(size_t{8} << 20);
    const uint64_t sid = server.AddConn(std::move(server_end));
    net::FrameBuffer rb;
    std::vector<char> buf(size_t{1} << 16);
    // One request, pumped until its response is out. *pump_ns is the time
    // spent inside Pump; the rest, while parked, is waiting.
    auto roundtrip = [&](const std::string& bytes, uint64_t* pump_ns,
                         bool* parked, net::NetResponse* resp) {
      server.SweepDeadlines();  // the reactor's per-iteration sweep
      size_t off = 0;
      while (off < bytes.size()) {
        const int w = client_end->Write(bytes.data() + off, bytes.size() - off);
        if (w < 0) return false;
        off += static_cast<size_t>(w);
      }
      *pump_ns = 0;
      *parked = false;
      const uint64_t start = NowNs();
      for (int iter = 0;; ++iter) {
        const uint64_t t = NowNs();
        const net::PumpResult pr = server.Pump(sid);
        *pump_ns += NowNs() - t;
        if (pr == net::PumpResult::kClosed) return false;
        int got = 0;
        while ((got = client_end->Read(buf.data(), buf.size())) > 0) {
          rb.Append(buf.data(), static_cast<size_t>(got));
        }
        std::string f;
        if (rb.Next(&f) == net::FrameScan::kFrame) {
          return net::DecodeResponse(f, resp) && resp->ok();
        }
        if (NowNs() - start > 30'000'000'000ull) return false;
        *parked = true;
        std::this_thread::yield();
      }
    };

    uint64_t pump_ns = 0;
    bool parked = false;
    net::NetResponse resp;
    for (const StreamSpec& s : spec.streams) {
      net::NetRequest req;
      req.id = 1;
      req.op = net::NetOp::kCreate;
      req.stream = s.name;
      req.create = s.params;
      if (!roundtrip(net::EncodeRequest(req), &pump_ns, &parked, &resp)) {
        return fail("server replay CREATE failed");
      }
    }
    std::vector<double> batch_pump, flush_pump, read_pump, backlog_vals;
    double wait_ns = 0.0, wait_values = 0.0;
    const double period_ns =
        spec.open_loop ? static_cast<double>(spec.frame_values) /
                             spec.rate_vals_per_s * 1e9
                       : 0.0;
    const uint64_t t0 = NowNs();
    uint64_t batches = 0;
    request_id = 0;
    for (const ReplayReq& rq : schedule) {
      const uint64_t id = ++request_id;
      const std::string& stream_name =
          spec.streams[static_cast<size_t>(rq.stream)].name;
      std::string bytes;
      const char* name = "server.BATCH_INSERT";
      if (rq.type == ReplayReq::kBatch) {
        if (spec.open_loop) {
          // Open loop: the frame goes in on the workload's schedule.
          const uint64_t due =
              t0 + static_cast<uint64_t>(static_cast<double>(batches) *
                                         period_ns);
          while (NowNs() < due) std::this_thread::yield();
        }
        ++batches;
      } else {
        net::NetRequest req;
        req.id = id;
        req.stream = stream_name;
        if (rq.type == ReplayReq::kFlush) {
          req.op = net::NetOp::kFlush;
          name = "server.FLUSH";
        } else if (rq.type == ReplayReq::kQuery) {
          req.op = net::NetOp::kQuery;
          req.phi = rq.phi;
          name = "server.QUERY";
        } else {
          req.op = net::NetOp::kRank;
          req.value = rq.value;
          name = "server.RANK";
        }
        bytes = net::EncodeRequest(req);
      }
      const std::string& out =
          rq.type == ReplayReq::kBatch
              ? pools[static_cast<size_t>(rq.producer)].frames[rq.pool_idx]
              : bytes;
      const uint64_t start = NowNs();
      if (!roundtrip(out, &pump_ns, &parked, &resp)) {
        return fail(std::string("server replay ") + name + " failed");
      }
      const uint64_t end = NowNs();
      const uint64_t root =
          result.spans.Add(name, id, 0, kTrackServer, start, end);
      result.spans.Add("net.pump", id, root, kTrackServer, start,
                       start + pump_ns);
      if (rq.type == ReplayReq::kBatch) {
        batch_pump.push_back(static_cast<double>(pump_ns));
        if (parked) {
          const double waited = static_cast<double>(end - start - pump_ns);
          wait_ns += waited;
          result.spans.Add("ingest.ring_wait", id, root, kTrackServer,
                           start + pump_ns, end);
        }
        wait_values += frame_values;
        ingest::IngestPipeline* p = server.FindStream(stream_name);
        backlog_vals.push_back(
            static_cast<double>(p->PushedCount() - p->ProcessedCount()));
      } else if (rq.type == ReplayReq::kFlush) {
        flush_pump.push_back(static_cast<double>(pump_ns));
      } else {
        read_pump.push_back(static_cast<double>(pump_ns));
      }
    }
    m["net.server_us_per_frame"] = Median(batch_pump) / 1e3;
    m["net.server_self_us_per_frame"] =
        m["net.server_us_per_frame"] -
        m["ingest.push_ns_per_val"] * frame_values / 1e3;
    m["net.flush_hold_ms"] = Median(flush_pump) / 1e6;
    m["net.read_pump_us"] = Median(read_pump) / 1e3;
    m["ingest.ring_wait_ms_per_mval"] = wait_ns / 1e6 / (wait_values / 1e6);
    m["ingest.backlog_vals_p99"] = Percentile(backlog_vals, 99);
  }
  return result;
}

}  // namespace perfbench
