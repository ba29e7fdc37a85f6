/**
 * @file
 * Golden identity test for the iteration-level schedulers
 * (runtime/continuous.cc): eight seeded randomized traces, each served
 * under both `continuous` and `edf`, are reduced to an FNV-1a digest
 * of every RequestMetrics field, every KvSwapEvent, the report
 * aggregates, the per-tenant stats and (where telemetry is on) the
 * time attribution and iteration records.  The digests pin every
 * scheduling decision, so a change to how the schedulers find their
 * candidates must reproduce them bit for bit.
 *
 * The traces vary what the scheduler's ordering and fill depend on:
 * 1-3 tenants, deadline-less requests, equal (tied) deadlines,
 * overlapped and exposed swaps, preemption budgets of 1, the default
 * and unlimited, and managed-KV capacities both bounded (so the greedy
 * fill skips long-context candidates and sheds ones that can never
 * fit) and unbounded.  A budget of 0 is rejected by
 * ServingConfig::validate(), so 1 is the tightest budget.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "model/footprint.h"
#include "model/opt.h"
#include "runtime/scheduler.h"
#include "tracing/span.h"

namespace helm::runtime {
namespace {

constexpr std::uint64_t kUnlimited =
    std::numeric_limits<std::uint64_t>::max();

/** How one trace is generated and served. */
struct GoldenCase
{
    std::uint64_t seed;
    std::uint64_t tenants;
    std::uint64_t requests;
    std::uint64_t max_batch;
    /** Percent of requests submitted without a deadline. */
    std::uint64_t deadline_free_pct;
    /** Snap deadlines to a 5 s grid so many of them tie. */
    bool equal_deadlines;
    bool overlap_kv_swap;
    std::uint64_t max_preemptions;
    /** Bounded host KV tier in blocks; 0 = unbounded tiered default. */
    std::uint64_t kv_blocks;
    /** Stamp deadline-less arrivals with arrival + 20 s. */
    bool default_deadline;
    bool enforce_ttft;
    std::uint64_t max_queue_length;
    bool telemetry;
    /** Pinned digests: continuous, then edf. */
    std::uint64_t continuous_digest;
    std::uint64_t edf_digest;
};

/** Digest builder over raw bytes (doubles by bit pattern). */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        hash_ = tracing::fnv1a64(&v, sizeof v, hash_);
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::vector<workload::TimedRequest>
make_trace(const GoldenCase &c)
{
    // mt19937_64's output sequence is fixed by the standard; only raw
    // draws are used so the trace is the same on every toolchain.
    std::mt19937_64 rng(c.seed);
    std::vector<workload::TimedRequest> trace;
    Seconds t = 0.0;
    for (std::uint64_t i = 0; i < c.requests; ++i) {
        // A quarter of the arrivals land in a burst on the previous one.
        if (rng() % 4 != 0)
            t += static_cast<double>(rng() % 1500) / 1000.0;
        workload::TimedRequest timed;
        timed.arrival = t;
        timed.request.id = i;
        timed.request.tenant = rng() % c.tenants;
        timed.request.prompt_tokens = 16 + rng() % 465;
        timed.request.output_tokens = 1 + rng() % 48;
        if (c.kv_blocks > 0) {
            // Bounded tiers: end the full context one token past a KV
            // block boundary.  The decode cost probe pads its context
            // to a block multiple plus 2 tokens, one block more than
            // the scheduler's admission bound reserves for any other
            // length, and the probe then fails on the bounded tier.
            std::uint64_t &out = timed.request.output_tokens;
            out += (17 - (timed.request.prompt_tokens + out) % 16) % 16;
        }
        if (rng() % 100 >= c.deadline_free_pct) {
            Seconds deadline =
                t + 1.0 + static_cast<double>(rng() % 30000) / 1000.0;
            if (c.equal_deadlines)
                deadline = 5.0 * static_cast<double>(
                                     static_cast<std::uint64_t>(
                                         deadline / 5.0) + 1);
            timed.deadline = deadline;
        }
        trace.push_back(timed);
    }
    return trace;
}

ServingSpec
golden_spec(const GoldenCase &c)
{
    ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    if (c.kv_blocks == 0) {
        spec.kv_cache = kvcache::KvCacheConfig::tiered();
    } else {
        const Bytes block_bytes = 16 *
                                  model::kv_bytes_per_block(spec.model, 1) *
                                  spec.model.blocks;
        auto config = kvcache::KvCacheConfig::legacy_offload();
        config.tiers[0].capacity = c.kv_blocks * block_bytes;
        spec.kv_cache = config;
    }
    return spec;
}

std::uint64_t
serve_digest(const GoldenCase &c, SchedulerKind kind,
             ServingReport *out = nullptr)
{
    ServingConfig config;
    config.scheduler = kind;
    config.auto_max_batch = false;
    config.max_batch = c.max_batch;
    config.tenants = c.tenants;
    config.overlap_kv_swap = c.overlap_kv_swap;
    config.max_preemptions = c.max_preemptions;
    config.max_queue_length = c.max_queue_length;
    if (c.default_deadline) {
        config.has_default_deadline = true;
        config.default_deadline = 20.0;
    }
    if (c.enforce_ttft) {
        config.enforce_ttft = true;
        config.ttft_target = 4.0;
    }
    auto server = Server::create(golden_spec(c), config);
    EXPECT_TRUE(server.is_ok()) << server.status().to_string();
    if (!server.is_ok())
        return 0;
    if (c.telemetry)
        server->enable_telemetry(true);
    EXPECT_TRUE(server->submit(make_trace(c)).is_ok());
    auto report = server->serve();
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();
    if (!report.is_ok())
        return 0;

    Digest d;
    for (const RequestMetrics &r : report->requests) {
        d.add(r.id);
        d.add(r.tenant);
        d.add(r.prompt_tokens);
        d.add(r.output_tokens);
        d.add(r.batch_index);
        d.add(r.arrival);
        d.add(r.queueing_delay);
        d.add(r.ttft);
        d.add(r.tbt);
        d.add(r.e2e_latency);
        d.add(r.slo_met);
        d.add(r.deadline);
        d.add(r.deadline_met);
        d.add(r.preemptions);
    }
    for (const std::uint64_t id : report->rejected_ids)
        d.add(id);
    for (const KvSwapEvent &e : report->kv_swap_events) {
        d.add(e.request_id);
        d.add(e.tenant);
        d.add(e.demote);
        d.add(e.bytes);
        d.add(e.start);
        d.add(e.end);
    }
    d.add(report->submitted);
    d.add(report->completed);
    d.add(report->rejected);
    d.add(report->kv_rejected);
    d.add(report->batches_formed);
    d.add(report->max_queue_depth);
    d.add(report->mean_batch_size);
    d.add(report->makespan);
    d.add(report->total_tokens);
    d.add(report->throughput);
    d.add(report->goodput);
    d.add(report->slo_attainment);
    d.add(report->iterations);
    d.add(report->preemptions);
    d.add(report->resumes);
    d.add(report->kv_demoted_bytes);
    d.add(report->kv_promoted_bytes);
    d.add(report->kv_swap_exposed_seconds);
    d.add(report->deadline_misses);
    d.add(report->starvation_events);
    d.add(report->jain_fairness);
    for (const TenantStats &t : report->tenants) {
        d.add(t.tenant);
        d.add(t.submitted);
        d.add(t.completed);
        d.add(t.rejected);
        d.add(t.tokens);
        d.add(t.slo_met);
        d.add(t.deadline_misses);
        d.add(t.preemptions);
        d.add(t.starvation_events);
        d.add(t.mean_ttft);
        d.add(t.max_queue_wait);
    }
    if (c.telemetry) {
        const auto &attribution = server->attribution();
        for (const auto &[layer, bucket] : attribution.buckets()) {
            d.add(static_cast<std::uint64_t>(layer.size()));
            d.add(bucket.compute);
            d.add(bucket.transfer);
            d.add(bucket.kv_stall);
            d.add(bucket.writeback);
        }
        d.add(attribution.idle());
        d.add(attribution.wall());
        for (const LayerStepRecord &rec : server->serving_records()) {
            d.add(rec.batch_index);
            d.add(rec.token);
            d.add(rec.stage == gpu::Stage::kPrefill);
            d.add(rec.compute_time);
            d.add(rec.transfer_start);
            d.add(rec.step_start);
            d.add(rec.step_end);
            d.add(rec.kv_read_bytes);
            d.add(rec.kv_write_bytes);
        }
    }
    if (out != nullptr)
        *out = std::move(report).value();
    return d.value();
}

// clang-format off
const GoldenCase kCases[] = {
    // seed tenants reqs batch free% equal  overlap preempt     kvblk
    //   default-deadline ttft-slo queue telemetry
    //   continuous digest      edf digest
    {1, 1,  90, 4,   0, false, true,  4,          0,
        false, false, 1024, false,
        0xe728d936fdc0f720ull, 0x35a606dbfc1fb755ull},
    {2, 2, 100, 3,  40, false, false, 1,          0,
        false, false, 1024, false,
        0xd2f2ce84a6af7ff6ull, 0xac8515ddc283f84aull},
    {3, 3, 110, 4,  10, true,  true,  kUnlimited, 40,
        false, false, 1024, false,
        0x2f8bce0071c835e7ull, 0xbf92a01b300e1e0full},
    {4, 2,  90, 5,  20, false, false, 1,          24,
        false, false, 1024, false,
        0x6acd71965254a1a7ull, 0x56ae697c07ee532full},
    {5, 3, 100, 3, 100, false, true,  kUnlimited, 0,
        false, false, 1024, false,
        0xaecb22efdc8b589aull, 0xc7c412e2bba2ef60ull},
    {6, 1,  80, 6,   0, true,  true,  2,          64,
        false, true,  1024, false,
        0xa9eef58ced7bb0c9ull, 0x64ea488d0a5cdf4dull},
    {7, 2, 100, 4,  50, false, true,  4,          0,
        true,  false, 1024, true,
        0x68a6cf17eb17bc77ull, 0x671104d61866771cull},
    {8, 3, 120, 4,  15, false, false, kUnlimited, 32,
        false, false, 12,   false,
        0x724ebc679766a07dull, 0x7d8dcac414047f78ull},
};
// clang-format on

TEST(ContinuousGolden, EveryTraceReproducesItsPinnedDigest)
{
    std::uint64_t edf_preemptions = 0, kv_rejected = 0;
    for (const GoldenCase &c : kCases) {
        ServingReport cont, edf;
        const std::uint64_t cont_digest =
            serve_digest(c, SchedulerKind::kContinuous, &cont);
        const std::uint64_t edf_digest =
            serve_digest(c, SchedulerKind::kEdf, &edf);
        EXPECT_EQ(cont_digest, c.continuous_digest)
            << "seed " << c.seed << " continuous digest " << std::hex
            << cont_digest;
        EXPECT_EQ(edf_digest, c.edf_digest)
            << "seed " << c.seed << " edf digest " << std::hex << edf_digest;
        edf_preemptions += edf.preemptions;
        kv_rejected += edf.kv_rejected;
    }
    // The traces must actually exercise preemption and KV shedding, or
    // the digests pin nothing about those paths.
    EXPECT_GT(edf_preemptions, 0u);
    EXPECT_GT(kv_rejected, 0u);
}

} // namespace
} // namespace helm::runtime
