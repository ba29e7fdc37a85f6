/**
 * @file
 * Tests for the iteration-level schedulers (runtime/continuous.cc) and
 * the unified ServingConfig: preemption round-trip accounting, EDF
 * fairness/starvation under adversarial tenant mixes, FCFS identity
 * with the deprecated entry point, and validate() diagnostics.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "model/footprint.h"
#include "model/opt.h"
#include "runtime/scheduler.h"
#include "workload/arrival.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

ServingSpec
small_spec()
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    return spec;
}

workload::TimedRequest
timed(std::uint64_t id, Seconds arrival, std::uint64_t prompt,
      std::uint64_t output, std::uint64_t tenant = 0,
      Seconds deadline = 0.0)
{
    workload::TimedRequest request;
    request.request = workload::Request{id, prompt, output, tenant};
    request.arrival = arrival;
    request.deadline = deadline;
    return request;
}

ServingReport
serve_stream(const ServingConfig &config,
             const std::vector<workload::TimedRequest> &stream)
{
    auto server = Server::create(small_spec(), config);
    EXPECT_TRUE(server.is_ok()) << server.status().to_string();
    EXPECT_TRUE(server->submit(stream).is_ok());
    auto report = server->serve();
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();
    return std::move(report).value();
}

/** The preemption microcosm: two slots, three long lax jobs, two
 *  urgent short arrivals at t=5 s whose deadlines EDF can only meet
 *  by swapping a running job's KV out to the host tiers. */
std::vector<workload::TimedRequest>
preemption_microcosm()
{
    return {timed(0, 0.0, 256, 64, 0, 1000.0),
            timed(1, 0.0, 256, 64, 0, 1000.0),
            timed(2, 0.1, 256, 64, 0, 1000.0),
            timed(3, 5.0, 64, 8, 1, 9.0),
            timed(4, 5.1, 64, 8, 1, 9.2)};
}

ServingConfig
edf_two_slots()
{
    ServingConfig config;
    config.scheduler = SchedulerKind::kEdf;
    config.auto_max_batch = false;
    config.max_batch = 2;
    config.tenants = 2;
    return config;
}

TEST(Continuous, ReportAggregatesAndTenantStatsAreConsistent)
{
    workload::ArrivalSpec arrivals;
    arrivals.kind = workload::ArrivalKind::kBursty;
    arrivals.rate = 3.0;
    arrivals.duration = 8.0;
    arrivals.tenants = 3;
    arrivals.burst_factor = 6.0;
    arrivals.burst_period = 4.0;
    const auto stream = workload::generate_arrivals(arrivals);
    ASSERT_TRUE(stream.is_ok());

    ServingConfig config;
    config.scheduler = SchedulerKind::kContinuous;
    config.auto_max_batch = false;
    config.max_batch = 4;
    config.tenants = 3;
    const auto report = serve_stream(config, *stream);

    EXPECT_EQ(report.scheduler, SchedulerKind::kContinuous);
    EXPECT_EQ(report.completed + report.rejected, report.submitted);
    EXPECT_GT(report.iterations, 0u);
    EXPECT_EQ(report.batches_formed, report.iterations);
    EXPECT_EQ(report.preemptions, 0u); // continuous never preempts
    EXPECT_TRUE(report.kv_swap_events.empty());
    EXPECT_EQ(report.kv_demoted_bytes, 0u);
    EXPECT_GT(report.jain_fairness, 0.0);
    EXPECT_LE(report.jain_fairness, 1.0 + 1e-12);

    // Tenant aggregates must tile the global counters.
    ASSERT_EQ(report.tenants.size(), 3u);
    std::uint64_t submitted = 0, completed = 0, tokens = 0;
    std::uint64_t starved = 0, misses = 0;
    for (const auto &t : report.tenants) {
        submitted += t.submitted;
        completed += t.completed;
        tokens += t.tokens;
        starved += t.starvation_events;
        misses += t.deadline_misses;
    }
    EXPECT_EQ(submitted, report.submitted);
    EXPECT_EQ(completed, report.completed);
    EXPECT_EQ(tokens, report.total_tokens);
    EXPECT_EQ(starved, report.starvation_events);
    EXPECT_EQ(misses, report.deadline_misses);
}

TEST(Continuous, LateShortRequestEscapesTheRunningBatchTail)
{
    // Three long jobs occupy the engine from t=0; a short job lands at
    // t=1.  FCFS makes it wait for the whole formed batch; continuous
    // admits it at the next iteration boundary into the free slot.
    const std::vector<workload::TimedRequest> stream = {
        timed(0, 0.0, 256, 96), timed(1, 0.0, 256, 96),
        timed(2, 0.0, 256, 96), timed(3, 1.0, 64, 8)};

    ServingConfig fcfs;
    fcfs.scheduler = SchedulerKind::kFcfs;
    fcfs.auto_max_batch = false;
    fcfs.max_batch = 4;
    fcfs.max_queue_delay = 0.0; // greedy: batch of 3 launches at t=0
    const auto fcfs_report = serve_stream(fcfs, stream);

    ServingConfig continuous;
    continuous.scheduler = SchedulerKind::kContinuous;
    continuous.auto_max_batch = false;
    continuous.max_batch = 4;
    const auto cont_report = serve_stream(continuous, stream);

    ASSERT_EQ(fcfs_report.completed, 4u);
    ASSERT_EQ(cont_report.completed, 4u);
    auto ttft_of = [](const ServingReport &report, std::uint64_t id) {
        for (const auto &r : report.requests)
            if (r.id == id)
                return r.ttft;
        ADD_FAILURE() << "request " << id << " missing";
        return -1.0;
    };
    EXPECT_LT(ttft_of(cont_report, 3), ttft_of(fcfs_report, 3));
}

TEST(Edf, PreemptionRoundTripConservesWorkAndBytes)
{
    const auto stream = preemption_microcosm();
    const auto report = serve_stream(edf_two_slots(), stream);

    // The urgent tenant forced at least one swap-out, and every
    // swapped-out request came back and finished.
    EXPECT_GE(report.preemptions, 1u);
    EXPECT_EQ(report.resumes, report.preemptions);
    EXPECT_GT(report.kv_demoted_bytes, 0u);
    EXPECT_EQ(report.kv_promoted_bytes, report.kv_demoted_bytes);
    EXPECT_EQ(report.completed, stream.size());
    EXPECT_EQ(report.deadline_misses, 0u);

    // Work is conserved: preempted requests still generate every
    // output token.
    std::uint64_t expected_tokens = 0;
    for (const auto &r : stream)
        expected_tokens += r.request.output_tokens;
    EXPECT_EQ(report.total_tokens, expected_tokens);

    // Per-request preemption counts sum to the report total.
    std::uint64_t preemptions = 0;
    for (const auto &r : report.requests)
        preemptions += r.preemptions;
    EXPECT_EQ(preemptions, report.preemptions);

    // The swap-event timeline tiles the byte totals exactly: one
    // demote per preemption, one promote per resume, every interval
    // non-degenerate.  This is what the chrome-trace swap track draws.
    ASSERT_EQ(report.kv_swap_events.size(),
              report.preemptions + report.resumes);
    Bytes demoted = 0, promoted = 0;
    for (const auto &swap : report.kv_swap_events) {
        EXPECT_GT(swap.bytes, 0u);
        EXPECT_LT(swap.start, swap.end);
        (swap.demote ? demoted : promoted) += swap.bytes;
    }
    EXPECT_EQ(demoted, report.kv_demoted_bytes);
    EXPECT_EQ(promoted, report.kv_promoted_bytes);
}

TEST(Edf, PreemptionOnlyDelaysTheVictim)
{
    // Round trip against the uncontended timeline: serving the three
    // lax jobs alone, then with the urgent arrivals on top, must never
    // make a lax job finish *earlier* — preemption adds swap time and
    // lost decode slots, it cannot create work.
    auto lax_only = preemption_microcosm();
    lax_only.resize(3);
    const auto baseline = serve_stream(edf_two_slots(), lax_only);
    const auto contended =
        serve_stream(edf_two_slots(), preemption_microcosm());

    ASSERT_EQ(baseline.completed, 3u);
    auto e2e_of = [](const ServingReport &report, std::uint64_t id) {
        for (const auto &r : report.requests)
            if (r.id == id)
                return r.e2e_latency;
        ADD_FAILURE() << "request " << id << " missing";
        return -1.0;
    };
    for (std::uint64_t id = 0; id < 3; ++id)
        EXPECT_GE(e2e_of(contended, id), e2e_of(baseline, id) - 1e-12)
            << "lax job " << id;
}

TEST(Edf, ExposedSwapChargesMoreThanOverlapped)
{
    ServingConfig overlapped = edf_two_slots();
    overlapped.overlap_kv_swap = true;
    ServingConfig exposed = edf_two_slots();
    exposed.overlap_kv_swap = false;

    const auto over = serve_stream(overlapped, preemption_microcosm());
    const auto expo = serve_stream(exposed, preemption_microcosm());

    // Same schedule, same swap traffic — only the charging differs.
    ASSERT_GE(over.preemptions, 1u);
    EXPECT_EQ(expo.preemptions, over.preemptions);
    EXPECT_EQ(expo.kv_demoted_bytes, over.kv_demoted_bytes);
    EXPECT_GE(expo.kv_swap_exposed_seconds,
              over.kv_swap_exposed_seconds);
    EXPECT_GT(expo.kv_swap_exposed_seconds, 0.0);
}

TEST(Edf, MaxPreemptionsBoundsEveryRequest)
{
    // An adversarial drip of urgent arrivals tries to bounce the lax
    // jobs in and out of the batch; the livelock guard caps how often
    // each victim can be swapped.
    std::vector<workload::TimedRequest> stream = {
        timed(0, 0.0, 256, 96, 0, 1000.0),
        timed(1, 0.0, 256, 96, 0, 1000.0)};
    for (std::uint64_t i = 0; i < 6; ++i) {
        stream.push_back(timed(2 + i, 4.0 + 2.0 * i, 64, 8, 1,
                               4.0 + 2.0 * i + 4.0));
    }
    ServingConfig config = edf_two_slots();
    config.max_preemptions = 1;
    const auto report = serve_stream(config, stream);

    EXPECT_EQ(report.completed, stream.size());
    for (const auto &r : report.requests)
        EXPECT_LE(r.preemptions, 1u) << "request " << r.id;
}

TEST(Edf, BoundedKvSkipsLongContextAndKeepsPinnedSlots)
{
    // One bounded host tier of 60 KV blocks (16 tokens each), four
    // slots, one preemption per request.  Every full context ends one
    // token past a block boundary (273 = 18 blocks, 65 = 5, 673 = 43),
    // so the decode cost probe, which pads a context to a block multiple
    // plus 2 tokens, never needs more blocks than admission reserved.
    //  - t=0:   lax jobs 0 and 1 start;
    //  - t=0.5: urgent jobs 2 and 3 take slots, and job 1 no longer
    //    fits (4 x 18 > 60 blocks): it is preempted and, out of budget
    //    once it resumes, pinned;
    //  - t=3.5: long job 4 (deadline 30) and short job 5 (deadline 60)
    //    arrive.  Job 4 does not fit beside the pinned job 1
    //    (2 x 43 > 60) and is skipped; job 5, later in EDF order, is
    //    admitted past it.  Job 4 starts only once job 1 completes.
    ServingSpec spec = small_spec();
    const Bytes block_bytes =
        16 * model::kv_bytes_per_block(spec.model, 1) * spec.model.blocks;
    auto kv = kvcache::KvCacheConfig::legacy_offload();
    kv.tiers[0].capacity = 60 * block_bytes;
    spec.kv_cache = kv;
    ServingConfig config = edf_two_slots();
    config.max_batch = 4;
    config.max_preemptions = 1;
    const std::vector<workload::TimedRequest> stream = {
        timed(0, 0.0, 240, 33, 0, 1000.0), timed(1, 0.0, 240, 33, 0, 1000.0),
        timed(2, 0.5, 48, 17, 1, 6.0),     timed(3, 0.5, 48, 17, 1, 6.1),
        timed(4, 3.5, 656, 17, 1, 30.0),   timed(5, 3.5, 48, 17, 1, 60.0)};

    auto serve = [&](const ServingSpec &served) {
        auto server = Server::create(served, config);
        EXPECT_TRUE(server.is_ok()) << server.status().to_string();
        EXPECT_TRUE(server->submit(stream).is_ok());
        auto report = server->serve();
        EXPECT_TRUE(report.is_ok()) << report.status().to_string();
        return std::move(report).value();
    };
    const ServingReport report = serve(spec);
    ASSERT_EQ(report.completed, stream.size());
    std::vector<const RequestMetrics *> by_id(stream.size());
    for (const auto &r : report.requests)
        by_id[r.id] = &r;
    auto start = [](const RequestMetrics *r) {
        return r->arrival + r->queueing_delay;
    };
    auto end = [](const RequestMetrics *r) {
        return r->arrival + r->e2e_latency;
    };

    // Skip-and-continue: the later-deadline short job overtakes the
    // long one that does not fit.
    EXPECT_LT(by_id[4]->deadline, by_id[5]->deadline);
    EXPECT_LT(by_id[5]->batch_index, by_id[4]->batch_index);
    EXPECT_LT(start(by_id[5]), start(by_id[4]));

    // Pinned: job 1 was preempted once, resumed, and then kept its slot
    // against the earlier-deadline job 4 until it completed.
    EXPECT_EQ(by_id[1]->preemptions, 1u);
    EXPECT_EQ(by_id[0]->preemptions, 0u);
    EXPECT_EQ(report.preemptions, 1u);
    ASSERT_EQ(report.kv_swap_events.size(), 2u);
    EXPECT_EQ(report.kv_swap_events[0].request_id, 1u);
    EXPECT_TRUE(report.kv_swap_events[0].demote);
    EXPECT_EQ(report.kv_swap_events[1].request_id, 1u);
    EXPECT_FALSE(report.kv_swap_events[1].demote);
    EXPECT_LT(report.kv_swap_events[1].end, by_id[4]->arrival);
    EXPECT_DOUBLE_EQ(start(by_id[4]), end(by_id[1]));

    // The greedy fill stops early, yet admits exactly what a scan of
    // every candidate did: the prefill iteration of every job as the
    // full scan scheduled it.
    const std::uint64_t full_scan_prefill[] = {0, 0, 4, 4, 51, 25};
    for (std::uint64_t id = 0; id < stream.size(); ++id)
        EXPECT_EQ(by_id[id]->batch_index, full_scan_prefill[id])
            << "job " << id;
    EXPECT_EQ(report.iterations, 68u);

    // Without the capacity bound the long job is not held back.
    ServingSpec unbounded = small_spec();
    unbounded.kv_cache = kvcache::KvCacheConfig::tiered();
    const ServingReport free_report = serve(unbounded);
    for (const auto &r : free_report.requests)
        by_id[r.id] = &r;
    EXPECT_LE(by_id[4]->batch_index, by_id[5]->batch_index);
}

TEST(Edf, AdversarialTenantMixStarvesTheDeadlineLessTenant)
{
    // Tenant 0 floods tight-deadline requests; tenant 1's two
    // deadline-free requests sort last under EDF and keep losing the
    // admission race to later arrivals — exactly what the starvation
    // counter and the fairness index must surface.
    std::vector<workload::TimedRequest> stream;
    for (std::uint64_t i = 0; i < 6; ++i)
        stream.push_back(timed(i, 0.0, 128, 32, 0, 3.0));
    stream.push_back(timed(6, 0.1, 128, 24, 1));
    stream.push_back(timed(7, 0.1, 128, 24, 1));
    for (std::uint64_t i = 0; i < 8; ++i) {
        const Seconds at = 0.5 + 0.5 * static_cast<double>(i);
        stream.push_back(timed(8 + i, at, 128, 32, 0, at + 3.0));
    }
    std::stable_sort(stream.begin(), stream.end(),
                     [](const workload::TimedRequest &a,
                        const workload::TimedRequest &b) {
                         return a.arrival < b.arrival;
                     });

    ServingConfig edf = edf_two_slots();
    const auto edf_report = serve_stream(edf, stream);
    ServingConfig rr = edf_two_slots();
    rr.scheduler = SchedulerKind::kContinuous;
    const auto rr_report = serve_stream(rr, stream);

    EXPECT_EQ(edf_report.completed, stream.size());
    ASSERT_EQ(edf_report.tenants.size(), 2u);
    EXPECT_GT(edf_report.starvation_events, 0u);
    EXPECT_GT(edf_report.tenants[1].starvation_events, 0u);
    EXPECT_GT(edf_report.tenants[1].max_queue_wait,
              edf_report.tenants[0].max_queue_wait);
    EXPECT_LT(edf_report.jain_fairness, 1.0);
    // Round-robin tenant draining is the fairness baseline EDF trades
    // away for deadlines.
    EXPECT_GE(rr_report.jain_fairness, edf_report.jain_fairness);
}

TEST(ServingConfigValidate, EveryErrorNamesItsHelmsimFlag)
{
    const auto message = [](ServingConfig config) {
        return config.validate().to_string();
    };
    ServingConfig explicit_zero;
    explicit_zero.auto_max_batch = false;
    explicit_zero.max_batch = 0;
    EXPECT_NE(message(explicit_zero).find("--max-batch"),
              std::string::npos);

    ServingConfig negative_delay;
    negative_delay.max_queue_delay = -0.1;
    EXPECT_NE(message(negative_delay).find("--max-queue-delay-ms"),
              std::string::npos);

    ServingConfig no_queue;
    no_queue.max_queue_length = 0;
    EXPECT_NE(message(no_queue).find("--max-queue"), std::string::npos);

    ServingConfig bad_ttft;
    bad_ttft.enforce_ttft = true;
    EXPECT_NE(message(bad_ttft).find("--slo-ttft-ms"),
              std::string::npos);

    ServingConfig no_tenants;
    no_tenants.tenants = 0;
    EXPECT_NE(message(no_tenants).find("--tenants"), std::string::npos);

    ServingConfig bad_deadline;
    bad_deadline.has_default_deadline = true;
    EXPECT_NE(message(bad_deadline).find("--deadline-ms"),
              std::string::npos);

    ServingConfig no_preemptions;
    no_preemptions.max_preemptions = 0;
    EXPECT_NE(message(no_preemptions).find("--max-preemptions"),
              std::string::npos);

    EXPECT_TRUE(ServingConfig{}.validate().is_ok());
}

TEST(ServingConfigValidate, SchedulerNamesRoundTrip)
{
    for (const auto kind :
         {SchedulerKind::kFcfs, SchedulerKind::kContinuous,
          SchedulerKind::kEdf}) {
        const auto parsed =
            parse_scheduler_kind(scheduler_kind_name(kind));
        ASSERT_TRUE(parsed.is_ok());
        EXPECT_EQ(*parsed, kind);
    }
    const auto bad = parse_scheduler_kind("lifo");
    ASSERT_FALSE(bad.is_ok());
    EXPECT_NE(bad.status().to_string().find("--scheduler"),
              std::string::npos);
}

} // namespace
} // namespace helm::runtime
