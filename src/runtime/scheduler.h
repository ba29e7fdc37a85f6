/**
 * @file
 * Request-level serving: the scheduler family in front of the engine.
 *
 * The engine simulates one fixed-shape batch; a serving system sees
 * individual requests arriving over time.  `Server` bridges the two
 * under a `ServingConfig`-selected scheduler:
 *
 *  - fcfs:        PR 1's dynamic batcher — a formed batch runs to
 *                 completion, growing only while its padded shape
 *                 fits HBM (bit-for-bit the historical path on every
 *                 serve that path could complete);
 *  - continuous:  iteration-level continuous batching — the running
 *                 batch re-forms at every decode-iteration boundary
 *                 (finished requests retire immediately, free slots
 *                 admit new prefills), tenant queues drain
 *                 round-robin;
 *  - edf:         continuous batching ordered by earliest deadline,
 *                 with preemption — a preempted request's KV pages
 *                 demote to the host tiers and promote back on
 *                 resume, every byte charged through the DES as
 *                 overlap or exposed stall.
 *
 * This is the regime where the paper's HeLM (latency-optimizing) vs.
 * All-CPU (throughput-optimizing) trade-off actually shows up: at low
 * arrival rates per-batch latency dominates, at high rates queueing
 * does, and the placement that wins flips (Secs. V-B/V-C).  Request-
 * level contention — bursty multi-tenant mixes with deadlines — is
 * where iteration-level scheduling splits from FCFS.
 */
#ifndef HELM_RUNTIME_SCHEDULER_H
#define HELM_RUNTIME_SCHEDULER_H

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "runtime/admission.h"
#include "runtime/backend.h"
#include "runtime/engine.h"
#include "runtime/serving_config.h"
#include "telemetry/attribution.h"
#include "workload/arrival.h"
#include "workload/workload.h"

namespace helm::runtime {

/**
 * Request-level serving facade over the engine — the single-GPU
 * `ServingBackend`.
 *
 * Construct via create() (validates the spec and the config up front so
 * the CLI, benches, and library users all see the same errors before a
 * simulation runs), submit() requests with arrival times, then serve()
 * once to drive the whole stream and collect the report.
 *
 * @code
 *   auto server = Server::create(spec, config);
 *   server->submit(*workload::generate_arrivals(arrivals));
 *   auto report = server->serve();
 *   std::cout << report->ttft_percentile(99.0);
 * @endcode
 */
class Server : public ServingBackend
{
  public:
    /**
     * Validate @p base (its batch/shape/repeats fields act as the
     * template for formed batches) and @p config; auto-size the batch
     * ceiling when config.auto_max_batch.  kCapacityExceeded when not
     * even a single request fits the GPU.
     */
    static Result<Server> create(ServingSpec base,
                                 ServingConfig config = {});

    using ServingBackend::submit;

    /** Queue one request; its arrival must not precede earlier
     *  submits.  The deadline (if any) rides along for EDF. */
    Status submit(const workload::TimedRequest &timed) override;

    /**
     * Serve every submitted request to completion and clear the queue,
     * under the configured scheduler.
     */
    Result<ServingReport> serve() override;

    /**
     * Compatibility path for pre-formed batches (the serve_workload
     * shim): pad @p batch to its longest prompt and drive it through
     * the engine exactly as the seed serving loop did.  Results are
     * memoized by (size, shape) — the engine is deterministic, so equal
     * batches yield bit-identical metrics.
     */
    Result<InferenceMetrics> run_batch(const workload::Batch &batch);

    /**
     * Collect telemetry during serve(): accumulate the time attribution
     * of every launched batch (exactly — idle closes the gap to the
     * makespan) and, when @p collect_records, keep per-step records
     * shifted to serving time for trace export.  Scheduling decisions
     * and the returned report are unaffected.
     */
    void
    enable_telemetry(bool collect_records) override
    {
        telemetry_ = true;
        collect_records_ = collect_records;
    }

    /** Time attribution accumulated by serve(); wall() == makespan and
     *  attributed_total() == wall() by construction. */
    const telemetry::TimeAttribution &attribution() const override
    {
        return attribution_;
    }

    /** Per-step records in serving time (enable_telemetry(true) only). */
    const std::vector<LayerStepRecord> &serving_records() const override
    {
        return records_;
    }

    /** The engine's h2d fabric rate — the shared host port a serve
     *  run's trace utilization counters are scaled by.  Zero until a
     *  batch has run. */
    Bandwidth h2d_rate() const { return h2d_rate_; }

    double trace_port_rate() const override { return h2d_rate_.raw(); }

    /** The batch ceiling in force (auto-sized when the config said so). */
    std::uint64_t effective_max_batch() const override
    {
        return admission_.max_batch();
    }

    /**
     * With a managed KV cache: how many template-shape requests the
     * configured tiers can hold at once (the admission bound create()
     * derived).  0 when the spec has no managed tiers or a tier is
     * unbounded — no KV admission limit applies.
     */
    std::uint64_t kv_request_slots() const override
    {
        return admission_.kv_request_slots();
    }

    const ServingSpec &spec() const { return base_; }
    const ServingSpec &serving_spec() const override { return base_; }
    const ServingConfig &config() const { return config_; }

  private:
    Server(ServingSpec base, ServingConfig config,
           AdmissionGeometry admission)
        : base_(std::move(base)), config_(config),
          admission_(std::move(admission))
    {}

    /** PR 1's FCFS dynamic batcher (bit-for-bit the historical path
     *  on every serve that path could complete). */
    Result<ServingReport> run_fcfs();

    /** Iteration-level continuous batching / EDF (continuous.cc). */
    Result<ServingReport> run_continuous();

    using MemoKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

    /** The memoized metrics run_batch() would return for @p key
     *  (batch, prompt, output) without simulating; nullptr on a miss. */
    const InferenceMetrics *memo_hit(const MemoKey &key) const;

    /**
     * @p field of run_batch() over @p count requests of @p prompt and
     * @p output tokens — the continuous schedulers' iteration probe.
     * A memo hit builds no batch and copies no metrics.
     */
    Result<Seconds> probe_time(std::uint64_t count, std::uint64_t prompt,
                               std::uint64_t output,
                               Seconds InferenceMetrics::*field);

    ServingSpec base_;
    ServingConfig config_;
    /** Batch ceiling, KV geometry and the per-shape HBM memo; lives
     *  as long as the server so repeated serve() calls reuse it. */
    AdmissionGeometry admission_;
    std::vector<workload::TimedRequest> pending_;
    /** (batch, prompt, output) -> engine metrics memo. */
    std::map<MemoKey, InferenceMetrics> memo_;

    /** Attribution + records of one memoized batch shape. */
    struct BatchExtras
    {
        telemetry::TimeAttribution attribution;
        std::vector<LayerStepRecord> records;
    };

    bool telemetry_ = false;
    bool collect_records_ = false;
    Bandwidth h2d_rate_;
    telemetry::TimeAttribution attribution_;
    std::vector<LayerStepRecord> records_;
    std::map<MemoKey, BatchExtras> extras_;
};

} // namespace helm::runtime

#endif // HELM_RUNTIME_SCHEDULER_H
