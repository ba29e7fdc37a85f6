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
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "runtime/backend.h"
#include "runtime/engine.h"
#include "runtime/serving_config.h"
#include "telemetry/attribution.h"
#include "workload/arrival.h"
#include "workload/workload.h"

namespace helm::runtime {

/**
 * FCFS dynamic-batching knobs.
 *
 * @deprecated PR 6 folded these into `ServingConfig` (explicit
 * `auto_max_batch` instead of the 0-means-auto tri-state); kept for
 * one release as a conversion shim — new code should build a
 * ServingConfig directly.
 */
struct SchedulerPolicy
{
    /**
     * Largest batch the scheduler may form.  0 = auto-size: the largest
     * effective batch that fits the GPU with zero resident weights
     * (planner max_batch math), divided by the spec's micro_batches.
     */
    std::uint64_t max_batch = 0;
    /**
     * How long the head-of-line request may wait for batch-mates once
     * the engine could start it.  0 = greedy dispatch: launch with
     * whatever has arrived.
     */
    Seconds max_queue_delay = 0.5;
    /**
     * Admission cap: a request arriving while this many requests are
     * already waiting is rejected (load shedding).
     */
    std::uint64_t max_queue_length = 1024;

    Status validate() const;
};

/**
 * Latency targets a request must meet to count toward goodput.
 *
 * @deprecated Folded into `ServingConfig` (enforce_ttft/enforce_e2e
 * booleans); kept for one release as a conversion shim.
 */
struct SloSpec
{
    Seconds ttft_target = 0.0; //!< 0 = no TTFT constraint
    Seconds e2e_target = 0.0;  //!< 0 = no end-to-end constraint
};

/** What one completed request experienced. */
struct RequestMetrics
{
    std::uint64_t id = 0;
    std::uint64_t tenant = 0;       //!< owning tenant queue
    std::uint64_t prompt_tokens = 0;
    std::uint64_t output_tokens = 0;
    std::uint64_t batch_index = 0;  //!< which formed batch served it
    Seconds arrival = 0.0;
    Seconds queueing_delay = 0.0;   //!< arrival -> batch launch
    Seconds ttft = 0.0;             //!< arrival -> first token
    Seconds tbt = 0.0;              //!< mean time between tokens
    Seconds e2e_latency = 0.0;      //!< arrival -> last token
    bool slo_met = true;
    /** Absolute completion deadline (0 = none). */
    Seconds deadline = 0.0;
    /** false only when a deadline was set and completion missed it. */
    bool deadline_met = true;
    /** Times the EDF scheduler preempted this request. */
    std::uint64_t preemptions = 0;
};

/** Per-tenant aggregate over one serving run (continuous/edf). */
struct TenantStats
{
    std::uint64_t tenant = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t tokens = 0;        //!< generated by completed requests
    std::uint64_t slo_met = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t preemptions = 0;
    /** Scheduling rounds where a later-arriving request of another
     *  tenant was admitted over this tenant's waiting head. */
    std::uint64_t starvation_events = 0;
    Seconds mean_ttft = 0.0;
    Seconds max_queue_wait = 0.0;    //!< worst arrival -> first-schedule
};

/** Per-request metrics aggregated over one serving run. */
struct ServingReport
{
    std::vector<RequestMetrics> requests; //!< dispatch order
    /** Shed requests: queue overflow or KV capacity (see kv_rejected). */
    std::vector<std::uint64_t> rejected_ids;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    /** Of the rejected, how many were shed because their padded context
     *  can never fit the managed KV tiers (subset of rejected). */
    std::uint64_t kv_rejected = 0;
    /** Of the rejected, how many were shed by fcfs because their padded
     *  shape does not fit HBM even alone with every weight spilled off
     *  (subset of rejected). */
    std::uint64_t hbm_rejected = 0;
    std::uint64_t batches_formed = 0;
    std::uint64_t max_queue_depth = 0; //!< peak waiting requests
    double mean_batch_size = 0.0;
    Seconds makespan = 0.0;        //!< first arrival -> last completion
    std::uint64_t total_tokens = 0; //!< generated by completed requests
    double throughput = 0.0;        //!< generated tokens/s over makespan
    /** Generated tokens/s counting only SLO-met requests. */
    double goodput = 0.0;
    /** Fraction of completed requests that met the SLO. */
    double slo_attainment = 0.0;

    // ---- Continuous/EDF extensions (zero under fcfs) -----------------
    SchedulerKind scheduler = SchedulerKind::kFcfs;
    /** Iteration boundaries the continuous scheduler processed
     *  (prefill + decode iterations). */
    std::uint64_t iterations = 0;
    std::uint64_t preemptions = 0;  //!< requests swapped out (EDF)
    std::uint64_t resumes = 0;      //!< swapped-out requests resumed
    /** KV bytes demoted GPU -> host by preemption swap-out. */
    Bytes kv_demoted_bytes = 0;
    /** KV bytes promoted host -> GPU on resume. */
    Bytes kv_promoted_bytes = 0;
    /** Swap time the iteration clock could not hide behind compute. */
    Seconds kv_swap_exposed_seconds = 0.0;
    /** Every demote/promote interval in channel-grant order; the bytes
     *  tile kv_demoted_bytes / kv_promoted_bytes exactly.  Feeds the
     *  chrome-trace swap track.  Empty under fcfs. */
    std::vector<KvSwapEvent> kv_swap_events;
    std::uint64_t deadline_misses = 0;
    /** Scheduling rounds that admitted a later arrival over a waiting
     *  head-of-queue request (summed over tenants). */
    std::uint64_t starvation_events = 0;
    /** Jain fairness index over per-tenant generated tokens; 1.0 =
     *  perfectly even, 1/n = one tenant took everything.  0 when no
     *  tokens were generated. */
    double jain_fairness = 0.0;
    /** Per-tenant aggregates, tenant-id order (continuous/edf only). */
    std::vector<TenantStats> tenants;

    /** Nearest-rank percentile of per-request queueing delay. */
    Seconds queueing_delay_percentile(double p) const;
    /** Nearest-rank percentile of per-request TTFT. */
    Seconds ttft_percentile(double p) const;
    /** Nearest-rank percentile of per-request mean TBT. */
    Seconds tbt_percentile(double p) const;
    /** Nearest-rank percentile of per-request end-to-end latency. */
    Seconds e2e_percentile(double p) const;
};

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
    static Result<Server> create(ServingSpec base, ServingConfig config);

    /** Deprecated PR 1 entry point; converts through
     *  ServingConfig::from_legacy (always the fcfs scheduler). */
    static Result<Server> create(ServingSpec base,
                                 SchedulerPolicy policy = {},
                                 SloSpec slo = {});

    using ServingBackend::submit;

    /** Queue one request; its arrival must not precede earlier
     *  submits.  The deadline (if any) rides along for EDF. */
    Status submit(const workload::TimedRequest &timed) override;

    /**
     * Serve every submitted request to completion and clear the queue,
     * under the configured scheduler.
     */
    Result<ServingReport> serve() override;

    /** Historical name for serve(); thin delegating shim. */
    Result<ServingReport> run() { return serve(); }

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

    /** Historical name for serving_records(). */
    const std::vector<LayerStepRecord> &collected_records() const
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
        return max_batch_;
    }

    /**
     * With a managed KV cache: how many template-shape requests the
     * configured tiers can hold at once (the admission bound create()
     * derived).  0 when the spec has no managed tiers or a tier is
     * unbounded — no KV admission limit applies.
     */
    std::uint64_t kv_request_slots() const override
    {
        return kv_request_slots_;
    }

    const ServingSpec &spec() const { return base_; }
    const ServingSpec &serving_spec() const override { return base_; }
    const ServingConfig &config() const { return config_; }

  private:
    Server(ServingSpec base, ServingConfig config,
           std::uint64_t max_batch)
        : base_(std::move(base)), config_(config), max_batch_(max_batch)
    {}

    /** PR 1's FCFS dynamic batcher (bit-for-bit the historical path
     *  on every serve that path could complete). */
    Result<ServingReport> run_fcfs();

    /** Iteration-level continuous batching / EDF (continuous.cc). */
    Result<ServingReport> run_continuous();

    /**
     * Requests of padded shape (@p prompt, @p output) that fit HBM with
     * zero resident weights — the floor the engine enforces before it
     * simulates a batch (ServingSpec::validate).  Memoized per shape;
     * the search stops at max_batch_, the most the caller can ask for.
     */
    std::uint64_t hbm_request_slots(std::uint64_t prompt,
                                    std::uint64_t output);

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
    std::uint64_t max_batch_ = 1;
    /** Managed-KV admission geometry (0 block_tokens = unmanaged). */
    std::uint64_t kv_block_tokens_ = 0;
    /** Whole-request KV blocks the tiers can hold; UINT64_MAX when some
     *  tier is unbounded. */
    std::uint64_t kv_capacity_blocks_ =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t kv_request_slots_ = 0;
    std::vector<workload::TimedRequest> pending_;
    /** The model's per-layer weights, built once by create(). */
    std::vector<model::LayerSpec> layers_;
    /** (prompt, output) -> hbm_request_slots() memo. */
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        hbm_slots_;
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
