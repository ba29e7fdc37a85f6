/**
 * @file
 * Serving metrics: TTFT, TBT, throughput (paper Sec. III-C), the
 * per-layer-step records every figure-reproduction bench consumes, and
 * the request-level ServingReport every serving backend returns.
 */
#ifndef HELM_RUNTIME_METRICS_H
#define HELM_RUNTIME_METRICS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/summary.h"
#include "common/units.h"
#include "gpu/compute_model.h"
#include "model/transformer.h"
#include "runtime/serving_config.h"

namespace helm::runtime {

/** KV bytes one step moved to/from one cache tier (trace track). */
struct KvTierTraffic
{
    std::string tier;        //!< tier name from the KvCacheConfig
    Bytes read_bytes = 0;    //!< tier -> GPU context fetch
    Bytes write_bytes = 0;   //!< GPU -> tier appends + demotions
};

/** Bytes resident in one KV tier, sampled when a step retired. */
struct KvTierOccupancy
{
    std::string tier; //!< tier name from the KvCacheConfig
    Bytes bytes = 0;  //!< occupancy at sample time
};

/** One preemption swap interval on the d2h (demote) or h2d (promote)
 *  channel: the KV pages of one preempted request draining to a host
 *  tier or streaming back.  Feeds the "KV swap (preemption)" trace
 *  track; empty under fcfs. */
struct KvSwapEvent
{
    std::uint64_t request_id = 0;
    std::uint64_t tenant = 0;
    bool demote = false;  //!< true = GPU -> host, false = host -> GPU
    Bytes bytes = 0;
    Seconds start = 0.0;  //!< channel grant (after queueing behind
                          //!< earlier swaps)
    Seconds end = 0.0;    //!< drain complete
};

/** Timing of one (token, layer) step of the zig-zag schedule. */
struct LayerStepRecord
{
    std::uint64_t gpu_index = 0;   //!< which GPU executed it (cluster
                                   //!< runs; single-GPU runs emit 0)
    std::uint64_t batch_index = 0; //!< which repeat of the workload
    std::uint64_t token = 0;       //!< 0 = prefill token
    int layer = 0;                 //!< schedule index within the model
    model::LayerType type = model::LayerType::kMha;
    gpu::Stage stage = gpu::Stage::kPrefill;
    Seconds compute_time = 0.0;  //!< GPU busy time for this layer
    Seconds transfer_time = 0.0; //!< duration of this layer's weight +
                                 //!< KV-read load
    Bytes transfer_bytes = 0;    //!< off-GPU weight bytes for this layer
    Bytes host_bytes = 0;        //!< transfer_bytes sourced from host RAM
    Bytes disk_bytes = 0;        //!< transfer_bytes sourced from storage
    Bytes kv_read_bytes = 0;     //!< KV fetched from host, all tiers
    Bytes kv_write_bytes = 0;    //!< KV written back to host, all tiers
    Seconds transfer_start = 0.0;//!< virtual time the load was issued
    Seconds step_start = 0.0;    //!< virtual time the step began
    Seconds step_end = 0.0;      //!< virtual time the step retired
    /** Duration of this step's KV writeback drain (0 if none). */
    Seconds kv_write_time = 0.0;
    /** Compute stall waiting for un-prefetched KV reads (0 if none). */
    Seconds kv_stall_time = 0.0;
    /** Per-tier KV traffic (empty when the step moved no KV bytes). */
    std::vector<KvTierTraffic> kv_tiers;
    /** KV tier occupancy sampled at step retirement (MHA steps of runs
     *  with host KV tiers; empty otherwise).  Feeds trace counters. */
    std::vector<KvTierOccupancy> kv_occupancy;
};

/** Aggregate serving metrics. */
struct InferenceMetrics
{
    Seconds ttft = 0.0;      //!< mean time to first token (cold run cut)
    Seconds tbt = 0.0;       //!< mean time between tokens
    double throughput = 0.0; //!< tokens/s over the whole process
    Seconds total_time = 0.0;
    std::uint64_t total_tokens = 0;

    std::vector<double> per_batch_ttft; //!< seconds, one per repeat
    std::vector<double> per_batch_tbt;  //!< mean TBT per repeat

    /** Nearest-rank percentile of the per-batch TTFT samples. */
    Seconds
    ttft_percentile(double p) const
    {
        return percentile_nearest_rank(per_batch_ttft, p);
    }

    /** Nearest-rank percentile of the per-batch TBT samples. */
    Seconds
    tbt_percentile(double p) const
    {
        return percentile_nearest_rank(per_batch_tbt, p);
    }
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
    /** First arrival -> last completion; 0 when nothing completed. */
    Seconds makespan = 0.0;
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

/** Per-stage compute/communication averages (Figs. 5, 6, 8, 11, 12). */
struct OverlapSummary
{
    Seconds avg_compute = 0.0;       //!< all layer types
    Seconds avg_transfer = 0.0;
    Seconds avg_mha_compute = 0.0;
    Seconds avg_ffn_compute = 0.0;
    Seconds avg_mha_transfer = 0.0;
    Seconds avg_ffn_transfer = 0.0;

    /** Table IV column "MHA compute / FFN load". */
    double
    mha_compute_over_ffn_load() const
    {
        return avg_ffn_transfer > 0.0 ? avg_mha_compute / avg_ffn_transfer
                                      : 0.0;
    }

    /** Table IV column "FFN compute / MHA load". */
    double
    ffn_compute_over_mha_load() const
    {
        return avg_mha_transfer > 0.0 ? avg_ffn_compute / avg_mha_transfer
                                      : 0.0;
    }
};

/**
 * Average compute/transfer over decoder-block records of one @p stage,
 * skipping @p skip_batches initial repeats (cold start discard).
 */
OverlapSummary summarize_overlap(const std::vector<LayerStepRecord> &records,
                                 gpu::Stage stage,
                                 std::uint64_t skip_batches = 0);

} // namespace helm::runtime

#endif // HELM_RUNTIME_METRICS_H
