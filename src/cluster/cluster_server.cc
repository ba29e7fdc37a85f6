#include "cluster/cluster_server.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "cluster/cluster_engine.h"
#include "cluster/router.h"
#include "common/log.h"
#include "runtime/admission.h"
#include "runtime/instrument.h"
#include "runtime/schedule.h"

namespace helm::cluster {

using runtime::CompiledSchedule;
using runtime::ServingSpec;

namespace {

/** Pipeline layer ranges for the base model (batch-independent). */
Result<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
pipeline_ranges(const ServingSpec &base, std::uint64_t stages)
{
    const auto layers = model::build_layers(
        base.model, base.compress_weights ? model::DataType::kInt4Grouped
                                          : model::DataType::kFp16);
    return partition_layers(layers, stages);
}

/** Shard options for every GPU under @p spec's mode. */
Result<std::vector<runtime::ShardOptions>>
shard_plan(const ClusterSpec &spec)
{
    std::vector<runtime::ShardOptions> plan;
    plan.reserve(spec.gpus);
    if (spec.parallelism == Parallelism::kTensor) {
        for (std::uint64_t g = 0; g < spec.gpus; ++g) {
            runtime::ShardOptions shard;
            shard.kind = runtime::ShardOptions::Kind::kTensor;
            shard.count = spec.gpus;
            shard.index = g;
            plan.push_back(shard);
        }
    } else if (spec.parallelism == Parallelism::kPipeline) {
        auto ranges_or = pipeline_ranges(spec.serving, spec.gpus);
        if (!ranges_or.is_ok())
            return ranges_or.status();
        for (std::uint64_t g = 0; g < spec.gpus; ++g) {
            runtime::ShardOptions shard;
            shard.kind = runtime::ShardOptions::Kind::kPipeline;
            shard.count = spec.gpus;
            shard.index = g;
            shard.layer_begin = (*ranges_or)[g].first;
            shard.layer_end = (*ranges_or)[g].second;
            plan.push_back(shard);
        }
    } else {
        plan.resize(spec.gpus); // kNone for every GPU
    }
    return plan;
}

/** Request-level latencies of a batch timeline (reps = 1). */
void
batch_latencies(const BatchTimeline &tl, Seconds *ttft, Seconds *tbt)
{
    *ttft = tl.token_end.front() - tl.start;
    double gaps = 0.0;
    for (std::uint64_t tok = 1; tok < tl.tokens; ++tok)
        gaps += tl.token_end[tok] - tl.token_end[tok - 1];
    *tbt = tl.tokens > 1 ? gaps / static_cast<double>(tl.tokens - 1)
                         : 0.0;
}

} // namespace

Result<ClusterServer>
ClusterServer::create(ClusterSpec spec)
{
    // The serving template's batch/shape/repeats act per formed batch;
    // pin them the way runtime::Server::create does.
    spec.serving.batch = std::max<std::uint64_t>(spec.serving.batch, 1);
    spec.serving.repeats = 1;
    HELM_RETURN_IF_ERROR(spec.validate());

    if (spec.parallelism == Parallelism::kReplica && spec.gpus == 1) {
        // Bit-for-bit single-GPU serving: delegate wholesale.  This is
        // the only cluster shape that carries continuous/edf (validate
        // rejected them elsewhere).
        auto single_or = runtime::Server::create(spec.serving, spec.config);
        if (!single_or.is_ok())
            return single_or.status();
        ClusterServer server(std::move(spec), {});
        server.single_.emplace(std::move(*single_or));
        return server;
    }

    // The weakest GPU slice bounds admission: tensor shards are
    // uniform, pipeline stages differ (every stage holds the whole
    // batch's KV for its own layers), replicas use the full model.
    auto plan_or = shard_plan(spec);
    if (!plan_or.is_ok())
        return plan_or.status();
    std::vector<runtime::ShardGeometry> shards;
    for (const runtime::ShardOptions &shard : *plan_or) {
        auto geo_or = runtime::shard_geometry(spec.serving, shard);
        if (!geo_or.is_ok())
            return geo_or.status();
        shards.push_back(std::move(*geo_or));
        if (spec.parallelism != Parallelism::kPipeline)
            break; // identical geometry on every GPU
    }
    auto admission_or = runtime::AdmissionGeometry::create(
        spec.serving, std::move(shards), spec.config);
    if (!admission_or.is_ok())
        return admission_or.status();
    ClusterServer server(std::move(spec), std::move(*admission_or));
    server.plan_ = std::move(*plan_or);
    return server;
}

Result<runtime::ServingReport>
ClusterServer::serve()
{
    auto out = run();
    if (!out.is_ok())
        return out.status();
    last_records_ = std::move(out->records);
    last_gpus_ = std::move(out->gpus);
    last_ports_ = std::move(out->ports);
    return std::move(out->serving);
}

void
ClusterServer::enable_telemetry(bool collect_records)
{
    telemetry_ = true;
    collect_records_ = collect_records;
    if (single_.has_value())
        single_->enable_telemetry(collect_records);
}

Result<ClusterReport>
ClusterServer::run()
{
    const bool keep_records = spec_.serving.keep_records || telemetry_;
    if (single_.has_value()) {
        HELM_RETURN_IF_ERROR(single_->submit(pending_));
        pending_.clear();
        auto report_or = single_->serve();
        if (!report_or.is_ok())
            return report_or.status();
        ClusterReport out;
        out.serving = std::move(*report_or);
        GpuUtilization u;
        u.gpu = 0;
        u.batches = out.serving.batches_formed;
        u.requests = out.serving.completed;
        // The single-GPU Server does not track stream occupancy;
        // utilization stays 0 in the delegation path.
        out.gpus.push_back(u);
        trace_port_rate_ = single_->trace_port_rate();
        if (telemetry_) {
            attribution_ = single_->attribution();
            if (collect_records_)
                out.records = single_->serving_records();
        }
        return out;
    }
    runtime::sort_by_arrival(pending_);
    ClusterReport out;
    out.serving.submitted = pending_.size();
    if (pending_.empty()) {
        out.gpus.resize(spec_.gpus);
        for (std::uint64_t g = 0; g < spec_.gpus; ++g)
            out.gpus[g].gpu = g;
    } else {
        HELM_RETURN_IF_ERROR(spec_.parallelism == Parallelism::kReplica
                                 ? run_replica_cluster(out, keep_records)
                                 : run_sharded(out, keep_records));
        pending_.clear();
    }
    if (!out.ports.empty())
        trace_port_rate_ = out.ports.front().rate.raw();
    if (telemetry_) {
        // Close the cluster timeline: every GPU is accountable for the
        // whole makespan, so idle absorbs whatever the per-batch
        // attribution did not cover (load imbalance, queue gaps).
        const Seconds wall = static_cast<double>(spec_.gpus) *
                             out.serving.makespan;
        const Seconds total = attribution_.attributed_total();
        attribution_.add_idle(std::max(0.0, wall - total));
        attribution_.set_wall(
            std::max(wall, attribution_.attributed_total()));
        if (!collect_records_ && !spec_.serving.keep_records)
            out.records.clear();
    }
    return out;
}

Status
ClusterServer::run_replica_cluster(ClusterReport &out, bool keep_records)
{
    runtime::ServingReport &report = out.serving;
    const std::uint64_t N = spec_.gpus;

    // Fabric sizing: replicas share one read-only weight copy on the
    // host tier; each GPU's KV overflow is private.
    auto template_or = runtime::compile_schedule(spec_.serving);
    if (!template_or.is_ok())
        return template_or.status();
    const CompiledSchedule &tmpl = *template_or;
    const Bytes resident =
        tmpl.host_weight_bytes +
        N * (tmpl.host_resident_bytes - tmpl.host_weight_bytes);
    const PortRates rates =
        compute_port_rates(tmpl, spec_.sockets, resident);
    ClusterEngine engine(N, spec_.serving.gpu, rates);

    const runtime::ServingConfig &config = spec_.config;
    const std::uint64_t cap = config.max_queue_length;
    const std::uint64_t slots = std::min(admission_.max_batch(), cap);

    struct GpuState
    {
        std::deque<std::size_t> queue; //!< indices into pending_, FCFS
        bool busy = false;
        std::uint64_t inflight = 0;
        std::uint64_t gen = 0; //!< invalidates stale deadline timers
    };
    std::vector<GpuState> gpus(N);
    std::vector<std::uint64_t> requests_per_gpu(N, 0);
    std::vector<std::uint64_t> depths(N);
    Router router(spec_.router, N, spec_.router_seed);
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
             std::shared_ptr<const CompiledSchedule>>
        memo;
    Seconds last_completion = 0.0;
    Status error = Status::ok();
    workload::Batch batch;

    std::function<void(std::uint64_t)> try_launch;
    std::function<void(std::uint64_t)> launch;

    launch = [&](std::uint64_t g) {
        GpuState &st = gpus[g];
        ++st.gen; // whatever timer was armed for the old head is stale
        std::vector<std::size_t> members;
        admission_.form_batch(st.queue, pending_, report, batch, members);
        if (members.empty()) {
            try_launch(g); // every candidate was shed; next head
            return;
        }
        const auto key = std::make_tuple(batch.size(),
                                         batch.max_prompt_tokens(),
                                         batch.max_output_tokens());
        std::shared_ptr<const CompiledSchedule> compiled;
        const auto cached = memo.find(key);
        if (cached != memo.end()) {
            compiled = cached->second;
        } else {
            ServingSpec spec = spec_.serving;
            spec.batch = batch.size();
            spec.shape = batch.shape();
            spec.repeats = 1;
            spec.keep_records = false;
            auto compiled_or = runtime::compile_schedule(spec);
            if (!compiled_or.is_ok()) {
                if (error.is_ok())
                    error = compiled_or.status();
                return;
            }
            compiled = std::make_shared<CompiledSchedule>(
                std::move(*compiled_or));
            memo.emplace(key, compiled);
        }
        st.busy = true;
        st.inflight = members.size();
        requests_per_gpu[g] += members.size();
        const std::uint64_t batch_id = report.batches_formed++;
        const Seconds launch_t = engine.sim().now();
        engine.submit_job(
            g, *compiled, keep_records, batch_id,
            [&, g, members = std::move(members), launch_t,
             batch_id](const BatchTimeline &tl) {
                runtime::BatchTiming timing;
                batch_latencies(tl, &timing.ttft, &timing.tbt);
                timing.done = tl.end;
                runtime::record_batch(report, pending_, members, batch_id,
                                      launch_t, timing, config);
                last_completion = std::max(last_completion, tl.end);
                for (const runtime::LayerStepRecord &rec : tl.records)
                    out.records.push_back(rec);
                GpuState &done = gpus[g];
                done.busy = false;
                done.inflight = 0;
                try_launch(g);
            });
    };

    try_launch = [&](std::uint64_t g) {
        GpuState &st = gpus[g];
        if (st.busy || st.queue.empty() || !error.is_ok())
            return;
        const Seconds now = engine.sim().now();
        if (st.queue.size() >= slots) {
            launch(g);
            return;
        }
        // FCFS deadline: the head may wait max_queue_delay past the
        // moment the GPU could start it (Server's launch rule, without
        // the global full_at lookahead — future routing is unknown).
        const Seconds deadline = pending_[st.queue.front()].arrival +
                                 config.max_queue_delay;
        if (deadline <= now) {
            launch(g);
            return;
        }
        const std::uint64_t gen = st.gen;
        engine.sim().schedule(deadline - now, [&, g, gen] {
            GpuState &st2 = gpus[g];
            if (st2.gen == gen && !st2.busy && !st2.queue.empty() &&
                error.is_ok())
                launch(g);
        });
    };

    for (std::size_t i = 0; i < pending_.size(); ++i) {
        engine.sim().schedule(pending_[i].arrival, [&, i] {
            if (!error.is_ok())
                return;
            for (std::uint64_t g = 0; g < N; ++g)
                depths[g] = gpus[g].queue.size() + gpus[g].inflight;
            const std::uint64_t g = router.route(depths);
            GpuState &st = gpus[g];
            if (st.queue.size() >= cap) {
                report.rejected_ids.push_back(pending_[i].request.id);
                return;
            }
            st.queue.push_back(i);
            report.max_queue_depth = std::max<std::uint64_t>(
                report.max_queue_depth, st.queue.size());
            try_launch(g);
        });
    }

    engine.run_to_completion();
    HELM_RETURN_IF_ERROR(error);

    runtime::finalize_report(report, last_completion,
                             report.requests.size());
    out.gpus = engine.gpu_stats(report.makespan);
    for (std::uint64_t g = 0; g < N; ++g)
        out.gpus[g].requests = requests_per_gpu[g];
    out.ports = engine.port_stats(report.makespan);
    if (telemetry_) {
        // Records carry absolute sim times here; run() closes the
        // attribution to N x makespan with idle.
        attribution_ = runtime::attribute_records(
            out.records, spec_.serving.gpu.layer_overhead);
    }
    return Status::ok();
}

Status
ClusterServer::run_sharded(ClusterReport &out, bool keep_records)
{
    runtime::ServingReport &report = out.serving;
    const std::uint64_t N = spec_.gpus;

    const std::uint64_t micro = spec_.micro_batches > 0
                                    ? spec_.micro_batches
                                    : N;

    /** One sharded batch execution (memoized by padded shape). */
    struct BatchRun
    {
        Seconds ttft = 0.0;
        Seconds tbt = 0.0;
        Seconds total_time = 0.0;
        std::vector<GpuUtilization> gpus;
        std::vector<PortStats> ports;
        std::vector<runtime::LayerStepRecord> records;
        telemetry::TimeAttribution attribution;
    };
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
             BatchRun>
        memo;

    auto run_batch = [&](const workload::Batch &batch,
                         bool want_records) -> Result<const BatchRun *> {
        const auto key = std::make_tuple(batch.size(),
                                         batch.max_prompt_tokens(),
                                         batch.max_output_tokens());
        const auto cached = memo.find(key);
        if (cached != memo.end())
            return &cached->second;

        ServingSpec spec = spec_.serving;
        spec.batch = batch.size();
        spec.shape = batch.shape();
        spec.repeats = 1;
        spec.keep_records = false;

        std::vector<CompiledSchedule> shards;
        shards.reserve(N);
        for (std::uint64_t g = 0; g < N; ++g) {
            auto compiled_or = runtime::compile_schedule(spec, plan_[g]);
            if (!compiled_or.is_ok())
                return compiled_or.status();
            shards.push_back(std::move(*compiled_or));
        }
        const Bytes resident =
            cluster_resident_bytes(shards, spec_.parallelism);
        const PortRates rates =
            compute_port_rates(shards.front(), spec_.sockets, resident);
        ClusterEngine engine(N, spec.gpu, rates);
        const bool want = want_records || telemetry_;
        auto tl_or = spec_.parallelism == Parallelism::kTensor
                         ? engine.run_lockstep(shards, want)
                         : engine.run_pipeline(shards, micro, spec, want);
        if (!tl_or.is_ok())
            return tl_or.status();
        BatchRun run;
        batch_latencies(*tl_or, &run.ttft, &run.tbt);
        run.total_time = tl_or->end - tl_or->start;
        run.gpus = engine.gpu_stats(run.total_time);
        run.ports = engine.port_stats(run.total_time);
        run.records = std::move(tl_or->records);
        if (telemetry_) {
            // Batch-relative times, one shard timeline per GPU: the
            // per-batch wall is total_time on each of the N GPUs.
            run.attribution = runtime::attribute_records(
                run.records, spec_.serving.gpu.layer_overhead,
                run.total_time);
        }
        return &memo.emplace(key, std::move(run)).first->second;
    };

    // Cluster-wide accumulators across batch executions (memoized runs
    // count every launch).
    std::vector<GpuUtilization> gpu_totals(N);
    for (std::uint64_t g = 0; g < N; ++g)
        gpu_totals[g].gpu = g;
    std::vector<PortStats> port_totals;
    std::vector<std::uint64_t> requests_per_gpu(N, 0);
    bool recorded = false;

    HELM_RETURN_IF_ERROR(runtime::serve_fcfs(
        pending_, spec_.config, admission_, report,
        [&](const workload::Batch &batch, Seconds launch,
            std::uint64_t) -> Result<runtime::BatchTiming> {
            auto run_or = run_batch(batch, keep_records && !recorded);
            if (!run_or.is_ok())
                return run_or.status();
            const BatchRun &run = **run_or;
            if (telemetry_)
                attribution_.merge(run.attribution);
            for (std::uint64_t g = 0; g < N; ++g) {
                gpu_totals[g].batches += 1;
                gpu_totals[g].compute_busy += run.gpus[g].compute_busy;
                gpu_totals[g].h2d_bytes += run.gpus[g].h2d_bytes;
                gpu_totals[g].d2h_bytes += run.gpus[g].d2h_bytes;
                requests_per_gpu[g] += batch.size();
            }
            if (port_totals.empty()) {
                port_totals = run.ports;
                for (PortStats &p : port_totals)
                    p.bytes = 0;
            }
            for (std::size_t p = 0; p < port_totals.size(); ++p)
                port_totals[p].bytes += run.ports[p].bytes;
            if (!recorded && !run.records.empty()) {
                out.records = run.records;
                recorded = true;
            }
            return runtime::BatchTiming{run.ttft, run.tbt,
                                        launch + run.total_time};
        }));

    for (std::uint64_t g = 0; g < N; ++g) {
        gpu_totals[g].requests = requests_per_gpu[g];
        gpu_totals[g].utilization =
            report.makespan > 0.0
                ? gpu_totals[g].compute_busy / report.makespan
                : 0.0;
    }
    out.gpus = std::move(gpu_totals);
    for (PortStats &p : port_totals) {
        const double capacity = p.rate.raw() * report.makespan;
        p.utilization =
            capacity > 0.0 ? static_cast<double>(p.bytes) / capacity
                           : 0.0;
    }
    out.ports = std::move(port_totals);
    return Status::ok();
}

} // namespace helm::cluster
