#include "runtime/metrics.h"

namespace helm::runtime {

namespace {

std::vector<double>
collect(const std::vector<RequestMetrics> &requests,
        Seconds RequestMetrics::*field)
{
    std::vector<double> values;
    values.reserve(requests.size());
    for (const auto &r : requests)
        values.push_back(r.*field);
    return values;
}

} // namespace

Seconds
ServingReport::queueing_delay_percentile(double p) const
{
    return percentile_nearest_rank(
        collect(requests, &RequestMetrics::queueing_delay), p);
}

Seconds
ServingReport::ttft_percentile(double p) const
{
    return percentile_nearest_rank(collect(requests, &RequestMetrics::ttft),
                                   p);
}

Seconds
ServingReport::tbt_percentile(double p) const
{
    return percentile_nearest_rank(collect(requests, &RequestMetrics::tbt),
                                   p);
}

Seconds
ServingReport::e2e_percentile(double p) const
{
    return percentile_nearest_rank(
        collect(requests, &RequestMetrics::e2e_latency), p);
}

OverlapSummary
summarize_overlap(const std::vector<LayerStepRecord> &records,
                  gpu::Stage stage, std::uint64_t skip_batches)
{
    OverlapSummary s;
    std::uint64_t n = 0, n_mha = 0, n_ffn = 0;
    for (const auto &r : records) {
        if (r.stage != stage || r.batch_index < skip_batches)
            continue;
        if (r.type != model::LayerType::kMha &&
            r.type != model::LayerType::kFfn) {
            continue; // embedding layers are outside the block pipeline
        }
        s.avg_compute += r.compute_time;
        s.avg_transfer += r.transfer_time;
        ++n;
        if (r.type == model::LayerType::kMha) {
            s.avg_mha_compute += r.compute_time;
            s.avg_mha_transfer += r.transfer_time;
            ++n_mha;
        } else {
            s.avg_ffn_compute += r.compute_time;
            s.avg_ffn_transfer += r.transfer_time;
            ++n_ffn;
        }
    }
    if (n > 0) {
        s.avg_compute /= static_cast<double>(n);
        s.avg_transfer /= static_cast<double>(n);
    }
    if (n_mha > 0) {
        s.avg_mha_compute /= static_cast<double>(n_mha);
        s.avg_mha_transfer /= static_cast<double>(n_mha);
    }
    if (n_ffn > 0) {
        s.avg_ffn_compute /= static_cast<double>(n_ffn);
        s.avg_ffn_transfer /= static_cast<double>(n_ffn);
    }
    return s;
}

} // namespace helm::runtime
