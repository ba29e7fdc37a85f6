/**
 * @file
 * Unit tests for the arrival process (workload/arrival.h).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "workload/arrival.h"

namespace helm::workload {
namespace {

TEST(Arrival, ValidatesSpec)
{
    ArrivalSpec bad_rate;
    bad_rate.rate = 0.0;
    EXPECT_EQ(generate_arrivals(bad_rate).status().code(),
              StatusCode::kInvalidArgument);

    ArrivalSpec bad_duration;
    bad_duration.duration = -1.0;
    EXPECT_EQ(generate_arrivals(bad_duration).status().code(),
              StatusCode::kInvalidArgument);

    ArrivalSpec bad_tokens;
    bad_tokens.output_tokens = 0;
    EXPECT_EQ(generate_arrivals(bad_tokens).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(Arrival, DeterministicForSeed)
{
    ArrivalSpec spec;
    spec.rate = 5.0;
    spec.duration = 20.0;
    spec.seed = 123;
    const auto a = generate_arrivals(spec);
    const auto b = generate_arrivals(spec);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    ASSERT_EQ(a->size(), b->size());
    for (std::size_t i = 0; i < a->size(); ++i) {
        EXPECT_DOUBLE_EQ((*a)[i].arrival, (*b)[i].arrival);
        EXPECT_EQ((*a)[i].request.id, (*b)[i].request.id);
    }

    spec.seed = 124;
    const auto c = generate_arrivals(spec);
    ASSERT_TRUE(c.is_ok());
    bool differs = c->size() != a->size();
    for (std::size_t i = 0; !differs && i < a->size(); ++i)
        differs = (*a)[i].arrival != (*c)[i].arrival;
    EXPECT_TRUE(differs);
}

TEST(Arrival, TimesOrderedInsideHorizonIdsSequential)
{
    ArrivalSpec spec;
    spec.rate = 10.0;
    spec.duration = 50.0;
    const auto stream = generate_arrivals(spec);
    ASSERT_TRUE(stream.is_ok());
    ASSERT_FALSE(stream->empty());
    for (std::size_t i = 0; i < stream->size(); ++i) {
        const auto &timed = (*stream)[i];
        EXPECT_EQ(timed.request.id, i);
        EXPECT_GE(timed.arrival, 0.0);
        EXPECT_LT(timed.arrival, spec.duration);
        if (i > 0) {
            EXPECT_GE(timed.arrival, (*stream)[i - 1].arrival);
        }
        EXPECT_EQ(timed.request.prompt_tokens, spec.prompt_tokens);
        EXPECT_EQ(timed.request.output_tokens, spec.output_tokens);
    }
}

TEST(Arrival, PoissonCountNearRateTimesDuration)
{
    ArrivalSpec spec;
    spec.rate = 10.0;
    spec.duration = 100.0;
    const auto stream = generate_arrivals(spec);
    ASSERT_TRUE(stream.is_ok());
    // Mean 1000, sigma ~31.6; +-20 % is ~6 sigma.
    EXPECT_GT(stream->size(), 800u);
    EXPECT_LT(stream->size(), 1200u);
}

TEST(Arrival, UniformKindIsExactlyPaced)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::kUniform;
    spec.rate = 2.0;
    spec.duration = 10.0;
    const auto stream = generate_arrivals(spec);
    ASSERT_TRUE(stream.is_ok());
    // Gaps of 0.5 s starting at 0.5: 19 arrivals fall inside [0, 10).
    ASSERT_EQ(stream->size(), 19u);
    for (std::size_t i = 0; i < stream->size(); ++i) {
        EXPECT_NEAR((*stream)[i].arrival,
                    0.5 * static_cast<double>(i + 1), 1e-9);
    }
}

TEST(Arrival, MaxRequestsCapsTheStream)
{
    ArrivalSpec spec;
    spec.rate = 100.0;
    spec.duration = 100.0;
    spec.max_requests = 7;
    const auto stream = generate_arrivals(spec);
    ASSERT_TRUE(stream.is_ok());
    EXPECT_EQ(stream->size(), 7u);
}

TEST(Arrival, VariableLengthsRespectFloorAndCap)
{
    ArrivalSpec spec;
    spec.rate = 20.0;
    spec.duration = 50.0;
    spec.variable_lengths = true;
    const auto stream = generate_arrivals(spec);
    ASSERT_TRUE(stream.is_ok());
    bool saw_non_median = false;
    for (const auto &timed : *stream) {
        EXPECT_GE(timed.request.prompt_tokens, spec.min_prompt);
        EXPECT_LE(timed.request.prompt_tokens, spec.prompt_tokens * 4);
        saw_non_median |=
            timed.request.prompt_tokens != spec.prompt_tokens;
    }
    EXPECT_TRUE(saw_non_median);
}

TEST(Arrival, TraceRoundTrips)
{
    ArrivalSpec spec;
    spec.rate = 3.0;
    spec.duration = 15.0;
    spec.variable_lengths = true;
    const auto stream = generate_arrivals(spec);
    ASSERT_TRUE(stream.is_ok());

    const std::string path = "/tmp/helm_arrival_trace_test.txt";
    ASSERT_TRUE(save_arrival_trace(*stream, path).is_ok());
    const auto loaded = load_arrival_trace(path);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    ASSERT_EQ(loaded->size(), stream->size());
    for (std::size_t i = 0; i < stream->size(); ++i) {
        EXPECT_DOUBLE_EQ((*loaded)[i].arrival, (*stream)[i].arrival);
        EXPECT_EQ((*loaded)[i].request.prompt_tokens,
                  (*stream)[i].request.prompt_tokens);
        EXPECT_EQ((*loaded)[i].request.output_tokens,
                  (*stream)[i].request.output_tokens);
    }
    std::remove(path.c_str());
}

TEST(Arrival, TraceLoaderRejectsBadInput)
{
    EXPECT_EQ(load_arrival_trace("/nonexistent/trace").status().code(),
              StatusCode::kNotFound);

    const std::string path = "/tmp/helm_arrival_bad_trace.txt";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("1.0 128 21\n0.5 128 21\n", f); // time goes backwards
        std::fclose(f);
    }
    EXPECT_EQ(load_arrival_trace(path).status().code(),
              StatusCode::kInvalidArgument);
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("1.0 128\n", f); // missing output tokens
        std::fclose(f);
    }
    EXPECT_EQ(load_arrival_trace(path).status().code(),
              StatusCode::kInvalidArgument);
    std::remove(path.c_str());
}

TEST(Arrival, BurstKnobsValidated)
{
    ArrivalSpec shrinking;
    shrinking.kind = ArrivalKind::kBursty;
    shrinking.burst_factor = 0.5;
    EXPECT_EQ(generate_arrivals(shrinking).status().code(),
              StatusCode::kInvalidArgument);

    ArrivalSpec no_period;
    no_period.kind = ArrivalKind::kDiurnal;
    no_period.burst_period = 0.0;
    EXPECT_EQ(generate_arrivals(no_period).status().code(),
              StatusCode::kInvalidArgument);

    ArrivalSpec full_duty;
    full_duty.kind = ArrivalKind::kBursty;
    full_duty.burst_duty = 1.0;
    EXPECT_EQ(generate_arrivals(full_duty).status().code(),
              StatusCode::kInvalidArgument);

    ArrivalSpec no_tenants;
    no_tenants.tenants = 0;
    EXPECT_EQ(generate_arrivals(no_tenants).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(Arrival, BurstyClumpsArrivalsInsideTheDutyWindow)
{
    // With a strong burst the on-phase must hold more arrivals than
    // its share of the timeline.
    ArrivalSpec spec;
    spec.kind = ArrivalKind::kBursty;
    spec.rate = 4.0;
    spec.duration = 40.0;
    spec.burst_factor = 10.0;
    spec.burst_period = 8.0;
    spec.burst_duty = 0.25;
    const auto stream = generate_arrivals(spec);
    ASSERT_TRUE(stream.is_ok());
    ASSERT_GT(stream->size(), 20u);
    std::size_t in_burst = 0;
    for (const auto &timed : *stream) {
        const double phase =
            std::fmod(timed.arrival, spec.burst_period) /
            spec.burst_period;
        if (phase < spec.burst_duty)
            ++in_burst;
    }
    EXPECT_GT(static_cast<double>(in_burst) /
                  static_cast<double>(stream->size()),
              2.0 * spec.burst_duty);
}

TEST(Arrival, TenantsAssignedRoundRobinAndDeadlinesStamped)
{
    ArrivalSpec spec;
    spec.rate = 5.0;
    spec.duration = 10.0;
    spec.tenants = 3;
    spec.deadline = 2.5;
    const auto stream = generate_arrivals(spec);
    ASSERT_TRUE(stream.is_ok());
    ASSERT_GT(stream->size(), 3u);
    for (const auto &timed : *stream) {
        EXPECT_EQ(timed.request.tenant, timed.request.id % 3);
        EXPECT_DOUBLE_EQ(timed.deadline, timed.arrival + 2.5);
    }
}

TEST(Arrival, MergeOrdersByTimeAndReassignsIds)
{
    ArrivalSpec lax;
    lax.rate = 2.0;
    lax.duration = 10.0;
    lax.seed = 3;
    ArrivalSpec urgent;
    urgent.rate = 1.0;
    urgent.duration = 10.0;
    urgent.deadline = 4.0;
    urgent.seed = 11;
    auto a = generate_arrivals(lax);
    auto b = generate_arrivals(urgent);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    for (auto &timed : *b)
        timed.request.tenant = 1;

    const auto merged = merge_arrivals({*a, *b});
    ASSERT_EQ(merged.size(), a->size() + b->size());
    std::size_t urgent_seen = 0;
    for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].request.id, i); // ids follow merged order
        if (i > 0) {
            EXPECT_GE(merged[i].arrival, merged[i - 1].arrival);
        }
        if (merged[i].request.tenant == 1) {
            ++urgent_seen;
            EXPECT_GT(merged[i].deadline, merged[i].arrival);
        } else {
            EXPECT_DOUBLE_EQ(merged[i].deadline, 0.0);
        }
    }
    EXPECT_EQ(urgent_seen, b->size());
}

} // namespace
} // namespace helm::workload
