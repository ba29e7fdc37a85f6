#include "common/units.h"

#include <array>
#include <cstdio>

namespace helm {

namespace {

std::string
format_double(double value, const char *suffix)
{
    char buf[64];
    if (value >= 100.0) {
        std::snprintf(buf, sizeof(buf), "%.0f %s", value, suffix);
    } else if (value >= 10.0) {
        std::snprintf(buf, sizeof(buf), "%.1f %s", value, suffix);
    } else {
        std::snprintf(buf, sizeof(buf), "%.2f %s", value, suffix);
    }
    return buf;
}

} // namespace

std::string
format_bytes(Bytes bytes)
{
    static constexpr std::array<const char *, 5> suffixes = {
        "B", "KiB", "MiB", "GiB", "TiB"};
    double value = static_cast<double>(bytes);
    std::size_t idx = 0;
    while (value >= 1024.0 && idx + 1 < suffixes.size()) {
        value /= 1024.0;
        ++idx;
    }
    if (idx == 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu B",
                      static_cast<unsigned long long>(bytes));
        return buf;
    }
    return format_double(value, suffixes[idx]);
}

std::string
format_seconds(Seconds s)
{
    if (s < 0.0) {
        std::string out(1, '-');
        out += format_seconds(-s);
        return out;
    }
    if (s < 1e-6)
        return format_double(s * 1e9, "ns");
    if (s < 1e-3)
        return format_double(s * 1e6, "us");
    if (s < 1.0)
        return format_double(s * 1e3, "ms");
    return format_double(s, "s");
}

std::string
format_bandwidth(Bandwidth bw)
{
    double gbps = bw.as_gb_per_s();
    if (gbps < 0.001)
        return format_double(bw.raw() / static_cast<double>(kMB), "MB/s");
    return format_double(gbps, "GB/s");
}

} // namespace helm
