/**
 * @file
 * Shared plumbing of golite_perfbench: clocks, seed mixing,
 * summary statistics, and the metric/result record every workload
 * fills in.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic wall clock, nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the whole process (all threads), nanoseconds. */
inline int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/** splitmix64: derive decorrelated values from the workload seed. */
inline uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

inline uint64_t
mix(uint64_t a, uint64_t b)
{
    return mix(mix(a) ^ (b * 0xd6e8feb86659fd93ULL));
}

/** Linear-interpolated quantile (q in [0,1]); 0 for no samples. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Samples of the timed region: one throughput and CPU figure per pass
 * (a pass is a fixed batch of ops), and op latencies. Latency
 * percentiles are taken per pass and reported as their median over
 * passes when a pass holds enough ops for a p99 (passLatency);
 * otherwise they are pooled over the whole run (latencyMs).
 */
struct Samples
{
    std::vector<double> opsPerS;
    std::vector<double> cpuUsPerOp;
    std::vector<double> latencyMs;
    std::vector<double> p50Ms;
    std::vector<double> p99Ms;
    uint64_t latencyCount = 0;

    void
    pass(uint64_t ops, int64_t wall_ns, int64_t cpu_ns)
    {
        opsPerS.push_back(static_cast<double>(ops) * 1e9 /
                          static_cast<double>(wall_ns));
        cpuUsPerOp.push_back(static_cast<double>(cpu_ns) / 1e3 /
                             static_cast<double>(ops));
    }

    /** Record one pass's latency percentiles. */
    void
    passLatency(const std::vector<double> &ms)
    {
        p50Ms.push_back(quantile(ms, 0.50));
        p99Ms.push_back(quantile(ms, 0.99));
        latencyCount += ms.size();
    }
};

/** One reported metric: value, unit, and how many samples back it. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
};

/** What a workload (or the traced run) hands back to main. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Every output check passed (failed ops are counted apart). */
    bool checksPassed = true;
    std::vector<Metric> metrics;
    /** Human-readable diagnostics printed before the result line. */
    std::vector<std::string> notes;

    void
    add(std::string name, double value, std::string unit,
        uint64_t samples)
    {
        metrics.push_back(
            {std::move(name), value, std::move(unit), samples});
    }

    /**
     * The end-to-end metrics: medians over passes for rate, CPU and
     * per-pass latency percentiles, or percentiles pooled over the run
     * when a pass is too small for a p99.
     */
    void
    addEndToEnd(const Samples &s, double setup_s, int setup_reps)
    {
        add("ops_per_s", median(s.opsPerS), "1/s", s.opsPerS.size());
        if (s.p50Ms.empty()) {
            add("latency_ms_p50", quantile(s.latencyMs, 0.50), "ms",
                s.latencyMs.size());
            add("latency_ms_p99", quantile(s.latencyMs, 0.99), "ms",
                s.latencyMs.size());
        } else {
            add("latency_ms_p50", median(s.p50Ms), "ms", s.latencyCount);
            add("latency_ms_p99", median(s.p99Ms), "ms", s.latencyCount);
        }
        add("cpu_us_per_op", median(s.cpuUsPerOp), "us",
            s.cpuUsPerOp.size());
        add("setup_s", setup_s, "s", setup_reps);
    }

    /** Fold in the metrics, counts, checks and notes of @p o. */
    void
    merge(const Result &o)
    {
        attempted += o.attempted;
        failed += o.failed;
        checksPassed = checksPassed && o.checksPassed;
        metrics.insert(metrics.end(), o.metrics.begin(), o.metrics.end());
        notes.insert(notes.end(), o.notes.begin(), o.notes.end());
    }

    /** Describe one failed op (the first kMaxFailureNotes only). */
    void
    noteFailure(std::string what)
    {
        if (failureNotes_++ < kMaxFailureNotes)
            notes.push_back(std::move(what));
    }

    /** Record a failed output check. */
    void
    fail(std::string why)
    {
        checksPassed = false;
        notes.push_back("CHECK FAILED: " + std::move(why));
    }

  private:
    static constexpr int kMaxFailureNotes = 20;
    int failureNotes_ = 0;
};

/** Run @p setup @p reps times; median wall seconds. */
template <typename Fn>
double
timeSetup(int reps, Fn &&setup)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        const int64_t t0 = nowNs();
        setup();
        s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    return median(s);
}

/** Command-line parameters shared by every workload. */
struct Params
{
    uint64_t seed = 1;
    double seconds = 10;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
