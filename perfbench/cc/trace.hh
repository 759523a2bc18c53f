/**
 * @file
 * Outside-in tracing for the benchmark's traced run.
 *
 * Nothing here reaches into the library: spans are opened by the
 * benchmark around its calls into golite's public functions, and
 * event-bus cost is measured by wrapping each Subscriber a run
 * attaches in a forwarding proxy that times onEvent/onMemAccess.
 *
 * All state is per OS thread (sweep workers and the M:N team record
 * concurrently) and merged only when the workload is quiescent.
 * Spans (name, start, end, parent, op id) stay in memory and are
 * written out once, at exit. Self time is kept online: a closing span
 * adds its duration to the open span below it on the same thread, so
 * self = duration - time covered by same-thread children.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "runtime/events.hh"
#include "runtime/report.hh"

namespace perfbench::trace
{

/** Span names: one per public entry point the benchmark calls. */
enum class SpanKind : uint8_t
{
    Op,          ///< one hunt verdict
    FuzzRun,     ///< fuzz::fuzzRun
    ExploreAll,  ///< explore::exploreAll
    Run,         ///< one golite::run (through the corpus runner)
    RunJobs,     ///< parallel::runJobs
    RunParallel, ///< parallel::runParallel
    Count,
};

const char *spanName(SpanKind kind);

/** Which library layer a proxied subscriber belongs to. */
enum class SubKind : uint8_t
{
    Race,      ///< race::Detector
    Sharded,   ///< race::Sharded
    Waitgraph, ///< waitgraph::Detector
    FuzzProbe, ///< fuzz coverage probes
    Oracle,    ///< explore::DependenceOracle
    Other,
    Count,
};

struct SpanStat
{
    uint64_t count = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
};

struct CallStat
{
    uint64_t events = 0;
    int64_t eventNs = 0;
    uint64_t accesses = 0;
    int64_t accessNs = 0;
};

/** Totals of RunMetrics over the traced runs. */
struct RunCounts
{
    uint64_t runs = 0;
    uint64_t contextSwitches = 0;
    uint64_t spawns = 0;
    uint64_t parks = 0;
    uint64_t netIoParks = 0;
    uint64_t chanOps = 0;
    uint64_t arenaBytesPeak = 0;
};

/** Everything the per-thread recorders accumulated. */
struct Totals
{
    std::array<SpanStat, static_cast<size_t>(SpanKind::Count)> spans{};
    std::array<CallStat, static_cast<size_t>(SubKind::Count)> calls{};
    RunCounts counts;

    const SpanStat &
    span(SpanKind k) const
    {
        return spans[static_cast<size_t>(k)];
    }

    const CallStat &
    call(SubKind k) const
    {
        return calls[static_cast<size_t>(k)];
    }
};

/** Tracing on/off for the spans, proxies and counters below. */
void setEnabled(bool on);
bool enabled();

/** Identifier of the innermost open span on this thread (0 = none);
 *  hand it to work that runs on another thread as its parent. */
uint64_t currentSpan();

/** RAII span. Parent: the innermost open span on this thread, or
 *  @p parent when given (work handed to another thread). */
class Scope
{
  public:
    explicit Scope(SpanKind kind, uint32_t op = 0, uint64_t parent = 0);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    bool active_;
};

/** Add one finished run's RunMetrics (needs an obs::MetricsSink on
 *  the run; Proxies::wrap attaches one). */
void addRunMetrics(const golite::RunReport &report);

/**
 * Replace every subscriber in a run's options with a timing proxy
 * (and, optionally, append this thread's MetricsSink). The proxies
 * live as long as this object; keep it alive across the run.
 */
class Proxies
{
  public:
    /** No-op while tracing is off. */
    void wrap(golite::RunOptions &options, bool add_metrics = true);

  private:
    std::vector<std::unique_ptr<golite::Subscriber>> proxies_;
};

/** Sum of every thread's accumulators (call only when quiescent). */
Totals totals();

// Reporting helpers shared by the workloads' traced runs.

/** Mean ns per proxied onEvent / onMemAccess / either (0 if none). */
double eventNs(const CallStat &c);
double accessNs(const CallStat &c);
double callNs(const CallStat &c);

/** runtime.run_us (mean of @p run_span) plus the RunMetrics counts
 *  runtime.{switches,spawns,parks}_per_op and channel.ops_per_op,
 *  per op of @p ops. */
void addRuntimeMetrics(Result &r, const Totals &t, SpanKind run_span,
                       uint64_t ops);

/** race.{access_ns,event_ns,accesses_per_op,arena_bytes_peak} of the
 *  proxied race::Detector, per traced run. */
void addRaceMetrics(Result &r, const Totals &t);

/** obs.trace_overhead: traced wall time over untraced wall time. */
void addTraceOverhead(Result &r, int64_t traced_ns, int64_t untraced_ns,
                      uint64_t passes);

/** Median cost of one steady_clock read pair, ns. */
double timerPairNs();

/** Write every recorded span as CSV; returns spans written. */
uint64_t writeSpans(const std::string &path, uint64_t *dropped);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_HH
