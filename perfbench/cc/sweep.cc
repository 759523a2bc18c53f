/**
 * @file
 * sweep: the paper's rerun protocol. Every kernel variant runs over
 * kSeeds seeds with race::Detector (depth 4) and waitgraph::Detector
 * attached; a pass submits all of them as one parallel::runJobs epoch
 * on kMaxWorkers workers. One run is one op. Fixed variants must
 * never be flagged, and per-variant tallies must equal a serial loop
 * over the same seeds.
 */

#include <algorithm>
#include <functional>
#include <thread>

#include "parallel/sweep.hh"
#include "race/detector.hh"
#include "trace.hh"
#include "waitgraph/waitgraph.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace golite;

constexpr size_t kSeeds = 100;
constexpr unsigned kMaxWorkers = 2;
/** Seeds per variant in the set-up's warm-up epoch. */
constexpr size_t kWarmSeeds = 64;
constexpr int kSetupReps = 9;
/** Variants re-run serially after timing to check the tallies. */
constexpr size_t kSerialCheckVariants = 12;

struct Tally
{
    uint32_t manifested = 0;
    uint32_t raced = 0;
    uint32_t flagged = 0;

    bool
    operator==(const Tally &o) const
    {
        return manifested == o.manifested && raced == o.raced &&
               flagged == o.flagged;
    }
};

struct JobOut
{
    bool manifested = false;
    bool raced = false;
    bool flagged = false;
    int64_t ns = 0;
};

class Sweep
{
  public:
    std::vector<KernelVariant> variants;
    parallel::SweepOptions options;
    parallel::SweepProfile profile;

    void
    setUp(uint64_t seed)
    {
        seed_ = seed;
        variants = kernelVariants();
        options.workers = std::clamp(std::thread::hardware_concurrency(),
                                     1u, kMaxWorkers);
        seedBase_.assign(variants.size(), 0);
        outs_.assign(variants.size() * kSeeds, JobOut{});
        jobs_.clear();
        std::vector<std::function<RunReport()>> warm;
        for (size_t k = 0; k < variants.size() * kSeeds; ++k) {
            jobs_.push_back([this, k] { return job(k); });
            if (k % kSeeds < kWarmSeeds)
                warm.push_back(jobs_.back());
        }
        parallel::warmSweepWorkers(options);
        parallel::runJobs(warm, options);
    }

    void
    setPassSeeds(uint64_t pass_no)
    {
        for (size_t v = 0; v < variants.size(); ++v)
            seedBase_[v] = mix(seed_, pass_no * 4096 + v);
    }

    /** One epoch over every run of pass @p pass_no. */
    std::vector<Tally>
    pass(uint64_t pass_no)
    {
        setPassSeeds(pass_no);
        {
            trace::Scope span(trace::SpanKind::RunJobs,
                              static_cast<uint32_t>(pass_no));
            parent_ = trace::currentSpan();
            parallel::runJobs(jobs_, options);
        }
        std::vector<Tally> tallies(variants.size());
        for (size_t v = 0; v < variants.size(); ++v)
            tallies[v] = tally(v);
        return tallies;
    }

    /** Per-run latencies of the last pass, ms. */
    std::vector<double>
    latencyMs() const
    {
        std::vector<double> ms;
        ms.reserve(outs_.size());
        for (const JobOut &o : outs_)
            ms.push_back(static_cast<double>(o.ns) / 1e6);
        return ms;
    }

    /** Re-run variant @p v's current seeds on this thread alone. */
    Tally
    serial(size_t v)
    {
        for (size_t i = 0; i < kSeeds; ++i)
            job(v * kSeeds + i);
        return tally(v);
    }

    uint64_t opsPerPass() const { return jobs_.size(); }

  private:
    RunReport
    job(size_t k)
    {
        const int64_t t0 = nowNs();
        const size_t v = k / kSeeds;
        const KernelVariant &kv = variants[v];
        RunOptions ro;
        ro.seed = seedBase_[v] + k % kSeeds;
        ro.subscribers = {&parallel::threadLocalDetector(4),
                          &parallel::threadLocalWaitgraphDetector()};
        trace::Proxies proxies;
        proxies.wrap(ro);
        corpus::BugOutcome out;
        {
            trace::Scope span(trace::SpanKind::Run,
                              static_cast<uint32_t>(v), parent_);
            out = kv.bug->run(kv.variant, ro);
        }
        trace::addRunMetrics(out.report);
        JobOut &o = outs_[k];
        o.manifested = out.manifested;
        o.raced = !out.report.raceMessages.empty();
        o.flagged = out.report.partialDeadlockFlagged();
        o.ns = nowNs() - t0;
        return std::move(out.report);
    }

    Tally
    tally(size_t v) const
    {
        Tally t;
        for (size_t i = 0; i < kSeeds; ++i) {
            const JobOut &o = outs_[v * kSeeds + i];
            t.manifested += o.manifested;
            t.raced += o.raced;
            t.flagged += o.flagged;
        }
        return t;
    }

    uint64_t seed_ = 0;
    uint64_t parent_ = 0;
    std::vector<uint64_t> seedBase_;
    std::vector<std::function<RunReport()>> jobs_;
    /** One slot per job, written by exactly one worker per epoch. */
    std::vector<JobOut> outs_;
};

/** Runs of fixed variants that were flagged, as failed ops. */
uint64_t
checkFixed(const Sweep &s, const std::vector<Tally> &tallies, Result &r)
{
    uint64_t failed = 0;
    for (size_t v = 0; v < tallies.size(); ++v) {
        const Tally &t = tallies[v];
        if (s.variants[v].buggy())
            continue;
        const uint32_t bad = std::max({t.manifested, t.raced, t.flagged});
        if (bad > 0)
            r.noteFailure("fixed variant flagged: " +
                          s.variants[v].bug->info.id);
        failed += bad;
    }
    return failed;
}

} // namespace

Result
runSweep(const Params &p, bool traced)
{
    Result r;
    Sweep s;
    const double setupS = timeSetup(kSetupReps, [&] { s.setUp(p.seed); });

    Samples samples;
    std::vector<Tally> firstPass;
    int64_t tracedNs = 0;
    int64_t untracedNs = 0;
    const int64_t deadline = nowNs() + static_cast<int64_t>(p.seconds * 1e9);
    uint64_t passNo = 0;
    do {
        std::vector<Tally> tallies;
        if (traced) {
            // Identical work with tracing off, then on.
            const int64_t t0 = nowNs();
            r.failed += checkFixed(s, s.pass(passNo), r);
            r.attempted += s.opsPerPass();
            const int64_t t1 = nowNs();
            trace::setEnabled(true);
            s.options.profile = &s.profile;
            tallies = s.pass(passNo);
            s.options.profile = nullptr;
            trace::setEnabled(false);
            untracedNs += t1 - t0;
            tracedNs += nowNs() - t1;
        } else {
            const int64_t t0 = nowNs();
            const int64_t c0 = cpuNs();
            tallies = s.pass(passNo);
            samples.pass(s.opsPerPass(), nowNs() - t0, cpuNs() - c0);
            samples.passLatency(s.latencyMs());
        }
        r.failed += checkFixed(s, tallies, r);
        r.attempted += s.opsPerPass();
        if (passNo == 0)
            firstPass = tallies;
        ++passNo;
    } while (nowNs() < deadline);

    // Outside the timed region: a serial loop over the first pass's
    // seeds must reproduce its tallies on a seed-chosen subset.
    s.setPassSeeds(0);
    for (size_t k = 0; k < kSerialCheckVariants; ++k) {
        const size_t v = mix(p.seed, 77 + k) % s.variants.size();
        if (!(s.serial(v) == firstPass[v]))
            r.fail("serial tallies differ from the parallel sweep for " +
                   s.variants[v].bug->info.id);
    }

    if (!traced) {
        r.addEndToEnd(samples, setupS, kSetupReps);
        return r;
    }

    const trace::Totals t = trace::totals();
    const trace::SpanStat &run = t.span(trace::SpanKind::Run);
    const double epochs = static_cast<double>(s.profile.epochs);
    trace::addRuntimeMetrics(r, t, trace::SpanKind::Run, t.counts.runs);
    trace::addRaceMetrics(r, t);
    const trace::CallStat &wg = t.call(trace::SubKind::Waitgraph);
    r.add("waitgraph.event_ns", trace::eventNs(wg), "ns", wg.events);
    r.add("parallel.setup_s", s.profile.setupSeconds / epochs, "s",
          s.profile.epochs);
    r.add("parallel.merge_s", s.profile.mergeSeconds / epochs, "s",
          s.profile.epochs);
    r.add("parallel.busy_share",
          static_cast<double>(run.totalNs) / 1e9 /
              (s.options.workers * s.profile.runSeconds),
          "ratio", s.profile.epochs);
    trace::addTraceOverhead(r, tracedNs, untracedNs, passNo);
    return r;
}

} // namespace perfbench
