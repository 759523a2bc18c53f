/**
 * @file
 * The layer ledger: one small program per layer a run passes
 * through, timed from outside golite::run. Each probe repeats its
 * batch and reports the median batch's cost per operation.
 */

#include "probes.hh"

#include <algorithm>
#include <functional>
#include <string>

#include "channel/chan.hh"
#include "channel/select.hh"
#include "gotime/time.hh"
#include "load/soak.hh"
#include "netpoll/netpoll.hh"
#include "race/detector.hh"
#include "race/shared.hh"
#include "runtime/scheduler.hh"
#include "sync/mutex.hh"
#include "sync/waitgroup.hh"
#include "trace.hh"

namespace perfbench
{

namespace
{

using namespace golite;

constexpr int kRepeats = 7;

/** Median over kRepeats of (batch wall ns / ops). */
double
perOpNs(int ops, const std::function<void()> &batch)
{
    std::vector<double> reps;
    for (int r = 0; r < kRepeats; ++r) {
        const int64_t t0 = nowNs();
        batch();
        reps.push_back(static_cast<double>(nowNs() - t0) / ops);
    }
    return median(reps);
}

/** Accepts the event kinds in its mask and does nothing with them. */
class NullSub final : public Subscriber
{
  public:
    explicit NullSub(EventMask mask = kEventMaskAll) : mask_(mask) {}
    EventMask eventMask() const override { return mask_; }
    void onEvent(const RuntimeEvent &) override {}
    void onMemAccess(const void *, const char *, uint64_t, bool) override
    {
    }

  private:
    EventMask mask_;
};

class CountSub final : public Subscriber
{
  public:
    EventMask eventMask() const override { return kEventMaskAll; }
    void onEvent(const RuntimeEvent &) override { ++events; }
    uint64_t events = 0;
};

void
lockLoop(int n, const RunOptions &ro)
{
    run(
        [n] {
            Mutex mu;
            for (int i = 0; i < n; ++i) {
                mu.lock();
                mu.unlock();
            }
        },
        ro);
}

} // namespace

void
runLedgerProbes(Result &out, uint64_t seed)
{
    constexpr int kEmptyRuns = 2000;
    out.add("runtime.empty_run_us",
            perOpNs(kEmptyRuns,
                    [] {
                        for (int i = 0; i < kEmptyRuns; ++i)
                            run([] {});
                    }) /
                1e3,
            "us", kRepeats);

    constexpr int kHops = 20000;
    out.add("runtime.yield_ns", perOpNs(2 * kHops, [] {
                run([] {
                    go([] {
                        for (int i = 0; i < kHops; ++i)
                            yield();
                    });
                    for (int i = 0; i < kHops; ++i)
                        yield();
                });
            }),
            "ns", kRepeats);

    out.add("runtime.pingpong_ns", perOpNs(2 * kHops, [] {
                run([] {
                    Chan<int> ping = makeChan<int>();
                    Chan<int> pong = makeChan<int>();
                    go([=] {
                        for (int i = 0; i < kHops; ++i)
                            pong.send(ping.recv().value + 1);
                    });
                    for (int i = 0; i < kHops; ++i) {
                        ping.send(i);
                        pong.recv();
                    }
                });
            }),
            "ns", kRepeats);

    constexpr int kSpawns = 10000;
    out.add("runtime.spawn_join_ns", perOpNs(kSpawns, [] {
                run([] {
                    WaitGroup wg;
                    wg.add(kSpawns);
                    for (int i = 0; i < kSpawns; ++i)
                        go([&wg] { wg.done(); });
                    wg.wait();
                });
            }),
            "ns", kRepeats);

    constexpr int kSelects = 20000;
    out.add("channel.select_ns", perOpNs(kSelects, [] {
                run([] {
                    Chan<int> a = makeChan<int>(1);
                    Chan<int> b = makeChan<int>(1);
                    for (int i = 0; i < kSelects; ++i) {
                        a.trySend(1);
                        b.trySend(2);
                        Select()
                            .recv<int>(a, [](int, bool) {})
                            .recv<int>(b, [](int, bool) {})
                            .run();
                    }
                });
            }),
            "ns", kRepeats);

    // Bus publish: a lock/unlock pair emits a fixed set of events;
    // the cost per delivered event is the time above the
    // zero-subscriber baseline divided by the events published.
    constexpr int kPairs = 20000;
    CountSub counter;
    RunOptions counted;
    counted.subscribers = {&counter};
    lockLoop(kPairs, counted);
    const double events = static_cast<double>(counter.events);
    NullSub nulls[8];
    RunOptions bare;
    RunOptions one;
    one.subscribers = {&nulls[0]};
    RunOptions eight;
    for (NullSub &s : nulls)
        eight.subscribers.push_back(&s);
    const double base =
        perOpNs(kPairs, [&] { lockLoop(kPairs, bare); }) * kPairs;
    const double with1 =
        perOpNs(kPairs, [&] { lockLoop(kPairs, one); }) * kPairs;
    const double with8 =
        perOpNs(kPairs, [&] { lockLoop(kPairs, eight); }) * kPairs;
    out.add("bus.lock_pair_ns_0sub", base / kPairs, "ns", kRepeats);
    out.add("bus.publish_ns_1sub", (with1 - base) / events, "ns", kRepeats);
    out.add("bus.publish_ns_8sub", (with8 - base) / events, "ns", kRepeats);

    // Detector access: instrumented stores with a race detector
    // attached, above the same stores delivered to a no-op subscriber.
    constexpr int kAccesses = 50000;
    auto stores = [](Subscriber *sub) {
        RunOptions ro;
        ro.preemptProb = 0;
        ro.subscribers = {sub};
        run(
            [] {
                race::Shared<int> x("probe");
                for (int i = 0; i < kAccesses; ++i)
                    x.store(i);
            },
            ro);
    };
    race::Detector detector(4);
    NullSub null(eventBit(EventKind::MemRead) | eventBit(EventKind::MemWrite));
    const double withDetector = perOpNs(kAccesses, [&] {
        detector.reset();
        stores(&detector);
    });
    const double withNull = perOpNs(kAccesses, [&] { stores(&null); });
    out.add("race.probe_access_ns", withDetector - withNull, "ns",
            kRepeats);

    // Timer: real-time 1 ms sleeps, median overshoot past the deadline.
    {
        RunOptions rt;
        rt.realTime = true;
        std::vector<double> over;
        run(
            [&over] {
                for (int i = 0; i < 60; ++i) {
                    const int64_t t0 = nowNs();
                    gotime::sleep(gotime::kMillisecond);
                    over.push_back(static_cast<double>(
                        nowNs() - t0 - gotime::kMillisecond));
                }
            },
            rt);
        out.add("gotime.sleep_overshoot_us", median(over) / 1e3, "us",
                over.size());
    }

    // Netpoll: loopback echo round trips through the epoll reactor.
    {
        constexpr int kTrips = 2000;
        RunOptions rt;
        rt.realTime = true;
        std::vector<double> batches;
        for (int r = 0; r < kRepeats; ++r) {
            run(
                [&batches] {
                    netpoll::Poller poller;
                    netpoll::TcpListener ln = poller.listen(0);
                    go([ln] {
                        netpoll::TcpConn c = ln.accept();
                        std::string buf;
                        while (c.read(buf).ok() && c.write(buf).ok()) {
                        }
                        c.close();
                    });
                    netpoll::TcpConn c = poller.dial(ln.port());
                    const std::string msg(16, 'x');
                    std::string buf;
                    const int64_t t0 = nowNs();
                    for (int i = 0; i < kTrips; ++i) {
                        c.write(msg);
                        c.read(buf);
                    }
                    batches.push_back(
                        static_cast<double>(nowNs() - t0) / kTrips);
                    c.close();
                    ln.close();
                },
                rt);
        }
        out.add("netpoll.rtt_us", median(batches) / 1e3, "us", kRepeats);
    }

    // Netpoll under a server: NetIO parks per request of one short
    // open-loop load::runSoak window (20k req/s over 4 connections,
    // 1 ms service). Every arrival must be sent and answered.
    {
        load::SoakOptions o;
        o.connections = 4;
        o.targetRps = 20000;
        o.durationNs = 300 * gotime::kMillisecond;
        o.serviceTimeNs = gotime::kMillisecond;
        o.seed = mix(seed, 0x50a6);
        const load::SoakResult res = load::runSoak(o);
        const uint64_t requests = res.requestsSent + res.dropped;
        out.attempted += requests;
        if (!res.ok() || res.dropped != 0 || requests == 0) {
            out.failed += std::max<uint64_t>(
                res.dropped + res.requestsSent - res.responses, 1);
            out.noteFailure("soak probe not clean: sent=" +
                            std::to_string(res.requestsSent) +
                            " answered=" + std::to_string(res.responses) +
                            " dropped=" + std::to_string(res.dropped));
        }
        const uint64_t parks = res.report.metrics.blocksByReason[
            static_cast<size_t>(WaitReason::NetIO)];
        out.add("netpoll.parks_per_op",
                requests ? static_cast<double>(parks) / requests : 0.0,
                "count", requests);
    }

    runMnProbe(out, seed);

    out.add("obs.timer_pair_ns", trace::timerPairNs(), "ns", 9);
}

} // namespace perfbench
