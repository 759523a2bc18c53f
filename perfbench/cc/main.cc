/**
 * @file
 * golite_perfbench: runs one workload and prints its metrics.
 *
 *   golite_perfbench --workload hunt|sweep --seed N
 *                    --seconds S --trace 0|1 [--spans FILE]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the layer
 * ledger probes and a traced copy of the workload and reports the
 * per-layer metrics, writing the recorded spans to FILE. The last
 * line of output is "PERFBENCH_RESULT <json>"; perfbench/run.py
 * validates it against BENCHMARK.json.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hh"
#include "probes.hh"
#include "trace.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

void
usage()
{
    std::fprintf(stderr,
                 "usage: golite_perfbench --workload hunt|sweep "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
    std::exit(2);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
print(const Result &r)
{
    for (const std::string &n : r.notes)
        std::printf("# %s\n", n.c_str());
    std::string json = "{\"correct\": ";
    json += r.checksPassed && r.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        json += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
                ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    json += "}}";
    std::printf("PERFBENCH_RESULT %s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string spans;
    Params p;
    int traced = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            workload = val;
        else if (key == "--seed")
            p.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            p.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            traced = std::atoi(val);
        else if (key == "--spans")
            spans = val;
        else
            usage();
    }
    if (argc % 2 == 0 || (traced != 0 && traced != 1) || p.seconds <= 0)
        usage();

    Result (*fn)(const Params &, bool) = nullptr;
    if (workload == "hunt")
        fn = runHunt;
    else if (workload == "sweep")
        fn = runSweep;
    else
        usage();

    try {
        Result probes;
        if (traced == 1)
            runLedgerProbes(probes, p.seed);
        Result r = fn(p, traced == 1);
        r.merge(probes);
        if (traced == 1 && !spans.empty()) {
            uint64_t dropped = 0;
            const uint64_t n = trace::writeSpans(spans, &dropped);
            r.notes.push_back("spans written to " + spans + ": " +
                              std::to_string(n) + " (" +
                              std::to_string(dropped) +
                              " over the per-thread cap, not stored)");
        }
        print(r);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "golite_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
