/**
 * @file
 * Host-time benchmark of the MeNDA simulator and its serving path.
 *
 *   menda_hostbench --workload paper-detailed|paper-fast|served
 *                   --seed N --seconds S --trace 0|1 [--work-dir DIR]
 *
 * Builds its inputs from the seed, runs the workload's closed loop for
 * the given seconds, checks every output, prints the deterministic work
 * counters, and ends with one JSON line: the end-to-end metrics with
 * --trace 0, or the traced run's per-layer metrics with --trace 1.
 * Exits 1 when any operation failed or produced a wrong output.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"

namespace
{

using namespace hostbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_knnz_per_s", "knnz/s"},
    {"sim_pu_cycles", "cycles"},
    {"sampled_err_pct", "%"},
    {"transpose_req_p50_ms", "ms"},
    {"spmv_req_p50_ms", "ms"},
    {"spmv_req_p90_ms", "ms"},
    {"served_req_per_s", "req/s"},
    {"ok_frac", "ratio"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"sparse.generate_s", "s"},
    {"baselines.verify_s", "s"},
    {"menda.plan_s", "s"},
    {"menda.build_s", "s"},
    {"menda.simulate_s", "s"},
    {"menda.collect_s", "s"},
    {"menda.host_ns_per_pu_cycle", "ns/cycle"},
    {"menda.fast.functional_s", "s"},
    {"menda.fast.sampled_s", "s"},
    {"menda.fast.sampled_windows", "count"},
    {"menda.fast.fast_forwarded_pct", "%"},
    {"pu.leaf_push_stall_cycles", "cycles"},
    {"pu.output_stall_cycles", "cycles"},
    {"pu.tree_occupancy_mean", "packets"},
    {"dram.row_conflicts", "count"},
    {"dram.activates", "count"},
    {"dram.coalesced_pct", "%"},
    {"dram.bus_util_pct", "%"},
    {"dram.read_latency_p50", "cycles"},
    {"dram.read_latency_p99", "cycles"},
    {"spgemm.partial_products", "count"},
    {"spgemm.spilled_blocks", "count"},
    {"wire.encode_s", "s"},
    {"wire.decode_s", "s"},
    {"wire.request_bytes_per_nnz", "B/nnz"},
    {"wire.response_bytes_per_nnz", "B/nnz"},
    {"serve.handle_s", "s"},
    {"serve.pump_s", "s"},
    {"serve.respond_s", "s"},
    {"serve.cache_hit_pct", "%"},
    {"serve.queue_wait_p90_cycles", "cycles"},
    {"socket.overhead_s", "s"},
    {"obs.trace_overhead_pct", "%"},
    {"bench.harness_s", "s"},
    {"bench.calibration_ms", "ms"},
    {"trace.wall_s", "s"},
};

/** Unit of a metric from either table ("" when unknown). */
std::string
unitOf(const std::string &name)
{
    for (const MetricDef &def : kEndToEnd)
        if (name == def.name)
            return def.unit;
    for (const MetricDef &def : kPerLayer)
        if (name == def.name)
            return def.unit;
    return "";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "menda_hostbench: %s\nusage: menda_hostbench --workload "
                 "paper-detailed|paper-fast|served --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opts.workload = value;
            else if (flag == "--seed")
                opts.seed = std::stoull(value);
            else if (flag == "--seconds")
                opts.seconds = std::stod(value);
            else if (flag == "--trace")
                opts.trace = std::stoi(value) != 0;
            else if (flag == "--work-dir")
                opts.workDir = value;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (opts.workload.empty())
        usage("--workload is required");
    if (!(opts.seconds > 0))
        usage("--seconds must be positive");
    return opts;
}

std::string
metricJson(bool first, const MetricDef &def, double value)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, value, def.unit);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    Outcome out;
    try {
        if (opts.workload == "paper-detailed")
            out = runPaperDetailed(opts);
        else if (opts.workload == "paper-fast")
            out = runPaperFast(opts);
        else if (opts.workload == "served")
            out = runServed(opts);
        else
            usage(("unknown workload " + opts.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "menda_hostbench: %s\n", e.what());
        return 2;
    }
    if (out.attempted == 0)
        out.fail("no operation ran");

    std::printf("workload %s seed %llu trace %d\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.trace ? 1 : 0);
    for (const auto &[name, counter] : out.counters)
        std::printf("counter %-44s %.17g%s%s\n", name.c_str(),
                    counter.first, counter.second.empty() ? "" : "  # ",
                    counter.second.c_str());
    for (const std::string &line : out.info)
        std::printf("%s\n", line.c_str());
    for (const std::string &e : out.errors)
        std::printf("FAILED %s\n", e.c_str());

    // Host times at the reference host speed (see kCalibrationRefMs).
    const double calibration = median(out.calibration);
    const double scale =
        calibration > 0 ? kCalibrationRefMs / calibration : 1.0;
    std::printf("calibration median %.3f ms over %zu samples, host-time "
                "scale %.4f\n",
                calibration, out.calibration.size(), scale);
    for (auto &[name, value] : out.metrics) {
        const std::string unit = unitOf(name);
        if (unit == "s" || unit == "ms" || unit == "ns/cycle") {
            std::printf("unscaled %s %.6g %s\n", name.c_str(), value,
                        unit.c_str());
            value *= scale;
        } else if (unit == "knnz/s" || unit == "req/s") {
            std::printf("unscaled %s %.6g %s\n", name.c_str(), value,
                        unit.c_str());
            value /= scale;
        }
    }
    out.metrics["bench.calibration_ms"] = calibration;

    out.metrics["ok_frac"] =
        1.0 - static_cast<double>(out.failed) /
                  static_cast<double>(out.attempted);
    if (!out.metrics.count("peak_rss_mb"))
        out.metrics["peak_rss_mb"] = peakRssMb();
    for (const auto &[name, counter] : out.counters)
        if (!out.metrics.count(name))
            out.metrics[name] = counter.first;

    const MetricDef *begin = opts.trace ? std::begin(kPerLayer)
                                        : std::begin(kEndToEnd);
    const MetricDef *end =
        opts.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
    std::string json;
    for (const MetricDef *def = begin; def != end; ++def) {
        const auto it = out.metrics.find(def->name);
        double value = it == out.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(value)) {
            out.fail(std::string(def->name) + " is not finite");
            value = 0.0;
        }
        json += metricJson(def == begin, *def, value);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), json.c_str());
    return out.failed == 0 ? 0 : 1;
}
