#include "obs/observability.hpp"

#include "util/env.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace mltc {

ObsConfig
obsFromCli(const CommandLine &cli)
{
    ObsConfig cfg;
    cfg.metrics_path = cli.getString("metrics-out", "");
    cfg.trace_path = cli.getString("trace-out", "");
    cfg.miss_classes = cli.getFlag("miss-classes");
    cfg.top_textures =
        static_cast<uint32_t>(cli.getUnsigned("top-textures", 8));
    if (cli.has("telemetry-port")) {
        const unsigned long port = cli.getUnsigned("telemetry-port", 0);
        if (port > 65535)
            throw Exception(ErrorCode::BadArgument,
                            "--telemetry-port: not a TCP port");
        cfg.telemetry = true;
        cfg.telemetry_port = static_cast<uint16_t>(port);
    }
    cfg.telemetry_port_file = cli.getString("telemetry-port-file", "");
    cfg.slo_spec = cli.getString("slo", "");
    cfg.slo_out = cli.getString("slo-out", "");
    cfg.flight_out = cli.getString("flight-out", "");
    cfg.profile_out = cli.getString("profile-out", "");
    const unsigned long hz = cli.getUnsigned("profile-hz", 997);
    if (hz == 0 || hz > 100000)
        throw Exception(ErrorCode::BadArgument,
                        "--profile-hz: expected a sampling rate in "
                        "[1, 100000], got '" +
                            cli.getString("profile-hz", "") + "'");
    cfg.profile_hz = static_cast<uint32_t>(hz);
    cfg.profile_counters = !cli.getFlag("profile-no-counters");
    // Test/CI hook: exercise the denied-perf_event_open degradation
    // deterministically, whatever the host kernel allows.
    cfg.profile_force_fallback =
        envInt("MLTC_PROFILE_FORCE_FALLBACK", 0) != 0;
    return cfg;
}

Observability::Observability(const ObsConfig &config)
    : cfg_(config),
      metrics_(!config.metrics_path.empty() || config.telemetry)
{
    // Parse SLO rules first: a malformed --slo must fail before any
    // sink is created.
    if (!cfg_.slo_spec.empty())
        slo_rules_ = parseSloRules(cfg_.slo_spec);

    if (!cfg_.metrics_path.empty()) {
        metrics_sink_ = std::make_unique<JsonlFileSink>(cfg_.metrics_path);
        // One shared JSONL stream: log rows carry ts/level/msg keys,
        // metric rows carry frame/counters/... keys.
        setLogJsonlSink(metrics_sink_.get());
    }
    if (!cfg_.trace_path.empty()) {
        trace_ = std::make_unique<ChromeTraceWriter>(cfg_.trace_path);
        hooks().install(trace_.get());
    }
    if (!cfg_.profile_out.empty()) {
        ProfilerConfig pc;
        pc.hz = cfg_.profile_hz;
        pc.out_prefix = cfg_.profile_out;
        pc.counters = cfg_.profile_counters;
        pc.force_counters_unavailable = cfg_.profile_force_fallback;
        pc.registry = &metrics_;
        profiler_ = std::make_unique<StageProfiler>(pc);
        hooks().install(profiler_.get());
    }
    if (cfg_.telemetry) {
        TelemetryConfig tc;
        tc.enabled = true;
        tc.port = cfg_.telemetry_port;
        tc.port_file = cfg_.telemetry_port_file;
        telemetry_ = std::make_unique<TelemetryServer>(tc, &metrics_);
        if (profiler_) {
            StageProfiler *p = profiler_.get();
            telemetry_->setProfileProvider(
                [p]() { return p->liveJson(); });
        }
    }
    if (!cfg_.slo_out.empty())
        slo_sink_ = std::make_unique<JsonlFileSink>(cfg_.slo_out);
    if (!cfg_.flight_out.empty()) {
        FlightRecorder::Config fc;
        fc.prefix = cfg_.flight_out;
        fc.registry = &metrics_;
        flight_ = std::make_unique<FlightRecorder>(fc);
        hooks().install(flight_.get());
    }
}

Observability::~Observability()
{
    if (metrics_sink_)
        setLogJsonlSink(nullptr);
    unhook();
    // The telemetry server joins its thread in its own destructor;
    // sinks close themselves best-effort; explicit close() reports I/O
    // failures as typed errors.
}

void
Observability::unhook()
{
    // Each backend leaves only while it is still the installed one.
    hooks().uninstall(trace_.get());
    hooks().uninstall(profiler_.get());
    hooks().uninstall(flight_.get());
}

void
Observability::flush()
{
    if (trace_)
        trace_->flush();
    // Matches the trace/metrics signal-flush contract: a cooperative
    // SIGINT/SIGTERM exit keeps every sample taken so far.
    if (profiler_)
        profiler_->flushOutputs();
}

void
Observability::close()
{
    // Telemetry loss must not abort the run that produced it: a sink
    // that hit I/O failure reports a typed error here, which we log and
    // swallow so the sweep's actual results still land.
    const auto closeSink = [](const char *name, const auto &close) {
        try {
            close();
        } catch (const Exception &e) {
            logWarn(std::string("observability: ") + name +
                    " sink lost: " + e.error().describe());
        }
    };
    if (telemetry_)
        telemetry_->stop(); // joins the scrape thread
    unhook();
    if (profiler_) {
        profiler_->stopSampler();
        closeSink("profile", [this] { profiler_->writeOutputs(); });
    }
    if (slo_sink_)
        closeSink("slo", [this] { slo_sink_->close(); });
    if (trace_)
        closeSink("trace", [this] { trace_->close(); });
    if (metrics_sink_) {
        setLogJsonlSink(nullptr);
        closeSink("metrics", [this] { metrics_sink_->close(); });
    }
}

} // namespace mltc
