/**
 * @file
 * The per-run observability bundle and its shared command-line flags.
 *
 * Every example and bench driver exposes the same three knobs:
 *
 *   --metrics-out=PATH   per-frame metrics registry snapshots (JSONL)
 *   --trace-out=PATH     Chrome trace-event / Perfetto timeline (JSON)
 *   --miss-classes       3C miss classification + attribution tables
 *   --top-textures=N     rows in the top-textures summary (default 8)
 *
 * plus the live telemetry plane (docs/observability.md):
 *
 *   --telemetry-port=P        /metrics, /healthz, /runz, /profilez on
 *                             127.0.0.1:P (0 = kernel-assigned)
 *   --telemetry-port-file=F   write the bound port to F (for scripts)
 *   --slo=RULES               per-stream SLO rules (see obs/slo.hpp)
 *   --slo-out=PATH            SLO fire/clear transitions (JSONL)
 *   --flight-out=PREFIX       flight-recorder bundle at PREFIX.flight/
 *
 * and the continuous profiling plane (docs/profiling.md):
 *
 *   --profile-out=PREFIX      sampled stage profile: PREFIX.folded
 *                             (flamegraph collapsed stacks) and
 *                             PREFIX.json (stage/leg/stream summary
 *                             with hardware counters)
 *   --profile-hz=N            sampling rate (default 997)
 *   --profile-no-counters     skip perf_event_open entirely
 *
 * Observability owns the registry, the trace writer and the JSONL
 * sinks, installs its tracer, profiler and flight recorder in the hook
 * registry (obs/stage.hpp) for its lifetime, and mirrors the structured log stream into the metrics
 * JSONL file (one shared sink, rows distinguished by their keys).
 * Attach it to a MultiConfigRunner with setObservability(); call
 * close() before reading the output files.
 */
#ifndef MLTC_OBS_OBSERVABILITY_HPP
#define MLTC_OBS_OBSERVABILITY_HPP

#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/trace_event.hpp"
#include "util/cli.hpp"

namespace mltc {

/** Parsed observability knobs. */
struct ObsConfig
{
    std::string metrics_path; ///< empty = metrics registry disabled
    std::string trace_path;   ///< empty = tracing disabled
    bool miss_classes = false;
    uint32_t top_textures = 8;

    // Live telemetry plane (see file comment).
    bool telemetry = false;           ///< --telemetry-port given
    uint16_t telemetry_port = 0;      ///< 0 = kernel-assigned
    std::string telemetry_port_file;  ///< --telemetry-port-file
    std::string slo_spec;             ///< --slo rule list (raw text)
    std::string slo_out;              ///< --slo-out JSONL path
    std::string flight_out;           ///< --flight-out bundle prefix

    // Continuous profiling plane (see file comment).
    std::string profile_out;          ///< --profile-out prefix
    uint32_t profile_hz = 997;        ///< --profile-hz sampling rate
    bool profile_counters = true;     ///< cleared by --profile-no-counters
    bool profile_force_fallback = false; ///< MLTC_PROFILE_FORCE_FALLBACK=1

    bool
    anyEnabled() const
    {
        return !metrics_path.empty() || !trace_path.empty() ||
               miss_classes || telemetry || !slo_spec.empty() ||
               !flight_out.empty() || !profile_out.empty();
    }
};

/**
 * Read the shared observability flags.
 * @throws mltc::Exception (BadArgument) on malformed values.
 */
ObsConfig obsFromCli(const CommandLine &cli);

/** Owns the run's metric/trace state; see file comment. */
class Observability
{
  public:
    /**
     * Create the configured sinks and wire them into the process-global
     * integrations (log-to-JSONL mirroring, the hook registry); one
     * bundle per process.
     */
    explicit Observability(const ObsConfig &config);

    /** Uninstalls its backends; best-effort close. */
    ~Observability();

    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;

    const ObsConfig &config() const { return cfg_; }

    /** Always valid; enabled by --metrics-out and/or --telemetry-port
     *  (a live scrape needs real storage even with no metrics file). */
    MetricsRegistry &metrics() { return metrics_; }

    /** Null without --trace-out. */
    ChromeTraceWriter *trace() { return trace_.get(); }

    /** Null without --metrics-out. */
    JsonlFileSink *metricsSink() { return metrics_sink_.get(); }

    /** Null without --telemetry-port. */
    TelemetryServer *telemetry() { return telemetry_.get(); }

    /** Parsed --slo rules (empty without --slo). */
    const std::vector<SloRule> &sloRules() const { return slo_rules_; }

    /** Null without --slo-out. */
    JsonlFileSink *sloSink() { return slo_sink_.get(); }

    /** Null without --flight-out. */
    FlightRecorder *flight() { return flight_.get(); }

    /** Null without --profile-out. */
    StageProfiler *profiler() { return profiler_.get(); }

    /**
     * Flush every sink without closing it, so an interrupted run keeps
     * everything emitted so far. The metrics JSONL sink already flushes
     * per line; this pushes the buffered trace events out too. Safe to
     * call repeatedly; never throws (failures surface at close()).
     */
    void flush();

    /**
     * Flush and close every sink. Sink I/O failures are logged rather
     * than thrown — lost telemetry must never take down the run that
     * produced it.
     */
    void close();

  private:
    /** Remove this bundle's backends from the hook registry. */
    void unhook();

    ObsConfig cfg_;
    MetricsRegistry metrics_;
    std::unique_ptr<JsonlFileSink> metrics_sink_;
    std::unique_ptr<ChromeTraceWriter> trace_;
    std::unique_ptr<TelemetryServer> telemetry_;
    std::vector<SloRule> slo_rules_;
    std::unique_ptr<JsonlFileSink> slo_sink_;
    std::unique_ptr<FlightRecorder> flight_;
    std::unique_ptr<StageProfiler> profiler_;
};

} // namespace mltc

#endif // MLTC_OBS_OBSERVABILITY_HPP
