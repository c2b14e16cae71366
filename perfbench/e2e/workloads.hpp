/**
 * @file
 * The benchmark's four workloads. Each is a closed loop over a clip of
 * consecutive animation frames at 1024x768: the next frame starts when
 * the previous one is harvested, and every pass over the clip starts
 * from empty caches, so a pass's counters are a pure function of the
 * inputs and can be checked frame by frame against stored values.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/** Clip starts the run seed chooses between (seed mod kPhases). */
inline constexpr int kPhases = 8;

inline const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "village_tri_1sim", "city_bi_sweep5", "village_trace_replay",
        "serve4_shared_l2"};
    return names;
}

struct Options
{
    std::string workload;
    int phase = 0; ///< clip start index, 0..kPhases-1
    /** Held-out scene seed (Village/City seed, serving phase offset). */
    std::optional<uint64_t> scene_seed;
    std::string out_dir = ".bench_out"; ///< scratch files (trace clip)
    unsigned jobs = 1;                  ///< serving record threads
};

/** One harvested frame (a serving round) and its gate inputs. */
struct FrameRecord
{
    int frame = 0;              ///< index within the clip
    std::vector<StatRow> rows;  ///< one per consumer
    bool ok = true;             ///< no throw, no quarantine
    std::string error;
};

/** What one pass over the clip produced. */
struct PassOut
{
    std::vector<FrameRecord> frames;
    std::vector<double> frame_ms; ///< one sample per frame (serving: per round)
    std::vector<double> record_ms; ///< trace workload: per recorded frame
    int64_t timed_ns = 0;         ///< summed timed intervals
    uint64_t refs = 0;            ///< producer refs over those intervals
    uint64_t host_bytes = 0;      ///< simulated host bytes, reference config
    uint64_t trace_bytes = 0;     ///< trace workload: file size
    uint64_t recorded_refs = 0;   ///< trace workload: refs written
};

/** Per-consumer totals of the traced run. */
struct ConsumerTotals
{
    int64_t ns = 0;
    uint64_t refs = 0;
    int64_t endframe_ns = 0;
    uint64_t frames = 0;
};

/** Per-layer totals and spans of the traced run. */
struct Layers
{
    std::vector<Span> spans;
    uint32_t next_id = 1;

    uint64_t raster_frames = 0;
    int64_t raster_self_ns = 0;
    uint64_t raster_refs = 0;
    uint64_t pixels = 0;
    uint64_t triangles = 0;
    uint64_t binds = 0;
    uint64_t batches = 0;
    uint64_t batch_refs = 0;

    std::map<std::string, ConsumerTotals> consumers; ///< by config label
    uint64_t victim_steps_max = 0; ///< when the stat rows do not carry it

    /** Workload-specific raw sums, turned into extras by Bench::finish. */
    std::map<std::string, double> sums;
    /** Metrics only one workload reports (trace.*, sim.*), by name. */
    std::map<std::string, Metric> extra;

    uint32_t span(uint32_t parent, const std::string &name, int frame,
                  int64_t start_ns, int64_t dur_ns, uint64_t calls = 1)
    {
        spans.push_back({next_id, parent, name, frame, start_ns, dur_ns,
                         calls});
        return next_id++;
    }
};

/** One workload: set-up and passes over its clip. */
class Bench
{
  public:
    virtual ~Bench() = default;

    /** Field names of the stat rows, for the stored expected values. */
    virtual const std::vector<std::string> &fields() const = 0;

    /**
     * Build the scene and textures, construct the consumers and render
     * one untimed warm-up frame into throwaway consumers.
     * @return milliseconds spent building the workload (scene and textures)
     */
    virtual double setup() = 0;

    /**
     * One pass over the clip from empty caches. Frames stop being
     * started once nowNs() passes @p deadline_ns. @p layers is non-null
     * for the traced run.
     */
    virtual void pass(int64_t deadline_ns, PassOut &out, Layers *layers) = 0;

    /** Label of each consumer, in stat-row order. */
    virtual std::vector<std::string> consumerLabels() const = 0;

    /**
     * Turn the traced run's workload-specific sums into extras, given
     * the mean frame time of the untraced run.
     */
    virtual void finish(Layers &layers, double untraced_frame_ms) const
    {
        (void)layers;
        (void)untraced_frame_ms;
    }
};

/** @throws std::invalid_argument for an unknown workload name. */
std::unique_ptr<Bench> makeBench(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
