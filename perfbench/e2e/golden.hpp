/**
 * @file
 * Expected per-frame counters for the correctness gate.
 *
 * One CSV per workload under perfbench/golden/: a header naming the
 * fields, then one line per (phase, frame, consumer) with the counters
 * the paper-seed run must reproduce exactly. A "consumer" is a CacheSim
 * (its CacheFrameStats) or a serving stream (its StreamRoundRow).
 */
#ifndef PERFBENCH_GOLDEN_HPP
#define PERFBENCH_GOLDEN_HPP

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/cache_sim.hpp"
#include "sim/multi_stream_runner.hpp"
#include "stats.hpp"

namespace perfbench {

/** Field names of statRow(CacheFrameStats), in row order. */
const std::vector<std::string> &cacheStatFields();
/** Field names of statRow(StreamRoundRow), in row order. */
const std::vector<std::string> &streamRowFields();

StatRow statRow(const mltc::CacheFrameStats &s);
StatRow statRow(const mltc::StreamRoundRow &r);

/** Expected rows keyed by (phase, frame); one row per consumer. */
class Golden
{
  public:
    /** Load @p path; a missing file gives an empty table. */
    static Golden load(const std::string &path);

    /** Write every row to @p path with @p fields as the header. */
    void save(const std::string &path,
              const std::vector<std::string> &fields) const;

    /** Expected rows of (phase, frame), or null when none are stored. */
    const std::vector<StatRow> *find(int phase, int frame) const;

    void put(int phase, int frame, std::vector<StatRow> rows);

    bool empty() const { return rows_.empty(); }

  private:
    std::map<std::tuple<int, int>, std::vector<StatRow>> rows_;
};

} // namespace perfbench

#endif // PERFBENCH_GOLDEN_HPP
