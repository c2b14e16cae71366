#include "golden.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<std::string> &
cacheStatFields()
{
    static const std::vector<std::string> f = {
        "accesses",         "l1_misses",       "l2_full_hits",
        "l2_partial_hits",  "l2_full_misses",  "host_bytes",
        "l2_read_bytes",    "tlb_probes",      "tlb_hits",
        "victim_steps_max", "host_retries",    "host_failures",
        "degraded_accesses", "degraded_mip_bias", "l1_compulsory",
        "l1_capacity",      "l1_conflict",     "l2_compulsory",
        "l2_capacity",      "l2_conflict",
    };
    return f;
}

const std::vector<std::string> &
streamRowFields()
{
    static const std::vector<std::string> f = {
        "round",          "accesses",        "l1_misses",
        "l2_full_hits",   "l2_partial_hits", "l2_full_misses",
        "host_bytes",     "cross_evictions", "quota_blocks",
        "alloc_blocks",   "lod_bias",        "noisy",
        "quarantined",
    };
    return f;
}

StatRow
statRow(const mltc::CacheFrameStats &s)
{
    return {s.accesses,          s.l1_misses,        s.l2_full_hits,
            s.l2_partial_hits,   s.l2_full_misses,   s.host_bytes,
            s.l2_read_bytes,     s.tlb_probes,       s.tlb_hits,
            s.victim_steps_max,  s.host_retries,     s.host_failures,
            s.degraded_accesses, s.degraded_mip_bias, s.l1_compulsory,
            s.l1_capacity,       s.l1_conflict,      s.l2_compulsory,
            s.l2_capacity,       s.l2_conflict};
}

StatRow
statRow(const mltc::StreamRoundRow &r)
{
    return {r.round,           r.accesses,        r.l1_misses,
            r.l2_full_hits,    r.l2_partial_hits, r.l2_full_misses,
            r.host_bytes,      r.cross_evictions, r.quota_blocks,
            r.alloc_blocks,    r.lod_bias,        r.noisy,
            r.quarantined};
}

Golden
Golden::load(const std::string &path)
{
    Golden g;
    std::ifstream in(path);
    if (!in)
        return g;
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ss(line);
        std::string cell;
        std::vector<uint64_t> v;
        while (std::getline(ss, cell, ','))
            v.push_back(std::stoull(cell));
        if (v.size() < 3)
            throw std::runtime_error(path + ": short row: " + line);
        auto &rows = g.rows_[{static_cast<int>(v[0]), static_cast<int>(v[1])}];
        const size_t consumer = v[2];
        if (rows.size() <= consumer)
            rows.resize(consumer + 1);
        rows[consumer].assign(v.begin() + 3, v.end());
    }
    return g;
}

void
Golden::save(const std::string &path,
             const std::vector<std::string> &fields) const
{
    std::ofstream out(path);
    out << "phase,frame,consumer";
    for (const std::string &f : fields)
        out << ',' << f;
    out << '\n';
    for (const auto &[key, rows] : rows_) {
        for (size_t c = 0; c < rows.size(); ++c) {
            out << std::get<0>(key) << ',' << std::get<1>(key) << ',' << c;
            for (uint64_t v : rows[c])
                out << ',' << v;
            out << '\n';
        }
    }
    if (!out.flush())
        throw std::runtime_error("cannot write " + path);
}

const std::vector<StatRow> *
Golden::find(int phase, int frame) const
{
    auto it = rows_.find({phase, frame});
    return it == rows_.end() ? nullptr : &it->second;
}

void
Golden::put(int phase, int frame, std::vector<StatRow> rows)
{
    rows_[{phase, frame}] = std::move(rows);
}

} // namespace perfbench
