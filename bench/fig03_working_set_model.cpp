/**
 * @file
 * Figure 3: expected inter-frame working set W as a function of screen
 * resolution R, depth complexity d and block utilisation (analytic,
 * §4.1). Pure model — no simulation.
 */
#include "bench_common.hpp"
#include "model/working_set_model.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Figure 3",
           "Expected inter-frame working set W = R*d*4/utilization (MB)");

    struct Res
    {
        const char *name;
        uint64_t pixels;
    } resolutions[] = {
        {"640x480", 640ull * 480},   {"800x600", 800ull * 600},
        {"1024x768", 1024ull * 768}, {"1280x1024", 1280ull * 1024},
        {"1600x1200", 1600ull * 1200},
    };
    const double utils[] = {0.1, 0.25, 0.5, 1.0, 5.0};
    const int depths[] = {1, 2, 3};

    CsvWriter csv(csvPath("fig03_working_set_model.csv"),
                  {"resolution", "depth", "utilization", "working_set_mb"});

    TextTable table({"R x d", "util=0.1", "util=0.25", "util=0.5",
                     "util=1.0", "util=5.0"});
    for (const auto &res : resolutions) {
        for (int d : depths) {
            std::vector<double> row;
            for (double u : utils) {
                double w_mb =
                    expectedWorkingSetBytes(res.pixels, d, u) /
                    (1024.0 * 1024.0);
                row.push_back(w_mb);
                csv.row({static_cast<double>(res.pixels),
                         static_cast<double>(d), u, w_mb});
            }
            table.addRow(std::string(res.name) + " d=" + std::to_string(d),
                         row, 1);
        }
    }
    table.print();
    wroteCsv(csv.path());

    // Paper's reading of the figure: under 64 MB at utilization >= 0.25,
    // under 16 MB at utilization >= 0.5 and d = 1, at reasonable
    // resolutions.
    double w64 = expectedWorkingSetBytes(1280ull * 1024, 2, 0.25);
    double w16 = expectedWorkingSetBytes(1024ull * 768, 1, 0.5);
    std::printf("check: 1280x1024 d=2 util=.25 -> %.1f MB (paper: <64)\n",
                w64 / (1024 * 1024));
    std::printf("check: 1024x768  d=1 util=.50 -> %.1f MB (paper: <16)\n\n",
                w16 / (1024 * 1024));
    return 0;
}
