/**
 * @file
 * Table 4: memory requirements of the L2 caching structures — texture
 * page table size versus host texture capacity, and BRL sizes versus L2
 * cache size — for 16x16 L2 tiles and 4x4 L1 tiles (analytic, §5.4.1).
 */
#include "bench_common.hpp"
#include "model/structure_size_model.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Table 4",
           "Memory requirements of L2 caching structures (16x16 L2 tiles, "
           "4x4 L1 tiles)\n"
           "paper: 64KB table per 16MB host texture; BRL active bits "
           ".25/.5/1 KB and index 8/16/32 KB for 2/4/8 MB L2");

    const uint64_t host_sizes_mb[] = {16, 32, 64, 256, 1024};
    const uint64_t l2_sizes_mb[] = {2, 4, 8};

    TextTable table({"structure", "size"});
    CsvWriter csv(csvPath("tab04_structure_sizes.csv"),
                  {"structure", "param_mb", "bytes"});

    for (uint64_t h : host_sizes_mb) {
        StructureSizeParams p;
        p.host_texture_bytes = h << 20;
        StructureSizes s = computeStructureSizes(p);
        table.addRow({"page table for " + std::to_string(h) +
                          " MB host texture",
                      formatBytes(static_cast<double>(s.page_table_bytes))});
        csv.rowStrings({"page_table", std::to_string(h),
                        std::to_string(s.page_table_bytes)});
    }
    for (uint64_t l2 : l2_sizes_mb) {
        StructureSizeParams p;
        p.l2_cache_bytes = l2 << 20;
        StructureSizes s = computeStructureSizes(p);
        table.addRow(
            {"BRL active bits, " + std::to_string(l2) + " MB L2 (on-chip)",
             formatBytes(static_cast<double>(s.brl_active_bits_bytes))});
        table.addRow(
            {"BRL t-index, " + std::to_string(l2) + " MB L2 (DRAM)",
             formatBytes(static_cast<double>(s.brl_index_bytes))});
        csv.rowStrings({"brl_active", std::to_string(l2),
                        std::to_string(s.brl_active_bits_bytes)});
        csv.rowStrings({"brl_index", std::to_string(l2),
                        std::to_string(s.brl_index_bytes)});
    }
    table.print();
    wroteCsv(csv.path());
    return 0;
}
