/**
 * @file
 * Extension: multi-tenant shared-L2 interference sweep.
 *
 * The paper studies one rendering stream per accelerator; a serving
 * deployment runs many camera streams against one texture memory. This
 * bench quantifies the noisy-neighbor problem and the isolation the
 * share policies buy: a well-behaved victim stream (Village, bilinear)
 * is paired with a synthetic thrasher that streams through twice the
 * L2 capacity every round, under each L2 share policy, and the
 * victim's L2 miss rate is compared against its solo run.
 *
 *  - shared:  no enforcement — the thrasher evicts the victim's
 *             working set at will (unbounded inflation);
 *  - static:  hard partitions — the victim behaves exactly like a solo
 *             cache of half the capacity;
 *  - utility: online quota repartitioning from per-stream reuse-
 *             distance curves — the thrasher's flat MRC earns it
 *             nothing, so the victim converges to (nearly) the whole
 *             pool and its miss rate lands within 10% of solo.
 *
 * Output: ext_multitenant.csv, one row per policy. Deterministic for
 * any MLTC_JOBS value: each tenant's private L1 work runs in a parallel
 * leg, and its L1 misses drain into the shared L2 serially in stream
 * order.
 */
#include "bench_common.hpp"
#include "sim/multi_stream_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    // The bench takes no flags: anything on the command line is a typo.
    CommandLine cli(argc, argv);
    if (const int status = parseArguments([&] { cli.rejectUnread(); }))
        return status;
    installCancellationHandlers();

    banner("Extension: multi-tenant shared-L2 interference",
           "Victim (Village) vs L2-thrashing aggressor under each share "
           "policy (16KB L1 each, 1MB shared L2)");

    const uint32_t rounds = static_cast<uint32_t>(frames(12));

    auto baseConfig = [&](L2SharePolicy share) {
        MultiStreamConfig ms;
        ms.width = 320;
        ms.height = 240;
        ms.rounds = rounds;
        ms.l1_bytes = 16ull << 10;
        ms.l2_bytes = 1ull << 20;
        ms.share = share;
        ms.repartition_every = 2;
        ms.jobs = ThreadPool::defaultJobs();
        return ms;
    };
    auto victimSpec = [] {
        StreamSpec s;
        s.workload = "village";
        s.filter = FilterMode::Bilinear;
        return s;
    };
    auto thrasherSpec = [] {
        StreamSpec s;
        s.workload = kThrasherWorkload;
        s.filter = FilterMode::Bilinear;
        return s;
    };

    // Solo baseline: the victim alone owns the whole L2.
    MultiStreamConfig solo_cfg = baseConfig(L2SharePolicy::Shared);
    solo_cfg.streams.push_back(victimSpec());
    MultiStreamRunner solo(solo_cfg);
    solo.run({});
    const double solo_miss = solo.l2().streamStats(0).missRate();

    CsvWriter csv(csvPath("ext_multitenant.csv"),
                  {"policy", "victim_l2_miss_rate", "solo_l2_miss_rate",
                   "inflation", "victim_quota_blocks",
                   "victim_alloc_blocks", "victim_evictions_suffered",
                   "thrasher_cross_evictions", "victim_host_mb"});

    TextTable table({"policy", "victim L2 miss", "vs solo",
                     "victim quota", "stolen from victim"});

    double shared_miss = 0.0, utility_miss = 0.0;
    for (L2SharePolicy share :
         {L2SharePolicy::Shared, L2SharePolicy::Static,
          L2SharePolicy::Utility}) {
        MultiStreamConfig ms = baseConfig(share);
        ms.streams.push_back(victimSpec());
        ms.streams.push_back(thrasherSpec());
        MultiStreamRunner runner(ms);
        runner.run({});

        const L2StreamStats &victim = runner.l2().streamStats(0);
        const L2StreamStats &aggressor = runner.l2().streamStats(1);
        const double miss = victim.missRate();
        const double inflation = solo_miss > 0.0 ? miss / solo_miss : 0.0;
        if (share == L2SharePolicy::Shared)
            shared_miss = miss;
        if (share == L2SharePolicy::Utility)
            utility_miss = miss;

        table.addRow({l2SharePolicyName(share), formatPercent(miss, 2),
                      formatDouble(inflation, 2) + "x",
                      std::to_string(runner.l2().quotas()[0]),
                      std::to_string(aggressor.cross_evictions)});
        csv.rowStrings(
            {l2SharePolicyName(share), formatDouble(miss, 6),
             formatDouble(solo_miss, 6), formatDouble(inflation, 4),
             std::to_string(runner.l2().quotas()[0]),
             std::to_string(runner.l2().streamAllocated(0)),
             std::to_string(victim.evictions_suffered),
             std::to_string(aggressor.cross_evictions),
             formatDouble(mb(runner.sim(0).totals().host_bytes), 4)});
    }

    std::printf("solo victim L2 miss rate: %s\n",
                formatPercent(solo_miss, 2).c_str());
    table.print();

    const bool isolated = utility_miss <= solo_miss * 1.10;
    std::printf("isolation verdict: utility policy %s (%.4f vs solo "
                "%.4f, shared inflates to %.4f)\n",
                isolated ? "CONTAINS the thrasher" : "FAILS to contain",
                utility_miss, solo_miss, shared_miss);
    wroteCsv(csv);
    return isolated ? 0 : 1;
}
