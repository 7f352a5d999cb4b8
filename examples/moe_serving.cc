/**
 * @file
 * MoE serving scenario: Tutel-MoE under drifting expert popularity
 * (the request mix changes over the day). Shows the profiler ->
 * scheduler feedback loop at work: as drift grows, the static
 * schedule degrades while Adyna's periodic re-allocation and kernel
 * re-sampling (every 40 batches) keep tracking the distribution.
 *
 *   ./examples/moe_serving [--batches N] [--seed S]
 */

#include <cstdio>
#include <iostream>

#include "baselines/designs.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "graph/parser.hh"
#include "models/models.hh"

using namespace adyna;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const auto batches = static_cast<int>(args.getInt("batches", 360));
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 11));
    args.rejectUnread();

    models::ModelBundle bundle = models::buildTutelMoe(128);
    const graph::DynGraph dg = graph::parseModel(bundle.graph);

    std::printf("Tutel-MoE serving: %zu ops, %zu MoE layers with 8 "
                "experts each (top-2 routing); expert popularity "
                "re-drawn every 120 batches.\n\n",
                dg.graph().size(), dg.switches().size());

    const arch::HwConfig hw;
    TextTable t("Static schedule vs adaptive Adyna as expert "
                "popularity drift grows (" +
                std::to_string(batches) + " batches)");
    t.header({"drift strength", "Adyna (static) ms", "Adyna ms",
              "adaptive gain", "reconfigs"});
    for (double drift : {0.0, 0.3, 0.6, 0.9}) {
        trace::TraceConfig cfg = bundle.traceConfig;
        cfg.driftStrength = drift;
        cfg.driftPeriod = 120;

        auto statSys = baselines::makeSystem(
            dg, cfg, hw, baselines::Design::AdynaStatic, batches,
            seed);
        auto dynSys = baselines::makeSystem(
            dg, cfg, hw, baselines::Design::Adyna, batches, seed);
        const auto stat = statSys.run();
        const auto dyn = dynSys.run();
        t.row({TextTable::num(drift, 1), TextTable::num(stat.timeMs, 1),
               TextTable::num(dyn.timeMs, 1),
               TextTable::mult(stat.timeMs / dyn.timeMs),
               std::to_string(dyn.reconfigurations)});
    }
    t.print(std::cout);
    std::printf("\nThe adaptive gain grows with drift: the static "
                "schedule's initial profile and kernel set go stale, "
                "while Adyna re-reads the hardware profiler's "
                "frequency tables, re-balances the expert tiles "
                "(including the tile-sharing ratios), and re-samples "
                "the kernel values every 40 batches.\n");
    return 0;
}
