/**
 * @file
 * Quickstart: build a small dynamic-depth network with the switch /
 * merge API, parse it into a dynamic operator graph, and run it on
 * Adyna and on the worst-case M-tile baseline.
 *
 *   ./examples/quickstart [--batches N] [--batch B] [--seed S]
 */

#include <cstdio>
#include <iostream>

#include "baselines/designs.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "graph/parser.hh"
#include "graph/transforms.hh"

using namespace adyna;

namespace {

/**
 * A toy dynamic-depth CNN: stem conv, then two residual blocks that
 * each sample may skip, then a classifier. Easy samples skip both
 * blocks; hard samples run everything.
 */
graph::Graph
buildModel(std::int64_t batch)
{
    using graph::LoopDims;
    graph::Graph g("quickstart-dyncnn");

    OpId image =
        g.addInput("image", LoopDims::conv(batch, 3, 3, 64, 64, 1, 1));
    OpId stem = g.addConv(
        "stem", image, LoopDims::conv(batch, 32, 3, 32, 32, 3, 3), 2);

    OpId cur = stem;
    for (int i = 0; i < 2; ++i) {
        const std::string name = "block" + std::to_string(i);
        // addLayerSkip inserts the gate classifier, the switch, the
        // branch body, and the merge (Figure 5(c) of the paper).
        cur = graph::addLayerSkip(
            g, name, cur, /*skip_prob=*/0.4, /*gate_index=*/i,
            [&](graph::Graph &gg, OpId sw) {
                OpId c1 = gg.addConv(
                    name + ".conv1", sw,
                    LoopDims::conv(batch, 32, 32, 32, 32, 3, 3));
                OpId act = gg.addFusable(
                    name + ".relu", graph::OpKind::Act, {c1},
                    LoopDims::conv(batch, 32, 32, 32, 32, 1, 1));
                return gg.addConv(
                    name + ".conv2", act,
                    LoopDims::conv(batch, 32, 32, 32, 32, 3, 3));
            });
    }

    OpId gap = g.addFusable("gap", graph::OpKind::Pool, {cur},
                            LoopDims::conv(batch, 32, 32, 1, 1, 32, 32),
                            32);
    OpId fc = g.addMatMul("classifier", gap, 10, 32);
    g.addOutput("logits", fc);
    return g;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const auto batches = static_cast<int>(args.getInt("batches", 100));
    const auto batch = args.getInt("batch", 64);
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    args.rejectUnread();

    // 1. Build the user-level model and parse it (Section IV).
    graph::Graph model = buildModel(batch);
    const graph::DynGraph dg = graph::parseModel(model);
    std::printf("Parsed dynamic operator graph:\n%s\n",
                dg.summary().c_str());

    // 2. Describe the dynamism (this substitutes for a dataset).
    trace::TraceConfig traceCfg;
    traceCfg.batchSize = batch;

    // 3. Run on Adyna and on the worst-case M-tile baseline.
    const arch::HwConfig hw;
    TextTable t("Results (" + std::to_string(batches) + " batches of " +
                std::to_string(batch) + ")");
    t.header({"design", "time (ms)", "batches/s", "PE util",
              "energy (J)", "kernels stored"});
    double mtileMs = 0.0;
    for (auto design : {baselines::Design::MTile,
                        baselines::Design::AdynaStatic,
                        baselines::Design::Adyna}) {
        auto sys = baselines::makeSystem(dg, traceCfg, hw, design,
                                         batches, seed);
        const auto rep = sys.run();
        if (design == baselines::Design::MTile)
            mtileMs = rep.timeMs;
        t.row({rep.design, TextTable::num(rep.timeMs, 2),
               TextTable::num(rep.batchesPerSecond, 0),
               TextTable::pct(rep.peUtilization),
               TextTable::num(rep.energy.total() * 1e-12, 2),
               std::to_string(rep.storedKernels)});
    }
    t.print(std::cout);
    std::printf("\nAdyna speedup over the worst-case baseline comes "
                "from executing skipped blocks at their actual "
                "(smaller) batch sizes with fitted kernels and "
                "frequency-weighted tile allocation.\n");
    (void)mtileMs;
    return 0;
}
