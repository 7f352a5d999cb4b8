/**
 * @file
 * Authoring a custom hybrid DynNN with the unified representation
 * (Section IV): a vision model combining patch selection (dynamic
 * region), a mixture-of-experts layer (dynamic routing), and an
 * early exit (dynamic depth). The example prints the parsed dynamic
 * operator graph, exports Graphviz DOT, and simulates it.
 *
 *   ./examples/custom_model [--dot out.dot] [--batches N]
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "baselines/designs.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "graph/dot.hh"
#include "graph/parser.hh"
#include "graph/transforms.hh"

using namespace adyna;
using graph::LoopDims;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const auto batches = static_cast<int>(args.getInt("batches", 80));
    const std::int64_t batch = args.getInt("batch", 64);
    const std::string dotPath = args.getString("dot", "");
    args.rejectUnread();
    constexpr std::int64_t kPatches = 16;
    constexpr std::int64_t kHidden = 256;
    const std::int64_t rows = batch * kPatches;

    graph::Graph g("custom-hybrid");

    // Patch-folded input: every image contributes 16 patch rows.
    OpId in = g.addInput("patches", LoopDims::matmul(rows, 768, 768));
    OpId emb = g.addMatMul("embed", in, kHidden, 768);

    // 1. Dynamic region: keep ~half the patches per image.
    OpId select = graph::addPatchSelect(g, "select", emb, 0.5, 0);
    g.node(select).policy.unitsPerSample = kPatches;

    OpId body = graph::buildBranch(g, select, 0, [&](graph::Graph &gg,
                                                     OpId s) {
        // 2. Dynamic routing: a 4-expert MoE over the kept rows.
        OpId moe = graph::addMoE(
            gg, "moe", s, /*experts=*/4, /*top_k=*/1,
            /*bias=*/{2.0, 1.5, 1.0, 0.5},
            [&](graph::Graph &g2, OpId sw) {
                OpId up = g2.addMatMul("moe.up", sw, 4 * kHidden,
                                       kHidden);
                return g2.addMatMul("moe.down", up, kHidden,
                                    4 * kHidden);
            });
        return gg.addMatMul("mixer", moe, kHidden, kHidden);
    });

    // Aggregate patch rows back to one row per image.
    OpId agg = g.addUnfoldMerge("aggregate", {body},
                                LoopDims::matmul(batch, kHidden,
                                                 kHidden));

    // 3. Dynamic depth: easy images exit before the refinement layer.
    OpId exitSw = graph::addEarlyExit(g, "gate", agg, 10, 0.45, 1);
    OpId refined = graph::buildBranch(
        g, exitSw, 1, [&](graph::Graph &gg, OpId s) {
            return gg.addMatMul("refine", s, kHidden, kHidden);
        });
    OpId head = g.addMatMul("head", refined, 10, kHidden);
    g.addOutput("logits", head);

    // Parse and inspect.
    const graph::DynGraph dg = graph::parseModel(g);
    std::printf("%s\n", dg.summary().c_str());

    if (!dotPath.empty()) {
        std::ofstream out(dotPath);
        out << graph::toDot(dg);
        std::printf("Wrote Graphviz DOT to %s\n\n", dotPath.c_str());
    }

    // Simulate.
    trace::TraceConfig cfg;
    cfg.batchSize = batch;
    const arch::HwConfig hw;
    TextTable t("Hybrid model on every design (" +
                std::to_string(batches) + " batches)");
    t.header({"design", "time (ms)", "PE util"});
    for (auto d : baselines::allDesigns()) {
        auto sys = baselines::makeSystem(dg, cfg, hw, d, batches, 3);
        const auto rep = sys.run();
        t.row({rep.design, TextTable::num(rep.timeMs, 2),
               TextTable::pct(rep.peUtilization)});
    }
    t.print(std::cout);
    return 0;
}
