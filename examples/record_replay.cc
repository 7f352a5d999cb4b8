/**
 * @file
 * Record / replay workflow: capture a routing trace (in deployment
 * this would come from the hardware profiler observing real
 * requests), save it to a portable text file, and replay it through
 * the simulator. Replayed runs are exactly reproducible and let
 * different design points be compared on the *same* request stream
 * -- or let users evaluate Adyna on routing decisions dumped from a
 * real DynNN serving system.
 *
 *   ./examples/record_replay [--trace /tmp/trace.txt] [--batches N]
 */

#include <cstdio>
#include <iostream>

#include "baselines/designs.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "graph/parser.hh"
#include "models/models.hh"
#include "trace/replay.hh"

using namespace adyna;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const auto batches = static_cast<int>(args.getInt("batches", 80));
    const std::string path =
        args.getString("trace", "/tmp/adyna_demo_trace.txt");
    args.rejectUnread();

    models::ModelBundle bundle = models::buildSkipNet(64);
    const graph::DynGraph dg = graph::parseModel(bundle.graph);
    trace::TraceConfig cfg = bundle.traceConfig;
    cfg.batchSize = 64;

    // 1. Record: capture a routing stream and persist it.
    trace::TraceGenerator gen(dg, cfg, /*seed=*/21);
    const auto recorded = trace::captureTrace(gen, batches);
    trace::saveTraceFile(path, recorded);
    std::printf("Recorded %d batches of routing decisions to %s\n\n",
                batches, path.c_str());

    // 2. Replay the identical stream through several design points.
    const auto replayed = trace::loadTraceFile(path);
    const arch::HwConfig hw;
    TextTable t("Designs compared on the SAME recorded request "
                "stream");
    t.header({"design", "time (ms)", "PE util"});
    for (auto d : {baselines::Design::MTile,
                   baselines::Design::AdynaStatic,
                   baselines::Design::Adyna}) {
        auto sys = baselines::makeSystem(dg, cfg, hw, d, batches, 21);
        sys.setReplay(replayed);
        const auto rep = sys.run();
        t.row({rep.design, TextTable::num(rep.timeMs, 2),
               TextTable::pct(rep.peUtilization)});
    }
    t.print(std::cout);

    // 3. Replays are bit-identical across runs.
    auto again = baselines::makeSystem(
        dg, cfg, hw, baselines::Design::Adyna, batches, 21);
    again.setReplay(replayed);
    auto once = baselines::makeSystem(
        dg, cfg, hw, baselines::Design::Adyna, batches, 21);
    once.setReplay(replayed);
    const bool identical = again.run().cycles == once.run().cycles;
    std::printf("\nReplay determinism: %s\n",
                identical ? "identical cycle counts" : "MISMATCH");
    return identical ? 0 : 1;
}
