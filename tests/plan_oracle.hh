/**
 * @file
 * Reference for core::Engine's segment planner: per-stage DFS
 * producer resolution through switch/merge nodes, plus an
 * all-segments consumer scan for the DRAM write-out flag. It keeps no
 * producer index and no cache, so it shares none of the production
 * planner's shortcuts; only the plan rule is the same.
 */

#ifndef ADYNA_TESTS_PLAN_ORACLE_HH
#define ADYNA_TESTS_PLAN_ORACLE_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/engine.hh"
#include "core/schedule.hh"
#include "costmodel/cost.hh"
#include "costmodel/tech.hh"
#include "graph/dyngraph.hh"

namespace adyna::oracle {

/** Resolve the compute/input producers of @p op through routing
 * nodes, in DFS discovery order. */
inline void
resolveProducers(const graph::DynGraph &dg, OpId op, bool crossed,
                 std::vector<std::pair<OpId, bool>> &out,
                 std::vector<char> &visited)
{
    using graph::OpKind;
    const graph::OpNode &node = dg.graph().node(op);
    for (OpId in : node.inputs) {
        if (visited[in])
            continue;
        visited[in] = 1;
        const graph::OpNode &p = dg.graph().node(in);
        if (p.kind == OpKind::Switch || p.kind == OpKind::Merge) {
            resolveProducers(dg, in, /*crossed=*/true, out, visited);
        } else if (p.kind == OpKind::Sink ||
                   p.kind == OpKind::Output) {
            // never a data producer
        } else {
            out.emplace_back(in, crossed);
        }
    }
}

/** Stage plans of segment @p seg_index of @p schedule, with
 * @p pipelining as ExecPolicy::pipelining. */
inline std::vector<core::Engine::StagePlan>
planSegment(const graph::DynGraph &dg,
            const costmodel::TechParams &tech, bool pipelining,
            const core::Schedule &schedule, std::size_t seg_index)
{
    using core::Engine;
    using graph::OpKind;
    using graph::OpNode;

    const auto perRowOutBytes = [](const OpNode &node,
                                   const graph::LoopDims &out_dims) {
        return static_cast<Bytes>(out_dims.k() * out_dims.p() *
                                  out_dims.q()) *
               node.dtypeBytes;
    };
    const auto perRowWork = [&tech](const OpNode &node) {
        if (graph::isCompute(node.kind))
            return costmodel::computeCyclesPerRow(node.dims, tech);
        return static_cast<double>(node.dims.k() * node.dims.p() *
                                   node.dims.q()) /
               static_cast<double>(tech.macsPerCycle());
    };

    const core::Segment &seg = *schedule.segments[seg_index];
    std::vector<Engine::StagePlan> plans(seg.stages.size());

    std::vector<char> visited(dg.graph().size(), 0);
    const auto resolve =
        [&](OpId op, std::vector<std::pair<OpId, bool>> &out) {
            std::fill(visited.begin(), visited.end(), 0);
            resolveProducers(dg, op, false, out, visited);
        };

    for (std::size_t si = 0; si < seg.stages.size(); ++si) {
        const OpId op = seg.stages[si].op;
        plans[si].perRowWork = perRowWork(dg.graph().node(op));
        std::vector<std::pair<OpId, bool>> producers;
        resolve(op, producers);
        for (const auto &[pid, crossed] : producers) {
            Engine::Edge e;
            e.producerOp = pid;
            e.producerStage = seg.stageOf(pid);
            e.crossesRouting = crossed;
            const OpNode &pnode = dg.graph().node(pid);
            const graph::LoopDims outDims =
                pnode.kind == OpKind::Input ? pnode.dims
                                            : dg.info(pid).outDims;
            e.perRowBytes = perRowOutBytes(pnode, outDims);
            plans[si].edges.push_back(e);
        }
    }

    // A stage writes to DRAM if any consumer resolves to it from
    // outside this segment (a later segment or a graph output), or
    // unconditionally without pipelining.
    for (std::size_t si = 0; si < seg.stages.size(); ++si) {
        if (!pipelining) {
            plans[si].writesOut = true;
            continue;
        }
        const OpId op = seg.stages[si].op;
        for (std::size_t s2 = 0; s2 < schedule.segments.size(); ++s2) {
            if (plans[si].writesOut)
                break;
            if (s2 == seg_index)
                continue;
            for (const core::StageAssign &st :
                 schedule.segments[s2]->stages) {
                std::vector<std::pair<OpId, bool>> producers;
                resolve(st.op, producers);
                for (const auto &[pid, crossed] : producers) {
                    (void)crossed;
                    if (pid == op) {
                        plans[si].writesOut = true;
                        break;
                    }
                }
                if (plans[si].writesOut)
                    break;
            }
        }
        for (OpId outId : dg.graph().outputIds()) {
            if (plans[si].writesOut)
                break;
            std::vector<std::pair<OpId, bool>> producers;
            resolve(outId, producers);
            for (const auto &[pid, crossed] : producers) {
                (void)crossed;
                if (pid == op)
                    plans[si].writesOut = true;
            }
        }
    }
    return plans;
}

} // namespace adyna::oracle

#endif // ADYNA_TESTS_PLAN_ORACLE_HH
