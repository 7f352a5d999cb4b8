#include "graph/graph.hh"

#include <algorithm>

#include "common/logging.hh"

namespace adyna::graph {

Graph::Graph(std::string name) : name_(std::move(name)) {}

const OpNode &
Graph::node(OpId id) const
{
    ADYNA_ASSERT(id < nodes_.size(), "bad OpId ", id);
    return nodes_[id];
}

OpNode &
Graph::node(OpId id)
{
    ADYNA_ASSERT(id < nodes_.size(), "bad OpId ", id);
    return nodes_[id];
}

OpId
Graph::addNode(OpNode n)
{
    const OpId id = static_cast<OpId>(nodes_.size());
    n.id = id;
    if (n.inputBranch.size() != n.inputs.size())
        n.inputBranch.assign(n.inputs.size(), -1);
    nodes_.push_back(std::move(n));
    return id;
}

OpId
Graph::addInput(const std::string &name, const LoopDims &dims,
                int dtype_bytes)
{
    OpNode n;
    n.name = name;
    n.kind = OpKind::Input;
    n.dims = dims;
    n.dtypeBytes = dtype_bytes;
    return addNode(std::move(n));
}

OpId
Graph::addConv(const std::string &name, OpId input, const LoopDims &dims,
               int stride)
{
    OpNode n;
    n.name = name;
    n.kind = OpKind::Conv2d;
    n.dims = dims;
    n.stride = stride;
    n.inputs = {input};
    return addNode(std::move(n));
}

OpId
Graph::addMatMul(const std::string &name, OpId input, std::int64_t k,
                 std::int64_t c)
{
    const OpNode &producer = node(input);
    OpNode n;
    n.name = name;
    n.kind = OpKind::MatMul;
    n.dims = LoopDims::matmul(producer.dims.n(), k, c);
    n.inputs = {input};
    return addNode(std::move(n));
}

OpId
Graph::addFusable(const std::string &name, OpKind kind,
                  std::vector<OpId> inputs, const LoopDims &dims,
                  int stride)
{
    ADYNA_ASSERT(isFusable(kind), "addFusable with non-fusable kind ",
                 opKindName(kind));
    OpNode n;
    n.name = name;
    n.kind = kind;
    n.dims = dims;
    n.stride = stride;
    n.inputs = std::move(inputs);
    return addNode(std::move(n));
}

OpId
Graph::addSwitch(const std::string &name, OpId input,
                 const RoutingPolicy &policy, OpId mask)
{
    ADYNA_ASSERT(policy.numBranches >= 2,
                 "switch needs >= 2 branches, got ", policy.numBranches);
    OpNode n;
    n.name = name;
    n.kind = OpKind::Switch;
    n.dims = node(input).dims;
    n.inputs = {input};
    if (mask != kInvalidOp)
        n.inputs.push_back(mask);
    n.policy = policy;
    return addNode(std::move(n));
}

OpId
Graph::addMerge(const std::string &name, std::vector<OpId> inputs)
{
    ADYNA_ASSERT(!inputs.empty(), "merge needs inputs");
    OpNode n;
    n.name = name;
    n.kind = OpKind::Merge;
    n.dims = node(inputs.front()).dims;
    n.inputs = std::move(inputs);
    return addNode(std::move(n));
}

OpId
Graph::addUnfoldMerge(const std::string &name, std::vector<OpId> inputs,
                      const LoopDims &out_dims)
{
    const OpId id = addMerge(name, std::move(inputs));
    node(id).unfoldsBatch = true;
    node(id).dims = out_dims;
    return id;
}

OpId
Graph::addSink(const std::string &name, OpId input, int branch)
{
    OpNode n;
    n.name = name;
    n.kind = OpKind::Sink;
    n.dims = node(input).dims;
    n.inputs = {input};
    n.inputBranch = {branch};
    return addNode(std::move(n));
}

OpId
Graph::addOutput(const std::string &name, OpId input)
{
    OpNode n;
    n.name = name;
    n.kind = OpKind::Output;
    n.dims = node(input).dims;
    n.inputs = {input};
    return addNode(std::move(n));
}

void
Graph::connectBranch(OpId switch_op, int branch, OpId consumer)
{
    ADYNA_ASSERT(node(switch_op).kind == OpKind::Switch,
                 "connectBranch on non-switch node ", switch_op);
    ADYNA_ASSERT(branch >= 0 &&
                     branch < node(switch_op).policy.numBranches,
                 "branch index ", branch, " out of range");
    OpNode &c = node(consumer);
    for (std::size_t i = 0; i < c.inputs.size(); ++i) {
        if (c.inputs[i] == switch_op) {
            c.inputBranch[i] = branch;
            return;
        }
    }
    // Not yet an input: add the edge.
    c.inputs.push_back(switch_op);
    c.inputBranch.push_back(branch);
}

std::vector<OpId>
Graph::successors(OpId id) const
{
    std::vector<OpId> out;
    for (const OpNode &n : nodes_)
        for (OpId in : n.inputs)
            if (in == id)
                out.push_back(n.id);
    return out;
}

std::vector<OpId>
Graph::topoOrder() const
{
    std::vector<int> indeg(nodes_.size(), 0);
    for (const OpNode &n : nodes_)
        indeg[n.id] = static_cast<int>(n.inputs.size());

    // Successor adjacency built once for O(V + E) traversal.
    std::vector<std::vector<OpId>> succ(nodes_.size());
    for (const OpNode &n : nodes_)
        for (OpId in : n.inputs)
            succ[in].push_back(n.id);

    std::vector<OpId> frontier;
    for (const OpNode &n : nodes_)
        if (indeg[n.id] == 0)
            frontier.push_back(n.id);

    std::vector<OpId> order;
    order.reserve(nodes_.size());
    while (!frontier.empty()) {
        const OpId id = frontier.back();
        frontier.pop_back();
        order.push_back(id);
        for (OpId next : succ[id])
            if (--indeg[next] == 0)
                frontier.push_back(next);
    }
    if (order.size() != nodes_.size())
        ADYNA_FATAL("graph '", name_, "' contains a cycle");
    return order;
}

std::vector<OpId>
Graph::outputIds() const
{
    std::vector<OpId> out;
    for (const OpNode &n : nodes_)
        if (n.kind == OpKind::Output)
            out.push_back(n.id);
    return out;
}

std::int64_t
Graph::totalMacs() const
{
    std::int64_t total = 0;
    for (const OpNode &n : nodes_)
        total += n.macs();
    return total;
}

Bytes
Graph::totalWeightBytes() const
{
    Bytes total = 0;
    for (const OpNode &n : nodes_)
        total += n.weightBytes();
    return total;
}

void
Graph::validate() const
{
    for (const OpNode &n : nodes_) {
        if (!n.dims.valid())
            ADYNA_FATAL("op '", n.name, "' has non-positive dims ",
                        n.dims.str());
        if (n.inputs.size() != n.inputBranch.size())
            ADYNA_FATAL("op '", n.name,
                        "' has mismatched inputs/inputBranch sizes");
        for (OpId in : n.inputs) {
            if (in >= nodes_.size())
                ADYNA_FATAL("op '", n.name, "' references bad input ", in);
            if (in == n.id)
                ADYNA_FATAL("op '", n.name, "' is self-referential");
        }
        if (n.kind == OpKind::Switch) {
            if (n.policy.numBranches < 2)
                ADYNA_FATAL("switch '", n.name, "' has < 2 branches");
            if (n.inputs.empty())
                ADYNA_FATAL("switch '", n.name, "' has no input");
        }
        if (n.kind == OpKind::Merge && n.inputs.empty())
            ADYNA_FATAL("merge '", n.name, "' has no inputs");
        if (n.kind == OpKind::Input && !n.inputs.empty())
            ADYNA_FATAL("input '", n.name, "' must not have producers");
    }
    topoOrder(); // fatal() on cycles
}

} // namespace adyna::graph
