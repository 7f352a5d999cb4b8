/**
 * @file
 * Computation graph container with builder helpers for both static
 * operators and the paper's switch / merge / sink dynamic operators.
 */

#ifndef ADYNA_GRAPH_GRAPH_HH
#define ADYNA_GRAPH_GRAPH_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "graph/op.hh"

namespace adyna::graph {

/**
 * A directed acyclic graph of operators. Node identifiers are stable
 * indices into an internal vector; edges are recorded as per-node
 * input lists with a lazily built successor index.
 */
class Graph
{
  public:
    explicit Graph(std::string name = {});

    const std::string &name() const { return name_; }

    /** Number of nodes. */
    std::size_t size() const { return nodes_.size(); }

    /** Node access; @p id must be valid. */
    const OpNode &node(OpId id) const;
    OpNode &node(OpId id);

    /** All nodes in insertion order. */
    const std::vector<OpNode> &nodes() const { return nodes_; }

    // --- builder API -----------------------------------------------

    /** Add a graph input producing a tensor of the given dims. */
    OpId addInput(const std::string &name, const LoopDims &dims,
                  int dtype_bytes = 2);

    /** Add a dense convolution. */
    OpId addConv(const std::string &name, OpId input,
                 const LoopDims &dims, int stride = 1);

    /** Add a matmul / fully-connected operator. */
    OpId addMatMul(const std::string &name, OpId input, std::int64_t k,
                   std::int64_t c);

    /** Add a fusable epilogue op (Eltwise/Pool/Act/Norm/Softmax). */
    OpId addFusable(const std::string &name, OpKind kind,
                    std::vector<OpId> inputs, const LoopDims &dims,
                    int stride = 1);

    /**
     * Add a switch operator splitting @p input along the batch
     * dimension according to @p policy. @p mask, if valid, is the
     * operator producing the routing mask (a data dependency; its
     * compute cost is part of the model, Section IV).
     */
    OpId addSwitch(const std::string &name, OpId input,
                   const RoutingPolicy &policy, OpId mask = kInvalidOp);

    /**
     * Add a merge joining the given branch tails back into one
     * tensor (concatenation along the dynamic dimension).
     */
    OpId addMerge(const std::string &name, std::vector<OpId> inputs);

    /**
     * Add a merge that also restores a pre-fold batch extent
     * (unfoldsBatch = true) with explicit output dims.
     */
    OpId addUnfoldMerge(const std::string &name, std::vector<OpId> inputs,
                        const LoopDims &out_dims);

    /** Add a sink that discards its input. */
    OpId addSink(const std::string &name, OpId input, int branch = -1);

    /** Add a graph output consuming @p input. */
    OpId addOutput(const std::string &name, OpId input);

    /** Add a fully specified node (advanced; used by transforms). */
    OpId addNode(OpNode node);

    /**
     * Record that @p consumer reads branch @p branch of switch
     * @p switch_op (instead of its whole output).
     */
    void connectBranch(OpId switch_op, int branch, OpId consumer);

    // --- queries ----------------------------------------------------

    /** Successor node ids of @p id (consumers of its output). */
    std::vector<OpId> successors(OpId id) const;

    /** Topological order of all node ids; fatal() if cyclic. */
    std::vector<OpId> topoOrder() const;

    /** Ids of Output nodes. */
    std::vector<OpId> outputIds() const;

    /** Total worst-case MACs over all compute nodes. */
    std::int64_t totalMacs() const;

    /** Total weight bytes over all compute nodes. */
    Bytes totalWeightBytes() const;

    /**
     * Structural validation: edges in range, acyclic, switches have
     * >= 2 branches, merges >= 1 input, dims positive. fatal() with a
     * diagnostic on the first violation.
     */
    void validate() const;

  private:
    std::string name_;
    std::vector<OpNode> nodes_;
};

} // namespace adyna::graph

#endif // ADYNA_GRAPH_GRAPH_HH
