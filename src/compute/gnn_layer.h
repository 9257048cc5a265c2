/**
 * @file
 * Abstract GNN layer: aggregation (Eq. 1) + update (Eq. 2) over one
 * sampled LayerBlock, with exact backward passes for training.
 */
#pragma once

#include <string>
#include <vector>

#include "compute/kernel_engine.h"
#include "compute/tensor.h"
#include "sample/minibatch.h"

namespace fastgl {
namespace compute {

/** One GNN layer with stateful forward/backward (stores its context). */
class GnnLayer
{
  public:
    virtual ~GnnLayer() = default;

    /**
     * Run this layer's kernels on @p engine (non-owning; must outlive
     * the layer). Null restores the shared sequential engine. Results
     * are bit-identical at any engine width.
     */
    void
    set_engine(KernelEngine *engine)
    {
        engine_ = engine ? engine : &KernelEngine::sequential();
    }

    /**
     * Forward pass over @p block. The layer writes its aggregation and
     * its output once, into tensors it keeps for backward and reshapes
     * in place every call (docs/compute_kernels.md, "What forward
     * keeps").
     * @param input features of all source local IDs ([src_rows x in_dim];
     *        target local IDs index into the same rows). Read in place
     *        during the call; the layer keeps no reference to it.
     * @return output features [block.num_targets() x out_dim()], the
     *         layer's own tensor: valid until this layer's next forward
     *         (or its destruction). Copy it to keep it longer.
     */
    virtual const Tensor &forward(const sample::LayerBlock &block,
                                  const Tensor &input) = 0;

    /**
     * Backward pass; must follow the matching forward. Accumulates every
     * parameter gradient.
     * @param block           the block the matching forward ran on
     * @param grad_output     gradient w.r.t. the forward output. Taken
     *        by value and masked in place, so a caller that moves it in
     *        copies nothing.
     * @param need_input_grad false skips the kernels that only produce
     *        the input gradient (a model's input-side layer, whose input
     *        is the raw features); parameter gradients are bit-identical
     *        either way
     * @return gradient w.r.t. the forward input (same rows as input),
     *         or an empty Tensor when @p need_input_grad is false
     */
    Tensor
    backward(const sample::LayerBlock &block, Tensor grad_output,
             bool need_input_grad = true)
    {
        return backward_impl(block, grad_output, need_input_grad);
    }

    /** Trainable parameters (value + grad pairs). */
    virtual std::vector<Parameter *> parameters() = 0;

    virtual int64_t in_dim() const = 0;
    virtual int64_t out_dim() const = 0;
    virtual std::string name() const = 0;

  protected:
    /** backward() without its default argument (see there);
     *  @p grad_output is the call's own tensor, free to mask in place. */
    virtual Tensor backward_impl(const sample::LayerBlock &block,
                                 Tensor &grad_output,
                                 bool need_input_grad) = 0;

    /** Kernel engine the forward/backward passes run on. */
    KernelEngine *engine_ = &KernelEngine::sequential();
};

} // namespace compute
} // namespace fastgl
