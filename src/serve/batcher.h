/**
 * @file
 * Dynamic micro-batching of concurrent inference requests.
 *
 * Single requests waste a GPU: every dispatch pays the PCIe launch
 * latency and kernel launch overheads, and overlapping ego-nets are
 * sampled and shipped once per request. The DynamicBatcher coalesces
 * requests that arrive close together into one micro-batch under the
 * classic max-batch / max-wait policy (close the batch when it is full
 * OR when its oldest member has waited long enough), and the Server
 * deduplicates the union of their ego-nets through an IdMap so
 * shared neighbours cross PCIe once.
 *
 * The batcher runs entirely on the virtual clock inside the serving
 * sequencer: all decisions depend on arrival times and the policy,
 * never on host threads, so batch compositions are deterministic.
 */
#pragma once

#include <limits>
#include <vector>

#include "sample/minibatch.h"
#include "serve/request.h"

namespace fastgl {
namespace serve {

/** Close-the-batch policy. */
struct BatcherPolicy
{
    /** Close as soon as this many requests are waiting (>= 1). */
    int max_batch = 32;
    /**
     * Close when the oldest waiting request has aged this long
     * (virtual seconds). 0 disables coalescing: every request
     * dispatches alone, the no-batching baseline.
     */
    double max_wait = 2e-3;
};

/** One admitted request together with its pre-sampled ego-net. */
struct PendingRequest
{
    InferenceRequest request;
    sample::SampledSubgraph subgraph;
};

/** Accumulates admitted requests until the policy closes the batch. */
class DynamicBatcher
{
  public:
    explicit DynamicBatcher(BatcherPolicy policy);

    /** Admit one request at virtual time @p now (opens a batch if idle). */
    void admit(PendingRequest pending, double now);

    bool empty() const { return pending_.empty(); }
    size_t size() const { return pending_.size(); }

    /** True once the size trigger fired (dispatch immediately). */
    bool
    full() const
    {
        return static_cast<int>(pending_.size()) >= policy_.max_batch;
    }

    /**
     * Virtual time at which the wait trigger fires for the current
     * batch; +infinity while the batcher is idle.
     */
    double
    close_time() const
    {
        return pending_.empty()
                   ? std::numeric_limits<double>::infinity()
                   : opened_at_ + policy_.max_wait;
    }

    /** Close the batch: hand over its members (admission order). */
    std::vector<PendingRequest> take();

  private:
    BatcherPolicy policy_;
    std::vector<PendingRequest> pending_;
    double opened_at_ = 0.0; ///< Arrival of the oldest member.
};

} // namespace serve
} // namespace fastgl
