/**
 * @file
 * Umbrella header: the FastGL public API.
 *
 * FastGL is a GPU-efficient framework for sampling-based GNN training at
 * large scale (ASPLOS'24). This reproduction implements the full system on
 * a deterministic device model:
 *
 *  - fastgl::graph   — CSR graphs, generators, dataset replicas
 *  - fastgl::sim     — RTX-3090 device model (caches, PCIe, kernels)
 *  - fastgl::sample  — k-hop / random-walk samplers, Fused-Map ID mapping
 *  - fastgl::match   — Match-Reorder transfer planning, feature caches
 *  - fastgl::store   — feature residency charge, out-of-core NVMe tier
 *  - fastgl::compute — GCN/GIN/GAT numerics + Memory-Aware cost model
 *  - fastgl::core    — framework presets, epoch pipeline, trainer
 *  - fastgl::serve   — online inference serving (batching, SLO control)
 *  - fastgl::prof    — deterministic per-stage pipeline profiler
 */
#pragma once

#include "compute/a3.h"
#include "compute/aggregate.h"
#include "compute/cache_replay.h"
#include "compute/compute_cost.h"
#include "compute/gnn_model.h"
#include "compute/kernel_engine.h"
#include "compute/loss.h"
#include "compute/metrics.h"
#include "compute/optimizer.h"
#include "core/async_pipeline.h"
#include "core/framework_config.h"
#include "core/memory_estimator.h"
#include "core/multi_gpu.h"
#include "core/pipeline.h"
#include "core/timeline.h"
#include "core/trainer.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "match/feature_cache.h"
#include "match/match.h"
#include "match/partitioned_cache.h"
#include "match/reorder.h"
#include "prof/profiler.h"
#include "sample/batch_splitter.h"
#include "sample/neighbor_sampler.h"
#include "sample/random_walk_sampler.h"
#include "serve/autoscaler.h"
#include "serve/load_generator.h"
#include "serve/server.h"
#include "sim/gpu_spec.h"
#include "sim/peer_link.h"
#include "sim/roofline.h"
#include "sim/storage_link.h"
#include "store/feature_layout.h"
#include "store/io_scheduler.h"
#include "store/prefetcher.h"
#include "store/residency.h"
#include "store/tiered_store.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/table.h"
